#include "rtw/svc/server.hpp"

#include <utility>

namespace rtw::svc {

// ---------------------------------------------------------- Connection

Connection::Connection(Server& server, std::uint64_t id,
                       std::size_t max_frame_bytes)
    : server_(server), id_(id), decoder_(max_frame_bytes) {}

bool Connection::on_bytes(std::string_view bytes) {
  if (dead_.load(std::memory_order_acquire)) return false;
  decoder_.push(bytes);
  return pump();
}

void Connection::finish_input() {
  if (input_finished_.exchange(true, std::memory_order_acq_rel)) return;
  // Truncate-close everything the client left open.  Closes enqueue on
  // the control plane (never shed), and each session's verdict flows back
  // through the report sink like any other close.
  std::vector<SessionId> open_globals;
  {
    std::lock_guard lock(mutex_);
    for (auto& [client, owned] : sessions_) {
      if (!owned.close_sent) {
        owned.close_sent = true;
        open_globals.push_back(owned.global);
      }
    }
  }
  for (SessionId global : open_globals)
    server_.manager().close(global, core::StreamEnd::Truncated);
}

bool Connection::retry_pending() {
  if (!paused_.load(std::memory_order_acquire)) return true;
  return pump() && !paused_.load(std::memory_order_acquire);
}

bool Connection::pump() {
  // The parked event goes first: per-session order must hold.
  if (pending_) {
    Pending p = std::move(*pending_);
    pending_.reset();
    paused_.store(false, std::memory_order_release);
    if (!submit_symbols(p.client, std::move(p.run))) return !dead();
    if (paused()) return true;  // re-parked; events stay queued
  }
  WireEvent event;
  while (decoder_.next(event)) {
    if (!apply_event(event)) return !dead();
    if (paused()) return true;
  }
  if (!decoder_.ok()) {
    fail_stream("wire: " + decoder_.error() + " (" +
                to_string(decoder_.error_code()) + ")");
    return false;
  }
  return true;
}

bool Connection::apply_event(WireEvent& event) {
  switch (event.kind) {
    case WireEvent::Kind::Hello: {
      // Select the highest version both sides speak.  A client whose
      // floor is above ours is a framing-level mismatch: fail fast
      // rather than silently dropping its notifications.
      if (event.version_min > kWireVersion) {
        fail_stream("wire: client requires protocol version " +
                    std::to_string(event.version_min) + ", server speaks " +
                    std::to_string(kWireVersion));
        return false;
      }
      const std::uint8_t chosen =
          event.version_max < kWireVersion ? event.version_max : kWireVersion;
      version_.store(chosen, std::memory_order_release);
      queue_output(encode_hello_ack(chosen));
      return true;
    }
    case WireEvent::Kind::Open:
    case WireEvent::Kind::SubmitQuery: {
      {
        std::lock_guard lock(mutex_);
        if (sessions_.count(event.session)) {
          ++stats_.dup_opens;  // duplicated frame; manager-style tolerance
          return true;
        }
      }
      const SessionId global = server_.allocate_session();
      // An Open names a profile for the server's factory; a SubmitQuery
      // carries an inline query (already syntax-checked by the Decoder)
      // compiled into a per-session acceptor.  Both refuse identically:
      // a CompileLimits hit is the query-plane twin of an unknown
      // profile, not a framing error.
      auto acceptor =
          event.kind == WireEvent::Kind::SubmitQuery
              ? server_.manager().build_query_acceptor(global, event.profile)
              : (server_.factory_ ? server_.factory_(global, event.profile)
                                  : nullptr);
      if (!acceptor) {
        std::lock_guard lock(mutex_);
        ++stats_.refused_opens;
        if (version() >= 1)
          output_ += encode_shed(event.session,
                                 AdmitResult{Admit::Shed, ShedReason::None},
                                 0);
        return true;
      }
      // Owner first, then the session maps, then the manager: a verdict
      // cannot arrive before open() runs, and open() runs last.
      server_.register_owner(global, shared_from_this());
      {
        std::lock_guard lock(mutex_);
        sessions_.emplace(event.session, Owned{global, false});
        remap_.emplace(global, event.session);
        ++stats_.opens;
      }
      server_.manager().open(global, std::move(acceptor), event.priority);
      return true;
    }
    case WireEvent::Kind::Symbols:
      return submit_symbols(event.session, std::move(event.symbols));
    case WireEvent::Kind::Close: {
      SessionId global = 0;
      {
        std::lock_guard lock(mutex_);
        const auto it = sessions_.find(event.session);
        if (it == sessions_.end() || it->second.close_sent) {
          ++stats_.unknown_frames;
          return true;
        }
        it->second.close_sent = true;
        global = it->second.global;
      }
      server_.manager().close(global, event.end);
      return true;
    }
    default:
      // Server->client notifications arriving *at* the server are a peer
      // speaking the wrong role; tolerate like other semantic noise.
      {
        std::lock_guard lock(mutex_);
        ++stats_.unknown_frames;
      }
      return true;
  }
}

bool Connection::submit_symbols(SessionId client,
                                std::vector<core::TimedSymbol> run) {
  SessionId global = 0;
  {
    std::lock_guard lock(mutex_);
    const auto it = sessions_.find(client);
    if (it == sessions_.end() || it->second.close_sent) {
      ++stats_.unknown_frames;
      return true;
    }
    global = it->second.global;
  }
  const std::uint64_t symbols = run.size();
  // feed_batch consumes the run; keep a copy only when Blocked verdicts
  // are possible (shed_on_full off) so the event can be parked intact.
  std::vector<core::TimedSymbol> retry_copy;
  const bool may_block = !server_.config().ingress.shed_on_full;
  if (may_block) retry_copy = run;
  const AdmitResult admitted =
      server_.manager().feed_batch(global, std::move(run));
  switch (admitted.admit) {
    case Admit::Accepted:
      return true;
    case Admit::Shed: {
      std::lock_guard lock(mutex_);
      ++stats_.sheds;
      if (version() >= 1)
        output_ += encode_shed(client, admitted, symbols);
      return true;
    }
    case Admit::Blocked:
      // Park the event; the transport pauses reads and retries when the
      // rings drain.  This is the reactor-safe form of apply()'s spin.
      pending_ = Pending{client, std::move(retry_copy)};
      paused_.store(true, std::memory_order_release);
      return true;
  }
  return true;
}

void Connection::deliver_report(SessionId client, const SessionReport& report) {
  std::lock_guard lock(mutex_);
  sessions_.erase(client);
  remap_.erase(report.id);
  ++stats_.verdicts;
  if (version() >= 1)
    output_ += encode_verdict(client, report.verdict, report.result.exact,
                              report.evicted, report.fed,
                              report.stale_dropped);
}

std::size_t Connection::take_output(std::string& out, std::size_t max_bytes) {
  std::lock_guard lock(mutex_);
  const std::size_t n = output_.size() < max_bytes ? output_.size() : max_bytes;
  if (n == 0) return 0;
  out.append(output_, 0, n);
  output_.erase(0, n);
  return n;
}

void Connection::push_front_output(std::string_view bytes) {
  std::lock_guard lock(mutex_);
  output_.insert(0, bytes);
}

std::size_t Connection::output_size() const {
  std::lock_guard lock(mutex_);
  return output_.size();
}

bool Connection::complete() const {
  if (!input_finished_.load(std::memory_order_acquire)) return false;
  std::lock_guard lock(mutex_);
  return sessions_.empty() && output_.empty();
}

std::size_t Connection::owned_sessions() const {
  std::lock_guard lock(mutex_);
  return sessions_.size();
}

ConnectionStats Connection::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void Connection::queue_output(std::string frame) {
  std::lock_guard lock(mutex_);
  output_ += frame;
}

void Connection::fail_stream(std::string message) {
  error_ = std::move(message);
  dead_.store(true, std::memory_order_release);
  pending_.reset();
  paused_.store(false, std::memory_order_release);
}

// -------------------------------------------------------------- Server

Server::Server(ServerConfig config, AcceptorFactory factory)
    : config_(std::move(config)),
      factory_(std::move(factory)),
      manager_(config_) {
  manager_.set_report_sink(
      [this](const SessionReport& report) { return on_report(report); });
}

Server::~Server() {
  // Drain with the sink still wired so wire-owned verdicts are consumed,
  // then unhook it: nothing may call back into a half-destroyed server.
  shutdown();
  manager_.set_report_sink(nullptr);
}

std::shared_ptr<Connection> Server::connect() {
  const std::uint64_t id =
      next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  // make_shared needs a public ctor; std::shared_ptr + new keeps it private.
  std::shared_ptr<Connection> conn(
      new Connection(*this, id, config_.net.max_frame_bytes));
  std::lock_guard lock(mutex_);
  connections_.emplace(id, conn);
  return conn;
}

void Server::disconnect(const std::shared_ptr<Connection>& conn) {
  if (!conn) return;
  std::vector<SessionId> live;
  {
    std::lock_guard conn_lock(conn->mutex_);
    for (auto& [client, owned] : conn->sessions_) {
      if (!owned.close_sent) {
        owned.close_sent = true;
        live.push_back(owned.global);
      }
    }
  }
  {
    std::lock_guard lock(mutex_);
    connections_.erase(conn->id_);
    // Tombstone the owner entries: in-flight and upcoming verdicts for
    // this connection are consumed and dropped, not queued for collect().
    std::lock_guard conn_lock(conn->mutex_);
    for (const auto& [global, client] : conn->remap_) {
      const auto it = owners_.find(global);
      if (it != owners_.end()) it->second = nullptr;
    }
  }
  for (SessionId global : live)
    manager_.close(global, core::StreamEnd::Truncated);
}

void Server::shutdown() {
  // Truncate-close every live session.  Wire-owned verdicts flow into
  // their connections' output buffers via the sink; the transport
  // flushes them during its own drain.
  manager_.shutdown(core::StreamEnd::Truncated);
}

std::size_t Server::connection_count() const {
  std::lock_guard lock(mutex_);
  return connections_.size();
}

bool Server::on_report(const SessionReport& report) {
  std::shared_ptr<Connection> conn;
  SessionId client = 0;
  {
    std::lock_guard lock(mutex_);
    const auto it = owners_.find(report.id);
    if (it == owners_.end()) return false;  // direct open(): collect() path
    conn = std::move(it->second);
    owners_.erase(it);
    if (!conn) return true;  // tombstone: owner died, discard
    std::lock_guard conn_lock(conn->mutex_);
    const auto rit = conn->remap_.find(report.id);
    if (rit == conn->remap_.end()) return true;
    client = rit->second;
  }
  conn->deliver_report(client, report);
  wake(conn);
  return true;
}

SessionId Server::allocate_session() {
  return next_session_.fetch_add(1, std::memory_order_relaxed);
}

void Server::register_owner(SessionId global,
                            std::shared_ptr<Connection> conn) {
  std::lock_guard lock(mutex_);
  owners_.emplace(global, std::move(conn));
}

void Server::wake(const std::shared_ptr<Connection>& conn) {
  // Copy under the lock, invoke outside it: the callback rings an eventfd
  // and must not serialize every reporting worker behind it.
  std::function<void(const std::shared_ptr<Connection>&)> fn;
  {
    std::lock_guard lock(wakeup_mutex_);
    fn = wakeup_;
  }
  if (fn) fn(conn);
}

}  // namespace rtw::svc
