#include "rtw/svc/server.hpp"

#include <utility>

namespace rtw::svc {

// ---------------------------------------------------------- Connection

Connection::Connection(Server& server, std::uint64_t id,
                       std::size_t max_frame_bytes)
    : server_(server),
      id_(id),
      decoder_(max_frame_bytes, PackedMode::Pool) {}

bool Connection::on_bytes(std::string_view bytes) {
  if (dead_.load(std::memory_order_acquire)) return false;
  decoder_.push(bytes);
  return pump();
}

void Connection::finish_input() {
  if (input_finished_.exchange(true, std::memory_order_acq_rel)) return;
  // Truncate-close everything the client left open; each verdict flows
  // back through its session's route like any other close.
  close_open_sessions(/*detach=*/false);
}

void Connection::close_open_sessions(bool detach) {
  std::vector<SessionId> open_globals;
  {
    std::lock_guard lock(mutex_);
    if (detach) detached_ = true;
    for (auto& [client, owned] : sessions_) {
      if (!owned.close_sent) {
        owned.close_sent = true;
        open_globals.push_back(owned.global);
      }
    }
  }
  // Closes enqueue on the control plane: never shed.
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
    Run run = std::move(*pending_);
    pending_.reset();
    paused_.store(false, std::memory_order_release);
    if (!submit_run(run)) return !dead();
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
    case WireEvent::Kind::Hello:
      // One version is spoken: a client that cannot speak it fails fast
      // rather than sending frames the Decoder would refuse later.
      if (event.version_min > kWireVersion ||
          event.version_max < kWireVersion) {
        fail_stream("wire: client speaks protocol versions " +
                    std::to_string(event.version_min) + ".." +
                    std::to_string(event.version_max) + ", server speaks " +
                    std::to_string(kWireVersion));
        return false;
      }
      queue_output(encode_hello_ack(kWireVersion));
      return true;
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
      // Both kinds refuse identically: a CompileLimits hit is the
      // query-plane twin of an unknown profile, not a framing error.
      auto acceptor =
          server_.manager().build_acceptor(global, event, server_.factory_);
      if (!acceptor) {
        std::lock_guard lock(mutex_);
        ++stats_.refused_opens;
        output_ += encode_shed(event.session,
                               AdmitResult{Admit::Shed, ShedReason::None}, 0);
        return true;
      }
      {
        std::lock_guard lock(mutex_);
        sessions_.emplace(event.session, Owned{global, false});
        ++stats_.opens;
      }
      // The session's route holds this connection until the verdict is
      // delivered (or dropped, once detached).
      server_.manager().open(
          global, std::move(acceptor), event.priority,
          [conn = shared_from_this(),
           client = event.session](const SessionReport& report) {
            if (conn->deliver_report(client, report)) conn->server_.wake(conn);
            return true;
          });
      return true;
    }
    case WireEvent::Kind::Symbols: {
      Run run{event.session, std::move(event.packed)};
      return submit_run(run);
    }
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

bool Connection::submit_run(Run& run) {
  SessionId global = 0;
  {
    std::lock_guard lock(mutex_);
    stats_.stride_bodies = decoder_.stride_bodies();
    const auto it = sessions_.find(run.client);
    if (it == sessions_.end() || it->second.close_sent) {
      ++stats_.unknown_frames;
      return true;
    }
    global = it->second.global;
  }
  // A refused body stays in `run`, ready to park.
  const AdmitResult admitted = server_.manager().feed_packed(global, run.body);
  switch (admitted.admit) {
    case Admit::Accepted:
      return true;
    case Admit::Shed: {
      std::lock_guard lock(mutex_);
      ++stats_.sheds;
      output_ += encode_shed(run.client, admitted, run.body.symbols());
      return true;
    }
    case Admit::Blocked:
      // Park the event; the transport pauses reads and retries when the
      // rings drain.  This is the reactor-safe form of apply()'s spin.
      pending_ = std::move(run);
      paused_.store(true, std::memory_order_release);
      return true;
  }
  return true;
}

bool Connection::deliver_report(SessionId client, const SessionReport& report) {
  std::lock_guard lock(mutex_);
  if (detached_) return false;
  sessions_.erase(client);
  ++stats_.verdicts;
  output_ += encode_verdict(client, report.verdict, report.result.exact,
                            report.evicted, report.fed, report.stale_dropped);
  return true;
}

std::size_t Connection::take_output(std::string& out, std::size_t max_bytes) {
  std::lock_guard lock(mutex_);
  const std::size_t n = output_.size() < max_bytes ? output_.size() : max_bytes;
  if (n == 0) return 0;
  out.append(output_, 0, n);
  output_.erase(0, n);
  return n;
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
      manager_(config_) {}

Server::~Server() {
  // Settle every session while the wake hook is still a member: routes
  // call wake(), and the hook is destroyed before the manager.
  shutdown();
}

std::shared_ptr<Connection> Server::connect() {
  const std::uint64_t id =
      next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  // make_shared needs a public ctor; std::shared_ptr + new keeps it private.
  return std::shared_ptr<Connection>(
      new Connection(*this, id, config_.net.max_frame_bytes));
}

void Server::disconnect(const std::shared_ptr<Connection>& conn) {
  if (!conn) return;
  // Detached in the same critical section as the sweep: verdicts already
  // in flight are dropped by their routes, and so are those of the
  // sessions the sweep closes.
  conn->close_open_sessions(/*detach=*/true);
}

void Server::shutdown() {
  // Truncate-close every live session.  Wire-owned verdicts flow into
  // their connections' output buffers via the sink; the transport
  // flushes them during its own drain.
  manager_.shutdown(core::StreamEnd::Truncated);
}

SessionId Server::allocate_session() {
  return next_session_.fetch_add(1, std::memory_order_relaxed);
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
