#include "rtw/svc/net/tcp_server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace rtw::svc::net {

namespace {

/// Staging-buffer refill size: big enough to amortize write(2) calls,
/// small enough that a slow reader's memory cost stays bounded by the
/// logical buffer's write_buffer_limit accounting.
constexpr std::size_t kStageBytes = 256 * 1024;

/// Reactor poll cadence (ms) while admission-parked connections exist:
/// ring drain has no doorbell, so unblocking is polled.
constexpr int kRetryTickMs = 2;

/// Epoll tags.  A connection is tagged with its Connection::id(), which
/// is never 0, so neither of these collides with one.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kWakeupTag = ~std::uint64_t{0};

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TcpServer::TcpServer(Server& server)
    : server_(server), net_(server.config().net) {}

TcpServer::~TcpServer() { stop(); }

bool TcpServer::start() {
  if (running_.load(std::memory_order_acquire)) return true;
  if (!epoll_.ok()) {
    error_ = epoll_.error();
    return false;
  }
  if (!wakeup_.ok()) {
    error_ = "eventfd: setup failed";
    return false;
  }
  listener_ = make_listener(net_.bind_address, net_.port, net_.backlog);
  if (!listener_.ok()) {
    error_ = listener_.error;
    return false;
  }
  port_ = listener_.port;
  if (!epoll_.add(listener_.fd.get(), EPOLLIN | EPOLLET, kListenerTag) ||
      !epoll_.add(wakeup_.fd(), EPOLLIN, kWakeupTag)) {
    error_ = std::string("epoll_ctl: ") + std::strerror(errno);
    return false;
  }
  read_buffer_.resize(net_.read_chunk ? net_.read_chunk : 4096);

  // Verdicts land on shard workers; hand the reactor a doorbell.
  server_.set_wakeup([this](const std::shared_ptr<Connection>& conn) {
    {
      std::lock_guard lock(pending_mutex_);
      pending_.push_back(conn->id());
    }
    wakeup_.ring();
  });

  running_.store(true, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
  return true;
}

void TcpServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  wakeup_.ring();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

TcpServerStats TcpServer::stats() const {
  TcpServerStats s;
  s.accepted = stats_.accepted.load(std::memory_order_relaxed);
  s.rejected_capacity =
      stats_.rejected_capacity.load(std::memory_order_relaxed);
  s.closed = stats_.closed.load(std::memory_order_relaxed);
  s.active = stats_.active.load(std::memory_order_relaxed);
  s.read_bytes = stats_.read_bytes.load(std::memory_order_relaxed);
  s.written_bytes = stats_.written_bytes.load(std::memory_order_relaxed);
  s.read_pauses = stats_.read_pauses.load(std::memory_order_relaxed);
  s.frame_errors = stats_.frame_errors.load(std::memory_order_relaxed);
  return s;
}

void TcpServer::loop() {
  bool draining = false;
  std::uint64_t drain_deadline_ms = 0;

  for (;;) {
    if (stopping_.load(std::memory_order_acquire) && !draining) {
      // Graceful drain, phase 1: no new connections, no new sessions.
      if (listener_.fd.valid()) {
        epoll_.del(listener_.fd.get());
        listener_.fd.reset();
        accept_retry_ = false;
      }
      for (auto& [id, conn] : conns_) conn.logical->finish_input();
      // Phase 2: settle every verdict into the output buffers.  Blocks
      // this thread, but wakeups only enqueue to pending_, so the drain
      // cannot deadlock on us.
      server_.shutdown();
      draining = true;
      drain_deadline_ms = now_ms() + net_.drain_timeout_ms;
    }

    if (draining) {
      // Phase 3: flush.  Exit once every connection completed (or gave
      // up) or the drain budget is spent.
      for (auto it = conns_.begin(); it != conns_.end();) {
        const std::uint64_t id = it->first;
        Conn& conn = it->second;
        ++it;  // flush/reap may erase
        if (!flush_writes(id, conn)) continue;
        reap_if_finished(id, conn);
      }
      if (conns_.empty() || now_ms() >= drain_deadline_ms) break;
    }

    int timeout = -1;
    if (draining || admission_paused_count_ > 0 || accept_retry_)
      timeout = kRetryTickMs;
    const auto& ready = epoll_.wait(timeout);

    // Retry accepts dropped on fd exhaustion: the backlog never re-edges.
    if (accept_retry_ && listener_.fd.valid()) do_accept();

    for (const auto& ev : ready) {
      const std::uint64_t id = ev.data.u64;
      if (id == kListenerTag) {
        if (listener_.fd.valid()) do_accept();
        continue;
      }
      if (id == kWakeupTag) {
        wakeup_.drain();
        continue;  // pending_ handled below
      }
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn& conn = it->second;

      if (ev.events & (EPOLLHUP | EPOLLERR)) {
        close_conn(id);
        continue;
      }
      if (ev.events & EPOLLOUT) {
        if (!flush_writes(id, conn)) continue;
        maybe_resume_reads(id, conn);
        if (conns_.count(id) == 0) continue;  // resume read tore it down
      }
      // A paused conn drops the edge: maybe_resume_reads re-reads anyway.
      if ((ev.events & (EPOLLIN | EPOLLRDHUP)) && !conn.read_paused)
        handle_readable(id, conn);
    }

    drain_wakeups();

    // Retry admission-parked connections: the shard rings drain without a
    // doorbell, so this is polled at kRetryTickMs.
    if (admission_paused_count_ > 0) {
      for (auto it = conns_.begin(); it != conns_.end();) {
        const std::uint64_t id = it->first;
        Conn& conn = it->second;
        ++it;
        if (conn.admission_paused) maybe_resume_reads(id, conn);
      }
    }
  }

  // Force-close whatever outlived the drain budget.
  while (!conns_.empty()) close_conn(conns_.begin()->first);
  server_.set_wakeup(nullptr);
}

void TcpServer::do_accept() {
  accept_retry_ = false;
  for (;;) {
    const int raw = ::accept4(listener_.fd.get(), nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (raw < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // EMFILE/ENFILE/ENOBUFS etc: the listener edge is consumed but the
      // backlog still holds queued connections that will never re-edge.
      // Poll-retry every loop tick instead of stranding them until a new
      // SYN arrives.
      accept_retry_ = true;
      return;
    }
    if (conns_.size() >= net_.max_connections) {
      ::close(raw);
      stats_.rejected_capacity.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Conn conn;
    conn.fd = Fd(raw);
    set_tcp_nodelay(raw);
    if (net_.sndbuf > 0) set_sndbuf(raw, net_.sndbuf);
    if (net_.rcvbuf > 0) set_rcvbuf(raw, net_.rcvbuf);
    conn.logical = server_.connect();
    const std::uint64_t id = conn.logical->id();
    if (!epoll_.add(raw, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, id)) {
      continue;  // fd closes via RAII; the unused Connection just drops
    }
    conns_.emplace(id, std::move(conn));
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.active.fetch_add(1, std::memory_order_relaxed);
  }
}

void TcpServer::handle_readable(std::uint64_t id, Conn& conn) {
  for (;;) {
    const ssize_t n =
        ::read(conn.fd.get(), read_buffer_.data(), read_buffer_.size());
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(id);  // ECONNRESET and friends
      return;
    }
    if (n == 0) {
      conn.logical->finish_input();
      break;
    }
    stats_.read_bytes.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
    if (!conn.logical->on_bytes(
            std::string_view(read_buffer_.data(),
                             static_cast<std::size_t>(n)))) {
      stats_.frame_errors.fetch_add(1, std::memory_order_relaxed);
      close_conn(id);
      return;
    }
    if (conn.logical->paused()) {
      // Admission-Blocked event parked: stop reading, poll-retry.
      conn.read_paused = true;
      conn.admission_paused = true;
      ++admission_paused_count_;
      stats_.read_pauses.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (conn.logical->output_size() > net_.write_buffer_limit) {
      // Slow reader: flush what the socket takes, then pause reads until
      // the buffer drains below half the limit.
      if (!flush_writes(id, conn)) return;
      if (conn.logical->output_size() > net_.write_buffer_limit) {
        conn.read_paused = true;
        stats_.read_pauses.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
  }
  // Replies (HelloAck, notices) usually fit the socket buffer: write
  // eagerly instead of waiting for an EPOLLOUT edge.
  if (conns_.count(id) == 0) return;  // closed above
  if (!flush_writes(id, conn)) return;
  reap_if_finished(id, conn);
}

bool TcpServer::flush_writes(std::uint64_t id, Conn& conn) {
  for (;;) {
    if (conn.out_off == conn.outbuf.size()) {
      conn.outbuf.clear();
      conn.out_off = 0;
      if (conn.logical->take_output(conn.outbuf, kStageBytes) == 0) break;
    }
    const ssize_t n =
        ::write(conn.fd.get(), conn.outbuf.data() + conn.out_off,
                conn.outbuf.size() - conn.out_off);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // EPOLLOUT edge pending
      if (errno == EINTR) continue;
      close_conn(id);  // EPIPE/ECONNRESET
      return false;
    }
    conn.out_off += static_cast<std::size_t>(n);
    stats_.written_bytes.fetch_add(static_cast<std::uint64_t>(n),
                                   std::memory_order_relaxed);
  }
  return true;
}

void TcpServer::maybe_resume_reads(std::uint64_t id, Conn& conn) {
  if (!conn.read_paused) return;
  if (conn.admission_paused) {
    if (!conn.logical->retry_pending()) return;  // rings still full
    conn.admission_paused = false;
    --admission_paused_count_;
  }
  // Write-side backpressure releases at half the limit (hysteresis so a
  // borderline conn doesn't thrash pause/resume per frame).
  const std::size_t staged =
      conn.outbuf.size() - conn.out_off + conn.logical->output_size();
  if (staged > net_.write_buffer_limit / 2) return;
  conn.read_paused = false;
  // Edge-triggered sockets never re-announce bytes that were already in
  // the kernel rcvbuf when the pause began, and edges that arrive during
  // the pause are dropped, so resume with an unconditional read.  A
  // spurious resume costs one EAGAIN.  May tear the connection down
  // (framing error, EOF + complete): callers must re-look-up `id` before
  // touching `conn` again.
  handle_readable(id, conn);
}

bool TcpServer::reap_if_finished(std::uint64_t id, Conn& conn) {
  if (conn.logical->dead()) {
    close_conn(id);
    return true;
  }
  // complete() implies input finished -- via physical FIN or the drain's
  // finish_input() -- so a drained conn whose verdicts are flushed closes
  // without waiting for the client.
  if (conn.logical->complete() && conn.out_off == conn.outbuf.size()) {
    close_conn(id);
    return true;
  }
  return false;
}

void TcpServer::close_conn(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (conn.admission_paused) --admission_paused_count_;
  epoll_.del(conn.fd.get());
  server_.disconnect(conn.logical);
  conns_.erase(it);  // Fd RAII closes the socket
  stats_.closed.fetch_add(1, std::memory_order_relaxed);
  stats_.active.fetch_sub(1, std::memory_order_relaxed);
}

void TcpServer::drain_wakeups() {
  std::vector<std::uint64_t> ids;
  {
    std::lock_guard lock(pending_mutex_);
    ids.swap(pending_);
  }
  for (const std::uint64_t id : ids) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // conn already closed
    Conn& conn = it->second;
    if (!flush_writes(id, conn)) continue;
    maybe_resume_reads(id, conn);
    const auto again = conns_.find(id);  // resume read may have closed it
    if (again == conns_.end()) continue;
    reap_if_finished(id, again->second);
  }
}

}  // namespace rtw::svc::net
