#pragma once
/// \file net/tcp_server.hpp
/// The epoll TCP front-end: one reactor thread multiplexing every client
/// connection onto a transport-agnostic svc::Server.
///
/// Event-loop states per connection:
///
///   READING   default: EPOLLIN edges drain read(2) to EAGAIN, each chunk
///             feeds Connection::on_bytes (incremental decode -> session
///             commands).
///   PAUSED    reads stop, socket backpressure does the rest.  Two ways
///             in: the logical connection parked an admission-Blocked
///             event (resume via retry_pending once the rings drain), or
///             its output buffer crossed NetConfig::write_buffer_limit (a
///             slow reader must not balloon server memory; resume when
///             the flush drains it below half).  Bytes the kernel already
///             buffered stay put -- pausing is just "stop calling read".
///   DRAINING  input finished (FIN/RDHUP) but verdicts are still being
///             delivered or flushed; the write side lives until
///             Connection::complete().
///   CLOSED    torn down: framing error, write error, hard hangup, or
///             complete.
///
/// Buffer ownership: the reactor owns a per-connection staging buffer
/// (`outbuf`) it is mid-write on; the logical Connection owns the queued
/// frame bytes behind it.  Shard workers append verdict frames to the
/// logical buffer and ring the eventfd; only the reactor thread touches
/// sockets.
///
/// Graceful drain (stop()): close the listener, finish_input() every
/// connection (truncate-closing abandoned sessions), Server::shutdown()
/// to settle every verdict into the output buffers, then flush until all
/// connections complete or NetConfig::drain_timeout_ms elapses; whatever
/// lingers is force-closed.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "rtw/svc/net/epoll.hpp"
#include "rtw/svc/net/socket.hpp"
#include "rtw/svc/server.hpp"

namespace rtw::svc::net {

/// Reactor tallies (atomics: written by the loop, read by anyone).
struct TcpServerStats {
  std::uint64_t accepted = 0;           ///< connections accepted
  std::uint64_t rejected_capacity = 0;  ///< closed at max_connections
  std::uint64_t closed = 0;             ///< connections torn down
  std::uint64_t active = 0;             ///< currently open
  std::uint64_t read_bytes = 0;
  std::uint64_t written_bytes = 0;
  std::uint64_t read_pauses = 0;   ///< times a conn entered PAUSED
  std::uint64_t frame_errors = 0;  ///< conns killed by a Decoder error
};

class TcpServer {
public:
  /// Binds to `server.config().net` (address, port, buffers, drain).
  explicit TcpServer(Server& server);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens and spawns the reactor thread.  False on setup
  /// failure (see error()).
  bool start();
  /// Graceful drain as described above; idempotent; joins the reactor.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// The bound port (after start(); meaningful when config asked for 0).
  std::uint16_t port() const noexcept { return port_; }
  const std::string& error() const noexcept { return error_; }
  TcpServerStats stats() const;

private:
  struct Conn {
    Fd fd;
    std::shared_ptr<Connection> logical;
    std::string outbuf;        ///< staged bytes mid-write
    std::size_t out_off = 0;   ///< written prefix of outbuf
    bool read_paused = false;  ///< PAUSED state (either cause)
    bool admission_paused = false;  ///< paused on a parked Blocked event
  };

  void loop();
  void do_accept();
  /// Drains read(2) to EAGAIN (or a pause/teardown condition).
  void handle_readable(std::uint64_t id, Conn& conn);
  /// Flushes staged + queued output; false = connection torn down.
  bool flush_writes(std::uint64_t id, Conn& conn);
  void maybe_resume_reads(std::uint64_t id, Conn& conn);
  /// True when the conn should be torn down (complete or dead).
  bool reap_if_finished(std::uint64_t id, Conn& conn);
  void close_conn(std::uint64_t id);
  void drain_wakeups();

  Server& server_;
  const NetConfig net_;
  Epoll epoll_;
  EventFd wakeup_;
  Listener listener_;
  std::uint16_t port_ = 0;
  std::string error_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  /// Connection::id() -> state; the id is also the socket's epoll tag.
  std::unordered_map<std::uint64_t, Conn> conns_;
  std::size_t admission_paused_count_ = 0;
  /// accept4 failed with EMFILE/ENFILE-class errno: the edge-triggered
  /// listener event is spent, so poll-retry accepts each loop tick.
  bool accept_retry_ = false;
  std::vector<char> read_buffer_;

  std::mutex pending_mutex_;  ///< guards pending_ (shard workers ring in)
  std::vector<std::uint64_t> pending_;  ///< logical ids with fresh output

  struct AtomicStats {
    std::atomic<std::uint64_t> accepted{0}, rejected_capacity{0}, closed{0},
        active{0}, read_bytes{0}, written_bytes{0}, read_pauses{0},
        frame_errors{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace rtw::svc::net
