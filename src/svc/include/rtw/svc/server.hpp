#pragma once
/// \file server.hpp
/// Transport-agnostic serving facade: byte streams in, byte streams out.
///
/// `Server` is the redesigned public entry point of the serving layer.
/// It owns a SessionManager and speaks the wire protocol, but knows
/// nothing about sockets: a transport (net::TcpServer, a test harness, a
/// future UDS/QUIC front-end) hands it byte chunks per *connection* and
/// drains the bytes the server wants written back.  Everything between --
/// incremental decoding, session multiplexing, admission, verdict
/// routing -- is the server's business, so every transport gets identical
/// semantics and the hermetic tests can drive the facade without a single
/// syscall.
///
/// Connection model:
///
///   transport          Server / Connection               SessionManager
///   ---------          -------------------               --------------
///   bytes arrive  -->  Decoder (PackedMode::Pool) -> WireEvents
///                      Open: client id -> fresh global id,
///                            opened with its route    --> open()
///                      Symbols: id remapped; an op-12
///                            body rides in its pooled
///                            buffer                   --> feed_packed()
///                      Close: id remapped             --> close()
///                      Hello: a range holding v3 is
///                             answered with HelloAck, any other
///                             range kills the stream
///   writable      <--  take_output(): HelloAck / Verdict / ShedNotice
///                      frames, byte-exact wire format
///                                                     <-- session route:
///                      a finished session's route queues its Verdict
///                      frame (client-side id) on the connection that
///                      opened it, then calls the wake hook
///
/// Session ids on the wire are *client-chosen*; two connections may both
/// open "session 1".  The connection remaps every client id to a fresh
/// global id before it touches the manager, so wire sessions never
/// collide with each other or with in-process open() callers.  The way
/// back needs no lookup: each session carries its own route, which holds
/// the connection (a strong reference) and the client id.
///
/// Thread model: a connection's input plane (on_bytes / finish_input /
/// retry_pending) is single-threaded -- the transport's event loop.  The
/// output buffer is also fed by shard workers delivering verdicts, so it
/// is guarded by Connection::mutex_; take_output() may race a delivery
/// safely.  No lock spans connections.  A verdict takes its connection's
/// mutex_ once, releases it, then calls the wake hook (which takes only
/// the hook's own mutex), so the hook may call take_output().  Routes
/// keep a connection alive until its last session settles, so the last
/// reference may drop on a shard worker.
///
/// Op-12 bodies cross threads without the heap.  The connection's
/// Decoder validates each body on the input plane and copies it into a
/// buffer from the connection's BodyPool (body_pool.hpp): the event loop
/// takes spares with no lock, and the shard worker that consumed a body
/// pushes its buffer back onto the pool's lock-free remote-free list.
/// The pool keeps at most BodyPool::kRetainBytes of spares after each
/// refill, and buffers still in the rings when the connection goes away
/// free the pool's state when the last of them comes back.  A Blocked
/// body is parked in its buffer as it is; a shed one goes straight back.
///
/// Fault tolerance mirrors the manager: duplicate Opens, Closes for
/// unknown ids and Symbols for never-opened sessions are counted and
/// ignored, not fatal -- fault-injected streams legitimately duplicate
/// and reorder frames.  Only *framing* damage (Decoder errors) kills a
/// connection, because byte alignment is unrecoverable.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rtw/svc/service.hpp"
#include "rtw/svc/wire.hpp"

namespace rtw::svc {

class Server;

/// Per-connection tallies (input plane unless noted).
struct ConnectionStats {
  std::uint64_t opens = 0;           ///< sessions opened through this conn
  std::uint64_t dup_opens = 0;       ///< duplicate client ids, ignored
  std::uint64_t refused_opens = 0;   ///< factory returned nullptr
  std::uint64_t unknown_frames = 0;  ///< Symbols/Close for unmapped ids
  std::uint64_t sheds = 0;           ///< admission refusals (runs, not symbols)
  std::uint64_t verdicts = 0;        ///< Verdict frames queued (output plane)
  /// Op-12 bodies whose validation covered a stride tail in the
  /// fixed-stride pass (Decoder::stride_bodies), as of the last run fed.
  std::uint64_t stride_bodies = 0;
};

/// One client byte stream.  Created by Server::connect(); the transport
/// drives the input plane and drains the output plane.
class Connection : public std::enable_shared_from_this<Connection> {
public:
  /// Feeds received bytes through the decoder and applies every decodable
  /// event.  Returns false when the connection has died (framing error):
  /// the transport should stop reading and tear it down via
  /// Server::disconnect().  Safe to call with the connection paused; the
  /// bytes queue behind the pending event.
  bool on_bytes(std::string_view bytes);

  /// Half-close (client FIN): no more input will arrive.  Sessions the
  /// client left open are truncate-closed; the connection stays alive
  /// until their verdicts have been delivered and drained.
  void finish_input();

  /// Retries the admission-blocked event, if any.  Returns true when the
  /// connection is unblocked (event admitted, or nothing was pending) and
  /// the transport may resume reading.
  bool retry_pending();

  /// Moves up to max_bytes of queued output into `out` (appended).
  /// Returns the number of bytes appended.
  std::size_t take_output(std::string& out, std::size_t max_bytes);

  std::size_t output_size() const;

  /// True while an admission-blocked event is parked (shed_on_full off).
  /// The transport should stop reading until retry_pending() succeeds.
  bool paused() const noexcept { return paused_.load(std::memory_order_acquire); }
  /// True once a framing error killed the stream.
  bool dead() const noexcept { return dead_.load(std::memory_order_acquire); }
  const std::string& error() const noexcept { return error_; }

  /// True when the connection has nothing left to do: input finished,
  /// every owned session settled, output drained.  The transport closes
  /// such connections.
  bool complete() const;

  /// Unique per Server; never 0.
  std::uint64_t id() const noexcept { return id_; }
  ConnectionStats stats() const;

private:
  friend class Server;

  struct Owned {
    SessionId global = 0;
    bool close_sent = false;  ///< client Close observed (or FIN sweep)
  };

  Connection(Server& server, std::uint64_t id, std::size_t max_frame_bytes);

  /// Truncate-closes every session the client has not closed; with
  /// `detach`, first marks the connection detached under the same lock.
  void close_open_sessions(bool detach);
  /// Drains decoder events (and the parked event first); false = died.
  bool pump();
  bool apply_event(WireEvent& event);
  /// A Symbols event's run: the connection's Decoder runs in
  /// PackedMode::Pool and op 12 is the one feed op, so every run is a
  /// pooled op-12 body.
  struct Run {
    SessionId client = 0;
    PackedBody body;
  };
  /// Feeds one remapped run; parks it when admission blocks.
  bool submit_run(Run& run);
  void queue_output(std::string frame);
  void fail_stream(std::string message);

  /// Report delivery (shard-worker thread, via the session's route).
  /// False when the connection is detached: the verdict is dropped and
  /// nobody is woken.
  bool deliver_report(SessionId client, const SessionReport& report);

  Server& server_;
  const std::uint64_t id_;
  Decoder decoder_;

  // Input-plane state (event-loop thread only).
  std::optional<Run> pending_;  ///< the admission-blocked run

  std::atomic<bool> paused_{false};
  std::atomic<bool> dead_{false};
  std::atomic<bool> input_finished_{false};
  std::string error_;  ///< written once before dead_ is published

  mutable std::mutex mutex_;  ///< guards everything below
  std::string output_;
  std::unordered_map<SessionId, Owned> sessions_;  ///< client id -> state
  ConnectionStats stats_;
  bool detached_ = false;  ///< Server::disconnect() ran
};

/// The serving facade.  Owns the SessionManager; transports own the
/// Server.
class Server {
public:
  /// `factory` builds acceptors for wire-opened sessions (profile =
  /// the Open frame's body, verbatim).
  Server(ServerConfig config, AcceptorFactory factory);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds a new logical client stream.  The transport keeps the
  /// shared_ptr; each session opened on it holds another until its
  /// verdict is delivered.
  std::shared_ptr<Connection> connect();

  /// Hard teardown: marks the connection detached and truncate-closes its
  /// live sessions.  Verdicts still in flight for it are consumed and
  /// discarded (never queued, never woken, never leaked into collect()).
  void disconnect(const std::shared_ptr<Connection>& conn);

  /// Graceful drain: truncate-closes every session (wire and direct),
  /// which routes the final verdicts into their connections' output
  /// buffers.  The transport then flushes and closes.  Idempotent.
  void shutdown();

  /// Transport hook: invoked (possibly from a shard worker) whenever a
  /// connection gains output outside the input plane -- i.e. a verdict
  /// landed.  The callback must be thread-safe and must not call back
  /// into the Server.  Mutex-guarded against concurrent wake(): safe to
  /// install or clear (nullptr) while shard workers are still reporting.
  void set_wakeup(std::function<void(const std::shared_ptr<Connection>&)> fn) {
    std::lock_guard lock(wakeup_mutex_);
    wakeup_ = std::move(fn);
  }

  SessionManager& manager() noexcept { return manager_; }
  const ServerConfig& config() const noexcept { return config_; }

private:
  friend class Connection;

  SessionId allocate_session();
  void wake(const std::shared_ptr<Connection>& conn);

  ServerConfig config_;
  AcceptorFactory factory_;
  SessionManager manager_;

  mutable std::mutex wakeup_mutex_;  ///< guards wakeup_ (workers vs teardown)
  std::function<void(const std::shared_ptr<Connection>&)> wakeup_;
  std::atomic<std::uint64_t> next_conn_id_{1};
  /// Wire-session ids start far above the manager's own open() counter so
  /// mixed wire + direct workloads never collide on an id.
  std::atomic<SessionId> next_session_{SessionId{1} << 32};
};

}  // namespace rtw::svc
