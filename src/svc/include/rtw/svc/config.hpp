#pragma once
/// \file config.hpp
/// Split serving-layer configuration.
///
/// Serving-layer configuration is three sub-structs with different
/// owners -- how the shard workers run, how the bounded ingress admits,
/// and how a transport behaves -- assembled into one `ServerConfig`:
///
///   ShardConfig    worker count, eviction, lane kernel
///   IngressConfig  ring bound, shed policy, watermarks, quota, latency
///   NetConfig      listener address, buffers, drain
///
/// `SessionManager` consumes shard + ingress; `Server`/`net::TcpServer`
/// consume all three.

#include <cstddef>
#include <cstdint>
#include <string>

namespace rtw::svc {

/// Shard-worker behavior: how many workers, when they evict, and whether
/// runs go through the SIMD lane kernel.
struct ShardConfig {
  unsigned count = 1;             ///< worker count (and ring count)
  /// Sessions idle for this many shard epochs are finished
  /// (StreamEnd::Truncated) and reported with `evicted = true`.
  /// 0 disables eviction.
  std::uint64_t idle_epochs = 0;
  /// Route runs of lane-family sessions through the SIMD batch kernel
  /// (rtw/core/lane.hpp) instead of Session::feed_run.  Verdicts
  /// are bit-identical either way; off = always the virtual path.
  bool lane_kernel = true;
  /// Max staged lane runs before the worker flushes a kernel wave.
  std::size_t lane_wave = 256;
};

/// Bounded-ingress admission policy: the data-plane bound and everything
/// that sheds under it.
struct IngressConfig {
  /// Data-plane bound per shard, in ring slots (a slot holds one command:
  /// a whole run of symbols, possibly a run of one).  The physical ring is
  /// allocated with extra headroom so control commands always land.
  std::size_t ring_capacity = 1024;
  bool shed_on_full = true;  ///< full ring: true = Shed, false = Blocked
  /// Max in-flight (admitted, not yet processed) symbols per session;
  /// 0 disables the quota.  Exceeding it sheds with `SessionBound`.
  std::size_t session_quota = 0;
  /// Occupancy fraction above which Priority::Low data is shed.
  double watermark_low = 0.5;
  /// Occupancy fraction above which Priority::Normal data is also shed
  /// (High survives until the ring is physically full).
  double watermark_high = 0.875;
  /// Worker-side age watermark: a non-High data command that waited in
  /// the ring longer than this many steady-clock ns is dropped (counted
  /// as a Priority shed) instead of fed.  0 disables.
  std::uint64_t max_queue_delay_ns = 0;
  /// Per-shard capacity of the lock-free priority/quota hint table.
  std::size_t session_slots = 8192;
  /// Stamp every Nth data command with its enqueue time and record the
  /// enqueue->process delta (the true feed latency) on the worker.
  /// 0 disables sampling; age shedding stamps every command regardless.
  std::size_t latency_sample_every = 16;
};

/// Transport behavior for the network front-end.  `SessionManager`
/// ignores this block; `net::TcpServer` uses it.  (v1 peers always get
/// ShedNotice and Verdict frames; that is protocol, not configuration.)
struct NetConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned (read back via port())
  int backlog = 1024;      ///< listen(2) backlog hint
  std::size_t max_connections = 65536;  ///< accepted fds beyond this are closed
  std::size_t read_chunk = 64 * 1024;   ///< bytes per read(2) on a readable conn
  /// Frame size cap handed to each connection's Decoder.
  std::size_t max_frame_bytes = 1u << 20;
  /// Write-side backpressure: a connection whose unflushed output exceeds
  /// this stops being *read* (slow readers cannot balloon server memory);
  /// reading resumes once the buffer drains below half the limit.
  std::size_t write_buffer_limit = 1u << 20;
  /// Graceful-drain budget: stop() flushes pending verdict frames for at
  /// most this long before force-closing lingering connections.
  std::uint64_t drain_timeout_ms = 5000;
  /// Test hooks: when nonzero, applied as SO_SNDBUF / SO_RCVBUF on
  /// accepted sockets (small values force partial writes, exercising the
  /// EPOLLOUT resumption path deterministically).
  int sndbuf = 0;
  int rcvbuf = 0;
};

/// The assembled serving-layer configuration.
struct ServerConfig {
  ShardConfig shard;
  IngressConfig ingress;
  NetConfig net;
};

}  // namespace rtw::svc
