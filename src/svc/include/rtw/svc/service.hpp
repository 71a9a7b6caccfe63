#pragma once
/// \file service.hpp
/// The sharded streaming acceptance service: thousands of concurrent
/// online-acceptor sessions multiplexed over N shard workers.
///
/// Threading model (the whole point of the design):
///
///   producers --> per-shard lock-free MPSC ring (Vyukov slot sequencing)
///                      |
///                      v   at-most-one worker per shard (atomic handoff)
///                 shard worker on the sim::ThreadPool
///                      |   drains up to 256 ring slots per epoch;
///                      |   every Feed slot carries a run of symbols
///                      v   (a single symbol is a run of one)
///                 sessions (hash-sharded by id; worker-private, lock-free)
///
/// A session id hashes to exactly one shard, every command for it goes
/// through that shard's FIFO ring, and the shard's state is only ever
/// touched by the one worker currently holding the shard's `scheduled`
/// flag -- so per-session processing needs no locks at all, and a
/// session's commands are processed in submission order.  The handoff
/// protocol is the classic lost-wakeup-free pattern, built entirely on
/// RMW operations so it composes with the lock-free ring: a producer that
/// flips `scheduled` false->true posts a worker task; the worker parks by
/// *exchanging* `scheduled` to false (the RMW reads the latest producer
/// election attempt, so the producer's ring publication happens-before
/// the worker's re-check) and re-elects itself if a command slipped in.
///
/// Hot-path cost for a producer: one approx-occupancy read, at most one
/// hint-table probe, one CAS ring claim, one release store, one RMW on
/// the election flag.  No mutex, no syscall, no allocation beyond the
/// command's own payload.
///
/// Backpressure is explicit and adaptive.  The data plane is bounded by
/// `ring_capacity` ring slots; instead of first-come-first-shed, admission
/// sheds by *priority watermarks*: above `watermark_low` occupancy only
/// Normal and High priority sessions are admitted, above `watermark_high`
/// only High, and a genuinely full ring sheds (or blocks) everything.
/// A per-session in-flight quota (`session_quota`) prevents one hot
/// session from monopolizing the ring, and an optional age watermark
/// (`max_queue_delay_ns`) lets the worker drop data that waited in the
/// ring past its freshness bound.  Every shed is counted under its
/// reason: `ring_full`, `session_bound`, or `priority` (watermark + age).
/// Control commands (open/close/shutdown) bypass every bound through the
/// physical headroom the ring over-allocates: shedding a Close would leak
/// the session, so only the data plane sheds.
///
/// Each shard counts its drained batches in a private integer: the
/// shard's *epoch* clock (first batch = epoch 1), against which idle
/// sessions are aged and evicted.

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

#include "rtw/core/online.hpp"
#include "rtw/sim/thread_pool.hpp"
#include "rtw/svc/admit.hpp"
#include "rtw/svc/config.hpp"
#include "rtw/svc/ring.hpp"
#include "rtw/svc/session.hpp"
#include "rtw/svc/wire.hpp"

namespace rtw::obs {
class Gauge;
}  // namespace rtw::obs

namespace rtw::svc {

/// Monotone service-wide tallies (mirrored into obs metrics when a sink
/// is installed).
struct ServiceStats {
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;       ///< includes evicted
  std::uint64_t ingested = 0;     ///< symbols delivered to a session
  std::uint64_t shed = 0;         ///< symbols shed, all reasons
  std::uint64_t shed_ring_full = 0;      ///< ... at a physically full ring
  std::uint64_t shed_session_bound = 0;  ///< ... by the per-session quota
  std::uint64_t shed_priority = 0;       ///< ... by priority/age watermarks
  std::uint64_t blocked = 0;      ///< Blocked verdicts returned
  std::uint64_t stale = 0;        ///< symbols dropped by the time filter
  std::uint64_t evicted = 0;      ///< sessions closed by idle eviction
  std::uint64_t unknown = 0;      ///< commands for sessions that don't exist
  std::uint64_t active = 0;       ///< currently open sessions
  std::uint64_t epochs = 0;       ///< summed shard epoch count
  std::uint64_t batches = 0;      ///< ring slots drained (batch granularity)
  std::uint64_t lane_symbols = 0; ///< symbols advanced by the batch kernel
  std::uint64_t lane_waves = 0;   ///< kernel wave dispatches
  std::uint64_t query_compiled = 0;  ///< SubmitQuery opens that compiled
  std::uint64_t query_rejected = 0;  ///< ... refused by a CompileLimits cap
};

/// Builds the acceptor for a wire-opened session; `profile` is the Open
/// frame's body, verbatim.  Returning nullptr refuses the session.
using AcceptorFactory = std::function<std::unique_ptr<core::OnlineAcceptor>(
    SessionId, std::string_view profile)>;

/// Observer for finished sessions, installed with set_report_sink().
/// Invoked on the shard worker that finished the session, outside any
/// manager lock.  Return true to consume the report (it will NOT be
/// queued for collect()); false to fall through to the collect() queue.
/// The Server facade uses this to push Verdict frames to the owning
/// connection the moment a stream settles.
using ReportSink = std::function<bool(const SessionReport&)>;

class SessionManager {
public:
  explicit SessionManager(ServerConfig config = {});
  /// Convenience: shard + ingress blocks without a NetConfig.
  SessionManager(ShardConfig shard, IngressConfig ingress);
  /// Drains and truncation-closes every remaining session.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // ------------------------------------------------------- direct API

  /// Opens a session under a fresh id (control plane: never shed).
  SessionId open(std::unique_ptr<core::OnlineAcceptor> acceptor,
                 Priority priority = Priority::Normal);
  /// Opens a session under a caller-chosen id (wire replay).  Opening an
  /// id that is already live is counted as `unknown` and ignored by the
  /// shard worker.
  void open(SessionId id, std::unique_ptr<core::OnlineAcceptor> acceptor,
            Priority priority = Priority::Normal);

  /// Routes one symbol to the session's shard (data plane: bounded) as a
  /// run of one.  Returns the admission outcome with its structured shed
  /// reason; converts implicitly to the bare Admit for pre-split call sites.
  AdmitResult feed(SessionId id, core::Symbol symbol, core::Tick at) {
    return feed_batch(id, {{symbol, at}});
  }

  /// Batched admission: publishes the whole run in one ring slot,
  /// all-or-nothing.  Element times must be nondecreasing (they share the
  /// session's stale filter symbol by symbol).  Admission cost -- the
  /// occupancy read, table probe, ring claim and election -- is paid once
  /// for the run instead of once per symbol.
  AdmitResult feed_batch(SessionId id, std::vector<core::TimedSymbol> run);

  /// Finishes the session and queues its SessionReport for collect()
  /// (or hands it to the report sink when one is installed).
  void close(SessionId id, core::StreamEnd end = core::StreamEnd::EndOfWord);

  // --------------------------------------------------- wire-driven API

  /// Applies one decoded wire event.  Open events build their acceptor
  /// through `factory`; Symbols events are admitted as one batched run
  /// per event, waiting out Blocked verdicts (the wire reader *is* the
  /// backpressure point) and reporting Shed if the run was shed.
  /// Protocol-level events (Hello and the server->client notifications)
  /// are not servable traffic and report Shed; the Server facade handles
  /// those before they reach the manager.
  AdmitResult apply(const WireEvent& event, const AcceptorFactory& factory);

  /// Compiles a SubmitQuery body into a per-session acceptor.  The text
  /// is already syntax-checked by the wire Decoder, but this method
  /// re-parses defensively (direct callers exist) and applies the
  /// CompileLimits resource policy; nullptr refuses the session, with
  /// the attempt tallied under query_compiled / query_rejected and the
  /// svc.query.* metrics (including the compile-latency histogram).
  std::unique_ptr<core::OnlineAcceptor> build_query_acceptor(
      SessionId id, std::string_view query);

  // ----------------------------------------------------- lifecycle

  /// Blocks until every command enqueued before this call has been
  /// processed and all shard workers are parked.
  void drain();

  /// Graceful shutdown: closes every live session with `end`, then
  /// drains.  Idempotent; the manager stays usable afterwards.
  void shutdown(core::StreamEnd end = core::StreamEnd::Truncated);

  /// Takes the reports of sessions that finished since the last call.
  std::vector<SessionReport> collect();

  /// Installs (or clears, with nullptr) the report sink.  Not
  /// thread-safe against in-flight traffic: install before feeding, on
  /// the thread that owns the manager.
  void set_report_sink(ReportSink sink) { report_sink_ = std::move(sink); }

  /// Takes the sampled enqueue->process feed latencies (steady-clock ns)
  /// accumulated since the last call.  Call only while drained (the
  /// samples are worker-private between drains).
  std::vector<std::uint64_t> take_feed_latency_samples();

  ServiceStats stats() const;
  unsigned shards() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }
  /// The shard a session id routes to (exposed for tests and benches).
  unsigned shard_of(SessionId id) const noexcept;
  /// Current occupancy of a shard's ingress ring, in slots.
  std::size_t ring_depth(unsigned shard) const noexcept;

private:
  struct Command {
    enum class Kind : std::uint8_t { Open, Feed, Close, CloseAll };
    Kind kind = Kind::Feed;
    Priority priority = Priority::Normal;
    SessionId id = 0;
    core::StreamEnd end = core::StreamEnd::EndOfWord;
    std::uint64_t enqueue_ns = 0;  ///< steady-clock stamp; 0 = unstamped
    SessionTable::Slot* slot = nullptr;  ///< paired in-flight decrement
    std::vector<core::TimedSymbol> run;  ///< Feed only; never empty
    std::unique_ptr<core::OnlineAcceptor> acceptor;  ///< Open only
  };

  struct Entry {
    Session session;
    std::uint64_t last_active;
    Entry(Session s, std::uint64_t epoch)
        : session(std::move(s)), last_active(epoch) {}
  };

  struct Shard {
    Shard(unsigned index, const IngressConfig& ingress);

    const unsigned index;         ///< position in shards_
    MpscRing<Command> ring;
    SessionTable table;           ///< producer-readable priority/quota hints
    std::atomic<bool> scheduled{false};

    // Worker-private state (protected by the `scheduled` handoff).  It
    // starts on its own cache line: producers RMW `scheduled` on every
    // admission, and the worker reads this block on every command.
    alignas(kCacheLine) std::uint64_t epoch = 0;  ///< drained batches so far
    obs::Gauge* depth_gauge = nullptr;  ///< resolved on first traced epoch
    std::unordered_map<SessionId, Entry> sessions;
    std::vector<Command> staging;
    std::vector<std::uint64_t> latency_samples;

    // Lane-kernel wave, staged during one process() pass and always
    // flushed before it returns (the LaneRuns point into `staging`).
    // One stepper per shard, built lazily from the first lane-family
    // acceptor; sessions of other families take feed_run.
    std::unique_ptr<core::BatchStepper> stepper;
    bool stepper_probed = false;
    std::vector<core::LaneRun> wave;
    std::vector<Session*> wave_sessions;

    std::mutex reports_mutex;
    std::vector<SessionReport> reports;
  };

  /// Data-plane admission: watermarks, quota, ring claim, election.
  AdmitResult admit_data(Command command, std::size_t symbols);
  /// Control-plane enqueue: never sheds; spins into the ring's headroom.
  void enqueue_control(Shard& shard, Command command);
  void elect(Shard& shard);
  void count_shed(ShedReason reason, std::size_t symbols);
  void run_shard(Shard& shard);
  void process(Shard& shard, std::uint64_t epoch);
  /// Dispatches the staged lane wave through the shard's batch stepper and
  /// folds the per-lane stale deltas into the service stats.
  void flush_wave(Shard& shard);
  void finish_session(Shard& shard, Entry& entry, core::StreamEnd end,
                      bool evicted);
  void evict_idle(Shard& shard, std::uint64_t epoch);

  ShardConfig shard_cfg_;
  IngressConfig ingress_cfg_;
  std::size_t watermark_low_slots_ = 0;   ///< precomputed slot thresholds
  std::size_t watermark_high_slots_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  sim::ThreadPool pool_;
  std::atomic<SessionId> next_id_{1};
  std::atomic<std::uint64_t> sample_tick_{0};
  ReportSink report_sink_;

  struct AtomicStats {
    std::atomic<std::uint64_t> opened{0}, closed{0}, ingested{0}, shed{0},
        shed_ring_full{0}, shed_session_bound{0}, shed_priority{0},
        blocked{0}, stale{0}, evicted{0}, unknown{0}, active{0}, epochs{0},
        batches{0}, lane_symbols{0}, lane_waves{0}, query_compiled{0},
        query_rejected{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace rtw::svc
