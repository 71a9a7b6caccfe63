#pragma once
/// \file service.hpp
/// The sharded streaming acceptance service: thousands of concurrent
/// online-acceptor sessions multiplexed over N shard workers.
///
/// Threading model (the whole point of the design):
///
///   producers --> per-shard lock-free MPSC ring (Vyukov slot sequencing)
///                      |
///                      v   one dedicated worker thread per shard
///                 shard worker: drains up to 256 ring slots per epoch;
///                      |   every Feed slot carries a pooled run of
///                      |   symbols (a single symbol is a run of one),
///                      v   every FeedPacked slot a pooled op-12 body
///                 sessions (hash-sharded by id; worker-private, lock-free)
///
/// A session id hashes to exactly one shard, every command for it goes
/// through that shard's FIFO ring, and the shard's state is only ever
/// touched by the shard's own worker, a std::thread the constructor starts
/// and the destructor joins -- so per-session processing needs no locks
/// at all, and a session's commands are processed in submission order.
/// A worker whose ring is empty spins for kSpinWindowNs (service.cpp),
/// then parks on a futex word; a producer wakes it only if it reads that
/// word set after its push, so while the worker runs nobody writes the
/// word and admission pays one fence and one cached load for the handoff.
/// The protocol's steps live in handoff.hpp, where a model test checks
/// every interleaving of them.
///
/// Every tally the worker bumps on its hot path (ingested symbols, epochs,
/// batches, lane symbols and waves, parks, wakes, spin time) is a
/// single-writer counter in its Shard, written with a relaxed load and
/// store; stats() sums them with the manager-wide tallies producers keep.
///
/// Hot-path cost for a producer: one approx-occupancy read, at most one
/// hint-table probe, one CAS ring claim, one release store, one fence and
/// one load of the worker's parked word (an RMW and a FUTEX_WAKE only when
/// the worker is parked).  No mutex, and once warm no malloc or
/// free on either side of the ring: both feed kinds ride a pooled buffer
/// (body_pool.hpp) in one 48-byte Command.  feed_packed() moves in an
/// op-12 body that already sits in a buffer from its connection's
/// BodyPool; feed_batch() copies the run, once admission has passed its
/// checks, into a buffer from a pool owned by the calling thread, behind
/// the run's core::RunSummary, which the copy computes while the run is
/// still in the producer's cache.  The caller's own vector is freed on the
/// caller's thread.  The shard worker steps a lane-family Feed run from its
/// summary alone unless the lane kernel's closed form declines it; any
/// other Feed run is read in place.  It decodes packed bytes a stack chunk
/// at a time; either way the stale filter hands the acceptor one feed_run
/// call per chunk (session.hpp).  A lane-family packed run is decoded into
/// the shard's own wave storage instead.  Dropping the
/// command hands the buffer back to its pool with one lock-free push, so
/// the worker never frees a block another thread allocated.
///
/// Backpressure is explicit and adaptive.  The data plane is bounded by
/// `ring_capacity` ring slots; instead of first-come-first-shed, admission
/// sheds by *priority watermarks*: above half occupancy only Normal and
/// High priority sessions are admitted, above seven eighths only High,
/// and a genuinely full ring sheds (or blocks) everything.
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
#include <thread>
#include <unordered_map>
#include <vector>

#include "rtw/core/online.hpp"
#include "rtw/svc/admit.hpp"
#include "rtw/svc/config.hpp"
#include "rtw/svc/handoff.hpp"
#include "rtw/svc/ring.hpp"
#include "rtw/svc/session.hpp"
#include "rtw/svc/wire.hpp"

namespace rtw::svc {

/// Monotone service-wide tallies: the serving layer's one counter
/// substrate, kept per SessionManager (never process-wide).
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
  std::uint64_t parks = 0;    ///< futex waits the shard workers entered
  std::uint64_t wakes = 0;    ///< ... that ended with the wake claimed
  std::uint64_t spin_ns = 0;  ///< worker time spent spinning on an empty ring
};

/// Builds the acceptor for a wire-opened session; `profile` is the Open
/// frame's body, verbatim.  Returning nullptr refuses the session.
using AcceptorFactory = std::function<std::unique_ptr<core::OnlineAcceptor>(
    SessionId, std::string_view profile)>;

/// Observer for finished sessions: manager-wide with set_report_sink(),
/// or per session as open()'s `route`, which takes precedence.  Invoked
/// on the shard worker that finished the session, outside any manager
/// lock.  Return true to consume the report (it will NOT be queued for
/// collect()); false to fall through to the collect() queue.  The Server
/// facade opens each wire session with a route that pushes its Verdict
/// frame to the owning connection the moment the stream settles.
using ReportSink = std::function<bool(const SessionReport&)>;

class SessionManager {
public:
  explicit SessionManager(ServerConfig config = {});
  /// Convenience: shard + ingress blocks without a NetConfig.
  SessionManager(ShardConfig shard, IngressConfig ingress);
  /// Drains and truncation-closes every remaining session, then stops and
  /// joins the shard workers.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // ------------------------------------------------------- direct API

  /// Opens a session under a fresh id (control plane: never shed).
  SessionId open(std::unique_ptr<core::OnlineAcceptor> acceptor,
                 Priority priority = Priority::Normal);
  /// Opens a session under a caller-chosen id (wire replay).  Opening an
  /// id that is already live is counted as `unknown` and ignored by the
  /// shard worker.  A non-null `route` receives this session's report in
  /// place of the manager-wide sink; the shard worker destroys it once the
  /// session is finished.
  void open(SessionId id, std::unique_ptr<core::OnlineAcceptor> acceptor,
            Priority priority = Priority::Normal, ReportSink route = nullptr);

  /// Routes one symbol to the session's shard (data plane: bounded) as a
  /// run of one.  Returns the admission outcome with its structured shed
  /// reason; converts implicitly to the bare Admit for pre-split call sites.
  AdmitResult feed(SessionId id, core::Symbol symbol, core::Tick at) {
    return feed_batch(id, {{symbol, at}});
  }

  /// Batched admission: publishes the whole run in one ring slot,
  /// all-or-nothing.  Element times must be nondecreasing (they share the
  /// session's stale filter symbol by symbol).  Admission cost -- the
  /// occupancy read, table probe, ring claim and wake check -- is paid once
  /// for the run instead of once per symbol.  An admitted run is copied
  /// into a buffer from the calling thread's pool; a refusal copies
  /// nothing.
  AdmitResult feed_batch(SessionId id, std::vector<core::TimedSymbol> run);

  /// Batched admission of an op-12 body, validated by a PackedMode::Pool
  /// Decoder: one ring slot, all-or-nothing, like feed_batch.  The shard
  /// worker reads the bytes itself.  The body moves into the ring only
  /// when admitted; a refusal (Shed or Blocked) leaves it with the
  /// caller, so a Blocked body can be parked and retried as it is.
  AdmitResult feed_packed(SessionId id, PackedBody& body);

  /// Finishes the session and queues its SessionReport for collect()
  /// (or hands it to the session's route or the report sink).
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

  /// Builds the acceptor an Open or SubmitQuery event asks for: the
  /// factory's for an Open (profile = the frame's body, verbatim), a
  /// compiled query for a SubmitQuery.  nullptr refuses the session.
  /// Both wire paths (apply() and the Server facade) open through this.
  std::unique_ptr<core::OnlineAcceptor> build_acceptor(
      SessionId id, const WireEvent& event, const AcceptorFactory& factory);

  /// Compiles a SubmitQuery body into a per-session acceptor.  The text
  /// is already syntax-checked by the wire Decoder, but this method
  /// re-parses defensively (direct callers exist) and applies the
  /// CompileLimits resource policy; nullptr refuses the session, with
  /// the attempt tallied under query_compiled / query_rejected.  The
  /// compile runs under an `svc.query.compile` span.
  std::unique_ptr<core::OnlineAcceptor> build_query_acceptor(
      SessionId id, std::string_view query);

  // ----------------------------------------------------- lifecycle

  /// Blocks until every command enqueued before this call has been
  /// processed and all shard workers are idle (spinning or parked).  The
  /// caller yields while it waits.
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

  /// Ring-wait samples a shard keeps between takes.
  static constexpr std::size_t kLatencySamples = 8192;

  /// Takes the sampled enqueue->process feed latencies (steady-clock ns)
  /// since the last call: per shard, a uniform sample of at most
  /// kLatencySamples of them.  Call only while drained (the samples are
  /// worker-private between drains).
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
  /// What an Open command carries, behind one pointer so the ring slot
  /// stays the size the Feed commands need.
  struct Opening {
    std::unique_ptr<core::OnlineAcceptor> acceptor;
    ReportSink route;
  };

  struct Command {
    enum class Kind : std::uint8_t { Open, Feed, FeedPacked, Close, CloseAll };
    Kind kind = Kind::Feed;
    Priority priority = Priority::Normal;
    core::StreamEnd end = core::StreamEnd::EndOfWord;
    SessionId id = 0;
    std::uint64_t enqueue_ns = 0;  ///< steady-clock stamp; 0 = unstamped
    SessionTable::Slot* slot = nullptr;  ///< paired in-flight decrement
    std::unique_ptr<Opening> opening;    ///< Open only
    /// Feed: the run's TimedSymbols; FeedPacked: an op-12 body.  Never
    /// empty on either.
    PackedBody body;
  };
  // Every ring slot holds one Command: keep Open's payload from growing it.
  static_assert(sizeof(Command) == 48, "Command is one 48-byte ring slot");

  struct Entry {
    Session session;
    std::uint64_t last_active;
    ReportSink route;  ///< per-session sink; empty = the manager-wide one
    Entry(Session s, std::uint64_t epoch, ReportSink r)
        : session(std::move(s)), last_active(epoch), route(std::move(r)) {}
  };

  /// A tally with one writer, the shard's worker: bumped with a relaxed
  /// load and store, never an RMW, and read by stats() from any thread.
  class WorkerCounter {
  public:
    void add(std::uint64_t n) noexcept {
      value_.store(value_.load(std::memory_order_relaxed) + n,
                   std::memory_order_relaxed);
    }
    std::uint64_t get() const noexcept {
      return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
  };

  struct Shard {
    explicit Shard(const IngressConfig& ingress);

    MpscRing<Command> ring;
    SessionTable table;           ///< producer-readable priority/quota hints
    handoff::HandoffState handoff;

    // Worker-private state.  It starts on its own cache line: producers
    // read the handoff's parked word on every admission, and the worker
    // writes this block on every command.
    alignas(kCacheLine) std::uint64_t epoch = 0;  ///< drained batches so far
    WorkerCounter ingested, epochs, batches, lane_symbols, lane_waves, parks,
        wakes, spin_ns;
    std::unordered_map<SessionId, Entry> sessions;
    std::vector<Command> staging;
    /// Algorithm R reservoir of ring waits: kLatencySamples at most,
    /// reserved on the first sample.
    std::vector<std::uint64_t> latency_samples;
    std::uint64_t latency_seen = 0;  ///< waits offered since the last take

    // Lane-kernel wave, staged during one process() pass and always
    // flushed before it returns (the LaneRuns point into `staging`).
    // One stepper per shard, built lazily from the first lane-family
    // acceptor; sessions of other families take feed_run.
    std::unique_ptr<core::BatchStepper> stepper;
    bool stepper_probed = false;
    std::vector<core::LaneRun> wave;
    std::vector<Session*> wave_sessions;
    /// Decoded packed runs of the staged wave (their LaneRuns point in
    /// here).  Reserved once, on the first such run; a run that does not
    /// fit flushes the wave first, so it never reallocates under them.
    std::vector<core::TimedSymbol> wave_symbols;

    std::mutex reports_mutex;
    std::vector<SessionReport> reports;
  };

  /// Data-plane admission: watermarks, quota, ring claim, wake.
  /// `command` moves into the ring only when admitted.  A non-null `run`
  /// (a Feed's `symbols` elements) is copied into the command's body once
  /// the checks pass, just before the ring claim.
  AdmitResult admit_data(Command& command, std::size_t symbols,
                         const core::TimedSymbol* run = nullptr);
  /// feed_batch's admission of `n` symbols at `run`.
  AdmitResult admit_run(SessionId id, const core::TimedSymbol* run,
                        std::size_t n);
  /// Control-plane enqueue: never sheds; spins into the ring's headroom.
  void enqueue_control(Shard& shard, Command command);
  /// The producer's half of the handoff, after a ring push: wakes the
  /// shard's worker if it is parked.
  void wake_worker(Shard& shard);
  void count_shed(ShedReason reason, std::size_t symbols);
  /// The shard's side of the handoff steps (handoff.hpp).
  struct WorkerEnv;
  /// The dedicated worker thread's body: handoff::work over WorkerEnv.
  void run_worker(Shard& shard);
  /// Processes the batch the worker took, as one epoch, and releases it.
  void run_epoch(Shard& shard);
  void process(Shard& shard, std::uint64_t epoch);
  /// What every data command does before it is fed: the in-flight
  /// decrement, the session lookup, the wave-order flush, the latency
  /// sample and the age watermark.  Returns the entry to feed, or nullptr
  /// when the command is dropped (tallied in `unknown` or `aged`).
  Entry* take_data(Shard& shard, const Command& command, std::size_t n,
                   std::uint64_t now_ns, std::uint64_t epoch,
                   std::uint64_t& unknown, std::uint64_t& aged);
  /// The session's lane state when its runs go through the shard's lane
  /// wave (probing the shard's stepper on first use); nullptr otherwise.
  void* lane_of(Shard& shard, Session& session);
  /// Stages one run, with its summary or nullptr, into the wave; flushes
  /// it once it is full.
  void stage_lane_run(Shard& shard, Session& session, void* lane,
                      const core::TimedSymbol* run, std::size_t n,
                      const core::RunSummary* summary);
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
  std::vector<std::thread> workers_;  ///< one per shard, same order
  std::atomic<SessionId> next_id_{1};
  ReportSink report_sink_;

  /// The tallies more than one thread bumps; the per-epoch ones are the
  /// shards' WorkerCounters.
  struct AtomicStats {
    std::atomic<std::uint64_t> opened{0}, closed{0}, shed{0},
        shed_ring_full{0}, shed_session_bound{0}, shed_priority{0},
        blocked{0}, stale{0}, evicted{0}, unknown{0}, active{0},
        query_compiled{0}, query_rejected{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace rtw::svc
