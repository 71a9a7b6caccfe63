#include "rtw/svc/service.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "rtw/cer/acceptor.hpp"
#include "rtw/cer/compile.hpp"
#include "rtw/cer/parser.hpp"
#include "rtw/obs/sink.hpp"

namespace rtw::svc {

namespace {

/// splitmix64 finalizer: spreads consecutive session ids across shards.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Physical slots reserved above the data-plane bound so control
/// commands (open/close/close-all) always find room.
constexpr std::size_t kControlHeadroom = 64;

/// Ring slots a shard worker drains per epoch.
constexpr std::size_t kDrainBatch = 256;

/// How long a shard worker spins on its empty ring before it parks.  A
/// park costs the next producer a FUTEX_WAKE and the worker a reschedule,
/// several microseconds on a VM; 50 us is an order of magnitude above the
/// gap between two runs a busy producer pushes to one shard (a few us),
/// so a shard under steady load never parks, while an idle worker stops
/// burning its CPU within 50 us.  A constant, not a knob.
constexpr std::uint64_t kSpinWindowNs = 50'000;

/// Decoded packed-run symbols a shard's lane wave holds before it flushes
/// (384 KiB of TimedSymbols, reserved on the first such run).
constexpr std::size_t kWaveSymbols = std::size_t{1} << 14;

/// Priority watermarks, as fractions of `ring_capacity`: above
/// kWatermarkLow occupancy Low-priority data sheds, above kWatermarkHigh
/// Normal sheds too (High survives until the ring is physically full).
constexpr double kWatermarkLow = 0.5;
constexpr double kWatermarkHigh = 0.875;

/// Copies a Feed run into a buffer from the calling thread's pool, behind
/// its summary: the body is a core::RunSummary, then the elements.  The
/// summary is made here, once, while the run is in this thread's cache,
/// so a shard that steps the run in closed form reads only the summary
/// (summary_of) and never pulls the elements (run_of) across cores.  Both
/// are read in place, so they must survive a byte copy and sit aligned.
PackedBody pooled_run(const core::TimedSymbol* run, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<core::TimedSymbol> &&
                    std::is_trivially_copyable_v<core::RunSummary>,
                "a run and its summary are copied byte for byte");
  static_assert(alignof(core::RunSummary) <= BodyPool::kAlign &&
                    sizeof(core::RunSummary) % alignof(core::TimedSymbol) ==
                        0,
                "a body's summary and elements sit aligned");
  thread_local BodyPool pool;
  const core::RunSummary summary = core::summarize_run(run, n);
  return pool.take({reinterpret_cast<const char*>(&summary), sizeof summary},
                   {reinterpret_cast<const char*>(run),
                    n * sizeof(core::TimedSymbol)},
                   n);
}

/// Offers one ring wait to a shard's reservoir (Algorithm R): the first
/// `cap` waits fill it, and the k-th after them replaces a uniform slot
/// with probability cap / k, so the samples' memory stays flat however
/// long nobody takes them.
void sample_latency(std::vector<std::uint64_t>& samples, std::uint64_t& seen,
                    std::size_t cap, std::uint64_t waited) {
  const std::uint64_t k = seen++;
  if (k < cap) {
    if (samples.capacity() < cap) samples.reserve(cap);
    samples.push_back(waited);
    return;
  }
  const std::uint64_t pick = mix(k) % (k + 1);
  if (pick < cap) samples[pick] = waited;
}

/// The summary pooled_run wrote at the head of `body`.
const core::RunSummary* summary_of(const PackedBody& body) noexcept {
  return reinterpret_cast<const core::RunSummary*>(body.bytes().data());
}

/// The elements pooled_run copied into `body`, after its summary.
const core::TimedSymbol* run_of(const PackedBody& body) noexcept {
  return reinterpret_cast<const core::TimedSymbol*>(body.bytes().data() +
                                                    sizeof(core::RunSummary));
}

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "the parked word is a futex word");

std::uint32_t* futex_word(std::atomic<std::uint32_t>& word) noexcept {
  return reinterpret_cast<std::uint32_t*>(&word);
}

/// The producer's and the destructor's side of a wake.
struct WakeEnv {
  void wake(handoff::HandoffState& s) noexcept {
    ::syscall(SYS_futex, futex_word(s.parked), FUTEX_WAKE_PRIVATE, 1,
              nullptr, nullptr, 0);
  }
};

/// drain()'s side of its wait on one shard.
template <typename Ring>
struct DrainEnv {
  const Ring* ring;
  bool ring_empty() const noexcept { return ring->empty(); }
  void pause() const noexcept { std::this_thread::yield(); }
};

/// A spin-wait hint to the core (no-op where there is none).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

/// The worker's side of the handoff steps.
struct SessionManager::WorkerEnv {
  SessionManager& manager;
  Shard& shard;
  std::uint64_t spin_start = 0;
  std::uint64_t spin_now = 0;

  bool ring_empty() const noexcept { return shard.ring.empty(); }
  void take() { shard.ring.pop_batch(shard.staging, kDrainBatch); }
  void process() { manager.run_epoch(shard); }
  void spin_begin() noexcept { spin_start = spin_now = obs::now_ns(); }
  bool spin_expired() noexcept {
    cpu_relax();
    spin_now = obs::now_ns();
    return spin_now - spin_start >= kSpinWindowNs;
  }
  void spin_end() noexcept { shard.spin_ns.add(spin_now - spin_start); }
  void sleep(handoff::HandoffState& s) noexcept {
    shard.parks.add(1);
    ::syscall(SYS_futex, futex_word(s.parked), FUTEX_WAIT_PRIVATE, 1u,
              nullptr, nullptr, 0);
    // A claimed wake cleared the word; a spurious return left it set.
    if (s.parked.load(std::memory_order_relaxed) == 0) shard.wakes.add(1);
  }
};

std::string to_string(Admit a) {
  switch (a) {
    case Admit::Accepted: return "accepted";
    case Admit::Shed: return "shed";
    case Admit::Blocked: return "blocked";
  }
  return "admit?";
}

std::string to_string(ShedReason r) {
  switch (r) {
    case ShedReason::None: return "none";
    case ShedReason::RingFull: return "ring_full";
    case ShedReason::SessionBound: return "session_bound";
    case ShedReason::Priority: return "priority";
  }
  return "shed?";
}

std::string to_string(const AdmitResult& r) {
  std::string out = to_string(r.admit);
  if (r.reason != ShedReason::None) {
    out += '(';
    out += to_string(r.reason);
    out += ')';
  }
  return out;
}

SessionManager::Shard::Shard(const IngressConfig& ingress)
    : ring(ingress.ring_capacity + kControlHeadroom),
      table(ingress.session_slots) {
  // An epoch drains at most kDrainBatch commands and stages at most one
  // lane run per command, so a shard that falls behind never grows these
  // on its worker.
  staging.reserve(kDrainBatch);
  wave.reserve(kDrainBatch);
  wave_sessions.reserve(kDrainBatch);
}

SessionManager::SessionManager(ServerConfig config)
    : shard_cfg_(config.shard), ingress_cfg_(config.ingress) {
  if (shard_cfg_.count == 0) shard_cfg_.count = 1;
  if (ingress_cfg_.ring_capacity == 0) ingress_cfg_.ring_capacity = 1;
  // Ceil, not floor: the watermark means "shed *above* this occupancy
  // fraction", so a tiny ring must not round a threshold down into the
  // always-shedding range (e.g. 0.875 of a 2-slot ring is still 2 slots).
  const auto capacity = static_cast<double>(ingress_cfg_.ring_capacity);
  watermark_low_slots_ =
      static_cast<std::size_t>(std::ceil(kWatermarkLow * capacity));
  watermark_high_slots_ =
      static_cast<std::size_t>(std::ceil(kWatermarkHigh * capacity));
  shards_.reserve(shard_cfg_.count);
  for (unsigned i = 0; i < shard_cfg_.count; ++i)
    shards_.push_back(std::make_unique<Shard>(ingress_cfg_));
  workers_.reserve(shards_.size());
  for (const auto& shard : shards_)
    workers_.emplace_back([this, &s = *shard] { run_worker(s); });
}

SessionManager::SessionManager(ShardConfig shard, IngressConfig ingress)
    : SessionManager(ServerConfig{shard, ingress, {}}) {}

SessionManager::~SessionManager() {
  shutdown(core::StreamEnd::Truncated);
  // `stop` is published like a command: the wake's fence orders it before
  // the read of the parked word, so a worker either sees it on its
  // re-check or is woken to see it.
  WakeEnv env;
  for (const auto& shard : shards_) {
    shard->handoff.stop.store(true, std::memory_order_relaxed);
    handoff::wake(shard->handoff, env);
  }
  for (auto& worker : workers_) worker.join();
}

unsigned SessionManager::shard_of(SessionId id) const noexcept {
  return static_cast<unsigned>(mix(id) % shards_.size());
}

std::size_t SessionManager::ring_depth(unsigned shard) const noexcept {
  return shard < shards_.size() ? shards_[shard]->ring.approx_size() : 0;
}

void SessionManager::wake_worker(Shard& shard) {
  WakeEnv env;
  handoff::wake(shard.handoff, env);
}

void SessionManager::count_shed(ShedReason reason, std::size_t symbols) {
  stats_.shed.fetch_add(symbols, std::memory_order_relaxed);
  switch (reason) {
    case ShedReason::RingFull:
      stats_.shed_ring_full.fetch_add(symbols, std::memory_order_relaxed);
      break;
    case ShedReason::SessionBound:
      stats_.shed_session_bound.fetch_add(symbols, std::memory_order_relaxed);
      break;
    case ShedReason::Priority:
      stats_.shed_priority.fetch_add(symbols, std::memory_order_relaxed);
      break;
    case ShedReason::None:
      break;
  }
}

AdmitResult SessionManager::admit_data(Command& command, std::size_t symbols,
                                       const core::TimedSymbol* run) {
  Shard& shard = *shards_[shard_of(command.id)];
  const std::size_t depth = shard.ring.approx_size();
  const auto refuse = [this](ShedReason reason,
                             std::size_t n) -> AdmitResult {
    if (ingress_cfg_.shed_on_full) {
      count_shed(reason, n);
      return AdmitResult{Admit::Shed, reason};
    }
    stats_.blocked.fetch_add(1, std::memory_order_relaxed);
    return AdmitResult{Admit::Blocked, reason};
  };

  // 1. Hard bound: the data plane never claims the control headroom.
  if (depth >= ingress_cfg_.ring_capacity)
    return refuse(ShedReason::RingFull, symbols);

  // 2. Adaptive admission: the hint table is consulted only when the
  //    quota is on or the ring is deep enough for watermarks to matter,
  //    keeping the uncontended fast path at one occupancy read.
  SessionTable::Slot* slot = nullptr;
  if (ingress_cfg_.session_quota > 0 || depth >= watermark_low_slots_) {
    slot = shard.table.find(command.id);
    const Priority priority =
        slot ? static_cast<Priority>(
                   slot->priority.load(std::memory_order_relaxed))
             : Priority::Normal;
    command.priority = priority;
    if (ingress_cfg_.session_quota > 0 && slot &&
        slot->inflight.load(std::memory_order_relaxed) + symbols >
            ingress_cfg_.session_quota)
      return refuse(ShedReason::SessionBound, symbols);
    if (ingress_cfg_.shed_on_full && priority < Priority::High) {
      const std::size_t survives_until = priority == Priority::Low
                                             ? watermark_low_slots_
                                             : watermark_high_slots_;
      if (depth >= survives_until)
        return refuse(ShedReason::Priority, symbols);
    }
  }

  // 3. Stamp for latency sampling and the age watermark.  The sampling
  //    tick is the admitting thread's own: one manager-wide counter would
  //    be a word every producer RMWs on every admission.
  thread_local std::uint64_t sample_tick = 0;
  if (ingress_cfg_.max_queue_delay_ns > 0) {
    command.enqueue_ns = obs::now_ns();
  } else if (ingress_cfg_.latency_sample_every > 0 &&
             sample_tick++ % ingress_cfg_.latency_sample_every == 0) {
    command.enqueue_ns = obs::now_ns();
  }

  // 4. Copy the run now that it is past every check, so a refusal costs
  //    no copy.  Then claim a ring slot.  The occupancy check above is
  //    approximate under concurrency, so the push itself can still find
  //    the ring full; the copy then goes back to its pool.
  if (run) command.body = pooled_run(run, symbols);
  if (slot) {
    command.slot = slot;
    slot->inflight.fetch_add(static_cast<std::uint32_t>(symbols),
                             std::memory_order_relaxed);
  }
  if (!shard.ring.try_push(command)) {
    if (command.slot)
      command.slot->inflight.fetch_sub(static_cast<std::uint32_t>(symbols),
                                       std::memory_order_relaxed);
    return refuse(ShedReason::RingFull, symbols);
  }
  wake_worker(shard);
  return AdmitResult{};
}

void SessionManager::enqueue_control(Shard& shard, Command command) {
  // Control never sheds: the physical headroom above ring_capacity is
  // reserved for it, and in the pathological case of a headroom-full ring
  // we spin.  A full ring's worker is awake: it parks only after a
  // re-check finds its ring empty, and every push after that wakes it.
  while (!shard.ring.try_push(command)) std::this_thread::yield();
  wake_worker(shard);
}

SessionId SessionManager::open(std::unique_ptr<core::OnlineAcceptor> acceptor,
                               Priority priority) {
  const SessionId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  open(id, std::move(acceptor), priority);
  return id;
}

void SessionManager::open(SessionId id,
                          std::unique_ptr<core::OnlineAcceptor> acceptor,
                          Priority priority, ReportSink route) {
  // Register the admission hint before the command is queued so feeds
  // racing right behind the open already see the session's priority.
  Shard& shard = *shards_[shard_of(id)];
  shard.table.insert(id, priority);
  Command c;
  c.kind = Command::Kind::Open;
  c.id = id;
  c.priority = priority;
  c.opening = std::make_unique<Opening>(
      Opening{std::move(acceptor), std::move(route)});
  enqueue_control(shard, std::move(c));
}

AdmitResult SessionManager::feed_batch(SessionId id,
                                       std::vector<core::TimedSymbol> run) {
  return admit_run(id, run.data(), run.size());
}

AdmitResult SessionManager::admit_run(SessionId id,
                                      const core::TimedSymbol* run,
                                      std::size_t n) {
  if (n == 0) return AdmitResult{};
  Command c;
  c.kind = Command::Kind::Feed;
  c.id = id;
  return admit_data(c, n, run);
}

AdmitResult SessionManager::feed_packed(SessionId id, PackedBody& body) {
  const std::size_t symbols = body.symbols();
  if (symbols == 0) return AdmitResult{};
  Command c;
  c.kind = Command::Kind::FeedPacked;
  c.id = id;
  c.body = std::move(body);
  const AdmitResult admitted = admit_data(c, symbols);
  if (admitted != Admit::Accepted) body = std::move(c.body);
  return admitted;
}

void SessionManager::close(SessionId id, core::StreamEnd end) {
  Command c;
  c.kind = Command::Kind::Close;
  c.id = id;
  c.end = end;
  enqueue_control(*shards_[shard_of(id)], std::move(c));
}

std::unique_ptr<core::OnlineAcceptor> SessionManager::build_query_acceptor(
    SessionId id, std::string_view query) {
  (void)id;
  RTW_SPAN("svc.query.compile");
  std::unique_ptr<core::OnlineAcceptor> acceptor;
  auto parsed = cer::parse(query);
  if (parsed.ok()) {
    auto compiled = cer::compile(*parsed.query);
    if (compiled.ok()) {
      acceptor = cer::make_online_acceptor(std::move(*compiled.compiled));
    }
  }
  if (acceptor) {
    stats_.query_compiled.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.query_rejected.fetch_add(1, std::memory_order_relaxed);
  }
  return acceptor;
}

std::unique_ptr<core::OnlineAcceptor> SessionManager::build_acceptor(
    SessionId id, const WireEvent& event, const AcceptorFactory& factory) {
  if (event.kind == WireEvent::Kind::SubmitQuery)
    return build_query_acceptor(id, event.profile);
  return factory ? factory(id, event.profile) : nullptr;
}

AdmitResult SessionManager::apply(const WireEvent& event,
                                  const AcceptorFactory& factory) {
  switch (event.kind) {
    case WireEvent::Kind::Open:
    case WireEvent::Kind::SubmitQuery: {
      auto acceptor = build_acceptor(event.session, event, factory);
      if (!acceptor) {
        // A refused query is already tallied as query_rejected.
        if (event.kind == WireEvent::Kind::Open)
          stats_.unknown.fetch_add(1, std::memory_order_relaxed);
        return AdmitResult{Admit::Shed, ShedReason::None};
      }
      open(event.session, std::move(acceptor), event.priority);
      return AdmitResult{};
    }
    case WireEvent::Kind::Symbols: {
      // One decoded event = one batched ring slot, all-or-nothing.  The
      // wire reader is the backpressure point: wait out Blocked instead
      // of tearing the run in half.  Only an admitted run is copied, so
      // the retry reads the event's symbols as they are.
      std::vector<core::TimedSymbol> decoded;
      if (event.packed) decode_packed(event.packed.bytes(), decoded);
      const auto& run = event.packed ? decoded : event.symbols;
      for (;;) {
        const AdmitResult a = admit_run(event.session, run.data(), run.size());
        if (a != Admit::Blocked) return a;
        std::this_thread::yield();
      }
    }
    case WireEvent::Kind::Close:
      close(event.session, event.end);
      return AdmitResult{};
    default:
      // Protocol-level events (Hello, server->client notifications) are
      // not servable traffic; the Server facade consumes them upstream.
      break;
  }
  return AdmitResult{Admit::Shed, ShedReason::None};
}

void SessionManager::run_worker(Shard& shard) {
  WorkerEnv env{*this, shard};
  handoff::work(shard.handoff, env);
}

void SessionManager::run_epoch(Shard& shard) {
  if (shard.staging.empty()) return;  // the claimed cell was not published
  RTW_SPAN("svc.shard.run");
  // One epoch per drained batch: the shard's idle-eviction clock.
  process(shard, ++shard.epoch);
  shard.epochs.add(1);
  shard.batches.add(shard.staging.size());
  // Dropping the commands hands their buffers back to their pools before
  // the worker can go idle.
  shard.staging.clear();
}

// The helpers process() shares between its Feed and FeedPacked cases are
// forced inline, so the Feed case compiles as it did when it was written
// out in full.
[[gnu::always_inline]] inline SessionManager::Entry*
SessionManager::take_data(Shard& shard, const Command& command, std::size_t n,
                          std::uint64_t now_ns, std::uint64_t epoch,
                          std::uint64_t& unknown, std::uint64_t& aged) {
  if (command.slot)
    command.slot->inflight.fetch_sub(static_cast<std::uint32_t>(n),
                                     std::memory_order_relaxed);
  const auto it = shard.sessions.find(command.id);
  if (it == shard.sessions.end()) {
    ++unknown;
    return nullptr;
  }
  // A second command for a session whose run is already staged in the
  // lane wave must not overtake it: flush to keep per-session submission
  // order.
  if (it->second.session.in_wave()) flush_wave(shard);
  if (command.enqueue_ns && now_ns > command.enqueue_ns) {
    const std::uint64_t waited = now_ns - command.enqueue_ns;
    if (ingress_cfg_.latency_sample_every > 0)
      sample_latency(shard.latency_samples, shard.latency_seen,
                     kLatencySamples, waited);
    // Age watermark: stale-in-the-ring data is shed, not fed -- unless
    // the session is High priority, which always lands.  The session's
    // own priority is authoritative here (the command may have been
    // admitted without a hint-table probe).
    if (ingress_cfg_.max_queue_delay_ns > 0 &&
        waited > ingress_cfg_.max_queue_delay_ns &&
        it->second.session.priority() < Priority::High) {
      aged += n;
      return nullptr;
    }
  }
  it->second.last_active = epoch;
  return &it->second;
}

[[gnu::always_inline]] inline void* SessionManager::lane_of(
    Shard& shard, Session& session) {
  if (!shard_cfg_.lane_kernel || session.finished() ||
      session.acceptor().lane_family() == core::LaneFamily::None)
    return nullptr;
  core::OnlineAcceptor& acceptor = session.acceptor();
  if (!shard.stepper && !shard.stepper_probed) {
    shard.stepper_probed = true;
    shard.stepper = acceptor.make_lane_stepper();
  }
  void* lane = acceptor.lane_state();
  if (lane && shard.stepper &&
      shard.stepper->family() == acceptor.lane_family())
    return lane;
  return nullptr;
}

[[gnu::always_inline]] inline void SessionManager::stage_lane_run(
    Shard& shard, Session& session, void* lane, const core::TimedSymbol* run,
    std::size_t n, const core::RunSummary* summary) {
  shard.wave.push_back(
      core::LaneRun{run, n, &session.lane_filter(), lane, summary});
  shard.wave_sessions.push_back(&session);
  session.set_in_wave(true);
  if (shard.wave.size() >= shard_cfg_.lane_wave) flush_wave(shard);
}

void SessionManager::process(Shard& shard, std::uint64_t epoch) {
  std::uint64_t ingested = 0;
  std::uint64_t unknown = 0;
  std::uint64_t aged = 0;
  // One clock read per epoch serves every stamped command in the batch.
  const std::uint64_t now_ns =
      (ingress_cfg_.max_queue_delay_ns > 0 ||
       ingress_cfg_.latency_sample_every > 0)
          ? obs::now_ns()
          : 0;
  for (auto& command : shard.staging) {
    switch (command.kind) {
      case Command::Kind::Open: {
        Opening& opening = *command.opening;
        const auto [it, inserted] = shard.sessions.try_emplace(
            command.id,
            Session(command.id, std::move(opening.acceptor),
                    command.priority),
            epoch, std::move(opening.route));
        if (!inserted) {
          ++unknown;  // double open: id already live on this shard
          break;
        }
        stats_.opened.fetch_add(1, std::memory_order_relaxed);
        stats_.active.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case Command::Kind::Feed: {
        const std::size_t n = command.body.symbols();
        Entry* entry =
            take_data(shard, command, n, now_ns, epoch, unknown, aged);
        if (!entry) break;
        Session& session = entry->session;
        ingested += n;
        // Runs of lane-family sessions stage into the wave and are stepped
        // many-at-a-time by the lane kernel; everything else (cold
        // acceptors, foreign families) takes feed_run.  The LaneRun aliases
        // the command's buffer, summary and elements, which outlives the
        // wave: the staging vector is stable until the next drain and every
        // wave is flushed before process() returns.
        const core::TimedSymbol* run = run_of(command.body);
        if (void* lane = lane_of(shard, session)) {
          stage_lane_run(shard, session, lane, run, n,
                         summary_of(command.body));
          break;
        }
        const std::uint64_t stale_before = session.stale_dropped();
        session.feed_run(run, n);
        const std::uint64_t stale_delta =
            session.stale_dropped() - stale_before;
        if (stale_delta)
          stats_.stale.fetch_add(stale_delta, std::memory_order_relaxed);
        break;
      }
      case Command::Kind::FeedPacked: {
        const std::size_t n = command.body.symbols();
        Entry* entry =
            take_data(shard, command, n, now_ns, epoch, unknown, aged);
        if (!entry) break;
        Session& session = entry->session;
        ingested += n;
        // The kernel steps decoded runs, so a lane run decodes into the
        // shard's wave storage; any other session reads the bytes as it
        // feeds.  Either way the body's buffer goes back to its pool when
        // the staging vector is cleared.
        if (void* lane = lane_of(shard, session)) {
          auto& symbols = shard.wave_symbols;
          if (symbols.size() + n > symbols.capacity()) {
            flush_wave(shard);  // the staged LaneRuns point into `symbols`
            symbols.reserve(std::max(n, kWaveSymbols));
          }
          const std::size_t first = symbols.size();
          symbols.resize(first + n);
          PackedReader reader(command.body.bytes());
          symbols.resize(first + reader.read(symbols.data() + first, n));
          stage_lane_run(shard, session, lane, symbols.data() + first,
                         symbols.size() - first, nullptr);
          break;
        }
        const std::uint64_t stale_before = session.stale_dropped();
        session.feed_packed(command.body.bytes());
        const std::uint64_t stale_delta =
            session.stale_dropped() - stale_before;
        if (stale_delta)
          stats_.stale.fetch_add(stale_delta, std::memory_order_relaxed);
        break;
      }
      case Command::Kind::Close: {
        shard.table.erase(command.id);
        const auto it = shard.sessions.find(command.id);
        if (it == shard.sessions.end()) {
          ++unknown;
          break;
        }
        // The staged wave may hold a run for this session: land it before
        // the finish, and before erase invalidates the wave's pointers.
        if (it->second.session.in_wave()) flush_wave(shard);
        finish_session(shard, it->second, command.end, /*evicted=*/false);
        shard.sessions.erase(it);
        break;
      }
      case Command::Kind::CloseAll: {
        flush_wave(shard);
        for (auto& [id, entry] : shard.sessions) {
          shard.table.erase(id);
          finish_session(shard, entry, command.end, /*evicted=*/false);
        }
        shard.sessions.clear();
        break;
      }
    }
  }
  flush_wave(shard);  // nothing staged survives the epoch
  if (ingested) shard.ingested.add(ingested);
  if (aged) count_shed(ShedReason::Priority, aged);
  if (unknown) stats_.unknown.fetch_add(unknown, std::memory_order_relaxed);
  if (shard_cfg_.idle_epochs > 0) evict_idle(shard, epoch);
}

void SessionManager::flush_wave(Shard& shard) {
  if (shard.wave.empty()) return;
  // The kernel advances each lane's stale filter in-register; recover the
  // per-epoch stale delta the same way the feed_run path does, by
  // differencing the filters around the step.
  std::uint64_t stale_before = 0;
  std::uint64_t symbols = 0;
  for (const auto& run : shard.wave) {
    stale_before += run.filter->stale;
    symbols += run.size;
  }
  shard.stepper->step(shard.wave.data(), shard.wave.size());
  std::uint64_t stale_after = 0;
  for (const auto& run : shard.wave) stale_after += run.filter->stale;
  const std::uint64_t stale_delta = stale_after - stale_before;
  if (stale_delta)
    stats_.stale.fetch_add(stale_delta, std::memory_order_relaxed);
  shard.lane_symbols.add(symbols);
  shard.lane_waves.add(1);
  for (Session* session : shard.wave_sessions) session->set_in_wave(false);
  shard.wave.clear();
  shard.wave_sessions.clear();
  shard.wave_symbols.clear();
}

void SessionManager::finish_session(Shard& shard, Entry& entry,
                                    core::StreamEnd end, bool evicted) {
  entry.session.finish(end);
  SessionReport report = entry.session.report(evicted);
  stats_.closed.fetch_add(1, std::memory_order_relaxed);
  stats_.active.fetch_sub(1, std::memory_order_relaxed);
  // A sink that consumes the report keeps it out of the collect() queue.
  // It runs on the shard worker with no manager locks held, so it may call
  // back into feed/close (but must not block on shard progress).  The
  // session's own route, when it has one, replaces the manager-wide sink.
  const ReportSink& sink = entry.route ? entry.route : report_sink_;
  if (sink && sink(report)) return;
  std::lock_guard lock(shard.reports_mutex);
  shard.reports.push_back(std::move(report));
}

void SessionManager::evict_idle(Shard& shard, std::uint64_t epoch) {
  for (auto it = shard.sessions.begin(); it != shard.sessions.end();) {
    if (epoch >= it->second.last_active &&
        epoch - it->second.last_active >= shard_cfg_.idle_epochs) {
      shard.table.erase(it->first);
      finish_session(shard, it->second, core::StreamEnd::Truncated,
                     /*evicted=*/true);
      stats_.evicted.fetch_add(1, std::memory_order_relaxed);
      it = shard.sessions.erase(it);
    } else {
      ++it;
    }
  }
}

void SessionManager::drain() {
  // A report sink may push into another shard, so the pass repeats until
  // it finds every shard settled without waiting.
  for (bool settled = false; !settled;) {
    settled = true;
    for (const auto& shard : shards_) {
      DrainEnv env{&shard->ring};
      settled = handoff::drain(shard->handoff, env) && settled;
    }
  }
}

void SessionManager::shutdown(core::StreamEnd end) {
  drain();  // let in-flight opens land before the close-all sweep
  // CloseAll is processed per shard regardless of id: send one to each.
  for (const auto& shard : shards_) {
    Command c;
    c.kind = Command::Kind::CloseAll;
    c.end = end;
    enqueue_control(*shard, std::move(c));
  }
  drain();
}

std::vector<SessionReport> SessionManager::collect() {
  std::vector<SessionReport> out;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->reports_mutex);
    if (out.empty()) {
      out = std::move(shard->reports);
      shard->reports.clear();
    } else {
      for (auto& r : shard->reports) out.push_back(std::move(r));
      shard->reports.clear();
    }
  }
  return out;
}

std::vector<std::uint64_t> SessionManager::take_feed_latency_samples() {
  std::vector<std::uint64_t> out;
  for (const auto& shard : shards_) {
    out.insert(out.end(), shard->latency_samples.begin(),
               shard->latency_samples.end());
    shard->latency_samples.clear();
    shard->latency_seen = 0;
  }
  return out;
}

ServiceStats SessionManager::stats() const {
  ServiceStats s;
  s.opened = stats_.opened.load(std::memory_order_relaxed);
  s.closed = stats_.closed.load(std::memory_order_relaxed);
  s.shed = stats_.shed.load(std::memory_order_relaxed);
  s.shed_ring_full = stats_.shed_ring_full.load(std::memory_order_relaxed);
  s.shed_session_bound =
      stats_.shed_session_bound.load(std::memory_order_relaxed);
  s.shed_priority = stats_.shed_priority.load(std::memory_order_relaxed);
  s.blocked = stats_.blocked.load(std::memory_order_relaxed);
  s.stale = stats_.stale.load(std::memory_order_relaxed);
  s.evicted = stats_.evicted.load(std::memory_order_relaxed);
  s.unknown = stats_.unknown.load(std::memory_order_relaxed);
  s.active = stats_.active.load(std::memory_order_relaxed);
  s.query_compiled = stats_.query_compiled.load(std::memory_order_relaxed);
  s.query_rejected = stats_.query_rejected.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    s.ingested += shard->ingested.get();
    s.epochs += shard->epochs.get();
    s.batches += shard->batches.get();
    s.lane_symbols += shard->lane_symbols.get();
    s.lane_waves += shard->lane_waves.get();
    s.parks += shard->parks.get();
    s.wakes += shard->wakes.get();
    s.spin_ns += shard->spin_ns.get();
  }
  return s;
}

}  // namespace rtw::svc
