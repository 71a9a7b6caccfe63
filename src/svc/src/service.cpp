#include "rtw/svc/service.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <utility>

#include "rtw/cer/acceptor.hpp"
#include "rtw/cer/compile.hpp"
#include "rtw/cer/parser.hpp"
#include "rtw/obs/metrics.hpp"
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

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Physical slots reserved above the data-plane bound so control
/// commands (open/close/close-all) always find room.
constexpr std::size_t kControlHeadroom = 64;

/// Ring slots a shard worker drains per epoch.
constexpr std::size_t kDrainBatch = 256;

/// Cold-path handle bundle for the svc metric family (names are the
/// JSONL vocabulary: subsystem first, snake_case).
struct Metrics {
  obs::Counter& ingested;
  obs::Counter& shed;
  obs::Counter& shed_ring_full;
  obs::Counter& shed_session_bound;
  obs::Counter& shed_priority;
  obs::Counter& stale;
  obs::Counter& evicted;
  obs::Counter& opened;
  obs::Counter& closed;
  obs::Counter& unknown;
  obs::Gauge& active;
  obs::Counter& query_compiled;
  obs::Counter& query_rejected;
  obs::HistogramMetric& query_compile_ns;

  static Metrics& get() {
    static Metrics m{
        obs::MetricsRegistry::instance().counter("svc.symbols_ingested"),
        obs::MetricsRegistry::instance().counter("svc.shed"),
        obs::MetricsRegistry::instance().counter("svc.shed.ring_full"),
        obs::MetricsRegistry::instance().counter("svc.shed.session_bound"),
        obs::MetricsRegistry::instance().counter("svc.shed.priority"),
        obs::MetricsRegistry::instance().counter("svc.stale"),
        obs::MetricsRegistry::instance().counter("svc.sessions_evicted"),
        obs::MetricsRegistry::instance().counter("svc.sessions_opened"),
        obs::MetricsRegistry::instance().counter("svc.sessions_closed"),
        obs::MetricsRegistry::instance().counter("svc.unknown_session"),
        obs::MetricsRegistry::instance().gauge("svc.sessions_active"),
        obs::MetricsRegistry::instance().counter("svc.query.compiled"),
        obs::MetricsRegistry::instance().counter("svc.query.rejected"),
        // Compile latency in log2(ns) bins: 2^0 .. 2^32 ns covers a
        // sub-microsecond parse through a pathological multi-second one.
        obs::MetricsRegistry::instance().histogram("svc.query.compile_ns", 0,
                                                   32),
    };
    return m;
  }
};

}  // namespace

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

SessionManager::Shard::Shard(unsigned index, const IngressConfig& ingress)
    : index(index),
      ring(ingress.ring_capacity + kControlHeadroom),
      table(ingress.session_slots) {}

SessionManager::SessionManager(ServerConfig config)
    : shard_cfg_(config.shard),
      ingress_cfg_(config.ingress),
      pool_(config.shard.count == 0 ? 1 : config.shard.count) {
  if (shard_cfg_.count == 0) shard_cfg_.count = 1;
  if (ingress_cfg_.ring_capacity == 0) ingress_cfg_.ring_capacity = 1;
  const auto clamp01 = [](double f) {
    return f < 0.0 ? 0.0 : (f > 1.0 ? 1.0 : f);
  };
  // Ceil, not floor: the watermark means "shed *above* this occupancy
  // fraction", so a tiny ring must not round a threshold down into the
  // always-shedding range (e.g. 0.875 of a 2-slot ring is still 2 slots).
  watermark_low_slots_ = static_cast<std::size_t>(
      std::ceil(clamp01(ingress_cfg_.watermark_low) *
                static_cast<double>(ingress_cfg_.ring_capacity)));
  watermark_high_slots_ = static_cast<std::size_t>(
      std::ceil(clamp01(ingress_cfg_.watermark_high) *
                static_cast<double>(ingress_cfg_.ring_capacity)));
  if (watermark_low_slots_ < 1) watermark_low_slots_ = 1;
  if (watermark_high_slots_ < watermark_low_slots_)
    watermark_high_slots_ = watermark_low_slots_;
  shards_.reserve(shard_cfg_.count);
  for (unsigned i = 0; i < shard_cfg_.count; ++i)
    shards_.push_back(std::make_unique<Shard>(i, ingress_cfg_));
}

SessionManager::SessionManager(ShardConfig shard, IngressConfig ingress)
    : SessionManager(ServerConfig{shard, ingress, {}}) {}

SessionManager::~SessionManager() { shutdown(core::StreamEnd::Truncated); }

unsigned SessionManager::shard_of(SessionId id) const noexcept {
  return static_cast<unsigned>(mix(id) % shards_.size());
}

std::size_t SessionManager::ring_depth(unsigned shard) const noexcept {
  return shard < shards_.size() ? shards_[shard]->ring.approx_size() : 0;
}

void SessionManager::elect(Shard& shard) {
  // Lost-wakeup-free handoff: whoever flips scheduled false->true owns
  // electing a worker for this shard.  The exchange is a release RMW, so
  // the ring publication that preceded it is visible to the worker that
  // parks with its own acquire RMW and re-checks the ring.
  if (!shard.scheduled.exchange(true, std::memory_order_acq_rel))
    pool_.post([this, &shard] { run_shard(shard); });
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
  if (obs::enabled()) {
    auto& m = Metrics::get();
    m.shed.add(symbols);
    switch (reason) {
      case ShedReason::RingFull: m.shed_ring_full.add(symbols); break;
      case ShedReason::SessionBound: m.shed_session_bound.add(symbols); break;
      case ShedReason::Priority: m.shed_priority.add(symbols); break;
      case ShedReason::None: break;
    }
  }
}

AdmitResult SessionManager::admit_data(Command command, std::size_t symbols) {
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

  // 3. Stamp for latency sampling and the age watermark.
  if (ingress_cfg_.max_queue_delay_ns > 0) {
    command.enqueue_ns = steady_ns();
  } else if (ingress_cfg_.latency_sample_every > 0 &&
             sample_tick_.fetch_add(1, std::memory_order_relaxed) %
                     ingress_cfg_.latency_sample_every ==
                 0) {
    command.enqueue_ns = steady_ns();
  }

  // 4. Claim a ring slot.  The occupancy check above is approximate under
  //    concurrency, so the push itself can still find the ring full.
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
  elect(shard);
  return AdmitResult{};
}

void SessionManager::enqueue_control(Shard& shard, Command command) {
  // Control never sheds: the physical headroom above ring_capacity is
  // reserved for it, and in the pathological case of a headroom-full ring
  // we spin -- the elected worker is guaranteed to be draining.
  while (!shard.ring.try_push(command)) {
    elect(shard);  // make sure a drainer exists before waiting on it
    std::this_thread::yield();
  }
  elect(shard);
}

SessionId SessionManager::open(std::unique_ptr<core::OnlineAcceptor> acceptor,
                               Priority priority) {
  const SessionId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  open(id, std::move(acceptor), priority);
  return id;
}

void SessionManager::open(SessionId id,
                          std::unique_ptr<core::OnlineAcceptor> acceptor,
                          Priority priority) {
  // Register the admission hint before the command is queued so feeds
  // racing right behind the open already see the session's priority.
  Shard& shard = *shards_[shard_of(id)];
  shard.table.insert(id, priority);
  Command c;
  c.kind = Command::Kind::Open;
  c.id = id;
  c.priority = priority;
  c.acceptor = std::move(acceptor);
  enqueue_control(shard, std::move(c));
}

AdmitResult SessionManager::feed_batch(SessionId id,
                                       std::vector<core::TimedSymbol> run) {
  if (run.empty()) return AdmitResult{};
  Command c;
  c.kind = Command::Kind::Feed;
  c.id = id;
  const std::size_t symbols = run.size();
  c.run = std::move(run);
  return admit_data(std::move(c), symbols);
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
  const std::uint64_t begin_ns = steady_ns();
  std::unique_ptr<core::OnlineAcceptor> acceptor;
  auto parsed = cer::parse(query);
  if (parsed.ok()) {
    auto compiled = cer::compile(*parsed.query);
    if (compiled.ok()) {
      acceptor = cer::make_online_acceptor(std::move(*compiled.compiled));
    }
  }
  const std::uint64_t elapsed_ns = steady_ns() - begin_ns;
  if (acceptor) {
    stats_.query_compiled.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.query_rejected.fetch_add(1, std::memory_order_relaxed);
  }
  if (obs::enabled()) {
    auto& m = Metrics::get();
    (acceptor ? m.query_compiled : m.query_rejected).add();
    m.query_compile_ns.add(
        static_cast<std::int64_t>(std::bit_width(elapsed_ns | 1) - 1));
  }
  return acceptor;
}

AdmitResult SessionManager::apply(const WireEvent& event,
                                  const AcceptorFactory& factory) {
  switch (event.kind) {
    case WireEvent::Kind::Open: {
      auto acceptor =
          factory ? factory(event.session, event.profile) : nullptr;
      if (!acceptor) {
        stats_.unknown.fetch_add(1, std::memory_order_relaxed);
        if (obs::enabled()) Metrics::get().unknown.add();
        return AdmitResult{Admit::Shed, ShedReason::None};
      }
      open(event.session, std::move(acceptor), event.priority);
      return AdmitResult{};
    }
    case WireEvent::Kind::Symbols: {
      // One decoded event = one batched ring slot, all-or-nothing.  The
      // wire reader is the backpressure point: wait out Blocked instead
      // of tearing the run in half.
      for (;;) {
        const AdmitResult a = feed_batch(event.session, event.symbols);
        if (a != Admit::Blocked) return a;
        std::this_thread::yield();
      }
    }
    case WireEvent::Kind::SubmitQuery: {
      auto acceptor = build_query_acceptor(event.session, event.profile);
      if (!acceptor) return AdmitResult{Admit::Shed, ShedReason::None};
      open(event.session, std::move(acceptor), event.priority);
      return AdmitResult{};
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

void SessionManager::run_shard(Shard& shard) {
  RTW_SPAN("svc.shard.run");
  for (;;) {
    shard.staging.clear();
    {
      Command c;
      while (shard.staging.size() < kDrainBatch && shard.ring.try_pop(c))
        shard.staging.push_back(std::move(c));
    }
    if (shard.staging.empty()) {
      // Park with an RMW: it reads the latest election exchange, whose
      // release makes any ring publication sequenced before it visible
      // to the re-check below.  A producer that saw scheduled==true and
      // skipped posting therefore cannot leave an invisible command.
      shard.scheduled.exchange(false, std::memory_order_acq_rel);
      if (!shard.ring.empty() &&
          !shard.scheduled.exchange(true, std::memory_order_acq_rel))
        continue;  // a command slipped in: re-elect ourselves
      return;
    }
    // One epoch per drained batch: the shard's idle-eviction clock.
    process(shard, ++shard.epoch);
    stats_.epochs.fetch_add(1, std::memory_order_relaxed);
    stats_.batches.fetch_add(shard.staging.size(),
                             std::memory_order_relaxed);
  }
}

void SessionManager::process(Shard& shard, std::uint64_t epoch) {
  std::uint64_t ingested = 0;
  std::uint64_t unknown = 0;
  std::uint64_t aged = 0;
  // One clock read per epoch serves every stamped command in the batch.
  const std::uint64_t now_ns =
      (ingress_cfg_.max_queue_delay_ns > 0 ||
       ingress_cfg_.latency_sample_every > 0)
          ? steady_ns()
          : 0;
  for (auto& command : shard.staging) {
    switch (command.kind) {
      case Command::Kind::Open: {
        const auto [it, inserted] = shard.sessions.try_emplace(
            command.id,
            Session(command.id, std::move(command.acceptor),
                    command.priority),
            epoch);
        if (!inserted) {
          ++unknown;  // double open: id already live on this shard
          break;
        }
        stats_.opened.fetch_add(1, std::memory_order_relaxed);
        stats_.active.fetch_add(1, std::memory_order_relaxed);
        if (obs::enabled()) {
          Metrics::get().opened.add();
          Metrics::get().active.set(static_cast<double>(
              stats_.active.load(std::memory_order_relaxed)));
        }
        break;
      }
      case Command::Kind::Feed: {
        const std::size_t n = command.run.size();
        if (command.slot)
          command.slot->inflight.fetch_sub(static_cast<std::uint32_t>(n),
                                           std::memory_order_relaxed);
        const auto it = shard.sessions.find(command.id);
        if (it == shard.sessions.end()) {
          ++unknown;
          break;
        }
        // A second command for a session whose run is already staged in
        // the lane wave must not overtake it: flush to keep per-session
        // submission order.
        if (it->second.session.in_wave()) flush_wave(shard);
        if (command.enqueue_ns && now_ns > command.enqueue_ns) {
          const std::uint64_t waited = now_ns - command.enqueue_ns;
          if (ingress_cfg_.latency_sample_every > 0)
            shard.latency_samples.push_back(waited);
          // Age watermark: stale-in-the-ring data is shed, not fed --
          // unless the session is High priority, which always lands.  The
          // session's own priority is authoritative here (the command may
          // have been admitted without a hint-table probe).
          if (ingress_cfg_.max_queue_delay_ns > 0 &&
              waited > ingress_cfg_.max_queue_delay_ns &&
              it->second.session.priority() < Priority::High) {
            aged += n;
            break;
          }
        }
        it->second.last_active = epoch;
        Session& session = it->second.session;
        // Runs of lane-family sessions stage into the wave and are stepped
        // many-at-a-time by the SIMD kernel; everything else (cold
        // acceptors, foreign families) takes feed_run.  The LaneRun aliases
        // the command's run, which outlives the wave: the staging vector is
        // stable until the next drain and every wave is flushed before
        // process() returns.
        if (shard_cfg_.lane_kernel && !session.finished() &&
            session.acceptor().lane_family() != core::LaneFamily::None) {
          core::OnlineAcceptor& acceptor = session.acceptor();
          if (!shard.stepper && !shard.stepper_probed) {
            shard.stepper_probed = true;
            shard.stepper = acceptor.make_lane_stepper(core::dispatch_variant());
          }
          void* lane = acceptor.lane_state();
          if (lane && shard.stepper &&
              shard.stepper->family() == acceptor.lane_family()) {
            shard.wave.push_back(core::LaneRun{command.run.data(), n,
                                               &session.lane_filter(), lane});
            shard.wave_sessions.push_back(&session);
            session.set_in_wave(true);
            ingested += n;
            if (shard.wave.size() >= shard_cfg_.lane_wave) flush_wave(shard);
            break;
          }
        }
        const std::uint64_t stale_before = session.stale_dropped();
        session.feed_run(command.run.data(), n);
        ingested += n;
        const std::uint64_t stale_delta =
            session.stale_dropped() - stale_before;
        if (stale_delta) {
          stats_.stale.fetch_add(stale_delta, std::memory_order_relaxed);
          if (obs::enabled()) Metrics::get().stale.add(stale_delta);
        }
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
  if (ingested) {
    stats_.ingested.fetch_add(ingested, std::memory_order_relaxed);
    if (obs::enabled()) Metrics::get().ingested.add(ingested);
  }
  if (aged) count_shed(ShedReason::Priority, aged);
  if (unknown) {
    stats_.unknown.fetch_add(unknown, std::memory_order_relaxed);
    if (obs::enabled()) Metrics::get().unknown.add(unknown);
  }
  if (obs::enabled()) {
    // Ring depth after the drain: one gauge per shard, resolved once.
    if (!shard.depth_gauge)
      shard.depth_gauge = &obs::MetricsRegistry::instance().gauge(
          "svc.ring_depth.shard" + std::to_string(shard.index));
    shard.depth_gauge->set(static_cast<double>(shard.ring.approx_size()));
  }
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
  if (stale_delta) {
    stats_.stale.fetch_add(stale_delta, std::memory_order_relaxed);
    if (obs::enabled()) Metrics::get().stale.add(stale_delta);
  }
  stats_.lane_symbols.fetch_add(symbols, std::memory_order_relaxed);
  stats_.lane_waves.fetch_add(1, std::memory_order_relaxed);
  for (Session* session : shard.wave_sessions) session->set_in_wave(false);
  shard.wave.clear();
  shard.wave_sessions.clear();
}

void SessionManager::finish_session(Shard& shard, Entry& entry,
                                    core::StreamEnd end, bool evicted) {
  entry.session.finish(end);
  SessionReport report = entry.session.report(evicted);
  stats_.closed.fetch_add(1, std::memory_order_relaxed);
  stats_.active.fetch_sub(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    Metrics::get().closed.add();
    Metrics::get().active.set(static_cast<double>(
        stats_.active.load(std::memory_order_relaxed)));
  }
  // A sink that consumes the report keeps it out of the collect() queue.
  // It runs on the shard worker with no manager locks held, so it may call
  // back into feed/close (but must not block on shard progress).
  if (report_sink_ && report_sink_(report)) return;
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
      if (obs::enabled()) Metrics::get().evicted.add();
      it = shard.sessions.erase(it);
    } else {
      ++it;
    }
  }
}

void SessionManager::drain() {
  for (;;) {
    pool_.wait_idle();
    bool busy = false;
    for (const auto& shard : shards_) {
      if (shard->scheduled.load(std::memory_order_acquire) ||
          !shard->ring.empty()) {
        busy = true;
        break;
      }
    }
    if (!busy) return;
    std::this_thread::yield();
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
  }
  return out;
}

ServiceStats SessionManager::stats() const {
  ServiceStats s;
  s.opened = stats_.opened.load(std::memory_order_relaxed);
  s.closed = stats_.closed.load(std::memory_order_relaxed);
  s.ingested = stats_.ingested.load(std::memory_order_relaxed);
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
  s.epochs = stats_.epochs.load(std::memory_order_relaxed);
  s.batches = stats_.batches.load(std::memory_order_relaxed);
  s.lane_symbols = stats_.lane_symbols.load(std::memory_order_relaxed);
  s.lane_waves = stats_.lane_waves.load(std::memory_order_relaxed);
  s.query_compiled = stats_.query_compiled.load(std::memory_order_relaxed);
  s.query_rejected = stats_.query_rejected.load(std::memory_order_relaxed);
  return s;
}

}  // namespace rtw::svc
