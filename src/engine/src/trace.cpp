#include "rtw/engine/trace.hpp"

#include "rtw/obs/metrics.hpp"
#include "rtw/obs/sink.hpp"
#include "rtw/sim/jsonl.hpp"

namespace rtw::engine {

std::string RunTrace::to_json() const {
  rtw::sim::JsonLine line;
  line.field("final_tick", final_tick)
      .field("ticks_executed", ticks_executed)
      .field("ticks_skipped", ticks_skipped)
      .field("events_executed", events_executed)
      .field("queue_depth_hwm", queue_depth_hwm);
  if (lock_time)
    line.field("lock_time", *lock_time);
  else
    line.field("locked", false);
  line.field("symbols_consumed", symbols_consumed)
      .field("f_count", f_count)
      .field("wall_ns", wall_ns);
  if (faults.injected()) {
    // Keys follow the obs::MetricsRegistry vocabulary (subsystem-first,
    // dot-joined) so a RunTrace line and a registry export line agree.
    line.field("faults.injected", faults.injected())
        .field("faults.jittered", faults.jittered)
        .field("faults.jitter_ticks", faults.jitter_ticks)
        .field("faults.dropped", faults.dropped)
        .field("faults.delayed", faults.delayed);
  }
  return line.str();
}

namespace detail {

// Handles resolve once (function-local statics), so a folded run costs a
// handful of relaxed adds; with no obs sink installed, one relaxed load.
void record_run(const RunTrace& trace, bool locked) noexcept {
  if (!rtw::obs::enabled()) return;
  auto& reg = rtw::obs::MetricsRegistry::instance();
  static auto& runs = reg.counter("engine.runs");
  static auto& locked_runs = reg.counter("engine.locked_runs");
  static auto& ticks = reg.counter("engine.ticks");
  static auto& ticks_skipped = reg.counter("engine.ticks_skipped");
  static auto& events = reg.counter("engine.events");
  static auto& symbols = reg.counter("engine.symbols");
  static auto& wall_ns = reg.counter("engine.wall_ns");
  runs.add(1);
  if (locked) locked_runs.add(1);
  ticks.add(trace.ticks_executed);
  ticks_skipped.add(trace.ticks_skipped);
  events.add(trace.events_executed);
  symbols.add(trace.symbols_consumed);
  wall_ns.add(trace.wall_ns);

  if (!trace.faults.empty()) {
    static auto& dropped = reg.counter("faults.dropped");
    static auto& duplicated = reg.counter("faults.duplicated");
    static auto& delayed = reg.counter("faults.delayed");
    static auto& delay_ticks = reg.counter("faults.delay_ticks");
    static auto& jittered = reg.counter("faults.jittered");
    static auto& jitter_ticks = reg.counter("faults.jitter_ticks");
    static auto& crash_sends = reg.counter("faults.crash_sends");
    static auto& crash_receives = reg.counter("faults.crash_receives");
    dropped.add(trace.faults.dropped);
    duplicated.add(trace.faults.duplicated);
    delayed.add(trace.faults.delayed);
    delay_ticks.add(trace.faults.delay_ticks);
    jittered.add(trace.faults.jittered);
    jitter_ticks.add(trace.faults.jitter_ticks);
    crash_sends.add(trace.faults.crash_sends);
    crash_receives.add(trace.faults.crash_receives);
  }
}

void record_batch_job() noexcept {
  if (rtw::obs::enabled()) {
    static auto& jobs =
        rtw::obs::MetricsRegistry::instance().counter("engine.batch_jobs");
    jobs.add(1);
  }
}

}  // namespace detail

}  // namespace rtw::engine
