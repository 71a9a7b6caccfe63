#pragma once
/// \file trace.hpp
/// Observability for the execution engine: a per-run RunTrace.
///
/// Every Engine::run produces a RunTrace alongside the Definition 3.4
/// verdict and exports it as one-line JSON (rtw::sim::JsonLine) so bench
/// harnesses can stream machine-readable trajectories to stdout.  Totals
/// across runs live in the obs::MetricsRegistry (`engine.*`, `faults.*`),
/// folded in only while an obs sink is installed.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rtw/core/timed_word.hpp"
#include "rtw/sim/fault.hpp"

namespace rtw::engine {

using rtw::core::Tick;

/// Per-run observability record filled in by Engine::run.
struct RunTrace {
  Tick final_tick = 0;  ///< last virtual time the driver visited
  std::uint64_t ticks_executed = 0;  ///< driver steps actually run
  std::uint64_t ticks_skipped = 0;   ///< idle ticks bypassed by fast-forward
  std::uint64_t events_executed = 0; ///< EventQueue events fired
  std::uint64_t queue_depth_hwm = 0; ///< event-heap high-water mark
  std::optional<Tick> lock_time;     ///< virtual time of the s_f/s_r lock
  std::uint64_t symbols_consumed = 0;
  std::uint64_t f_count = 0;  ///< |o(A,w)|_f observed
  std::uint64_t wall_ns = 0;  ///< wall-clock duration of the run
  /// Per-run fault tally (clock jitter injected by a faulty Engine) plus
  /// the injected-event records.  Both stay empty -- and to_json stays
  /// byte-identical to the plain engine's -- when no fault fired.
  rtw::sim::FaultCounters faults;
  std::vector<rtw::sim::FaultRecord> fault_records;

  /// One-line JSON rendering for the BENCH_*.json trajectory.  Fault
  /// fields are appended only when at least one fault fired.
  std::string to_json() const;
};

namespace detail {
/// Internal: folds a finished run into the `engine.*` / `faults.*`
/// registry counters while obs is enabled.
void record_run(const RunTrace& trace, bool locked) noexcept;
/// Internal: counts one finished BatchRunner job (`engine.batch_jobs`)
/// while obs is enabled.
void record_batch_job() noexcept;
}  // namespace detail

}  // namespace rtw::engine
