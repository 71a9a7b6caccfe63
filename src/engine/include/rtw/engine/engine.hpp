#pragma once
/// \file engine.hpp
/// The unified acceptor executor: drives any RealTimeAlgorithm (Definition
/// 3.3) on top of the sim::EventQueue kernel and evaluates acceptance
/// (Definition 3.4).
///
/// Before this engine every application re-implemented the drive loop
/// (core::run_acceptor, adhoc::Simulator::run, per-factory option
/// plumbing).  Now there is one machine model in one place:
///
///   * each *visited* tick is an EventQueue event: arrivals are delivered,
///     the algorithm runs one virtual time unit, the lock protocol is
///     consulted;
///   * idle gaps are skipped inside the event heap -- the next driver event
///     is scheduled directly at the next arrival's timestamp, so the gap is
///     never walked tick by tick (Definition 3.3 puts all timing
///     constraints on the input; idle time is unobservable);
///   * every run produces a RunTrace (observability) in addition to the
///     RunResult verdict, and folds into the `engine.*` registry counters
///     while an obs sink is installed.
///
/// Verdict semantics are exactly those of the original core::run_acceptor,
/// which has been fully retired (declaration deleted;
/// `rtw::engine::run(...).result` is the replacement).  The same semantics
/// are available incrementally through core::EngineOnlineAcceptor (see
/// rtw/core/online.hpp) and the rtw::svc serving layer built on it.

#include <functional>
#include <memory>
#include <optional>

#include "rtw/core/acceptor.hpp"
#include "rtw/engine/trace.hpp"
#include "rtw/sim/fault.hpp"

namespace rtw::engine {

/// Verdict plus observability for one acceptor run.
struct EngineResult {
  rtw::core::RunResult result;  ///< the Definition 3.4 verdict
  RunTrace trace;               ///< how the run unfolded
};

/// A configured executor.  Stateless apart from its options: the same
/// Engine may be used concurrently from many threads (each run owns its
/// private EventQueue and tapes).
class Engine {
public:
  explicit Engine(rtw::core::RunOptions options = {}) : options_(options) {}

  /// An engine with deterministic fault injection: the plan's clock-jitter
  /// section is applied through the EventQueue fault filter, so driver
  /// ticks fire late by bounded, seeded amounts -- an adversarial timing
  /// schedule for robustness testing.  (Drop faults are not applied to
  /// driver events: the drive chain is self-scheduling, and severing it
  /// would silently truncate the run rather than perturb it.)  Each run
  /// builds a private injector from the plan, so fault counters in one
  /// RunTrace never bleed into another -- batch entries included.  A noop
  /// plan installs nothing: traces are byte-identical to the plain engine.
  Engine(rtw::core::RunOptions options, rtw::sim::FaultPlan faults)
      : options_(options), faults_(std::move(faults)) {}

  const rtw::core::RunOptions& options() const noexcept { return options_; }
  const std::optional<rtw::sim::FaultPlan>& fault_plan() const noexcept {
    return faults_;
  }

  /// Runs `algorithm` on `word` under Definition 3.3 semantics and
  /// evaluates Definition 3.4.  Resets the algorithm first.
  EngineResult run(rtw::core::RealTimeAlgorithm& algorithm,
                   const rtw::core::TimedWord& word) const;

private:
  rtw::core::RunOptions options_;
  std::optional<rtw::sim::FaultPlan> faults_;
};

/// One-shot convenience wrapper.
EngineResult run(rtw::core::RealTimeAlgorithm& algorithm,
                 const rtw::core::TimedWord& word,
                 const rtw::core::RunOptions& options = {});

/// Creates a fresh algorithm instance per engine run (language membership
/// predicates, batch sweeps).
using AlgorithmFactory =
    std::function<std::unique_ptr<rtw::core::RealTimeAlgorithm>()>;

/// Builds a TimedLanguage membership predicate that runs a fresh algorithm
/// from `factory` through the engine for each queried word.  With
/// `require_exact` the word is a member only when the verdict came from a
/// lock (the honest reading for languages whose acceptors always lock);
/// otherwise the executor's trailing-window heuristic verdict is used
/// as-is.  Replaces the per-application copy of this lambda.
std::function<bool(const rtw::core::TimedWord&)> membership(
    AlgorithmFactory factory, rtw::core::RunOptions options = {},
    bool require_exact = false);

}  // namespace rtw::engine
