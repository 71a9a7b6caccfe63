#pragma once
/// \file lane.hpp
/// The deadline lane: section 4.1 acceptance compressed to a register file.
///
/// Once a deadline word's header is parsed the acceptor is a pure
/// counter/threshold automaton -- P_w is a countdown to `completion`, P_m
/// folds each arrival into two registers (deadline_passed, usefulness), and
/// the lock verdict is a comparison tree over those registers.  Nothing in
/// that phase needs the Reading-phase machinery (header parsing, problem
/// dispatch) or even per-tick emulation: with fast-forward on, the engine
/// emulates exactly one driver tick per *newer* fed element (the previous
/// input frontier), so the whole drive loop collapses to the constant-work
/// transition in lane_hot_feed below, and DeadlineLaneState is a handful of
/// u64 registers.
///
/// By Definition 3.5 where a stream is split into runs cannot change the
/// verdict, so a whole run that lies inside the Working window -- sorted,
/// nothing stale, its last time at or before both `completion` and the
/// horizon -- is one transition with a closed form (lane_step_run): the
/// counters move by the run's length and its last time group, and P_m's
/// registers by "any d" and "the last nat".  The closed form reads those
/// from the run's core::RunSummary, never from its elements, so a run
/// summarised where it was produced is stepped without the shard touching
/// it.  Every other run (a lock or an end inside it, a stale element, a
/// settled lane, markers with two ids) falls back to lane_step_element per
/// element, so lane_hot_feed stays the one definition of a transition.
/// The kernel (lane_scalar.cpp) holds each lane's filter and state in
/// locals for its whole run and prefetches the next lane's filter, state
/// and summary while it steps this one.
///
/// Equivalence contract: DeadlineLaneAcceptor wraps an EngineOnlineAcceptor
/// and *delegates* every cold phase (header at time 0, malformed headers,
/// fast-forward off, pre-Working streams) verbatim, then promotes to the
/// compressed automaton only when the engine is provably in the compressed
/// phase: Working, unlocked, not ended, fast-forward on.  From there every
/// transition below is derived case by case from EngineOnlineAcceptor's
/// drive loop, and tests/test_lane_kernel.cpp proves bit-identity of
/// verdicts, RunResult fields and stale counters, and that lane_step_run
/// equals the per-element loop field for field.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <type_traits>

#include "rtw/core/error.hpp"
#include "rtw/core/lane.hpp"
#include "rtw/core/online.hpp"
#include "rtw/deadline/acceptor.hpp"
#include "rtw/deadline/problem.hpp"

namespace rtw::deadline {

/// Lane status bytes.  Live lanes take the full transition; settled lanes
/// only keep their session's stale filter moving.
inline constexpr std::uint8_t kLaneLive = 0;
inline constexpr std::uint8_t kLaneLocked = 1;
inline constexpr std::uint8_t kLaneEnded = 2;

/// Raw Symbol::Kind values as the kernel reads them (one raw byte).
inline constexpr std::uint8_t kLaneKindChar = 0;
inline constexpr std::uint8_t kLaneKindNat = 1;
inline constexpr std::uint8_t kLaneKindMarker = 2;
static_assert(static_cast<std::uint8_t>(core::Symbol::Kind::Char) ==
              kLaneKindChar);
static_assert(static_cast<std::uint8_t>(core::Symbol::Kind::Nat) ==
              kLaneKindNat);
static_assert(static_cast<std::uint8_t>(core::Symbol::Kind::Marker) ==
              kLaneKindMarker);

/// The kernel reads TimedSymbol fields as raw loads: kind byte at offset 0,
/// payload u64 at offset 8, time u64 at offset 16.  The static asserts pin
/// the layout the loads assume; lane_layout_ok() re-verifies the member
/// offsets at runtime with a probe element (offsetof into Symbol's private
/// members is not ours to write down).
static_assert(std::is_standard_layout_v<core::TimedSymbol>);
static_assert(sizeof(core::Symbol) == 16);
static_assert(sizeof(core::TimedSymbol) == 24);
static_assert(offsetof(core::TimedSymbol, time) == 16);

inline std::uint8_t lane_raw_kind(const core::TimedSymbol& ts) noexcept {
  std::uint8_t kind;
  std::memcpy(&kind, &ts, 1);
  return kind;
}

inline std::uint64_t lane_raw_value(const core::TimedSymbol& ts) noexcept {
  std::uint64_t value;
  std::memcpy(&value, reinterpret_cast<const unsigned char*>(&ts) + 8, 8);
  return value;
}

/// Probe check that the raw loads above really land on kind/payload/time.
bool lane_layout_ok() noexcept;

/// The interned id of section 4.1's `d` marker, as lane_raw_value reads it.
std::uint64_t deadline_marker_id() noexcept;

/// One session's compressed Working-phase state.  Plain u64 registers so
/// the kernel can hold a lane in locals for a whole run.
struct DeadlineLaneState {
  core::Tick frontier = 0;    ///< next emulable driver tick (= last fed time)
  core::Tick ticks = 0;       ///< RunResult::ticks (last emulated tick)
  core::Tick completion = 0;  ///< P_w terminates at this tick
  core::Tick horizon = 0;     ///< RunOptions::horizon
  std::uint64_t pending = 0;    ///< fed, undelivered (all at `frontier`)
  std::uint64_t delivered = 0;  ///< RunResult::symbols_consumed
  std::uint64_t usefulness = 0;     ///< P_m register (latest nat <= completion)
  std::uint64_t min_acceptable = 0; ///< header threshold
  core::Tick lock_tick = 0;   ///< lock time (first_f when accepted)
  std::uint8_t status = kLaneLive;
  bool accepted = false;        ///< lock verdict (valid when kLaneLocked)
  bool deadline_passed = false; ///< P_m register (`d` seen <= completion)
  bool matches = false;         ///< P_w solution == proposed output
};

/// The Definition 3.4 lock verdict P_m renders when P_w's completion tick
/// is emulated: within the deadline any solution match accepts; past it the
/// last usefulness must also clear the header's threshold.
inline bool lane_lock_verdict(const DeadlineLaneState& s) noexcept {
  const bool acceptable =
      s.deadline_passed ? s.usefulness >= s.min_acceptable : true;
  return acceptable && s.matches;
}

/// One fed element, exactly EngineOnlineAcceptor::feed on a hot lane.
/// Precondition (the session stale filter, or the acceptor's own
/// monotonicity check): t >= s.frontier whenever the lane is live.
///
/// Derivation from the engine drive loop, case by case:
///  * settled lane: feeds are no-ops returning the settled verdict;
///  * t == frontier: the tick's arrival set is still open -- nothing is
///    emulable (drive breaks at limit == t), the element just buffers;
///  * t > frontier: tick `frontier` became emulable.  Its pending arrivals
///    deliver; if P_w already completed (frontier >= completion) P_m locks
///    *at the frontier tick* -- with fast-forward on, ticks strictly
///    between completion and the next arrival are never emulated, so the
///    lock lands on the arrival tick, not on `completion`; otherwise the
///    tick is recorded and fast-forward jumps the frontier straight to t
///    (ended instead if t overshoots the horizon).
///  * P_m's fold runs at feed time rather than delivery time: its gate
///    (timestamp <= completion) depends only on the element, never on the
///    tick that delivers it, so folding early commutes.  Working implies
///    frontier >= 1, so the fold's time>0 guard is vacuous here.
inline void lane_hot_feed(DeadlineLaneState& s, std::uint8_t kind,
                          std::uint64_t value, core::Tick t,
                          std::uint64_t d_id) noexcept {
  if (s.status != kLaneLive) return;
  if (t > s.frontier) {
    s.delivered += s.pending;
    if (s.frontier >= s.completion) {
      s.accepted = lane_lock_verdict(s);
      s.lock_tick = s.frontier;
      s.ticks = s.frontier;
      s.status = kLaneLocked;
      return;
    }
    s.ticks = s.frontier;
    if (t > s.horizon) {
      s.status = kLaneEnded;
      return;
    }
    s.pending = 1;
    s.frontier = t;
  } else {
    ++s.pending;
  }
  if (t <= s.completion) {
    if (kind == kLaneKindMarker && value == d_id) s.deadline_passed = true;
    else if (kind == kLaneKindNat) s.usefulness = value;
  }
}

/// Stream end on a hot lane, exactly EngineOnlineAcceptor::finish:
///  * EndOfWord keeps single-stepping idle ticks, so P_w's completion is
///    always reached -- lock at max(frontier, completion) unless that
///    overshoots the horizon (then the run ends at the horizon);
///  * Truncated stops right after the frontier tick: lock only if P_w had
///    already completed there.
/// Already-settled lanes keep their verdict (first finish wins upstream).
inline void lane_hot_finish(DeadlineLaneState& s, core::StreamEnd end) noexcept {
  if (s.status != kLaneLive) return;
  s.delivered += s.pending;
  s.pending = 0;
  if (end == core::StreamEnd::EndOfWord) {
    const core::Tick lock_tick = std::max(s.frontier, s.completion);
    if (lock_tick <= s.horizon) {
      s.accepted = lane_lock_verdict(s);
      s.lock_tick = lock_tick;
      s.ticks = lock_tick;
      s.status = kLaneLocked;
    } else {
      s.ticks = s.horizon;
      s.status = kLaneEnded;
    }
  } else {
    if (s.frontier >= s.completion) {
      s.accepted = lane_lock_verdict(s);
      s.lock_tick = s.frontier;
      s.ticks = s.frontier;
      s.status = kLaneLocked;
    } else {
      s.ticks = s.frontier;
      s.status = kLaneEnded;
    }
  }
}

/// One run element through the session stale filter, then the lane step --
/// exactly Session::feed on an in-table session.  The kernel's fallback for
/// every run lane_step_run does not take.
inline void lane_step_element(core::LaneFilter& filter, DeadlineLaneState& s,
                              const core::TimedSymbol& ts,
                              std::uint64_t d_id) noexcept {
  if (filter.admit(ts.time))
    lane_hot_feed(s, lane_raw_kind(ts), lane_raw_value(ts), ts.time, d_id);
}

/// A whole run as one transition, read from its summary, or false (nothing
/// changed) when the run is not inside the Working window.  It is taken
/// when the lane is live, the run is sorted from a first time at or above
/// both the filter's high-water mark and the frontier (so nothing is stale
/// and lane_hot_feed's precondition holds throughout), its last time is at
/// or before both `completion` and the horizon (so no element locks or
/// ends the lane), and its markers share one id.  Then, with j the first
/// index of the run's last time group, the per-element loop of
/// lane_step_element reduces to:
///  * filter: fed += n, high_water = the last time;
///  * last time == frontier (every element ties): pending += n;
///  * last time > frontier: the element at j is the last to open a newer
///    tick, so everything fed before it is delivered (delivered += pending
///    + j), pending = n - j, ticks = the frontier just before j (the time
///    of element j-1, or the old frontier when j == 0), frontier = the
///    last time;
///  * P_m: every element is at or before `completion`, so the fold gate
///    always holds: deadline_passed |= the markers' one id is `d`,
///    usefulness = the last nat if there is one.
/// Markers with two ids decline: the summary cannot say whether one is `d`.
inline bool lane_step_run(core::LaneFilter& filter, DeadlineLaneState& s,
                          const core::RunSummary& run,
                          std::uint64_t d_id) noexcept {
  if (run.size == 0) return true;
  if (s.status != kLaneLive || !run.sorted || run.mixed ||
      run.first < filter.high_water || run.first < s.frontier ||
      run.last > s.completion || run.last > s.horizon)
    return false;
  filter.high_water = run.last;
  filter.any = true;
  filter.fed += run.size;
  if (run.last != s.frontier) {
    s.delivered += s.pending + run.last_start;
    s.pending = run.size - run.last_start;
    s.ticks = run.last_start > 0 ? run.before_last : s.frontier;
    s.frontier = run.last;
  } else {
    s.pending += run.size;
  }
  s.deadline_passed |= run.markers != 0 && run.marker == d_id;
  if (run.has_nat) s.usefulness = run.last_nat;
  return true;
}

/// The deadline family's one kernel: each lane of `runs` by its whole run,
/// through lane_step_run on the run's summary (made on the spot for a run
/// staged without one) or, where that declines, lane_step_element.
void step_lanes_scalar(const core::LaneRun* runs, std::size_t count,
                       std::uint64_t d_id) noexcept;

/// The deadline family's batch stepper over step_lanes_scalar.  Returns
/// nullptr if the TimedSymbol layout probe fails (then every session stays
/// on the per-symbol path -- slower, never wrong).
std::unique_ptr<core::BatchStepper> make_deadline_stepper();

/// An online acceptor for L(Pi) that the lane kernel can step: delegates to
/// the engine replica while cold, promotes itself to a DeadlineLaneState lane
/// once the engine reaches the compressed phase.  Drop-in replacement for
/// deadline::make_online_acceptor with identical verdicts and RunResults.
class DeadlineLaneAcceptor final : public core::OnlineAcceptor {
public:
  DeadlineLaneAcceptor(std::shared_ptr<const Problem> problem,
                       core::RunOptions options = {});

  core::Verdict feed(core::Symbol symbol, core::Tick at) override;
  using core::OnlineAcceptor::feed;
  core::Verdict finish(core::StreamEnd end) override;
  core::Verdict verdict() const override;
  const core::RunResult& result() const override;
  void reset() override;
  std::string name() const override;

  core::LaneFamily lane_family() const noexcept override {
    return core::LaneFamily::Deadline;
  }
  void* lane_state() noexcept override { return hot_ ? &state_ : nullptr; }
  std::unique_ptr<core::BatchStepper> make_lane_stepper() const override {
    return make_deadline_stepper();
  }

  /// True once promoted to the compressed automaton (tests/bench probe).
  bool hot() const noexcept { return hot_; }

private:
  void try_promote();

  std::shared_ptr<const Problem> problem_;
  DeadlineAcceptor* algorithm_ = nullptr;  ///< owned by engine_
  std::unique_ptr<core::EngineOnlineAcceptor> engine_;
  DeadlineLaneState state_{};
  bool hot_ = false;
  bool finished_ = false;
  mutable core::RunResult result_;  ///< synthesized from state_ when hot
};

/// Factory mirroring deadline::make_online_acceptor.
std::unique_ptr<core::OnlineAcceptor> make_lane_acceptor(
    std::shared_ptr<const Problem> problem, core::RunOptions options = {});

}  // namespace rtw::deadline
