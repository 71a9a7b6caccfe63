#include "rtw/deadline/lane.hpp"

#include "rtw/core/error.hpp"

namespace rtw::deadline {

using rtw::core::LaneRun;
using rtw::core::RunOptions;
using rtw::core::RunResult;
using rtw::core::StreamEnd;
using rtw::core::Symbol;
using rtw::core::Tick;
using rtw::core::Verdict;

bool lane_layout_ok() noexcept {
  static const bool ok = [] {
    const core::TimedSymbol probe{Symbol::nat(0x0123456789abcdefULL), 42};
    return lane_raw_kind(probe) == kLaneKindNat &&
           lane_raw_value(probe) == 0x0123456789abcdefULL && probe.time == 42;
  }();
  return ok;
}

std::uint64_t deadline_marker_id() noexcept {
  static const std::uint64_t id = [] {
    const core::TimedSymbol d{core::marks::deadline(), 0};
    return lane_raw_value(d);
  }();
  return id;
}

// ---------------------------------------------------------------------------
// Stepper factory

namespace {

class DeadlineStepper final : public core::BatchStepper {
public:
  DeadlineStepper() : d_id_(deadline_marker_id()) {}

  core::LaneFamily family() const noexcept override {
    return core::LaneFamily::Deadline;
  }

  void step(const LaneRun* runs, std::size_t count) override {
    step_lanes_scalar(runs, count, d_id_);
  }

private:
  std::uint64_t d_id_;
};

}  // namespace

std::unique_ptr<core::BatchStepper> make_deadline_stepper() {
  if (!lane_layout_ok()) return nullptr;
  return std::make_unique<DeadlineStepper>();
}

// ---------------------------------------------------------------------------
// DeadlineLaneAcceptor

DeadlineLaneAcceptor::DeadlineLaneAcceptor(
    std::shared_ptr<const Problem> problem, RunOptions options)
    : problem_(std::move(problem)) {
  if (!problem_)
    throw core::ModelError("deadline::DeadlineLaneAcceptor: null problem");
  auto algorithm = std::make_unique<DeadlineAcceptor>(*problem_);
  algorithm_ = algorithm.get();
  engine_ = std::make_unique<core::EngineOnlineAcceptor>(std::move(algorithm),
                                                         options, problem_);
}

std::string DeadlineLaneAcceptor::name() const {
  return "deadline-lane(" + problem_->name() + ")";
}

void DeadlineLaneAcceptor::reset() {
  engine_->reset();
  state_ = DeadlineLaneState{};
  hot_ = false;
  finished_ = false;
}

/// Promotion gate: the engine must be provably in the compressed phase.
/// Fast-forward is load-bearing -- without it the engine emulates every
/// idle tick, which the one-transition-per-feed automaton does not model,
/// so non-fast-forward streams simply stay on the engine path forever.
void DeadlineLaneAcceptor::try_promote() {
  if (hot_ || finished_) return;
  if (!engine_->options().fast_forward) return;
  if (engine_->finished() || engine_->lock() || engine_->ended()) return;
  const auto snapshot = algorithm_->working_snapshot();
  if (!snapshot) return;
  if (!lane_layout_ok()) return;

  state_ = DeadlineLaneState{};
  state_.frontier = engine_->frontier();
  state_.ticks = engine_->result().ticks;
  state_.completion = snapshot->completion;
  state_.horizon = engine_->options().horizon;
  state_.delivered = engine_->result().symbols_consumed;
  state_.usefulness = snapshot->usefulness;
  state_.min_acceptable = snapshot->min_acceptable;
  state_.deadline_passed = snapshot->deadline_passed;
  state_.matches = snapshot->matches;
  // Fold the engine's undelivered buffer (all stamped at the frontier):
  // P_m's gate depends only on the element's timestamp, so folding before
  // delivery commutes -- see lane_hot_feed.
  const std::uint64_t d_id = deadline_marker_id();
  for (const auto& ts : engine_->pending_buffer()) {
    ++state_.pending;
    if (ts.time <= state_.completion) {
      const auto kind = lane_raw_kind(ts);
      const auto value = lane_raw_value(ts);
      if (kind == kLaneKindMarker && value == d_id)
        state_.deadline_passed = true;
      else if (kind == kLaneKindNat)
        state_.usefulness = value;
    }
  }
  hot_ = true;
}

Verdict DeadlineLaneAcceptor::feed(Symbol symbol, Tick at) {
  if (!hot_) {
    const auto verdict = engine_->feed(symbol, at);
    try_promote();
    return verdict;
  }
  if (finished_ || state_.status != kLaneLive) return verdict();
  if (at < state_.frontier)
    throw core::ModelError("DeadlineLaneAcceptor::feed: time went backwards");
  const core::TimedSymbol ts{symbol, at};
  lane_hot_feed(state_, lane_raw_kind(ts), lane_raw_value(ts), at,
                deadline_marker_id());
  return verdict();
}

Verdict DeadlineLaneAcceptor::finish(StreamEnd end) {
  if (!hot_) return engine_->finish(end);
  if (!finished_) {
    finished_ = true;
    lane_hot_finish(state_, end);
  }
  return verdict();
}

Verdict DeadlineLaneAcceptor::verdict() const {
  if (!hot_) return engine_->verdict();
  if (state_.status == kLaneLocked)
    return state_.accepted ? Verdict::Accepting : Verdict::Rejecting;
  // Ended + finished settles by the trailing-window heuristic: a deadline
  // acceptor writes f only after an accept lock, so the window is empty.
  if (finished_) return Verdict::Rejecting;
  return Verdict::Undetermined;
}

const RunResult& DeadlineLaneAcceptor::result() const {
  if (!hot_) return engine_->result();
  result_.symbols_consumed = state_.delivered;
  result_.ticks = state_.ticks;
  if (state_.status == kLaneLocked) {
    result_.accepted = state_.accepted;
    result_.exact = true;
    result_.f_count = state_.accepted ? 1 : 0;
    result_.first_f = state_.accepted ? std::optional<Tick>(state_.lock_tick)
                                      : std::nullopt;
  } else {
    result_.accepted = false;
    result_.exact = false;
    result_.f_count = 0;
    result_.first_f = std::nullopt;
  }
  return result_;
}

std::unique_ptr<core::OnlineAcceptor> make_lane_acceptor(
    std::shared_ptr<const Problem> problem, RunOptions options) {
  return std::make_unique<DeadlineLaneAcceptor>(std::move(problem), options);
}

}  // namespace rtw::deadline
