// The deadline lane kernel: one lane at a time, each run as one closed-form
// transition (lane_step_run) from its summary where it lies inside the
// Working window, else element by element through lane_step_element.  A
// lane's filter and state are copied into locals for the whole run and
// written back once.  A run pooled by its producer arrives summarised, so
// the closed form never reads its elements, which sit in a buffer written
// on another core; a run staged without a summary (an op-12 run the shard
// decoded) is summarised here.  While lane k steps, lane k+1's filter,
// state and summary are prefetched -- never its elements, which only a
// declined run reads.

#include "rtw/deadline/lane.hpp"

namespace rtw::deadline {

namespace {

void prefetch_lane(const core::LaneRun& run) noexcept {
  __builtin_prefetch(run.filter);
  __builtin_prefetch(run.state);
  if (run.summary) {
    // The summary sits right after the body buffer's header, so it may
    // straddle two lines.
    __builtin_prefetch(run.summary);
    __builtin_prefetch(reinterpret_cast<const char*>(run.summary + 1) - 1);
  }
}

}  // namespace

void step_lanes_scalar(const core::LaneRun* runs, std::size_t count,
                       std::uint64_t d_id) noexcept {
  for (std::size_t lane = 0; lane < count; ++lane) {
    if (lane + 1 < count) prefetch_lane(runs[lane + 1]);
    const core::LaneRun& run = runs[lane];
    core::LaneFilter filter = *run.filter;
    DeadlineLaneState state = *static_cast<DeadlineLaneState*>(run.state);
    const core::RunSummary summary =
        run.summary ? *run.summary : core::summarize_run(run.data, run.size);
    if (!lane_step_run(filter, state, summary, d_id))
      for (std::size_t i = 0; i < run.size; ++i)
        lane_step_element(filter, state, run.data[i], d_id);
    *run.filter = filter;
    *static_cast<DeadlineLaneState*>(run.state) = state;
  }
}

}  // namespace rtw::deadline
