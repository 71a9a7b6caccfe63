// The deadline lane kernel: one lane at a time, each run as one closed-form
// transition (lane_step_run) where it lies inside the Working window, else
// element by element through lane_step_element.  A lane's filter and state
// are copied into locals for the whole run and written back once.  The
// shard's runs sit in separate pooled buffers written on another core, so
// while lane k steps, lane k+1's filter, state and the head of its run are
// prefetched; the hardware prefetcher streams the rest of the run once the
// pass reaches it.

#include <algorithm>

#include "rtw/deadline/lane.hpp"

namespace rtw::deadline {

namespace {

constexpr std::size_t kCacheLine = 64;
/// Bytes of the next lane's run prefetched ahead of its pass.  Prefetching
/// a whole 6 KiB run competed with the current lane's own loads in the
/// per-lane-buffer bench (EXPERIMENTS.md EXP-LANE-CLOSED).
constexpr std::size_t kRunPrefetchBytes = 4 * kCacheLine;

void prefetch_lane(const core::LaneRun& run) noexcept {
  __builtin_prefetch(run.filter);
  __builtin_prefetch(run.state);
  const auto* bytes = reinterpret_cast<const char*>(run.data);
  const std::size_t size = std::min(kRunPrefetchBytes,
                                    run.size * sizeof(core::TimedSymbol));
  for (std::size_t off = 0; off < size; off += kCacheLine)
    __builtin_prefetch(bytes + off);
}

}  // namespace

void step_lanes_scalar(const core::LaneRun* runs, std::size_t count,
                       std::uint64_t d_id) noexcept {
  for (std::size_t lane = 0; lane < count; ++lane) {
    if (lane + 1 < count) prefetch_lane(runs[lane + 1]);
    const core::LaneRun& run = runs[lane];
    core::LaneFilter filter = *run.filter;
    DeadlineLaneState state = *static_cast<DeadlineLaneState*>(run.state);
    if (!lane_step_run(filter, state, run.data, run.size, d_id))
      for (std::size_t i = 0; i < run.size; ++i)
        lane_step_element(filter, state, run.data[i], d_id);
    *run.filter = filter;
    *static_cast<DeadlineLaneState*>(run.state) = state;
  }
}

}  // namespace rtw::deadline
