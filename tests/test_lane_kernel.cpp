// The batch acceptance lane suite: the lane kernel must be
// *bit-identical* to the per-symbol reference path.
//
//   1. The layout probe the kernel's raw loads rely on.
//   2. DeadlineLaneAcceptor vs the engine replica: 500 seeded cases of
//      proper and mutated deadline words, verdict compared after every
//      feed and the full RunResult at finish, across both fast-forward
//      modes and both stream ends.
//   3. The closed-form run step: lane_step_run, from summarize_run,
//      against a lane_step_element loop on seeded runs inside and across
//      the Working window, with stale elements, frontier ties, settled
//      lanes, markers of one or two ids, no Nat, last time groups of 1, 2
//      and all elements, and a first time below the frontier -- every
//      filter and lane field must match, and a declined run must change
//      nothing.  Then the stepper advances a fleet of lanes wave by wave
//      against per-symbol reference sessions (EngineOnlineAcceptor under
//      Session::feed_run), with stale injections, in short runs and in
//      runs of 200-300 elements, half of them staged with a summary --
//      verdicts, stale counters and final reports must all match.
//   4. The serving-layer property: SessionManagers with the lane kernel
//      on, fed batched runs, the same runs as op-12 bodies, or one symbol
//      at a time over the tri-workload mix (deadline / rtdb / adhoc) at 1
//      and 2 shards, produce field-identical reports to a per-symbol
//      reference manager with the kernel off (500 seeded cases).
//   5. The Session::feed_run settled-session fast path keeps the stale
//      filter exactly equivalent to per-symbol feeding.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "proptest.hpp"
#include "rtw/adhoc/mobility.hpp"
#include "rtw/adhoc/route_acceptor.hpp"
#include "rtw/adhoc/words.hpp"
#include "rtw/core/lane.hpp"
#include "rtw/core/online.hpp"
#include "rtw/deadline/lane.hpp"
#include "rtw/deadline/online.hpp"
#include "rtw/deadline/problem.hpp"
#include "rtw/deadline/word.hpp"
#include "rtw/rtdb/algebra.hpp"
#include "rtw/rtdb/recognition.hpp"
#include "rtw/svc/body_pool.hpp"
#include "rtw/svc/service.hpp"
#include "rtw/svc/session.hpp"
#include "rtw/svc/wire.hpp"

namespace {

using namespace rtw::core;
using rtw::deadline::DeadlineInstance;
using rtw::deadline::DeadlineLaneAcceptor;
using rtw::deadline::make_lane_acceptor;
using rtw::deadline::Usefulness;
using rtw::svc::Admit;
using rtw::svc::Session;
using rtw::svc::SessionManager;


// ============================================== 1. layout probe

TEST(KernelDispatch, LayoutProbeMatchesRawLoads) {
  EXPECT_TRUE(rtw::deadline::lane_layout_ok());
  const TimedSymbol d{marks::deadline(), 7};
  EXPECT_EQ(rtw::deadline::lane_raw_kind(d),
            rtw::deadline::kLaneKindMarker);
  EXPECT_EQ(rtw::deadline::lane_raw_value(d),
            rtw::deadline::deadline_marker_id());
  const TimedSymbol n{Symbol::nat(41), 7};
  EXPECT_EQ(rtw::deadline::lane_raw_kind(n), rtw::deadline::kLaneKindNat);
  EXPECT_EQ(rtw::deadline::lane_raw_value(n), 41u);
}

// =========================== 2. lane acceptor vs engine replica property

/// The visible prefix of `word` within `horizon` plus how it ends.
struct StreamPrefix {
  std::vector<TimedSymbol> symbols;
  StreamEnd end = StreamEnd::Truncated;
};

StreamPrefix stream_prefix(const TimedWord& word, Tick horizon,
                           std::uint64_t cap = 200000) {
  StreamPrefix out;
  auto cursor = word.cursor();
  for (std::uint64_t i = 0; i < cap; ++i) {
    if (cursor.done()) {
      out.end = StreamEnd::EndOfWord;
      return out;
    }
    const auto ts = cursor.current();
    if (ts.time > horizon) return out;
    out.symbols.push_back(ts);
    cursor.advance();
  }
  ADD_FAILURE() << "stream_prefix cap hit (horizon too large for the test)";
  return out;
}

std::string render(const RunResult& r) {
  std::ostringstream out;
  out << "accepted=" << r.accepted << " exact=" << r.exact
      << " ticks=" << r.ticks << " f_count=" << r.f_count << " first_f="
      << (r.first_f ? std::to_string(*r.first_f) : std::string("-"))
      << " consumed=" << r.symbols_consumed;
  return out.str();
}

std::optional<std::string> result_violation(const RunResult& lane,
                                            const RunResult& reference) {
  if (lane.accepted != reference.accepted || lane.exact != reference.exact ||
      lane.ticks != reference.ticks || lane.f_count != reference.f_count ||
      lane.first_f != reference.first_f ||
      lane.symbols_consumed != reference.symbols_consumed)
    return "RunResult mismatch: lane{" + render(lane) + "} engine{" +
           render(reference) + "}";
  return std::nullopt;
}

/// One generated deadline stream: a section 4.1 word (proper or mutated),
/// run options, and where to cut it.
struct DeadlineStream {
  std::vector<TimedSymbol> symbols;
  StreamEnd end = StreamEnd::Truncated;
  std::shared_ptr<const rtw::deadline::Problem> problem;
  RunOptions options;
};

std::shared_ptr<const rtw::deadline::Problem> random_problem(
    rtw::sim::Xoshiro256ss& rng) {
  switch (rng.uniform(std::uint64_t{3})) {
    case 0: return std::make_shared<rtw::deadline::SortProblem>();
    case 1:
      return std::make_shared<rtw::deadline::FixedCostProblem>(
          1 + rng.uniform(std::uint64_t{40}));
    default: return std::make_shared<rtw::deadline::ReverseProblem>();
  }
}

DeadlineStream deadline_stream(rtw::sim::Xoshiro256ss& rng,
                               std::size_t size) {
  DeadlineInstance inst;
  const auto in_len = 1 + rng.uniform(std::uint64_t{1 + size / 4});
  for (std::uint64_t i = 0; i < in_len; ++i)
    inst.input.push_back(Symbol::nat(rng.uniform(std::uint64_t{9})));

  DeadlineStream s;
  s.problem = random_problem(rng);
  if (rng.bernoulli(0.7)) {
    inst.proposed_output = s.problem->solve(inst.input);
  } else {
    const auto out_len = 1 + rng.uniform(std::uint64_t{4});
    for (std::uint64_t i = 0; i < out_len; ++i)
      inst.proposed_output.push_back(
          Symbol::nat(rng.uniform(std::uint64_t{9})));
  }
  if (rng.bernoulli(0.6)) {
    inst.usefulness = Usefulness::firm(3 + rng.uniform(std::uint64_t{40}), 10);
    inst.min_acceptable = rng.uniform(std::uint64_t{10});
  } else {
    inst.usefulness = Usefulness::none(10);
  }

  s.options.horizon = 60 + rng.uniform(std::uint64_t{200});
  s.options.fast_forward = rng.bernoulli(0.85);
  auto prefix =
      stream_prefix(rtw::deadline::build_deadline_word(inst),
                    s.options.horizon);
  s.symbols = std::move(prefix.symbols);
  s.end = prefix.end;

  // Mutations (the acceptor must handle arbitrary monotone streams, not
  // just proper instance words): inject extra symbols at in-range times,
  // and sometimes abandon the stream early.
  if (rng.bernoulli(0.4) && !s.symbols.empty()) {
    const auto injections = 1 + rng.uniform(std::uint64_t{5});
    for (std::uint64_t i = 0; i < injections; ++i) {
      const auto at = rng.uniform(std::uint64_t{s.symbols.size()});
      Symbol sym = Symbol::chr('w');
      switch (rng.uniform(std::uint64_t{4})) {
        case 0: sym = Symbol::nat(rng.uniform(std::uint64_t{12})); break;
        case 1: sym = marks::deadline(); break;
        case 2: sym = marks::dollar(); break;
        default: break;
      }
      s.symbols.insert(s.symbols.begin() + static_cast<std::ptrdiff_t>(at),
                       TimedSymbol{sym, s.symbols[at].time});
    }
  }
  if (rng.bernoulli(0.25) && !s.symbols.empty()) {
    s.symbols.resize(1 + rng.uniform(std::uint64_t{s.symbols.size()}));
    s.end = rng.bernoulli(0.5) ? StreamEnd::Truncated : StreamEnd::EndOfWord;
  }
  return s;
}

/// Feeds the same stream through the lane acceptor and the engine replica,
/// comparing the verdict after *every* element and the full RunResult at
/// finish.  This is the per-element bit-identity contract of
/// rtw/core/lane.hpp, proven over the compressed automaton's whole
/// transition table by 500 seeded cases.
std::optional<std::string> lane_vs_engine(rtw::sim::Xoshiro256ss& rng,
                                          std::size_t size) {
  const auto s = deadline_stream(rng, size);
  const auto lane = make_lane_acceptor(s.problem, s.options);
  const auto engine =
      rtw::deadline::make_online_acceptor(s.problem, s.options);
  for (std::size_t i = 0; i < s.symbols.size(); ++i) {
    const auto vl = lane->feed(s.symbols[i]);
    const auto ve = engine->feed(s.symbols[i]);
    if (vl != ve)
      return "verdict diverged at element " + std::to_string(i) + ": lane=" +
             to_string(vl) + " engine=" + to_string(ve);
  }
  const auto vl = lane->finish(s.end);
  const auto ve = engine->finish(s.end);
  if (vl != ve)
    return "finish verdict diverged: lane=" + to_string(vl) +
           " engine=" + to_string(ve);
  return result_violation(lane->result(), engine->result());
}

TEST(LaneAcceptor, FiveHundredSeededCasesMatchEngineReplica) {
  rtw::proptest::Config cfg;
  cfg.seed = 0x6c616e65ULL;  // "lane"
  cfg.cases = 500;
  cfg.max_size = 32;
  const auto result =
      rtw::proptest::run_property("lane.acceptor_vs_engine", cfg,
                                  lane_vs_engine);
  EXPECT_TRUE(result.ok()) << rtw::proptest::describe(
      "lane.acceptor_vs_engine", cfg, *result.failure);
}

TEST(LaneAcceptor, PromotesOnlyWithFastForward) {
  const auto problem = std::make_shared<rtw::deadline::FixedCostProblem>(50);
  DeadlineInstance inst;
  inst.input = {Symbol::nat(3)};
  inst.proposed_output = problem->solve(inst.input);
  RunOptions options;
  options.horizon = 1000;

  for (const bool fast_forward : {true, false}) {
    options.fast_forward = fast_forward;
    DeadlineLaneAcceptor acceptor(problem, options);
    const auto prefix =
        stream_prefix(rtw::deadline::build_deadline_word(inst), 10);
    for (const auto& ts : prefix.symbols) acceptor.feed(ts);
    EXPECT_EQ(acceptor.hot(), fast_forward);
    EXPECT_EQ(acceptor.lane_state() != nullptr, fast_forward);
  }
}

TEST(LaneAcceptor, ResetReturnsToColdPhase) {
  const auto problem = std::make_shared<rtw::deadline::FixedCostProblem>(50);
  DeadlineInstance inst;
  inst.input = {Symbol::nat(3)};
  inst.proposed_output = problem->solve(inst.input);
  DeadlineLaneAcceptor acceptor(problem, RunOptions{});
  const auto prefix =
      stream_prefix(rtw::deadline::build_deadline_word(inst), 10);
  for (const auto& ts : prefix.symbols) acceptor.feed(ts);
  ASSERT_TRUE(acceptor.hot());
  acceptor.reset();
  EXPECT_FALSE(acceptor.hot());
  EXPECT_EQ(acceptor.verdict(), Verdict::Undetermined);
  for (const auto& ts : prefix.symbols) acceptor.feed(ts);
  EXPECT_TRUE(acceptor.hot());
}

// ====================================== 3. the closed-form run step

using rtw::deadline::DeadlineLaneState;
using rtw::deadline::kLaneEnded;
using rtw::deadline::kLaneLive;
using rtw::deadline::kLaneLocked;

/// Every field of a lane's filter and state that differs, or nullopt.
std::optional<std::string> lane_mismatch(const LaneFilter& fa,
                                         const DeadlineLaneState& a,
                                         const LaneFilter& fb,
                                         const DeadlineLaneState& b) {
  std::ostringstream out;
  const auto field = [&out](const char* name, auto x, auto y) {
    if (x != y) out << " " << name << "=" << +x << "/" << +y;
  };
  field("high_water", fa.high_water, fb.high_water);
  field("fed", fa.fed, fb.fed);
  field("stale", fa.stale, fb.stale);
  field("any", fa.any, fb.any);
  field("frontier", a.frontier, b.frontier);
  field("ticks", a.ticks, b.ticks);
  field("completion", a.completion, b.completion);
  field("horizon", a.horizon, b.horizon);
  field("pending", a.pending, b.pending);
  field("delivered", a.delivered, b.delivered);
  field("usefulness", a.usefulness, b.usefulness);
  field("min_acceptable", a.min_acceptable, b.min_acceptable);
  field("lock_tick", a.lock_tick, b.lock_tick);
  field("status", a.status, b.status);
  field("accepted", a.accepted, b.accepted);
  field("deadline_passed", a.deadline_passed, b.deadline_passed);
  field("matches", a.matches, b.matches);
  if (out.str().empty()) return std::nullopt;
  return out.str();
}

/// The shapes of run the closed form must take or decline.
enum class RunShape {
  Inside,        ///< sorted, newer than the frontier, inside the window
  FrontierTies,  ///< starts at the frontier, then newer ticks
  AllAtFrontier, ///< every element at the frontier
  CrossesCompletion,
  CrossesHorizon,
  OneStale,      ///< one element below the running high-water mark
  Settled,       ///< the lane is already locked or ended
  MixedMarkers,  ///< markers with two ids: `d` and `$`
  OtherMarker,   ///< inside, its only markers a non-`d` id
  NoNat,         ///< inside, no Nat: usefulness must stay
  LastGroup,     ///< inside, its last time group 1, 2 or n elements long
  BelowFrontier, ///< first time below the frontier, not below the mark
  kCount,
};

/// lane_step_run on one generated (lane, run) pair, from the run's
/// summarize_run, against a lane_step_element loop.  `taken` / `declined`
/// count the outcomes.
std::optional<std::string> closed_form_vs_elements(
    rtw::sim::Xoshiro256ss& rng, std::size_t size, std::size_t& taken,
    std::size_t& declined) {
  const auto shape = static_cast<RunShape>(
      rng.uniform(static_cast<std::uint64_t>(RunShape::kCount)));
  const std::uint64_t d_id = rtw::deadline::deadline_marker_id();

  DeadlineLaneState state;
  state.frontier = 10 + rng.uniform(std::uint64_t{100});
  state.ticks = state.frontier - 1 - rng.uniform(std::uint64_t{5});
  state.pending = 1 + rng.uniform(std::uint64_t{4});
  state.delivered = 20 + rng.uniform(std::uint64_t{50});
  state.usefulness = rng.uniform(std::uint64_t{10});
  state.min_acceptable = rng.uniform(std::uint64_t{10});
  state.deadline_passed = rng.bernoulli(0.3);
  state.matches = rng.bernoulli(0.7);
  LaneFilter filter;
  filter.high_water = state.frontier;
  filter.any = true;
  filter.fed = state.delivered + state.pending;
  filter.stale = rng.uniform(std::uint64_t{3});
  // A quarter of the cases start from a fresh filter (nothing fed yet, no
  // mark), so the closed form must raise `any` itself.  OneStale keeps a
  // fed filter: its first element is stale only below a real mark.
  if (shape != RunShape::OneStale && rng.bernoulli(0.25)) filter = LaneFilter{};

  // The run: 1-300 elements (scaled by the size ramp), times from the
  // frontier on in steps of 0-2.  Its markers carry one id, `d` or `$`,
  // except where the shape says otherwise.
  const std::size_t n = 1 + rng.uniform(std::uint64_t{size * 12});
  std::vector<TimedSymbol> run;
  Tick t = state.frontier;
  if (shape != RunShape::FrontierTies && shape != RunShape::AllAtFrontier)
    t += 1 + rng.uniform(std::uint64_t{2});
  if (shape == RunShape::BelowFrontier)
    t = state.frontier - 1 - rng.uniform(std::uint64_t{3});
  const Symbol marker =
      shape == RunShape::OtherMarker || rng.bernoulli(0.5)
          ? marks::dollar()
          : marks::deadline();
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && shape != RunShape::AllAtFrontier)
      t += rng.uniform(std::uint64_t{3});
    Symbol sym = Symbol::chr('w');
    switch (rng.uniform(std::uint64_t{5})) {
      case 0:
        if (shape != RunShape::NoNat)
          sym = Symbol::nat(rng.uniform(std::uint64_t{9}));
        break;
      case 1:
      case 2: sym = marker; break;
      default: break;
    }
    run.push_back(TimedSymbol{sym, t});
  }
  if (shape == RunShape::OtherMarker)
    run[rng.uniform(std::uint64_t{n})].sym = marker;
  if (shape == RunShape::MixedMarkers) {
    // One `d` and one `$` at two distinct places (a run of one grows).
    if (n == 1) run.push_back(TimedSymbol{Symbol::chr('w'), t});
    const std::size_t at = rng.uniform(std::uint64_t{run.size() - 1});
    run[at].sym = marks::deadline();
    run[at + 1 + rng.uniform(std::uint64_t{run.size() - 1 - at})].sym =
        marks::dollar();
  }
  if (shape == RunShape::LastGroup) {
    // The last 1, 2 or all elements share the last time, which is newer
    // than the element before them.
    const std::uint64_t pick = rng.uniform(std::uint64_t{3});
    const std::size_t group =
        pick == 2 ? n : std::min<std::size_t>(n, 1 + pick);
    const std::size_t start = n - group;
    const Tick last = (start > 0 ? run[start - 1].time : t) + 1 +
                      rng.uniform(std::uint64_t{2});
    for (std::size_t i = start; i < n; ++i) run[i].time = last;
  }
  const std::size_t len = run.size();
  const Tick first = run.front().time;
  const Tick last = run.back().time;
  if (shape == RunShape::BelowFrontier) {
    // Only the frontier check can decline it: the filter's mark is at or
    // below the first time.
    filter.high_water = first - rng.uniform(std::uint64_t{3});
  }

  // The window: inside unless the shape crosses one of its ends.
  state.completion = last + rng.uniform(std::uint64_t{20});
  state.horizon = state.completion + rng.uniform(std::uint64_t{40});
  if (shape == RunShape::CrossesCompletion) {
    state.completion = first + rng.uniform(std::uint64_t{last - first + 1});
    if (state.completion == last) state.completion = state.frontier;
    state.horizon = last + rng.uniform(std::uint64_t{20});
  } else if (shape == RunShape::CrossesHorizon) {
    // In [first - 1, last - 1]: first - 1 is at or above the frontier.
    state.horizon = last - 1 - rng.uniform(std::uint64_t{last - first + 1});
    state.completion = state.horizon + rng.uniform(std::uint64_t{40});
  }
  if (shape == RunShape::OneStale) {
    // Below the running high-water mark: a later element under its
    // predecessor, or the first one under the filter's mark -- moved down,
    // or left at or above the frontier under a mark raised past it.
    const std::size_t at = rng.uniform(std::uint64_t{len});
    if (at > 0)
      run[at].time = run[at - 1].time - 1 - rng.uniform(std::uint64_t{3});
    else if (rng.bernoulli(0.5))
      run[0].time = filter.high_water - 1 - rng.uniform(std::uint64_t{3});
    else
      filter.high_water = run[0].time + 1 + rng.uniform(std::uint64_t{3});
  }
  if (shape == RunShape::Settled) {
    state.status = rng.bernoulli(0.5) ? kLaneLocked : kLaneEnded;
    state.lock_tick = state.frontier;
    state.accepted = rng.bernoulli(0.5);
    filter.high_water = state.frontier + rng.uniform(std::uint64_t{3});
  }
  const bool expect_taken =
      shape == RunShape::Inside || shape == RunShape::FrontierTies ||
      shape == RunShape::AllAtFrontier || shape == RunShape::OtherMarker ||
      shape == RunShape::NoNat || shape == RunShape::LastGroup;

  LaneFilter closed_filter = filter;
  DeadlineLaneState closed = state;
  const bool took = rtw::deadline::lane_step_run(
      closed_filter, closed, summarize_run(run.data(), len), d_id);
  if (took != expect_taken)
    return std::string("shape ") +
           std::to_string(static_cast<int>(shape)) + ": lane_step_run " +
           (took ? "took" : "declined") + " a run of " + std::to_string(len);
  if (took) {
    ++taken;
  } else {
    ++declined;
    if (auto diff = lane_mismatch(closed_filter, closed, filter, state))
      return "a declined run changed the lane:" + *diff;
    // The kernel's fallback: the same run element by element.
    for (const auto& ts : run)
      rtw::deadline::lane_step_element(closed_filter, closed, ts, d_id);
  }
  LaneFilter element_filter = filter;
  DeadlineLaneState elements = state;
  for (const auto& ts : run)
    rtw::deadline::lane_step_element(element_filter, elements, ts, d_id);
  if (auto diff = lane_mismatch(closed_filter, closed, element_filter,
                                elements))
    return "shape " + std::to_string(static_cast<int>(shape)) + ", " +
           std::to_string(len) + " elements, closed/element:" + *diff;
  // Then one stale element through lane_step_element on both: it must be
  // dropped against the mark (and `any`) the run left behind.
  const Tick mark = element_filter.high_water;
  if (mark > 0) {
    const TimedSymbol stale{Symbol::chr('w'),
                            mark - 1 - rng.uniform(std::uint64_t{mark})};
    rtw::deadline::lane_step_element(closed_filter, closed, stale, d_id);
    rtw::deadline::lane_step_element(element_filter, elements, stale, d_id);
    if (auto diff = lane_mismatch(closed_filter, closed, element_filter,
                                  elements))
      return "shape " + std::to_string(static_cast<int>(shape)) + ", " +
             std::to_string(len) +
             " elements, then a stale one, closed/element:" + *diff;
  }
  return std::nullopt;
}

TEST(LaneStepRun, ClosedFormMatchesElementLoop) {
  rtw::proptest::Config cfg;
  cfg.seed = 0x636c6f73ULL;  // "clos"
  cfg.cases = 2000;
  cfg.max_size = 25;  // runs of up to 300 elements
  std::size_t taken = 0, declined = 0;
  const auto result = rtw::proptest::run_property(
      "lane.closed_form_vs_elements", cfg,
      [&](rtw::sim::Xoshiro256ss& rng, std::size_t size) {
        return closed_form_vs_elements(rng, size, taken, declined);
      });
  EXPECT_TRUE(result.ok()) << rtw::proptest::describe(
      "lane.closed_form_vs_elements", cfg, *result.failure);
  EXPECT_GT(taken, 0u);
  EXPECT_GT(declined, 0u);
}

/// One lane under test: a lane-acceptor session stepped by the kernel,
/// twinned with an engine-acceptor session fed per element.
struct LanePair {
  std::unique_ptr<Session> lane;
  std::unique_ptr<Session> reference;
  Tick clock = 3;  ///< next in-order timestamp (the header run fed up to 2)
};

/// The runs one matrix leg feeds: their lengths, the stale rate, and a
/// window wide enough that some lanes lock, some end and some stay live.
struct MatrixShape {
  std::uint64_t min_run = 0;
  std::uint64_t max_run = 8;
  double stale_rate = 0.15;
  Tick horizon = 600;
  Tick completion_step = 40;  ///< lane i completes at 20 + step * (i % 16)
};

/// Drives the deadline stepper against the per-symbol reference across a
/// fleet of lanes with stale injections, comparing verdicts and filter
/// counters after every wave and the terminal reports at close.
void run_lane_matrix(const MatrixShape& shape, std::uint64_t seed) {
  const auto stepper = rtw::deadline::make_deadline_stepper();
  ASSERT_NE(stepper, nullptr);
  ASSERT_EQ(stepper->family(), LaneFamily::Deadline);

  rtw::sim::Xoshiro256ss rng(seed);
  constexpr std::size_t kLanes = 37;
  std::vector<LanePair> pairs;
  for (std::size_t i = 0; i < kLanes; ++i) {
    // A spread of completion ticks: some lanes lock mid-test, some end at
    // the horizon, some stay live throughout.
    const auto problem = std::make_shared<rtw::deadline::FixedCostProblem>(
        20 + shape.completion_step * (i % 16));
    DeadlineInstance inst;
    inst.input = {Symbol::nat(i % 7)};
    if (i % 3 == 0) {
      inst.proposed_output = {Symbol::nat(99)};  // wrong: reject-locks
    } else {
      inst.proposed_output = problem->solve(inst.input);
    }
    if (i % 2 == 0) {
      inst.usefulness = Usefulness::firm(30 + 20 * (i % 8), 10);
      inst.min_acceptable = i % 5;
    } else {
      inst.usefulness = Usefulness::none(10);
    }
    RunOptions options;
    options.horizon = shape.horizon;
    LanePair pair;
    pair.lane = std::make_unique<Session>(
        i, make_lane_acceptor(problem, options));
    pair.reference = std::make_unique<Session>(
        i, rtw::deadline::make_online_acceptor(problem, options));

    // The header run promotes the lane acceptor through its cold phase.
    // It must reach past time 0: tick 0 only becomes emulable (and the
    // algorithm Working) once a strictly newer element arrives.
    const auto header =
        stream_prefix(rtw::deadline::build_deadline_word(inst), 2);
    pair.lane->feed_run(header.symbols.data(), header.symbols.size());
    pair.reference->feed_run(header.symbols.data(), header.symbols.size());
    pairs.push_back(std::move(pair));
  }
  for (auto& pair : pairs)
    ASSERT_NE(pair.lane->acceptor().lane_state(), nullptr)
        << "header run failed to promote lane " << pair.lane->id();

  for (int wave = 0; wave < 60; ++wave) {
    std::vector<std::vector<TimedSymbol>> runs(kLanes);
    std::vector<RunSummary> summaries(kLanes);
    std::vector<LaneRun> lane_runs;
    for (std::size_t i = 0; i < kLanes; ++i) {
      auto& pair = pairs[i];
      const auto len =  // may be empty
          shape.min_run +
          rng.uniform(std::uint64_t{shape.max_run - shape.min_run + 1});
      for (std::uint64_t j = 0; j < len; ++j) {
        Tick at = pair.clock;
        if (rng.bernoulli(shape.stale_rate) && pair.clock > 2) {
          at = pair.clock - 1 - rng.uniform(std::uint64_t{2});  // stale
        } else {
          pair.clock += rng.uniform(std::uint64_t{3});
          at = pair.clock;
        }
        Symbol sym = Symbol::chr('w');
        switch (rng.uniform(std::uint64_t{5})) {
          case 0: sym = Symbol::nat(rng.uniform(std::uint64_t{9})); break;
          case 1: sym = marks::deadline(); break;
          case 2: sym = marks::dollar(); break;
          default: break;
        }
        runs[i].push_back(TimedSymbol{sym, at});
      }
      // Half the runs arrive summarised, as a producer's pooled runs do;
      // the kernel summarises the rest itself.
      summaries[i] = summarize_run(runs[i].data(), runs[i].size());
      lane_runs.push_back(LaneRun{runs[i].data(), runs[i].size(),
                                  &pair.lane->lane_filter(),
                                  pair.lane->acceptor().lane_state(),
                                  rng.bernoulli(0.5) ? &summaries[i]
                                                     : nullptr});
      pair.reference->feed_run(runs[i].data(), runs[i].size());
    }
    stepper->step(lane_runs.data(), lane_runs.size());
    for (std::size_t i = 0; i < kLanes; ++i) {
      ASSERT_EQ(pairs[i].lane->verdict(), pairs[i].reference->verdict())
          << "lane " << i << " wave " << wave;
      ASSERT_EQ(pairs[i].lane->fed(), pairs[i].reference->fed())
          << "lane " << i << " wave " << wave;
      ASSERT_EQ(pairs[i].lane->stale_dropped(),
                pairs[i].reference->stale_dropped())
          << "lane " << i << " wave " << wave;
    }
  }

  for (std::size_t i = 0; i < kLanes; ++i) {
    const auto end =
        i % 2 == 0 ? StreamEnd::EndOfWord : StreamEnd::Truncated;
    ASSERT_EQ(pairs[i].lane->finish(end), pairs[i].reference->finish(end))
        << "lane " << i;
    const auto a = pairs[i].lane->report(false);
    const auto b = pairs[i].reference->report(false);
    EXPECT_EQ(a.verdict, b.verdict) << "lane " << i;
    EXPECT_EQ(a.fed, b.fed) << "lane " << i;
    EXPECT_EQ(a.stale_dropped, b.stale_dropped) << "lane " << i;
    const auto violation = result_violation(a.result, b.result);
    EXPECT_EQ(violation, std::nullopt) << "lane " << i << ": " << *violation;
  }
}

TEST(VariantMatrix, ScalarMatchesPerSymbolReference) {
  // Short runs with many stale elements: mostly the per-element fallback.
  run_lane_matrix(MatrixShape{}, 0x736c6172ULL);
  // Runs of 200-300 elements with 1% stale, in a window wide enough that
  // many runs lie inside it: the closed form, with locks and ends
  // scattered over the fleet.
  MatrixShape long_runs;
  long_runs.min_run = 200;
  long_runs.max_run = 300;
  long_runs.stale_rate = 0.01;
  long_runs.horizon = 12000;
  long_runs.completion_step = 800;
  run_lane_matrix(long_runs, 0x6c6f6e67ULL);
}

// ==================================== 4. the serving-layer property

/// One generated tri-workload case: factories for the reference acceptor
/// (always the engine replica) and the serving acceptor (the lane acceptor
/// for the deadline family; identical for foreign families, which must take
/// the per-symbol fallback inside the manager).
struct ManagedCase {
  std::function<std::unique_ptr<OnlineAcceptor>()> make_reference;
  std::function<std::unique_ptr<OnlineAcceptor>()> make_served;
  std::vector<TimedSymbol> symbols;
  StreamEnd end = StreamEnd::Truncated;
};

ManagedCase managed_deadline(rtw::sim::Xoshiro256ss& rng, std::size_t size) {
  const auto s = deadline_stream(rng, size);
  ManagedCase c;
  c.symbols = s.symbols;
  c.end = s.end;
  const auto problem = s.problem;
  const auto options = s.options;
  c.make_reference = [problem, options] {
    return rtw::deadline::make_online_acceptor(problem, options);
  };
  c.make_served = [problem, options] {
    return make_lane_acceptor(problem, options);
  };
  return c;
}

rtw::rtdb::QueryCatalog image_catalog() {
  rtw::rtdb::QueryCatalog catalog;
  catalog.add(rtw::rtdb::Query("all-images", [](const rtw::rtdb::Database& db) {
    return rtw::rtdb::project(
        rtw::rtdb::select_eq(db.get("Objects"), "Kind",
                             rtw::rtdb::Value{std::string("image")}),
        {"Name"});
  }));
  return catalog;
}

ManagedCase managed_rtdb(rtw::sim::Xoshiro256ss& rng, std::size_t size) {
  using namespace rtw::rtdb;
  RtdbWordSpec spec;
  spec.invariants = {{"site", Value{std::string("plant")}}};
  const auto images = 1 + rng.uniform(std::uint64_t{1 + size / 12});
  for (std::uint64_t i = 0; i < images; ++i)
    spec.images.push_back({"s" + std::to_string(i),
                           2 + rng.uniform(std::uint64_t{4}), [i](Tick t) {
                             return Value{static_cast<std::int64_t>(
                                 10 * i + t % 5)};
                           }});
  AperiodicQuerySpec q;
  q.query = "all-images";
  q.candidate = {Value{std::string(rng.bernoulli(0.6) ? "s0" : "nope")}};
  q.issue_time = 5 + rng.uniform(std::uint64_t{30});
  if (rng.bernoulli(0.7)) {
    q.usefulness = Usefulness::firm(2 + rng.uniform(std::uint64_t{30}), 10);
    q.min_acceptable = 1;
  } else {
    q.usefulness = Usefulness::none(10);
  }
  const auto word = rtw::core::concat(build_dbB(spec), build_aq(q));

  ManagedCase c;
  RunOptions options;
  options.horizon = 150 + rng.uniform(std::uint64_t{150});
  options.fast_forward = rng.bernoulli(0.8);
  const auto prefix = stream_prefix(word, options.horizon);
  c.symbols = prefix.symbols;
  c.end = prefix.end;
  const Tick patience = 64;
  c.make_reference = [options, patience] {
    return make_online_recognition(image_catalog(), linear_cost(), patience,
                                   options);
  };
  c.make_served = c.make_reference;
  return c;
}

ManagedCase managed_adhoc(rtw::sim::Xoshiro256ss& rng, std::size_t size) {
  using namespace rtw::adhoc;
  const auto n =
      static_cast<NodeId>(3 + rng.uniform(std::uint64_t{1 + size / 8}));
  std::vector<std::unique_ptr<Mobility>> nodes;
  for (NodeId i = 0; i < n; ++i)
    nodes.push_back(std::make_unique<Stationary>(Vec2{10.0 * i, 0.0}));
  auto net = std::make_shared<const Network>(std::move(nodes), 12.0);

  RouteTrace trace;
  trace.source = 0;
  trace.destination = n - 1;
  trace.body = 100 + rng.uniform(std::uint64_t{900});
  trace.originated_at = 2 + rng.uniform(std::uint64_t{10});
  Tick t = trace.originated_at;
  for (NodeId i = 0; i + 1 < n; ++i) {
    trace.hops.push_back({t, t + 1, i, static_cast<NodeId>(i + 1),
                          trace.body});
    t += 1;
  }
  trace.delivered = true;
  if (rng.bernoulli(0.5) && !trace.hops.empty()) {
    trace.hops.pop_back();
    trace.delivered = false;
  }

  RouteQuery query{0, static_cast<NodeId>(n - 1), trace.body,
                   trace.originated_at};
  ManagedCase c;
  RunOptions options;
  options.horizon = 60 + rng.uniform(std::uint64_t{80});
  options.fast_forward = rng.bernoulli(0.8);
  const auto prefix =
      stream_prefix(route_instance_word(trace, *net), options.horizon);
  c.symbols = prefix.symbols;
  c.end = prefix.end;
  c.make_reference = [net, query, options] {
    return make_online_route_acceptor(net, query, options);
  };
  c.make_served = c.make_reference;
  return c;
}

/// `run` as an op-12 body in a buffer from `pool`, as a connection's
/// reader hands it to feed_packed.
rtw::svc::PackedBody packed_body(rtw::svc::BodyPool& pool,
                                 const TimedSymbol* run, std::size_t n) {
  const std::string frame =
      rtw::svc::encode_feed_batch(1, std::vector<TimedSymbol>(run, run + n));
  return pool.take(std::string_view(frame).substr(13), n);
}

/// The lane kernel must be invisible to verdicts: the same tri-workload
/// streams, admitted as batched runs into a manager with the kernel on
/// (Feed commands, stepped from the summary their producer made), as the
/// same runs packed as op-12 bodies into another (FeedPacked commands,
/// decoded and summarised on the shard), fed per symbol into a third
/// kernel-on manager (each symbol a run of one, so it too reaches the lane
/// wave), and fed per symbol into a reference manager with the kernel off,
/// at 1 and 2 shards, must produce field-identical reports.
TEST(ManagedLaneEquivalence, FiveHundredTriWorkloadCasesAcrossShardCounts) {
  rtw::svc::IngressConfig ingress;
  ingress.ring_capacity = 1 << 13;  // the workload never sheds
  rtw::svc::ShardConfig reference_shard;
  reference_shard.lane_kernel = false;
  rtw::svc::ShardConfig lane_shard;
  lane_shard.lane_kernel = true;
  lane_shard.lane_wave = 8;  // small waves: exercise mid-batch flushes

  reference_shard.count = 1;
  lane_shard.count = 1;
  SessionManager reference_1(reference_shard, ingress),
      lane_1(lane_shard, ingress), packed_1(lane_shard, ingress),
      single_1(lane_shard, ingress);
  reference_shard.count = 2;
  lane_shard.count = 2;
  SessionManager reference_2(reference_shard, ingress),
      lane_2(lane_shard, ingress), packed_2(lane_shard, ingress),
      single_2(lane_shard, ingress);
  rtw::svc::BodyPool pool;
  // Deadline runs past the header whose markers carry two ids: the closed
  // form declines them, on both feed paths.
  std::size_t mixed_runs = 0;

  rtw::proptest::Config cfg;
  cfg.seed = 0x77617665ULL;  // "wave"
  cfg.cases = 500;
  cfg.max_size = 24;
  const auto result = rtw::proptest::run_property(
      "svc.lane_kernel_equivalence", cfg,
      [&](rtw::sim::Xoshiro256ss& rng,
          std::size_t size) -> std::optional<std::string> {
        ManagedCase c;
        const auto family = rng.uniform(std::uint64_t{3});
        switch (family) {
          case 0: c = managed_deadline(rng, size); break;
          case 1: c = managed_rtdb(rng, size); break;
          default: c = managed_adhoc(rng, size); break;
        }
        const bool two_shards = rng.bernoulli(0.5);
        SessionManager& ref = two_shards ? reference_2 : reference_1;
        SessionManager& lan = two_shards ? lane_2 : lane_1;
        SessionManager& pkd = two_shards ? packed_2 : packed_1;
        SessionManager& one = two_shards ? single_2 : single_1;
        const auto id_ref = ref.open(c.make_reference());
        const auto id_lan = lan.open(c.make_served());
        const auto id_pkd = pkd.open(c.make_served());
        const auto id_one = one.open(c.make_served());

        for (const auto& ts : c.symbols) {
          if (ref.feed(id_ref, ts.sym, ts.time) != Admit::Accepted)
            return "reference feed not accepted";
          if (one.feed(id_one, ts.sym, ts.time) != Admit::Accepted)
            return "per-symbol lane-manager feed not accepted";
        }
        std::size_t off = 0;
        while (off < c.symbols.size()) {
          const std::size_t len =
              std::min<std::size_t>(c.symbols.size() - off,
                                    1 + rng.uniform(std::uint64_t{16}));
          const TimedSymbol* run = c.symbols.data() + off;
          if (lan.feed_batch(id_lan, {run, run + len}) != Admit::Accepted)
            return "lane-manager feed not accepted";
          auto body = packed_body(pool, run, len);
          if (pkd.feed_packed(id_pkd, body) != Admit::Accepted)
            return "packed lane-manager feed not accepted";
          const RunSummary summary = summarize_run(run, len);
          mixed_runs += family == 0 && summary.first > 1 && summary.mixed;
          off += len;
        }

        ref.close(id_ref, c.end);
        lan.close(id_lan, c.end);
        pkd.close(id_pkd, c.end);
        one.close(id_one, c.end);
        ref.drain();
        lan.drain();
        pkd.drain();
        one.drain();
        const auto r_ref = ref.collect();
        const auto r_lan = lan.collect();
        const auto r_pkd = pkd.collect();
        const auto r_one = one.collect();
        if (r_ref.size() != 1 || r_lan.size() != 1 || r_pkd.size() != 1 ||
            r_one.size() != 1)
          return "expected exactly one report per manager";
        const auto& b = r_ref[0];
        const std::pair<std::string, const rtw::svc::SessionReport*>
            served[] = {{"batched", &r_lan[0]},
                        {"packed", &r_pkd[0]},
                        {"per-symbol", &r_one[0]}};
        for (const auto& [input, a] : served) {
          if (a->verdict != b.verdict)
            return input + " verdict mismatch: lane=" +
                   to_string(a->verdict) +
                   " reference=" + to_string(b.verdict);
          if (a->fed != b.fed || a->stale_dropped != b.stale_dropped)
            return input + " filter counters diverged";
          if (auto violation = result_violation(a->result, b.result))
            return input + " " + *violation;
        }
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok()) << rtw::proptest::describe(
      "svc.lane_kernel_equivalence", cfg, *result.failure);

  // The lane manager actually used the kernel (deadline cases are a third
  // of the mix; each feeds at least one batched run).
  EXPECT_GT(lane_1.stats().lane_waves + lane_2.stats().lane_waves, 0u);
  EXPECT_GT(lane_1.stats().lane_symbols + lane_2.stats().lane_symbols, 0u);
  EXPECT_GT(packed_1.stats().lane_symbols + packed_2.stats().lane_symbols,
            0u);
  EXPECT_GT(mixed_runs, 0u);
  // Single-symbol feeds are runs of one and reach the kernel too.
  EXPECT_GT(single_1.stats().lane_symbols + single_2.stats().lane_symbols,
            0u);
  EXPECT_EQ(reference_1.stats().lane_waves, 0u);
  EXPECT_EQ(reference_2.stats().lane_waves, 0u);
}

// ==================== 5. Session::feed_run settled-session fast path

TEST(SessionFeedRun, SettledFastPathKeepsFilterEquivalence) {
  // A zero-cost problem locks on the first post-header tick, so both
  // sessions settle early and the remaining stream exercises the
  // settled-session path (no virtual feeds, filter still counts).
  const auto problem = std::make_shared<rtw::deadline::FixedCostProblem>(1);
  DeadlineInstance inst;
  inst.input = {Symbol::nat(3)};
  inst.proposed_output = problem->solve(inst.input);
  RunOptions options;
  options.horizon = 1000;
  options.fast_forward = false;  // engine path on both sessions

  Session batched(1, rtw::deadline::make_online_acceptor(problem, options));
  Session per_symbol(2,
                     rtw::deadline::make_online_acceptor(problem, options));

  auto prefix = stream_prefix(rtw::deadline::build_deadline_word(inst), 40);
  // Stale injections after the lock: timestamps below the high-water mark.
  for (Tick t = 5; t < 15; ++t)
    prefix.symbols.push_back(TimedSymbol{Symbol::chr('w'), t});

  batched.feed_run(prefix.symbols.data(), prefix.symbols.size());
  for (const auto& ts : prefix.symbols) per_symbol.feed(ts.sym, ts.time);

  EXPECT_TRUE(final_verdict(batched.verdict()));
  EXPECT_EQ(batched.verdict(), per_symbol.verdict());
  EXPECT_EQ(batched.fed(), per_symbol.fed());
  EXPECT_EQ(batched.stale_dropped(), per_symbol.stale_dropped());
  EXPECT_GT(batched.stale_dropped(), 0u);
}

}  // namespace
