// The batch acceptance lane suite: every kernel variant must be
// *bit-identical* to the per-symbol reference path.
//
//   1. Runtime dispatch: the pure variant-selection function and the
//      layout probe the gathers rely on.
//   2. DeadlineLaneAcceptor vs the engine replica: 500 seeded cases of
//      proper and mutated deadline words, verdict compared after every
//      feed and the full RunResult at finish, across both fast-forward
//      modes and both stream ends.
//   3. The variant matrix: scalar / SSE2 / AVX2 steppers advance a fleet
//      of lanes wave by wave against per-symbol reference sessions
//      (EngineOnlineAcceptor under Session::feed_run), with stale
//      injections -- verdicts, stale counters and final reports must all
//      match on every variant the machine can run.
//   4. The serving-layer property: SessionManagers with the lane kernel
//      on, fed batched runs or one symbol at a time over the tri-workload
//      mix (deadline / rtdb / adhoc) at 1 and 2 shards, produce
//      field-identical reports to a per-symbol reference manager with the
//      kernel off (500 seeded cases).
//   5. The Session::feed_run settled-session fast path keeps the stale
//      filter exactly equivalent to per-symbol feeding.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
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
#include "rtw/svc/service.hpp"
#include "rtw/svc/session.hpp"

namespace {

using namespace rtw::core;
using rtw::deadline::DeadlineInstance;
using rtw::deadline::DeadlineLaneAcceptor;
using rtw::deadline::make_lane_acceptor;
using rtw::deadline::Usefulness;
using rtw::svc::Admit;
using rtw::svc::Session;
using rtw::svc::SessionManager;


// ====================================== 1. dispatch and layout probes

TEST(KernelDispatch, EnvOverrideForcesScalar) {
  EXPECT_EQ(detect_variant("1"), KernelVariant::Scalar);
  EXPECT_EQ(detect_variant("yes"), KernelVariant::Scalar);
  // "0" and "" mean unset, same as a missing variable.
  EXPECT_EQ(detect_variant("0"), detect_variant(nullptr));
  EXPECT_EQ(detect_variant(""), detect_variant(nullptr));
}

TEST(KernelDispatch, ScalarIsAlwaysSupported) {
  EXPECT_TRUE(variant_supported(KernelVariant::Scalar));
  // Whatever dispatch picked must be runnable here.
  EXPECT_TRUE(variant_supported(dispatch_variant()));
  EXPECT_TRUE(variant_supported(detect_variant(nullptr)));
}

TEST(KernelDispatch, SteppersClampToRunnableVariants) {
  for (const auto requested :
       {KernelVariant::Scalar, KernelVariant::SSE2, KernelVariant::AVX2}) {
    const auto stepper = rtw::deadline::make_deadline_stepper(requested);
    ASSERT_NE(stepper, nullptr);
    EXPECT_EQ(stepper->family(), LaneFamily::Deadline);
    EXPECT_TRUE(variant_supported(stepper->variant()));
  }
  // Scalar requests are honored verbatim (the forced-scalar runtime path).
  EXPECT_EQ(
      rtw::deadline::make_deadline_stepper(KernelVariant::Scalar)->variant(),
      KernelVariant::Scalar);
}

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

// ============================================== 3. the variant matrix

/// One lane under test: a lane-acceptor session stepped by the kernel,
/// twinned with an engine-acceptor session fed per element.
struct LanePair {
  std::unique_ptr<Session> lane;
  std::unique_ptr<Session> reference;
  Tick clock = 3;  ///< next in-order timestamp (the header run fed up to 2)
};

/// Drives `variant` against the per-symbol reference across a fleet of
/// lanes (odd count, so SIMD waves always leave remainder lanes) with
/// stale injections, comparing verdicts and filter counters after every
/// wave and the terminal reports at close.
void run_variant_matrix(KernelVariant variant, std::uint64_t seed) {
  const auto stepper = rtw::deadline::make_deadline_stepper(variant);
  ASSERT_NE(stepper, nullptr);
  if (stepper->variant() != variant)
    GTEST_SKIP() << "variant " << to_string(variant)
                 << " not runnable on this build/CPU (clamped to "
                 << to_string(stepper->variant()) << ")";

  rtw::sim::Xoshiro256ss rng(seed);
  constexpr std::size_t kLanes = 37;
  constexpr Tick kHorizon = 600;
  std::vector<LanePair> pairs;
  for (std::size_t i = 0; i < kLanes; ++i) {
    // A spread of completion ticks: some lanes lock mid-test, some end at
    // the horizon, some stay live throughout.
    const auto problem = std::make_shared<rtw::deadline::FixedCostProblem>(
        20 + 40 * (i % 16));
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
    options.horizon = kHorizon;
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
    std::vector<LaneRun> lane_runs;
    for (std::size_t i = 0; i < kLanes; ++i) {
      auto& pair = pairs[i];
      const auto len = rng.uniform(std::uint64_t{9});  // may be empty
      for (std::uint64_t j = 0; j < len; ++j) {
        Tick at = pair.clock;
        if (rng.bernoulli(0.15) && pair.clock > 2) {
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
      lane_runs.push_back(LaneRun{runs[i].data(), runs[i].size(),
                                  &pair.lane->lane_filter(),
                                  pair.lane->acceptor().lane_state()});
      pair.reference->feed_run(runs[i].data(), runs[i].size());
    }
    stepper->step(lane_runs.data(), lane_runs.size());
    for (std::size_t i = 0; i < kLanes; ++i) {
      ASSERT_EQ(pairs[i].lane->verdict(), pairs[i].reference->verdict())
          << "lane " << i << " wave " << wave << " variant "
          << to_string(variant);
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
  run_variant_matrix(KernelVariant::Scalar, 0x736c6172ULL);
}

TEST(VariantMatrix, Sse2MatchesPerSymbolReference) {
  run_variant_matrix(KernelVariant::SSE2, 0x73736532ULL);
}

TEST(VariantMatrix, Avx2MatchesPerSymbolReference) {
  run_variant_matrix(KernelVariant::AVX2, 0x61767832ULL);
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

/// The lane kernel must be invisible to verdicts: the same tri-workload
/// streams, admitted as batched runs into a manager with the kernel on,
/// fed per symbol into a second kernel-on manager (each symbol a run of
/// one, so it too reaches the lane wave), and fed per symbol into a
/// reference manager with the kernel off, at 1 and 2 shards, must produce
/// field-identical reports.
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
      lane_1(lane_shard, ingress), single_1(lane_shard, ingress);
  reference_shard.count = 2;
  lane_shard.count = 2;
  SessionManager reference_2(reference_shard, ingress),
      lane_2(lane_shard, ingress), single_2(lane_shard, ingress);

  rtw::proptest::Config cfg;
  cfg.seed = 0x77617665ULL;  // "wave"
  cfg.cases = 500;
  cfg.max_size = 24;
  const auto result = rtw::proptest::run_property(
      "svc.lane_kernel_equivalence", cfg,
      [&](rtw::sim::Xoshiro256ss& rng,
          std::size_t size) -> std::optional<std::string> {
        ManagedCase c;
        switch (rng.uniform(std::uint64_t{3})) {
          case 0: c = managed_deadline(rng, size); break;
          case 1: c = managed_rtdb(rng, size); break;
          default: c = managed_adhoc(rng, size); break;
        }
        const bool two_shards = rng.bernoulli(0.5);
        SessionManager& ref = two_shards ? reference_2 : reference_1;
        SessionManager& lan = two_shards ? lane_2 : lane_1;
        SessionManager& one = two_shards ? single_2 : single_1;
        const auto id_ref = ref.open(c.make_reference());
        const auto id_lan = lan.open(c.make_served());
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
          if (lan.feed_batch(id_lan,
                             {c.symbols.begin() + off,
                              c.symbols.begin() + off + len}) !=
              Admit::Accepted)
            return "lane-manager feed not accepted";
          off += len;
        }

        ref.close(id_ref, c.end);
        lan.close(id_lan, c.end);
        one.close(id_one, c.end);
        ref.drain();
        lan.drain();
        one.drain();
        const auto r_ref = ref.collect();
        const auto r_lan = lan.collect();
        const auto r_one = one.collect();
        if (r_ref.size() != 1 || r_lan.size() != 1 || r_one.size() != 1)
          return "expected exactly one report per manager";
        const auto& b = r_ref[0];
        const std::pair<std::string, const rtw::svc::SessionReport*>
            served[] = {{"batched", &r_lan[0]}, {"per-symbol", &r_one[0]}};
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
