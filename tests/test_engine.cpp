// Tests for the rtw::engine runtime: the EventQueue-driven executor
// (parity with the historical core::run_acceptor semantics), the lock
// protocol edge cases, the RunTrace/Counters observability layer, and the
// BatchRunner parallel fan-out (deterministic seeding, verdict parity with
// the serial path, concurrency cap).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "rtw/deadline/acceptor.hpp"
#include "rtw/engine/batch.hpp"
#include "rtw/engine/engine.hpp"
#include "rtw/obs/metrics.hpp"
#include "rtw/obs/sink.hpp"
#include "rtw/obs/tracer.hpp"

namespace {

using namespace rtw::core;
using rtw::engine::BatchOptions;
using rtw::engine::BatchRunner;
using rtw::engine::Engine;
using rtw::engine::EngineResult;

/// Installs an obs sink for one scope, so engine runs fold into the
/// `engine.*` / `faults.*` registry counters.
struct SinkGuard {
  explicit SinkGuard(rtw::obs::Sink* s) { rtw::obs::set_sink(s); }
  ~SinkGuard() { rtw::obs::set_sink(nullptr); }
};

/// Locks (accept) as soon as `count` 'a' symbols with timestamps <= window
/// have been seen and the window has elapsed; rejects otherwise.
class CountingAcceptor final : public RealTimeAlgorithm {
 public:
  CountingAcceptor(Tick window, std::uint64_t threshold)
      : window_(window), threshold_(threshold) {}

  void on_tick(const StepContext& ctx) override {
    for (const auto& ts : ctx.arrivals)
      if (ts.sym == Symbol::chr('a') && ts.time <= window_) ++count_;
    if (ctx.now >= window_ && !decided_) {
      decided_ = true;
      verdict_ = count_ >= threshold_;
    }
    if (decided_ && verdict_ && ctx.out.can_write(ctx.now))
      ctx.out.write(ctx.now, ctx.out.accept_symbol());
  }

  std::optional<bool> locked() const override {
    if (!decided_) return std::nullopt;
    return verdict_;
  }

  void reset() override {
    count_ = 0;
    decided_ = false;
    verdict_ = false;
  }

 private:
  Tick window_;
  std::uint64_t threshold_;
  std::uint64_t count_ = 0;
  bool decided_ = false;
  bool verdict_ = false;
};

// ----------------------------------------------------------- Engine::run

TEST(EngineTest, MatchesLegacyAcceptVerdict) {
  CountingAcceptor algo(10, 3);
  const auto yes = TimedWord::finite(symbols_of("aaa"), {1, 5, 9});
  const auto run = rtw::engine::run(algo, yes);
  EXPECT_TRUE(run.result.accepted);
  EXPECT_TRUE(run.result.exact);
  EXPECT_EQ(run.result.symbols_consumed, 3u);
  EXPECT_EQ(run.trace.lock_time, Tick{10});
}

TEST(EngineTest, MatchesLegacyRejectVerdict) {
  CountingAcceptor algo(10, 3);
  const auto no = TimedWord::finite(symbols_of("aaa"), {1, 5, 11});
  const auto run = rtw::engine::run(algo, no);
  EXPECT_FALSE(run.result.accepted);
  EXPECT_TRUE(run.result.exact);
}

TEST(EngineTest, FreeRunAgreesWithConfiguredEngineOnASweep) {
  // The one-shot free function and an explicitly constructed Engine are
  // the same machine: field-for-field parity across a small sweep.
  for (Tick step : {1, 3, 7}) {
    for (std::uint64_t threshold : {1u, 3u, 5u}) {
      std::vector<TimedSymbol> symbols;
      for (std::uint64_t i = 0; i < 5; ++i)
        symbols.push_back({Symbol::chr('a'), step * (i + 1)});
      const auto word = TimedWord::finite(symbols);
      CountingAcceptor a(12, threshold), b(12, threshold);
      const auto legacy = rtw::engine::run(a, word).result;
      const auto modern =
          rtw::engine::Engine(rtw::core::RunOptions{}).run(b, word).result;
      EXPECT_EQ(legacy.accepted, modern.accepted);
      EXPECT_EQ(legacy.exact, modern.exact);
      EXPECT_EQ(legacy.ticks, modern.ticks);
      EXPECT_EQ(legacy.f_count, modern.f_count);
      EXPECT_EQ(legacy.first_f, modern.first_f);
      EXPECT_EQ(legacy.symbols_consumed, modern.symbols_consumed);
    }
  }
}

TEST(EngineTest, FastForwardSkipsIdleGapsInsideTheHeap) {
  CountingAcceptor algo(1000000, 1);
  const auto w = TimedWord::finite(symbols_of("a"), {999999});
  RunOptions opt;
  opt.horizon = 2000000;
  const auto run = rtw::engine::run(algo, w, opt);
  EXPECT_TRUE(run.result.accepted);
  EXPECT_TRUE(run.result.exact);
  // The gap was skipped, not walked: the driver visited far fewer ticks
  // than the lock time, and the skip is accounted for in the trace.
  EXPECT_LT(run.trace.ticks_executed, 100u);
  EXPECT_GT(run.trace.ticks_skipped, 999000u);
}

// ------------------------------------------- lock protocol edge cases

TEST(EngineLockEdgeTest, LockOnTickZero) {
  // AcceptAll commits to s_f immediately: the verdict is exact with the
  // lock on the very first tick, before any arrival matters.
  AcceptAll algo;
  const auto run =
      rtw::engine::run(algo, TimedWord::finite(symbols_of("abc"), {5, 6, 7}));
  EXPECT_TRUE(run.result.accepted);
  EXPECT_TRUE(run.result.exact);
  EXPECT_EQ(run.result.ticks, Tick{0});
  EXPECT_EQ(run.trace.lock_time, Tick{0});
  EXPECT_EQ(run.trace.ticks_executed, 1u);
}

TEST(EngineLockEdgeTest, RejectLockOnTickZero) {
  RejectAll algo;
  const auto run = rtw::engine::run(algo, TimedWord::text_at("abc", 0));
  EXPECT_FALSE(run.result.accepted);
  EXPECT_TRUE(run.result.exact);
  EXPECT_EQ(run.trace.lock_time, Tick{0});
}

TEST(EngineLockEdgeTest, LockAfterLastArrival) {
  // The decision window closes at tick 20; the last arrival is at tick 9.
  // The executor must keep single-stepping past the drained word until the
  // algorithm locks.
  CountingAcceptor algo(20, 2);
  const auto w = TimedWord::finite(symbols_of("aa"), {3, 9});
  const auto run = rtw::engine::run(algo, w);
  EXPECT_TRUE(run.result.accepted);
  EXPECT_TRUE(run.result.exact);
  EXPECT_EQ(run.trace.lock_time, Tick{20});
  EXPECT_EQ(run.result.symbols_consumed, 2u);
}

TEST(EngineLockEdgeTest, NeverLocksTrailingWindowAccept) {
  // Writes f every tick but never commits: the horizon heuristic accepts,
  // flagged exact == false.
  class Waffler final : public RealTimeAlgorithm {
   public:
    void on_tick(const StepContext& ctx) override {
      if (ctx.out.can_write(ctx.now))
        ctx.out.write(ctx.now, ctx.out.accept_symbol());
    }
  } algo;
  RunOptions opt;
  opt.horizon = 200;
  const auto w = TimedWord::lasso({}, {{Symbol::chr('a'), 1}}, 1);
  const auto run = rtw::engine::run(algo, w, opt);
  EXPECT_TRUE(run.result.accepted);
  EXPECT_FALSE(run.result.exact);
  EXPECT_FALSE(run.trace.lock_time.has_value());
}

TEST(EngineLockEdgeTest, NeverLocksSilentReject) {
  class Silent final : public RealTimeAlgorithm {
   public:
    void on_tick(const StepContext&) override {}
  } algo;
  RunOptions opt;
  opt.horizon = 100;
  const auto run = rtw::engine::run(
      algo, TimedWord::lasso({}, {{Symbol::chr('a'), 1}}, 1), opt);
  EXPECT_FALSE(run.result.accepted);
  EXPECT_FALSE(run.result.exact);
  EXPECT_EQ(run.result.f_count, 0u);
}

TEST(EngineLockEdgeTest, StaleFOutsideTrailingWindowRejects) {
  // f written early, never again: the trailing-quarter heuristic must not
  // credit it.
  class EarlyBird final : public RealTimeAlgorithm {
   public:
    void on_tick(const StepContext& ctx) override {
      if (ctx.now <= 2 && ctx.out.can_write(ctx.now))
        ctx.out.write(ctx.now, ctx.out.accept_symbol());
    }
  } algo;
  RunOptions opt;
  opt.horizon = 1000;
  const auto run = rtw::engine::run(
      algo, TimedWord::lasso({}, {{Symbol::chr('a'), 1}}, 1), opt);
  EXPECT_FALSE(run.result.accepted);
  EXPECT_FALSE(run.result.exact);
  EXPECT_GE(run.result.f_count, 1u);
}

// -------------------------------------------------------- observability

TEST(EngineTraceTest, TraceFieldsAreCoherent) {
  CountingAcceptor algo(10, 1);
  const auto w = TimedWord::finite(symbols_of("a"), {4});
  const auto run = rtw::engine::run(algo, w);
  EXPECT_EQ(run.trace.final_tick, run.result.ticks);
  EXPECT_GE(run.trace.ticks_executed, 1u);
  EXPECT_EQ(run.trace.events_executed, run.trace.ticks_executed);
  EXPECT_GE(run.trace.queue_depth_hwm, 1u);
  EXPECT_EQ(run.trace.symbols_consumed, run.result.symbols_consumed);
  EXPECT_EQ(run.trace.f_count, run.result.f_count);
}

TEST(EngineTraceTest, JsonIsOneLine) {
  AcceptAll algo;
  const auto run = rtw::engine::run(algo, TimedWord::text_at("a", 0));
  const std::string json = run.trace.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"lock_time\":0"), std::string::npos);
}

TEST(EngineCountersTest, RunsAreCounted) {
  // Engine runs fold into the obs registry while a sink is installed;
  // the registry is process-wide, so the test reads deltas.
  auto& reg = rtw::obs::MetricsRegistry::instance();
  const auto value = [&reg](const char* name) {
    return reg.counter(name).value();
  };
  const auto runs = value("engine.runs");
  const auto locked_runs = value("engine.locked_runs");
  const auto ticks = value("engine.ticks");
  const auto symbols = value("engine.symbols");
  {
    rtw::obs::Tracer tracer;
    SinkGuard guard(&tracer);
    AcceptAll algo;
    rtw::engine::run(algo, TimedWord::text_at("a", 0));
    rtw::engine::run(algo, TimedWord::text_at("b", 0));
  }
  EXPECT_EQ(value("engine.runs") - runs, 2u);
  EXPECT_EQ(value("engine.locked_runs") - locked_runs, 2u);
  EXPECT_GE(value("engine.ticks") - ticks, 2u);
  EXPECT_EQ(value("engine.symbols") - symbols, 2u);
}

// --------------------------------------------------------- BatchRunner

TEST(BatchRunnerTest, MapPreservesIndexOrder) {
  BatchRunner runner(BatchOptions{.threads = 4});
  const auto out = runner.map(
      64, [](std::size_t i, rtw::sim::Xoshiro256ss&) { return i * i; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(BatchRunnerTest, PerRunRngIsThreadCountInvariant) {
  const BatchOptions serial{.threads = 1, .seed = 42};
  const BatchOptions wide{.threads = 4, .seed = 42};
  auto draw = [](std::size_t, rtw::sim::Xoshiro256ss& rng) { return rng(); };
  const auto a = BatchRunner(serial).map(100, draw);
  const auto b = BatchRunner(wide).map(100, draw);
  EXPECT_EQ(a, b);
  // And a different base seed gives a different stream.
  const BatchOptions other{.threads = 4, .seed = 43};
  EXPECT_NE(a, BatchRunner(other).map(100, draw));
}

TEST(BatchRunnerTest, ExceptionsPropagate) {
  BatchRunner runner(BatchOptions{.threads = 2});
  EXPECT_THROW(runner.map(4,
                          [](std::size_t i, rtw::sim::Xoshiro256ss&) -> int {
                            if (i == 3) throw std::runtime_error("boom");
                            return 0;
                          }),
               std::runtime_error);
}

TEST(BatchRunnerTest, HundredWordSweepMatchesSerialBitForBit) {
  // The acceptance bar: a 100-word membership sweep on >= 4 threads is
  // bit-identical to the serial path.
  std::vector<TimedWord> words;
  for (std::uint64_t i = 0; i < 100; ++i) {
    std::vector<TimedSymbol> symbols;
    const std::uint64_t n = i % 7;  // 0..6 a's; threshold 3 splits the set
    for (std::uint64_t k = 0; k < n; ++k)
      symbols.push_back({Symbol::chr('a'), 1 + 2 * k});
    words.push_back(TimedWord::finite(std::move(symbols)));
  }
  const auto factory = [] { return std::make_unique<CountingAcceptor>(12, 3); };

  std::vector<bool> serial;
  for (const auto& w : words) {
    auto algorithm = factory();
    serial.push_back(rtw::engine::run(*algorithm, w).result.accepted);
  }
  const auto parallel = rtw::engine::membership_sweep(
      factory, words, {}, false, BatchOptions{.threads = 4});
  EXPECT_EQ(serial, parallel);
  // Sanity: the sweep is not all-one-verdict.
  EXPECT_NE(std::count(serial.begin(), serial.end(), true), 0);
  EXPECT_NE(std::count(serial.begin(), serial.end(), false), 0);
}

TEST(BatchRunnerTest, RunSampledIsDeterministic) {
  const auto factory = [] { return std::make_unique<CountingAcceptor>(8, 2); };
  auto sampler = [](std::uint64_t, rtw::sim::Xoshiro256ss& rng) {
    std::vector<TimedSymbol> symbols;
    const std::uint64_t n = rng.uniform(5);
    for (std::uint64_t k = 0; k < n; ++k)
      symbols.push_back({Symbol::chr('a'), 1 + k});
    return TimedWord::finite(std::move(symbols));
  };
  auto verdicts = [&](unsigned threads) {
    BatchRunner runner(BatchOptions{.threads = threads, .seed = 7});
    std::vector<char> out;
    for (const auto& r : runner.run_sampled(factory, 40, sampler))
      out.push_back(r.result.accepted ? 1 : 0);
    return out;
  };
  EXPECT_EQ(verdicts(1), verdicts(4));
}

// ------------------------------------------------- application parity

TEST(BatchApplicationTest, DeadlineBatchMatchesSerial) {
  {
    rtw::deadline::SortProblem pi;
    std::vector<rtw::deadline::DeadlineInstance> instances;
    for (std::uint64_t i = 0; i < 24; ++i) {
      rtw::deadline::DeadlineInstance inst;
      for (std::uint64_t k = 0; k < 3 + i % 4; ++k)
        inst.input.push_back(Symbol::nat((11 * i + 5 * k) % 23));
      inst.proposed_output = pi.solve(inst.input);
      if (i % 5 == 0) inst.proposed_output.push_back(Symbol::nat(99));  // lie
      const auto cost = pi.work_cost(inst.input);
      inst.usefulness = rtw::deadline::Usefulness::firm(cost + 4, 10);
      inst.min_acceptable = 1;
      instances.push_back(std::move(inst));
    }
    std::vector<bool> serial;
    for (const auto& inst : instances)
      serial.push_back(rtw::deadline::accepts_instance(pi, inst));
    const auto batch = rtw::deadline::accepts_instances(
        pi, instances, BatchOptions{.threads = 4});
    EXPECT_EQ(serial, batch);
    EXPECT_NE(std::count(serial.begin(), serial.end(), false), 0);
    EXPECT_NE(std::count(serial.begin(), serial.end(), true), 0);
  }
}

}  // namespace
