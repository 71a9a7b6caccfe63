// Tests for the section 6 explicit parallel model: the process runtime and
// its (c_k, l_k, r_k) behavior words, the PRAM degenerate case, the
// rt-PROC(p) hierarchy experiment, and the thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "rtw/core/error.hpp"
#include "rtw/par/pram.hpp"
#include "rtw/par/process.hpp"
#include "rtw/par/rtproc.hpp"
#include "rtw/par/rtproc_word.hpp"
#include "rtw/engine/engine.hpp"
#include "rtw/sim/thread_pool.hpp"

namespace {

using namespace rtw::par;
using rtw::core::Symbol;
using rtw::sim::ThreadPool;

// --------------------------------------------------------- ProcessSystem

/// Sends its tick count to the next process (ring) and emits a symbol.
class RingProcess final : public Process {
public:
  RingProcess(ProcId self, ProcId total) : self_(self), total_(total) {}
  std::string name() const override { return "ring"; }
  void on_tick(ProcContext& ctx) override {
    for (const auto& m : ctx.inbox()) received_total_ += m.payload.as_nat();
    ctx.emit(Symbol::nat(ctx.now()));
    ctx.send((self_ + 1) % total_, Symbol::nat(ctx.now()));
  }
  std::uint64_t received_total() const noexcept { return received_total_; }

private:
  ProcId self_;
  ProcId total_;
  std::uint64_t received_total_ = 0;
};

TEST(ProcessSystemTest, MessagesHaveUnitLatency) {
  ProcessSystem system(2, [](ProcId id) {
    return std::make_unique<RingProcess>(id, 2);
  });
  const auto trace = system.run(5);
  // Process 0 sent at ticks 0..4; process 1 received copies at 1..4.
  ASSERT_EQ(trace.processes[0].sent.size(), 5u);
  ASSERT_EQ(trace.processes[1].received.size(), 4u);
  for (const auto& m : trace.processes[1].received)
    EXPECT_EQ(m.received_at, m.sent_at + 1);
}

TEST(ProcessSystemTest, BehaviorWordsCarryAllThreeComponents) {
  ProcessSystem system(3, [](ProcId id) {
    return std::make_unique<RingProcess>(id, 3);
  });
  const auto trace = system.run(4);
  for (ProcId k = 0; k < 3; ++k) {
    const auto c = trace.computation_word(k);
    const auto l = trace.send_word(k);
    const auto r = trace.receive_word(k);
    EXPECT_EQ(c.length(), std::uint64_t{4});       // one emit per tick
    EXPECT_EQ(*l.length(), 5u * 4);                // 4 messages encoded
    EXPECT_EQ(*r.length(), 5u * 3);                // 3 deliveries encoded
    const auto behavior = trace.behavior_word(k);
    EXPECT_EQ(*behavior.length(), 4 + 20 + 15u);
    EXPECT_EQ(behavior.monotone(), rtw::core::Certificate::Proven);
  }
}

TEST(ProcessSystemTest, EmitDisciplineEnforced) {
  class DoubleEmit final : public Process {
  public:
    void on_tick(ProcContext& ctx) override {
      ctx.emit(Symbol::nat(0));
      ctx.emit(Symbol::nat(1));  // violates one-symbol-per-tick
    }
  };
  ProcessSystem system(1,
                       [](ProcId) { return std::make_unique<DoubleEmit>(); });
  EXPECT_THROW(system.run(1), rtw::core::ModelError);
}

TEST(ProcessSystemTest, Validation) {
  EXPECT_THROW(ProcessSystem(0, [](ProcId) {
                 return std::make_unique<RingProcess>(0, 1);
               }),
               rtw::core::ModelError);
  EXPECT_THROW(ProcessSystem(1, nullptr), rtw::core::ModelError);
  class BadSend final : public Process {
  public:
    void on_tick(ProcContext& ctx) override {
      ctx.send(9, Symbol::nat(0));  // unknown addressee
    }
  };
  ProcessSystem system(1, [](ProcId) { return std::make_unique<BadSend>(); });
  EXPECT_THROW(system.run(1), rtw::core::ModelError);
}

TEST(ProcessSystemTest, RunIsDeterministic) {
  auto run_once = [] {
    ProcessSystem system(4, [](ProcId id) {
      return std::make_unique<RingProcess>(id, 4);
    });
    const auto trace = system.run(16);
    std::uint64_t signature = 0;
    for (const auto& proc : trace.processes)
      for (const auto& m : proc.received)
        signature = signature * 31 + m.payload.as_nat() + m.received_at;
    return signature;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ------------------------------------------------------------------ PRAM

TEST(PramTest, PrefixSumsDoubling) {
  Pram pram(8, 8, PramVariant::Crew);
  std::iota(pram.memory().begin(), pram.memory().end(), 1);  // 1..8
  const auto steps = pram_prefix_sums(pram, 8);
  EXPECT_EQ(steps, 3u);  // log2(8)
  const std::vector<Word> expected{1, 3, 6, 10, 15, 21, 28, 36};
  EXPECT_EQ(pram.memory(), expected);
}

TEST(PramTest, ErewRejectsConcurrentReads) {
  Pram pram(2, 4, PramVariant::Erew);
  const PramProgram program = [](std::uint32_t,
                                 Tick step) -> std::optional<PramStep> {
    if (step > 0) return std::nullopt;
    PramStep s;
    s.reads = {0};  // both processors read cell 0
    s.compute = [](std::span<const Word>) {
      return std::vector<std::pair<std::size_t, Word>>{};
    };
    return s;
  };
  EXPECT_THROW(pram.run(program, 4), rtw::core::ModelError);
  // The same program is legal under CREW.
  Pram crew(2, 4, PramVariant::Crew);
  EXPECT_EQ(crew.run(program, 4), 1u);
}

TEST(PramTest, WriteConflictsAlwaysIllegal) {
  Pram pram(2, 4, PramVariant::Crew);
  const PramProgram program = [](std::uint32_t,
                                 Tick step) -> std::optional<PramStep> {
    if (step > 0) return std::nullopt;
    PramStep s;
    s.compute = [](std::span<const Word>) {
      return std::vector<std::pair<std::size_t, Word>>{{0, 7}};
    };
    return s;
  };
  EXPECT_THROW(pram.run(program, 4), rtw::core::ModelError);
}

TEST(PramTest, BoundsChecked) {
  Pram pram(1, 2, PramVariant::Crew);
  const PramProgram bad_read = [](std::uint32_t,
                                  Tick) -> std::optional<PramStep> {
    PramStep s;
    s.reads = {9};
    s.compute = [](std::span<const Word>) {
      return std::vector<std::pair<std::size_t, Word>>{};
    };
    return s;
  };
  EXPECT_THROW(pram.run(bad_read, 1), rtw::core::ModelError);
  EXPECT_THROW(Pram(0, 1, PramVariant::Crew), rtw::core::ModelError);
  EXPECT_THROW(Pram(1, 0, PramVariant::Crew), rtw::core::ModelError);
}

// --------------------------------------------------------------- rt-PROC

TEST(RtProcTest, SingleProcessorHandlesUnitLoad) {
  const auto outcome = run_rtproc_trial({1, 1, 8, 256});
  EXPECT_TRUE(outcome.accepted);
  EXPECT_EQ(outcome.late, 0u);
  EXPECT_GT(outcome.retired, 200u);
}

TEST(RtProcTest, SingleProcessorFailsDoubleLoad) {
  const auto outcome = run_rtproc_trial({1, 2, 8, 256});
  EXPECT_FALSE(outcome.accepted);
  EXPECT_GT(outcome.late, 0u);
  EXPECT_GT(outcome.peak_backlog, 8u);  // backlog grows without bound
}

TEST(RtProcTest, MatchingParallelismAccepts) {
  for (ProcId p : {2u, 3u, 4u}) {
    const auto outcome = run_rtproc_trial({p, p, 8, 256});
    EXPECT_TRUE(outcome.accepted) << "p=" << p;
  }
}

TEST(RtProcTest, MatrixShowsStrictHierarchy) {
  // The rt-PROC hierarchy question, answered positively on this family:
  // row p accepts exactly the columns m <= p.
  const auto matrix = rtproc_matrix(4, 4, 8, 256);
  for (std::size_t p = 0; p < 4; ++p)
    for (std::size_t m = 0; m < 4; ++m)
      EXPECT_EQ(matrix[p][m], m <= p) << "p=" << p + 1 << " m=" << m + 1;
}

TEST(RtProcTest, Validation) {
  EXPECT_THROW(run_rtproc_trial({0, 1, 1, 1}), rtw::core::ModelError);
  EXPECT_THROW(run_rtproc_trial({1, 0, 1, 1}), rtw::core::ModelError);
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, ManyTasksAllComplete) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i) pool.post([&counter] { ++counter; });
  }  // the destructor runs every queued task before it joins
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, DestructorRunsEveryQueuedTask) {
  // Both workers are held until the pool is being destroyed, so the 50
  // tasks are still queued when the destructor begins.
  std::atomic<int> counter{0};
  std::atomic<bool> release{false};
  {
    ThreadPool pool(2);
    for (int w = 0; w < 2; ++w)
      pool.post([&release] {
        while (!release.load()) std::this_thread::yield();
      });
    for (int i = 0; i < 50; ++i) pool.post([&counter] { ++counter; });
    EXPECT_EQ(counter.load(), 0);
    release.store(true);
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, PostAfterShutdownThrows) {
  // The task keeps posting no-ops until the destructor has begun the
  // shutdown; that post throws, and the destructor still runs every task
  // queued before it.
  std::atomic<bool> threw{false};
  std::atomic<int> noops{0};
  int posted = 0;
  {
    ThreadPool pool(1);
    pool.post([&] {
      for (;;) {
        try {
          pool.post([&noops] { ++noops; });
        } catch (const std::runtime_error&) {
          threw = true;
          return;
        }
        ++posted;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }
  EXPECT_TRUE(threw.load());
  EXPECT_EQ(noops.load(), posted);
}

}  // namespace

// ----------------------------------------- L_m as words (rtproc_word.hpp)

namespace token_words {

using namespace rtw::par;
using rtw::core::Symbol;

TEST(TokenWordTest, DeliversRatePerTick) {
  const auto w = build_token_word(3);
  EXPECT_EQ(w.well_behaved(), rtw::core::Certificate::Proven);
  // Ticks carry exactly 3 tokens each.
  for (std::uint64_t i = 0; i < 12; ++i)
    EXPECT_EQ(w.at(i).time, 1 + i / 3) << "i=" << i;
  EXPECT_THROW(build_token_word(0), rtw::core::ModelError);
}

TEST(TokenStreamTest, MatchingWorkersAccept) {
  for (std::uint32_t m : {1u, 2u, 4u}) {
    TokenStreamAcceptor acceptor(m, 4);
    rtw::core::RunOptions options;
    options.horizon = 300;
    const auto r =
        rtw::engine::run(acceptor, build_token_word(m), options).result;
    EXPECT_TRUE(r.accepted) << "m=" << m;
    EXPECT_FALSE(r.exact);  // the obligation never ends
    EXPECT_EQ(acceptor.peak_backlog(), m);  // one tick's worth in flight
  }
}

TEST(TokenStreamTest, UnderProvisionedRejectsExactly) {
  TokenStreamAcceptor acceptor(2, 4);
  rtw::core::RunOptions options;
  options.horizon = 300;
  const auto r =
      rtw::engine::run(acceptor, build_token_word(3), options).result;
  EXPECT_FALSE(r.accepted);
  EXPECT_TRUE(r.exact);  // the first late token locks s_r
}

TEST(TokenStreamTest, LanguageStaircaseMatchesProcessRuntime) {
  // The word-level staircase agrees with the process-runtime matrix: a
  // p-worker acceptor's language contains exactly the rates m <= p.
  for (std::uint32_t p = 1; p <= 4; ++p) {
    const auto lang = rtproc_language(p, 4, 300);
    for (std::uint32_t m = 1; m <= 4; ++m)
      EXPECT_EQ(lang.contains(build_token_word(m)), m <= p)
          << "p=" << p << " m=" << m;
  }
}

TEST(TokenStreamTest, SamplesAreMembers) {
  const auto lang = rtproc_language(3, 4, 300);
  for (std::uint64_t i = 0; i < 6; ++i)
    EXPECT_TRUE(lang.contains(lang.sample(i))) << "sample " << i;
}

}  // namespace token_words
