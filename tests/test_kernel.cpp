// Parity suite for the hot-path kernel overhaul:
//   * TimedWord::Cursor yields exactly the same (sym, time) stream as
//     at() for finite, lasso and generator words, including horizon edges
//     and chunk boundaries;
//   * EventQueue v2 (slab 4-ary heap + SmallFn actions) replays the event
//     order of the v1 kernel (std::function + std::priority_queue,
//     reimplemented here as the reference model) verbatim on randomized
//     self-scheduling workloads;
//   * the schedule_at / schedule_in clamp regressions (past scheduling and
//     delay overflow near the Tick maximum);
//   * SmallFn storage/move semantics and the ThreadPool post() fast path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "rtw/core/error.hpp"
#include "rtw/core/tape.hpp"
#include "rtw/core/timed_word.hpp"
#include "rtw/sim/event_queue.hpp"
#include "rtw/sim/rng.hpp"
#include "rtw/sim/small_fn.hpp"
#include "rtw/sim/thread_pool.hpp"

namespace {

using namespace rtw::core;

// ------------------------------------------------------- cursor parity

std::vector<TimedSymbol> by_at(const TimedWord& w, std::uint64_t n) {
  std::vector<TimedSymbol> out;
  const auto len = w.length();
  const std::uint64_t end = len ? std::min<std::uint64_t>(*len, n) : n;
  for (std::uint64_t i = 0; i < end; ++i) out.push_back(w.at(i));
  return out;
}

std::vector<TimedSymbol> by_cursor(const TimedWord& w, std::uint64_t n) {
  std::vector<TimedSymbol> out;
  auto cur = w.cursor();
  while (out.size() < n && !cur.done()) {
    EXPECT_EQ(cur.index(), out.size());
    out.push_back(cur.current());
    cur.advance();
  }
  return out;
}

TEST(CursorParity, FiniteWord) {
  const auto w = TimedWord::finite(symbols_of("abcde"), {0, 2, 2, 5, 9});
  EXPECT_EQ(by_cursor(w, 100), by_at(w, 100));
  EXPECT_EQ(by_cursor(w, 3), by_at(w, 3));
  EXPECT_EQ(by_cursor(w, 5), by_at(w, 5));  // exactly at the end
}

TEST(CursorParity, EmptyFiniteWordIsImmediatelyDone) {
  const TimedWord w;
  auto cur = w.cursor();
  EXPECT_TRUE(cur.done());
  EXPECT_EQ(cur.next(), std::nullopt);
  EXPECT_THROW(cur.current(), ModelError);
  EXPECT_THROW(cur.advance(), ModelError);
}

TEST(CursorParity, LassoWordAcrossLaps) {
  // Prefix of 3, cycle of 4, period 10: parity across several full laps
  // exercises the junction, the wraparound and the lap shift.
  const auto w = TimedWord::lasso(
      {{Symbol::chr('p'), 0}, {Symbol::chr('q'), 1}, {Symbol::chr('r'), 3}},
      {{Symbol::chr('a'), 3},
       {Symbol::chr('b'), 5},
       {Symbol::chr('c'), 5},
       {Symbol::chr('d'), 9}},
      10);
  EXPECT_EQ(by_cursor(w, 64), by_at(w, 64));
}

TEST(CursorParity, LassoWithEmptyPrefix) {
  const auto w =
      TimedWord::lasso({}, {{Symbol::chr('x'), 2}, {Symbol::chr('y'), 4}}, 4);
  EXPECT_EQ(by_cursor(w, 33), by_at(w, 33));
  EXPECT_FALSE(w.cursor().done());  // infinite: never done
}

TEST(CursorParity, LassoSingleElementCycle) {
  const auto w = TimedWord::lasso({{Symbol::chr('s'), 1}},
                                  {{Symbol::chr('t'), 7}}, 3);
  EXPECT_EQ(by_cursor(w, 50), by_at(w, 50));
}

TEST(CursorParity, GeneratorWordAcrossChunkBoundaries) {
  // 100 elements spans several 32-element cursor chunks.
  const auto w = TimedWord::generator(
      [](std::uint64_t i) {
        return TimedSymbol{Symbol::nat(i * 3 % 17), 2 * i};
      },
      {}, "parity-gen");
  EXPECT_EQ(by_cursor(w, 100), by_at(w, 100));
  EXPECT_EQ(by_cursor(w, 31), by_at(w, 31));  // just under a chunk
  EXPECT_EQ(by_cursor(w, 32), by_at(w, 32));  // exactly one chunk
  EXPECT_EQ(by_cursor(w, 33), by_at(w, 33));  // first element of chunk 2
}

TEST(CursorParity, GeneratorCurrentIsStableAcrossRereads) {
  std::atomic<int> calls{0};
  const auto w = TimedWord::generator(
      [&calls](std::uint64_t i) {
        ++calls;
        return TimedSymbol{Symbol::nat(i), i};
      },
      {}, "count-gen");
  auto cur = w.cursor();
  const auto first = cur.current();
  for (int k = 0; k < 10; ++k) EXPECT_EQ(cur.current(), first);
  // Re-reading the current element memoizes in the cursor chunk: one call.
  EXPECT_EQ(calls.load(), 1);
  cur.advance();
  EXPECT_EQ(calls.load(), 2);
}

TEST(CursorParity, ConcurrentCursorsOverOneSharedGeneratorWord) {
  // Eight threads each walk a private cursor over the same word; every
  // stream must equal the at() stream (which itself uses the shared memo).
  const auto w = TimedWord::generator(
      [](std::uint64_t i) {
        return TimedSymbol{Symbol::nat((7 * i + 3) % 29), i / 2};
      },
      {}, "shared-gen");
  const auto expected = by_at(w, 256);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&] {
      if (by_cursor(w, 256) != expected) ++mismatches;
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(CursorParity, InputTapeMatchesLegacySemantics) {
  InputTape tape(TimedWord::finite(symbols_of("abc"), {1, 1, 4}));
  EXPECT_EQ(tape.next_arrival(), Tick{1});
  EXPECT_TRUE(tape.take_available(0).empty());
  EXPECT_EQ(tape.take_available(1).size(), 2u);
  EXPECT_EQ(tape.consumed(), 2u);
  EXPECT_FALSE(tape.exhausted());
  std::vector<TimedSymbol> buf;
  tape.take_available(4, buf);
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_TRUE(tape.exhausted());
  EXPECT_EQ(tape.next_arrival(), std::nullopt);
}

// -------------------------------------------- EventQueue replay parity

using rtw::sim::EventQueue;
using rtw::sim::Tick;

/// The v1 kernel, verbatim: std::function actions in a binary
/// priority_queue with (at, seq) ordering and the past-scheduling clamp.
/// Serves as the reference model the v2 kernel must replay.
class LegacyEventQueue {
public:
  using Action = std::function<void(Tick)>;

  void schedule_at(Tick at, Action action) {
    heap_.push(Entry{std::max(at, now_), seq_++, std::move(action)});
  }
  void schedule_in(Tick delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }
  bool step(Tick horizon) {
    if (heap_.empty()) return false;
    if (heap_.top().at > horizon) return false;
    Entry entry = heap_.top();
    heap_.pop();
    now_ = entry.at;
    entry.action(now_);
    return true;
  }
  std::size_t run_until(Tick horizon) {
    std::size_t executed = 0;
    while (step(horizon)) ++executed;
    if (heap_.empty() || heap_.top().at > horizon)
      now_ = std::max(now_, horizon);
    return executed;
  }
  Tick now() const noexcept { return now_; }
  std::size_t pending() const noexcept { return heap_.size(); }

private:
  struct Entry {
    Tick at;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
};

/// Drives a deterministic self-scheduling workload on either kernel and
/// records the (event id, fire tick) sequence.
template <typename Queue>
std::vector<std::pair<int, Tick>> replay_workload(std::uint64_t seed) {
  rtw::sim::Xoshiro256ss rng(seed);
  Queue q;
  std::vector<std::pair<int, Tick>> fired;
  int next_id = 0;
  // Self-scheduling chain: each event may spawn up to two children at
  // rng-chosen offsets (including offset 0: same-tick scheduling from
  // inside an event, which exercises the clamp and the tie order).
  std::function<void(int, Tick)> fire = [&](int id, Tick now) {
    fired.push_back({id, now});
    if (fired.size() >= 400) return;
    const auto children = rng.uniform(std::uint64_t{3});
    for (std::uint64_t c = 0; c < children; ++c) {
      const Tick offset = rng.uniform(std::uint64_t{5});
      const int child = next_id++;
      q.schedule_in(offset, [&fire, child](Tick t) { fire(child, t); });
    }
  };
  for (int i = 0; i < 32; ++i) {
    const Tick at = rng.uniform(std::uint64_t{64});
    const int id = next_id++;
    q.schedule_at(at, [&fire, id](Tick t) { fire(id, t); });
  }
  // Interleave run_until windows with single steps to cover both APIs.
  q.run_until(20);
  while (q.step(45)) {
  }
  q.run_until(1000000);
  return fired;
}

TEST(EventQueueReplay, MatchesLegacyKernelVerbatim) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL, 99999ULL}) {
    const auto v1 = replay_workload<LegacyEventQueue>(seed);
    const auto v2 = replay_workload<EventQueue>(seed);
    ASSERT_EQ(v1.size(), v2.size()) << "seed " << seed;
    EXPECT_EQ(v1, v2) << "seed " << seed;
  }
}

TEST(EventQueueReplay, ClockAgreesWithLegacyAfterEachWindow) {
  LegacyEventQueue v1;
  EventQueue v2;
  for (Tick at : {3ULL, 3ULL, 10ULL, 25ULL}) {
    v1.schedule_at(at, [](Tick) {});
    v2.schedule_at(at, [](Tick) {});
  }
  for (Tick horizon : {5ULL, 9ULL, 10ULL, 11ULL, 30ULL, 7ULL}) {
    EXPECT_EQ(v1.run_until(horizon), v2.run_until(horizon));
    EXPECT_EQ(v1.now(), v2.now());
    EXPECT_EQ(v1.pending(), v2.pending());
  }
}

// ----------------------------------------------- clamp regressions

TEST(EventQueueClamp, PastSchedulingClampsToNow) {
  EventQueue q;
  Tick seen = 999;
  q.schedule_at(10, [&](Tick) {
    q.schedule_at(2, [&](Tick inner) { seen = inner; });
  });
  q.run_until(100);
  EXPECT_EQ(seen, 10u);
}

TEST(EventQueueClamp, ScheduleInOverflowSaturatesInsteadOfWrapping) {
  constexpr Tick kMax = std::numeric_limits<Tick>::max();
  EventQueue q;
  q.run_until(100);  // clock at 100
  bool fired_early = false;
  // now + delay wraps past the Tick maximum; v1 would land the event at a
  // small wrapped tick "in the past" and fire it immediately.
  q.schedule_in(kMax - 50, [&](Tick) { fired_early = true; });
  EXPECT_EQ(q.run_until(1000000), 0u);
  EXPECT_FALSE(fired_early);
  EXPECT_EQ(q.pending(), 1u);
  // The event saturated to the maximum tick and still fires there.
  EXPECT_EQ(q.run_until(kMax), 1u);
  EXPECT_TRUE(fired_early);
}

TEST(EventQueueClamp, ScheduleInZeroFromInsideEventLandsAtNow) {
  EventQueue q;
  Tick seen = 999;
  q.schedule_at(10, [&](Tick) {
    q.schedule_in(0, [&](Tick inner) { seen = inner; });
  });
  q.run_until(100);
  EXPECT_EQ(seen, 10u);
}

TEST(EventQueueClamp, ScheduleInExactlyToMaxFiresAtMax) {
  constexpr Tick kMax = std::numeric_limits<Tick>::max();
  EventQueue q;
  Tick seen = 0;
  q.schedule_in(kMax, [&](Tick t) { seen = t; });  // now = 0: no overflow
  EXPECT_EQ(q.run_until(kMax), 1u);
  EXPECT_EQ(seen, kMax);
}

TEST(EventQueueClamp, ScheduleInFromMaxTickSaturatesAtMax) {
  constexpr Tick kMax = std::numeric_limits<Tick>::max();
  EventQueue q;
  q.schedule_at(kMax, [](Tick) {});
  EXPECT_EQ(q.run_until(kMax), 1u);
  ASSERT_EQ(q.now(), kMax);
  // Any nonzero delay from the maximum tick would wrap; it must saturate
  // and still fire at kMax rather than landing in the past or vanishing.
  Tick seen = 0;
  q.schedule_in(7, [&](Tick t) { seen = t; });
  EXPECT_EQ(q.run_until(kMax), 1u);
  EXPECT_EQ(seen, kMax);
}

// --------------------------------------------------------- fault filter

/// An EventQueue with a pass-through fault filter installed: used to prove
/// the filter stage does not perturb event order or clocking.
class FilteredEventQueue : public EventQueue {
 public:
  FilteredEventQueue() {
    set_fault_filter([](Tick, std::uint64_t) { return rtw::sim::FaultDecision::fire(); });
  }
};

TEST(EventQueueFaultFilter, PassThroughFilterReplaysUnfilteredKernel) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL, 99999ULL}) {
    const auto plain = replay_workload<EventQueue>(seed);
    const auto filtered = replay_workload<FilteredEventQueue>(seed);
    EXPECT_EQ(plain, filtered) << "seed " << seed;
  }
}

TEST(EventQueueFaultFilter, DropDestroysActionWithoutRunningIt) {
  EventQueue q;
  q.set_fault_filter(
      [](Tick at, std::uint64_t) {
        return at == 5 ? rtw::sim::FaultDecision::drop()
                       : rtw::sim::FaultDecision::fire();
      });
  auto token = std::make_shared<int>(0);
  bool dropped_ran = false, other_ran = false;
  q.schedule_at(5, [token, &dropped_ran](Tick) { dropped_ran = true; });
  q.schedule_at(6, [&other_ran](Tick) { other_ran = true; });
  EXPECT_EQ(token.use_count(), 2);
  // The dropped event does not count as executed, but its action is
  // destroyed (the capture is released) the moment the verdict lands.
  EXPECT_EQ(q.run_until(100), 1u);
  EXPECT_FALSE(dropped_ran);
  EXPECT_TRUE(other_ran);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(q.filtered_dropped(), 1u);
  EXPECT_EQ(q.filtered_deferred(), 0u);
}

TEST(EventQueueFaultFilter, DeferRequeuesStrictlyForward) {
  EventQueue q;
  int deferrals = 0;
  q.set_fault_filter([&deferrals](Tick at, std::uint64_t) {
    if (at == 10 && deferrals < 3) {
      ++deferrals;
      return rtw::sim::FaultDecision::defer(10);  // <= its tick: clamped
    }
    return rtw::sim::FaultDecision::fire();
  });
  std::vector<Tick> fired;
  q.schedule_at(10, [&fired](Tick t) { fired.push_back(t); });
  q.schedule_at(11, [&fired](Tick t) { fired.push_back(t); });
  EXPECT_EQ(q.run_until(100), 2u);
  // defer(10) from an event at 10 re-queues at 11 (strictly forward), so
  // the deferred event fires once, after the one already there.
  EXPECT_EQ(deferrals, 1);
  EXPECT_EQ(fired, (std::vector<Tick>{11, 11}));
  EXPECT_EQ(q.filtered_deferred(), 1u);
}

TEST(EventQueueFaultFilter, DeferAtMaxTickFiresInsteadOfLivelocking) {
  constexpr Tick kMax = std::numeric_limits<Tick>::max();
  EventQueue q;
  // A filter that always defers would pin an event at the maximum tick
  // forever; the kernel's guard fires it instead.
  q.set_fault_filter(
      [](Tick, std::uint64_t) { return rtw::sim::FaultDecision::defer(kMax); });
  bool ran = false;
  q.schedule_at(kMax, [&ran](Tick) { ran = true; });
  EXPECT_EQ(q.run_until(kMax), 1u);
  EXPECT_TRUE(ran);
}

TEST(EventQueueFaultFilter, ClearedFilterStopsFiltering) {
  EventQueue q;
  q.set_fault_filter(
      [](Tick, std::uint64_t) { return rtw::sim::FaultDecision::drop(); });
  EXPECT_TRUE(q.has_fault_filter());
  bool first_ran = false, second_ran = false;
  q.schedule_at(1, [&first_ran](Tick) { first_ran = true; });
  q.run_until(1);
  q.clear_fault_filter();
  EXPECT_FALSE(q.has_fault_filter());
  q.schedule_at(2, [&second_ran](Tick) { second_ran = true; });
  q.run_until(2);
  EXPECT_FALSE(first_ran);
  EXPECT_TRUE(second_ran);
  EXPECT_EQ(q.filtered_dropped(), 1u);
}

// ----------------------------------------------------- schedule_batch

TEST(EventQueueBatch, BatchPreservesFifoTieOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5, [&](Tick) { order.push_back(0); });
  std::vector<EventQueue::Scheduled> batch;
  for (int i = 1; i <= 3; ++i)
    batch.push_back({5, [&order, i](Tick) { order.push_back(i); }});
  batch.push_back({2, [&](Tick) { order.push_back(10); }});
  q.schedule_batch(std::move(batch));
  q.schedule_at(5, [&](Tick) { order.push_back(4); });
  EXPECT_EQ(q.run_until(100), 6u);
  EXPECT_EQ(order, (std::vector<int>{10, 0, 1, 2, 3, 4}));
}

// ------------------------------------------------------------ SmallFn

TEST(SmallFnTest, SmallCapturesAreStoredInline) {
  int x = 7;
  rtw::sim::SmallFn<int()> f([x] { return x; });
  EXPECT_TRUE(f.is_inline());
  EXPECT_EQ(f(), 7);
}

TEST(SmallFnTest, LargeCapturesFallBackToHeap) {
  struct Big {
    char bytes[128] = {};
  } big;
  big.bytes[0] = 42;
  rtw::sim::SmallFn<int()> f([big] { return big.bytes[0]; });
  EXPECT_FALSE(f.is_inline());
  EXPECT_EQ(f(), 42);
}

TEST(SmallFnTest, MoveTransfersOwnershipAndDestroysOnce) {
  auto counter = std::make_shared<int>(0);
  {
    rtw::sim::SmallFn<void()> a([counter] { ++*counter; });
    EXPECT_EQ(counter.use_count(), 2);
    rtw::sim::SmallFn<void()> b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_EQ(counter.use_count(), 2);  // exactly one live copy
    b();
  }
  EXPECT_EQ(counter.use_count(), 1);
  EXPECT_EQ(*counter, 1);
}

TEST(SmallFnTest, MoveOnlyCapturesWork) {
  auto owned = std::make_unique<int>(9);
  rtw::sim::SmallFn<int()> f([p = std::move(owned)] { return *p; });
  rtw::sim::SmallFn<int()> g = std::move(f);
  EXPECT_EQ(g(), 9);
}

// ------------------------------------------------------ ThreadPool post

TEST(ThreadPoolPost, PostedTasksAllRunBeforeTheDestructorReturns) {
  std::atomic<int> ran{0};
  {
    rtw::sim::ThreadPool pool(4);
    for (int i = 0; i < 500; ++i) pool.post([&ran] { ++ran; });
  }
  EXPECT_EQ(ran.load(), 500);
}

TEST(ThreadPoolPost, LongTaskDoesNotStrandShortOnes) {
  // One long task pins a worker; the short tasks posted after it must
  // still complete on the other worker while the long one runs.
  rtw::sim::ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  pool.post([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  for (int i = 0; i < 64; ++i) pool.post([&ran] { ++ran; });
  while (ran.load() < 64) std::this_thread::yield();
  release.store(true);  // the destructor then joins the long task
  EXPECT_EQ(ran.load(), 64);
}

}  // namespace
