// rtw::svc ingress-primitive isolation tests: the lock-free MPSC ring and
// the admission hint table, exercised without the SessionManager on top.
//
//   1. MpscRing basics: FIFO over wraparound, full-ring rejection with the
//      value left intact, power-of-two capacity rounding, move-only
//      payloads, destructor draining.
//   2. The producers x capacity stress matrix (1/2/8 producers against
//      8/64/1024-slot rings): every pushed item arrives exactly once and
//      per-producer FIFO order survives -- the property the serving layer
//      leans on for per-session command ordering.  The matrix is the one
//      the CI TSan job runs to catch ordering bugs in the slot-sequencing
//      protocol.
//   3. SessionTable: insert/find/erase, tombstone probing, priority
//      refresh on re-open, graceful degradation when full, and concurrent
//      insert/find/inflight traffic.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "rtw/svc/ring.hpp"

namespace {

using rtw::svc::ceil_pow2;
using rtw::svc::MpscRing;
using rtw::svc::Priority;
using rtw::svc::SessionTable;

TEST(CeilPow2, RoundsUp) {
  EXPECT_EQ(ceil_pow2(0), 1u);
  EXPECT_EQ(ceil_pow2(1), 1u);
  EXPECT_EQ(ceil_pow2(2), 2u);
  EXPECT_EQ(ceil_pow2(3), 4u);
  EXPECT_EQ(ceil_pow2(1024), 1024u);
  EXPECT_EQ(ceil_pow2(1025), 2048u);
}

TEST(MpscRing, FifoAcrossManyLaps) {
  MpscRing<std::uint64_t> ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  std::uint64_t next_pop = 0;
  // Interleave pushes and pops so the indices wrap the ring many times:
  // fill to the brim, then drain about half before the next refill.
  for (std::uint64_t v = 0; v < 1000; ++v) {
    ASSERT_TRUE(ring.try_push(std::uint64_t{v}));
    if (ring.approx_size() == ring.capacity()) {
      for (int drains = 0; drains < 5; ++drains) {
        std::uint64_t out = 0;
        ASSERT_TRUE(ring.try_pop(out));
        EXPECT_EQ(out, next_pop++);
      }
    }
  }
  std::uint64_t out = 0;
  while (ring.try_pop(out)) EXPECT_EQ(out, next_pop++);
  EXPECT_EQ(next_pop, 1000u);
  EXPECT_TRUE(ring.empty());
}

TEST(MpscRing, FullRingRejectsAndLeavesValueIntact) {
  MpscRing<std::string> ring(4);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(ring.try_push(std::string(1, static_cast<char>('a' + i))));
  std::string overflow = "survivor";
  EXPECT_FALSE(ring.try_push(overflow));
  // The failed push must not have consumed the value: the caller sheds or
  // retries it.
  EXPECT_EQ(overflow, "survivor");
  std::string out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, "a");
  EXPECT_TRUE(ring.try_push(std::move(overflow)));
  for (const char* want : {"b", "c", "d", "survivor"}) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, want);
  }
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(MpscRing, CapacityRoundsToPowerOfTwo) {
  MpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  // Two cells minimum: the slot-sequencing scheme cannot distinguish
  // "full" from "writable next lap" on a single cell.
  MpscRing<int> tiny(0);
  EXPECT_EQ(tiny.capacity(), 2u);
  int v = 7;
  EXPECT_TRUE(tiny.try_push(v));
  EXPECT_TRUE(tiny.try_push(v));
  EXPECT_FALSE(tiny.try_push(v));
}

TEST(MpscRing, MoveOnlyPayloads) {
  MpscRing<std::unique_ptr<int>> ring(4);
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(41)));
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(42)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, 41);
}

TEST(MpscRing, DestructorDrainsUnpoppedElements) {
  const auto counter = std::make_shared<int>(0);
  {
    MpscRing<std::shared_ptr<int>> ring(8);
    for (int i = 0; i < 5; ++i) {
      auto copy = counter;
      ASSERT_TRUE(ring.try_push(std::move(copy)));
    }
    EXPECT_EQ(counter.use_count(), 6);  // 5 in the ring + the local
  }
  EXPECT_EQ(counter.use_count(), 1);  // the ring's destructor released all 5
}

TEST(MpscRing, ApproxSizeIsExactWhenQuiescent) {
  MpscRing<int> ring(16);
  EXPECT_EQ(ring.approx_size(), 0u);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ring.try_push(int{i}));
  EXPECT_EQ(ring.approx_size(), 10u);
  int out = 0;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(ring.approx_size(), 6u);
}

/// The MPSC contract under contention: P producers each push a tagged
/// monotone sequence (retrying on full), one consumer drains concurrently.
/// Checks exactly-once delivery and per-producer FIFO -- for every
/// producer, items arrive in strictly increasing sequence order.
void stress(unsigned producers, std::size_t capacity,
            std::uint64_t per_producer) {
  MpscRing<std::uint64_t> ring(capacity);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (unsigned p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t seq = 0; seq < per_producer; ++seq) {
        std::uint64_t item = (std::uint64_t{p} << 32) | seq;
        while (!ring.try_push(item)) std::this_thread::yield();
      }
    });
  }

  std::vector<std::uint64_t> next_seq(producers, 0);
  std::uint64_t received = 0;
  const std::uint64_t total = per_producer * producers;
  go.store(true, std::memory_order_release);
  while (received < total) {
    std::uint64_t item = 0;
    if (!ring.try_pop(item)) {
      std::this_thread::yield();
      continue;
    }
    const auto producer = static_cast<unsigned>(item >> 32);
    const std::uint64_t seq = item & 0xffffffffu;
    ASSERT_LT(producer, producers);
    // Exactly-once + per-producer FIFO in one check: the next sequence
    // from this producer must be exactly the one we expect.
    ASSERT_EQ(seq, next_seq[producer])
        << "producers=" << producers << " capacity=" << capacity;
    ++next_seq[producer];
    ++received;
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ring.empty());
  for (unsigned p = 0; p < producers; ++p)
    EXPECT_EQ(next_seq[p], per_producer);
}

TEST(MpscRingStress, ProducersByCapacityMatrix) {
  for (const unsigned producers : {1u, 2u, 8u}) {
    for (const std::size_t capacity : {std::size_t{8}, std::size_t{64},
                                       std::size_t{1024}}) {
      // Small rings force constant wraparound and full-ring retries; the
      // per-cell volume keeps the whole matrix fast enough for TSan.
      stress(producers, capacity, 8000 / producers);
    }
  }
}

// ------------------------------------------------------------ SessionTable

TEST(SessionTable, InsertFindErase) {
  SessionTable table(64);
  EXPECT_EQ(table.find(7), nullptr);
  ASSERT_TRUE(table.insert(7, Priority::High));
  auto* slot = table.find(7);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->priority.load(), static_cast<std::uint8_t>(Priority::High));
  slot->inflight.fetch_add(3);
  EXPECT_EQ(table.find(7)->inflight.load(), 3u);
  table.erase(7);
  EXPECT_EQ(table.find(7), nullptr);
}

TEST(SessionTable, ReopenRefreshesPriority) {
  SessionTable table(64);
  ASSERT_TRUE(table.insert(9, Priority::Low));
  ASSERT_TRUE(table.insert(9, Priority::High));  // re-open, same id
  EXPECT_EQ(table.find(9)->priority.load(),
            static_cast<std::uint8_t>(Priority::High));
}

TEST(SessionTable, ReinsertBehindATombstoneKeepsOneSlot) {
  // Ids 1 and 25 share a home slot in an 8-slot table, so 25 sits one
  // probe behind 1.  Once 1 is erased, re-inserting the live 25 must
  // refresh its own slot rather than claim the tombstone ahead of it:
  // a second slot would outlive erase(25) with the old priority and
  // in-flight count.
  SessionTable table(8);
  ASSERT_TRUE(table.insert(1, Priority::Normal));
  ASSERT_TRUE(table.insert(25, Priority::Low));
  SessionTable::Slot* original = table.find(25);
  ASSERT_NE(original, nullptr);
  original->inflight.fetch_add(5);
  table.erase(1);
  ASSERT_TRUE(table.insert(25, Priority::High));
  EXPECT_EQ(table.find(25), original);
  EXPECT_EQ(original->priority.load(),
            static_cast<std::uint8_t>(Priority::High));
  table.erase(25);
  EXPECT_EQ(table.find(25), nullptr);
}

TEST(SessionTable, TombstonesDoNotBreakProbeChains) {
  // With a 4-slot table, ids are forced to collide; erasing one in the
  // middle of a probe chain must leave the others findable.
  SessionTable table(4);
  ASSERT_EQ(table.capacity(), 4u);
  ASSERT_TRUE(table.insert(1, Priority::Normal));
  ASSERT_TRUE(table.insert(2, Priority::Normal));
  ASSERT_TRUE(table.insert(3, Priority::Normal));
  table.erase(2);
  EXPECT_NE(table.find(1), nullptr);
  EXPECT_EQ(table.find(2), nullptr);
  EXPECT_NE(table.find(3), nullptr);
  // The tombstone is reusable.
  ASSERT_TRUE(table.insert(4, Priority::High));
  EXPECT_NE(table.find(4), nullptr);
}

TEST(SessionTable, FullTableDegradesToUntracked) {
  SessionTable table(2);
  ASSERT_TRUE(table.insert(1, Priority::Normal));
  ASSERT_TRUE(table.insert(2, Priority::Normal));
  // No room: insert reports failure and the session is simply a hint miss,
  // never an error.
  EXPECT_FALSE(table.insert(3, Priority::High));
  EXPECT_EQ(table.find(3), nullptr);
}

TEST(SessionTable, ReservedIdsAreRejected) {
  SessionTable table(8);
  EXPECT_FALSE(table.insert(0, Priority::Normal));
  EXPECT_FALSE(table.insert(~std::uint64_t{0}, Priority::Normal));
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.find(~std::uint64_t{0}), nullptr);
}

TEST(SessionTable, ConcurrentInsertFindInflight) {
  SessionTable table(1 << 10);
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 200;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t id = 1 + t * kPerThread + i;
        ASSERT_TRUE(table.insert(id, Priority::High));
        auto* slot = table.find(id);
        ASSERT_NE(slot, nullptr);
        slot->inflight.fetch_add(2, std::memory_order_relaxed);
        slot->inflight.fetch_sub(1, std::memory_order_relaxed);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  for (std::uint64_t id = 1; id <= kThreads * kPerThread; ++id) {
    auto* slot = table.find(id);
    ASSERT_NE(slot, nullptr) << "id=" << id;
    EXPECT_EQ(slot->priority.load(), static_cast<std::uint8_t>(Priority::High));
    EXPECT_EQ(slot->inflight.load(), 1u);
  }
}

}  // namespace
