#pragma once
/// \file ring.hpp
/// Lock-free ingress primitives for the serving layer.
///
/// `MpscRing<T>` is a bounded multi-producer ring (Vyukov's bounded-queue
/// slot-sequencing scheme): each cell carries a sequence number, producers
/// claim a cell by CAS on the tail, publish with a release store of the
/// cell's sequence, and the consumer observes it with an acquire load --
/// no mutex anywhere on the enqueue path.  Capacity is rounded up to a
/// power of two so the cell index is one mask.  The head and tail live on
/// their own cache lines: producers only contend on the tail, the single
/// consumer only writes the head, and neither invalidates the other's line
/// on every operation.  Each cell is padded to a cache line of its own, so
/// a producer writing cell k+1 never shares a line with the consumer
/// reading cell k.
///
/// The ring is MPSC: each shard has one dedicated worker thread, the only
/// consumer, which lets the pops update the head with a plain store instead
/// of a CAS.  `pop_batch` takes up to a batch of cells and publishes the
/// head once; producers read the head on every admission (`approx_size`),
/// so its line changes once per batch rather than once per pop.
///
/// `SessionTable` is a fixed-capacity open-addressed hash table of
/// admission *hints* -- session priority and in-flight symbol count --
/// readable and writable from any thread with only relaxed/acq-rel
/// atomics.  It is deliberately a hint structure: a missed lookup (table
/// full, or a slot reused mid-flight) degrades the admission decision to
/// the default priority and an untracked quota, never the verdict of any
/// session.  That is what makes a lock-free table this small safe to use.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

namespace rtw::svc {

/// Rounds up to the next power of two (minimum 1).
constexpr std::size_t ceil_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Destructive-interference distance.  A fixed 64 rather than
/// std::hardware_destructive_interference_size: the constant is part of
/// the ring's layout, and the std value varies with -mtune (gcc even
/// warns about it); 64 is right for every target this builds on.
inline constexpr std::size_t kCacheLine = 64;

template <typename T>
class MpscRing {
 public:
  /// Allocates `ceil_pow2(capacity)` cells; every cell's sequence starts
  /// at its own index (the "empty, writable at lap 0" state).  Minimum 2:
  /// the slot-sequencing invariant (a full cell has seq == claim-pos + 1,
  /// an empty next-lap cell has seq == claim-pos + capacity) needs those
  /// two values distinct, which a 1-cell ring cannot provide.
  explicit MpscRing(std::size_t capacity)
      : mask_(ceil_pow2(capacity < 2 ? 2 : capacity) - 1),
        cells_(std::make_unique<Cell[]>(mask_ + 1)) {
    for (std::size_t i = 0; i <= mask_; ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  ~MpscRing() {
    T scratch;
    while (try_pop(scratch)) {
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Multi-producer enqueue.  On success the value is moved into the ring;
  /// on failure (ring full) the value is left untouched so the caller can
  /// shed it, retry it, or hand it to a fallback lane.
  bool try_push(T& value) noexcept {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        // The cell is writable for this lap; claim it.
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          ::new (static_cast<void*>(cell.storage)) T(std::move(value));
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded `pos`; retry with the fresh tail.
      } else if (dif < 0) {
        // The cell still holds last lap's element: the ring is full.
        return false;
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }
  bool try_push(T&& value) noexcept { return try_push(value); }

  /// Single-consumer dequeue of one element.
  bool try_pop(T& out) noexcept {
    const std::size_t pos = head_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) -
            static_cast<std::intptr_t>(pos + 1) < 0)
      return false;  // the cell has not been published for this lap yet
    head_.store(pos + 1, std::memory_order_release);
    out = std::move(value_of(cell));
    recycle(cell, pos);
    return true;
  }

  /// Single-consumer dequeue of up to `max` elements, appended to `out`
  /// (anything with push_back(T&&)) in FIFO order.  The head is published
  /// once, with a release store, after the last cell is taken: whoever
  /// reads that head with acquire also sees every store the consumer made
  /// before the pop.  Returns the number popped.
  template <typename Out>
  std::size_t pop_batch(Out& out, std::size_t max) {
    const std::size_t first = head_.load(std::memory_order_relaxed);
    std::size_t pos = first;
    for (; pos - first < max; ++pos) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      if (static_cast<std::intptr_t>(seq) -
              static_cast<std::intptr_t>(pos + 1) < 0)
        break;  // not published for this lap yet
      out.push_back(std::move(value_of(cell)));
      recycle(cell, pos);
    }
    if (pos != first) head_.store(pos, std::memory_order_release);
    return pos - first;
  }

  /// Occupancy estimate for admission watermarks.  Exact when quiescent;
  /// under concurrency it may lag either counter by the number of
  /// in-flight operations, which is fine for a shedding heuristic.
  std::size_t approx_size() const noexcept {
    const auto tail = static_cast<std::intptr_t>(
        tail_.load(std::memory_order_acquire));
    const auto head = static_cast<std::intptr_t>(
        head_.load(std::memory_order_acquire));
    const std::intptr_t n = tail - head;
    if (n < 0) return 0;
    const auto size = static_cast<std::size_t>(n);
    return size > mask_ + 1 ? mask_ + 1 : size;
  }

  bool empty() const noexcept { return approx_size() == 0; }

 private:
  struct alignas(kCacheLine) Cell {
    std::atomic<std::size_t> seq{0};
    alignas(T) unsigned char storage[sizeof(T)];
  };

  /// The element a published cell holds.
  static T& value_of(Cell& cell) noexcept {
    return *std::launder(reinterpret_cast<T*>(cell.storage));
  }

  /// Destroys the moved-from element at `pos` and marks its cell writable
  /// for the next lap.
  void recycle(Cell& cell, std::size_t pos) noexcept {
    value_of(cell).~T();
    cell.seq.store(pos + mask_ + 1, std::memory_order_release);
  }

  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};  ///< producers
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};  ///< consumer
};

/// Session priority for adaptive admission.  Ordered: higher survives
/// deeper ring occupancy before being shed.
enum class Priority : std::uint8_t {
  Low = 0,
  Normal = 1,
  High = 2,
};

/// Fixed-capacity lock-free hint table: session id -> (priority, in-flight
/// symbol count).  Linear probing and tombstone deletion.  An insert
/// probes the whole table, so it fails only when no empty or tombstone
/// slot is left; it records the longest probe distance it ever used, and
/// a lookup probes no further than that, so a miss stays bounded by the
/// longest chain rather than the table size.  All operations are
/// wait-free apart from the insert CASes.
class SessionTable {
 public:
  struct Slot {
    std::atomic<std::uint64_t> id{kEmpty};
    std::atomic<std::uint32_t> inflight{0};
    std::atomic<std::uint8_t> priority{
        static_cast<std::uint8_t>(Priority::Normal)};
  };

  explicit SessionTable(std::size_t slots)
      : mask_(ceil_pow2(slots < 2 ? 2 : slots) - 1),
        slots_(std::make_unique<Slot[]>(mask_ + 1)) {}

  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  /// Records a session's priority.  Returns false when no slot in the
  /// table is empty or tombstoned (table full) -- the session is then
  /// simply untracked and admission falls back to Priority::Normal, no
  /// quota.
  bool insert(std::uint64_t id, Priority priority) noexcept {
    if (id == kEmpty || id == kTombstone) return false;
    // Re-open under a live id: refresh its own slot in place.  Claiming
    // the first tombstone on the probe chain instead would leave the id
    // in two slots, and the later one would survive erase().
    if (Slot* live = find(id)) {
      live->priority.store(static_cast<std::uint8_t>(priority),
                           std::memory_order_relaxed);
      return true;
    }
    std::size_t pos = hash(id);
    for (std::size_t probe = 0; probe <= mask_; ++probe, ++pos) {
      Slot& slot = slots_[pos & mask_];
      std::uint64_t seen = slot.id.load(std::memory_order_acquire);
      if (seen == id) {  // a concurrent insert of the same id got here first
        slot.priority.store(static_cast<std::uint8_t>(priority),
                            std::memory_order_relaxed);
        return true;
      }
      if (seen == kEmpty || seen == kTombstone) {
        // Publish the distance before the claim: whoever can see the id
        // in this slot can then also see a probe bound that reaches it.
        raise_probe_bound(probe);
        if (slot.id.compare_exchange_strong(seen, id,
                                            std::memory_order_acq_rel)) {
          // Stored after the claim: a concurrent finder may briefly read
          // the slot's previous priority -- acceptable for a hint, unlike
          // clobbering a slot another session just won.
          slot.priority.store(static_cast<std::uint8_t>(priority),
                              std::memory_order_relaxed);
          return true;
        }
        if (seen == id) {
          slot.priority.store(static_cast<std::uint8_t>(priority),
                              std::memory_order_relaxed);
          return true;
        }
        // Lost the slot to a different session; keep probing.
      }
    }
    return false;
  }

  /// Looks a session up; nullptr when untracked.  The returned pointer is
  /// stable for the table's lifetime (slots are never deallocated), so it
  /// can ride along in a queued command for the paired in-flight
  /// decrement even if the session closes meanwhile.
  Slot* find(std::uint64_t id) noexcept {
    if (id == kEmpty || id == kTombstone) return nullptr;
    std::size_t pos = hash(id);
    const std::size_t bound = max_probe_.load();
    for (std::size_t probe = 0; probe <= bound; ++probe, ++pos) {
      Slot& slot = slots_[pos & mask_];
      const std::uint64_t seen = slot.id.load(std::memory_order_acquire);
      if (seen == id) return &slot;
      if (seen == kEmpty) return nullptr;  // tombstones keep the probe going
    }
    return nullptr;
  }

  /// Tombstones the session's slot (worker side, at close/eviction).
  void erase(std::uint64_t id) noexcept {
    if (Slot* slot = find(id))
      slot->id.store(kTombstone, std::memory_order_release);
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::uint64_t kTombstone = ~std::uint64_t{0};

  std::size_t hash(std::uint64_t id) const noexcept {
    // splitmix64 finalizer, same spreading the shard router uses.
    id += 0x9e3779b97f4a7c15ULL;
    id = (id ^ (id >> 30)) * 0xbf58476d1ce4e5b9ULL;
    id = (id ^ (id >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(id ^ (id >> 31)) & mask_;
  }

  /// Monotone max: the probe bound only ever grows.
  void raise_probe_bound(std::size_t probe) noexcept {
    std::size_t bound = max_probe_.load();
    while (bound < probe && !max_probe_.compare_exchange_weak(bound, probe)) {
    }
  }

  const std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::size_t> max_probe_{0};  ///< longest insert probe so far
};

}  // namespace rtw::svc
