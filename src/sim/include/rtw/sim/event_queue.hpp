#pragma once
/// \file event_queue.hpp
/// Minimal discrete-event simulation kernel.
///
/// The paper's model is driven by *discrete virtual time* (Definition 3.1
/// makes time sequences range over the naturals, and section 5.2.1 fixes a
/// granularity of one time unit per elementary network operation).  Every
/// simulator in this library -- the deadline scheduler, the
/// data-accumulating executor, the RTDB sampler and the ad hoc network --
/// runs on this kernel, so their timed omega-word encodings share a single
/// notion of "tick".
///
/// Storage layout (the kernel is the hot path of every experiment):
///   * the priority structure is a 4-ary implicit min-heap over 16-byte
///     POD nodes (tick, seq, slot) in one flat vector -- sift operations
///     move PODs, never callables, and the 4-ary fan-in roughly halves the
///     levels touched per percolation compared to a binary heap;
///   * callables live in a slab of fixed-size chunks with an intrusive
///     free list (a dead cell's bytes store the next free slot).  Chunk
///     storage is address-stable, so a fired action is invoked *in place*
///     -- the only callable moves are the one into the slab on schedule;
///   * the callable itself is a SmallFn with 48 bytes of inline capture
///     storage, so scheduling performs no heap allocation for typical
///     driver events (slab cells are recycled; the vectors amortize).

#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "rtw/obs/sink.hpp"
#include "rtw/sim/small_fn.hpp"

namespace rtw::sim {

/// Discrete virtual time, in ticks.  Matches rtw::core::Tick.
using Tick = std::uint64_t;

/// Verdict of the fault-filter stage consulted between pop and fire.
struct FaultDecision {
  enum class Kind : std::uint8_t {
    Fire,   ///< run the event normally
    Drop,   ///< discard the event (its action is destroyed, never run)
    Defer,  ///< re-queue the event at `defer_to` (clamped to > its tick)
  };
  Kind kind = Kind::Fire;
  Tick defer_to = 0;  ///< target tick for Defer; ignored otherwise

  static FaultDecision fire() noexcept { return {Kind::Fire, 0}; }
  static FaultDecision drop() noexcept { return {Kind::Drop, 0}; }
  static FaultDecision defer(Tick to) noexcept { return {Kind::Defer, to}; }
};

/// A scheduled callback.  Events at the same tick fire in scheduling order
/// (a strictly increasing sequence number breaks ties), which keeps every
/// simulation deterministic.
class EventQueue {
public:
  /// Captures up to 48 bytes are stored inline (no allocation); larger
  /// captures fall back to one heap cell.  Move-only.
  using Action = SmallFn<void(Tick), 48>;

  /// One element of a schedule_batch: an action with its absolute time.
  struct Scheduled {
    Tick at;
    Action action;
  };

  /// Schedules `action` to run at absolute time `at`.  Scheduling in the
  /// past (at < now()) is a contract violation and is clamped to now().
  /// Templated so the callable is constructed directly in its slab cell --
  /// zero intermediate moves on the kernel's hottest path.
  template <typename F>
    requires std::is_invocable_v<std::decay_t<F>&, Tick>
  void schedule_at(Tick at, F&& action) {
    const std::uint32_t slot = alloc_slot();
    ::new (static_cast<void*>(raw_cell(slot))) Action(std::forward<F>(action));
    const Tick clamped = at < now_ ? now_ : at;
    // Observability tap: one relaxed load + untaken branch when no sink
    // is installed (the <= 2% disabled-overhead budget of the kernel).
    // The notify itself lives out of line so the virtual-call sequence
    // does not bloat this inlined hot body.
    if (rtw::obs::sink() != nullptr) [[unlikely]]
      notify_schedule(clamped);
    push_heap(clamped, slot);
  }

  /// Schedules `action` to run `delay` ticks from now.  A delay that would
  /// overflow Tick saturates to the maximum representable tick (the same
  /// clamp-to-contract policy as past scheduling: the event stays in the
  /// future instead of wrapping into the past).
  template <typename F>
    requires std::is_invocable_v<std::decay_t<F>&, Tick>
  void schedule_in(Tick delay, F&& action) {
    Tick at = now_ + delay;
    if (at < now_)  // unsigned wrap: saturate instead of landing in the past
      at = ~Tick{0};
    schedule_at(at, std::forward<F>(action));
  }

  /// Bulk insert: schedules every element of `batch` in order, preserving
  /// the FIFO tie contract (element i of the batch gets a smaller sequence
  /// number than element i+1 and than anything scheduled later).  One
  /// reserve for the heap and the slab instead of per-event growth.
  void schedule_batch(std::vector<Scheduled> batch);

  /// Runs events in timestamp order until the queue empties or virtual
  /// time would exceed `horizon`.  Returns the number of events executed.
  ///
  /// The horizon is *inclusive*: an event scheduled exactly at `horizon`
  /// fires; the first event strictly beyond it stays queued.  On return
  /// the clock reads max(now(), horizon) even if the queue drained early,
  /// so back-to-back run_until calls see monotone time.
  ///
  /// Events sharing a tick are run as one coalesced stretch: the clock is
  /// advanced once per distinct tick, not once per event (observable only
  /// as speed; the firing order contract is unchanged).
  std::size_t run_until(Tick horizon);

  /// Executes exactly one event if available; returns false if empty or
  /// the next event is beyond `horizon` (inclusive, like run_until: an
  /// event at exactly `horizon` executes).  Unlike run_until, a false
  /// return leaves the clock where the last executed event put it.
  bool step(Tick horizon);

  Tick now() const noexcept { return now_; }
  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }

  /// Discards all pending events and resets the clock to zero.  An
  /// installed fault filter stays installed.
  void reset();

  /// The fault-filter stage (deterministic fault injection): consulted for
  /// every popped event *before* it fires, with the event's scheduled tick
  /// and sequence number.  Drop destroys the action unrun; Defer re-queues
  /// it at max(defer_to, tick + 1) with a fresh sequence number.  Neither
  /// counts toward step()/run_until() executed totals.  An empty filter
  /// (the default) costs one predictable branch on the hot path.
  using FaultFilter = SmallFn<FaultDecision(Tick, std::uint64_t), 48>;
  void set_fault_filter(FaultFilter filter) { filter_ = std::move(filter); }
  void clear_fault_filter() { filter_ = FaultFilter(); }
  bool has_fault_filter() const noexcept { return static_cast<bool>(filter_); }

  /// Events discarded / re-queued by the filter since construction or the
  /// last reset (observability for traces).
  std::uint64_t filtered_dropped() const noexcept { return filtered_dropped_; }
  std::uint64_t filtered_deferred() const noexcept {
    return filtered_deferred_;
  }

  EventQueue() = default;
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

private:
  /// 16-byte POD heap node; the callable lives in the slab cell `slot`.
  /// seq is 32-bit with wraparound-aware comparison: FIFO ties only need a
  /// total order among *coexisting* same-tick events, and fewer than 2^31
  /// events can coexist, so (a.seq - b.seq) as a signed difference orders
  /// correctly across wraps.
  struct Node {
    Tick at;
    std::uint32_t seq;
    std::uint32_t slot;
  };

  static bool earlier(const Node& a, const Node& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return static_cast<std::int32_t>(a.seq - b.seq) < 0;
  }

  /// Raw storage for one Action.  Cells live in fixed arrays (chunks), so
  /// their addresses are stable even while callbacks schedule new events:
  /// a fired action runs in place, never moved out first.  A dead cell's
  /// first bytes hold the intrusive free-list link.
  struct Cell {
    alignas(std::max_align_t) unsigned char raw[sizeof(Action)];
  };
  static constexpr std::uint32_t kChunkShift = 7;  ///< 128 cells per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kNil = 0xffffffffu;

  unsigned char* raw_cell(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)].raw;
  }
  /// The live Action in a claimed cell.
  Action* cell(std::uint32_t slot) noexcept {
    return reinterpret_cast<Action*>(raw_cell(slot));
  }

  /// Claims a free cell (recycled or fresh); the caller placement-news the
  /// Action into it.  Inline fast path (pop the free list / bump the
  /// high-water mark) because schedule_at pays this once per event; chunk
  /// growth is the out-of-line slow path.
  std::uint32_t alloc_slot() {
    if (free_head_ != kNil) {
      const std::uint32_t slot = free_head_;
      std::memcpy(&free_head_, raw_cell(slot), sizeof(free_head_));
      return slot;
    }
    if (used_ == capacity_) [[unlikely]]
      grow_chunks();
    return used_++;
  }
  /// Appends a chunk to the slab (alloc_slot's slow path).
  void grow_chunks();
  /// Inserts a heap node for an already-filled cell.  Inline for the same
  /// reason as alloc_slot; the percolation loop stays out of line.
  void push_heap(Tick at, std::uint32_t slot) {
    heap_.push_back(Node{at, seq_++, slot});
    if (heap_.size() > 1) sift_up(heap_.size() - 1);
  }
  /// Pops the minimum node; the action stays in its cell until fired.
  Node pop_min();
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;
  /// Destroys the cell's action and links the cell into the free list.
  void release_slot(std::uint32_t slot) noexcept;
  /// Fires the popped node's action in place, releasing the cell even if
  /// the action throws.  `sink` is the obs sink sampled once by the
  /// caller's drain loop -- per-event atomic loads would tax the ~18ns
  /// hot path measurably.
  void fire(const Node& node, rtw::obs::Sink* sink);
  /// Cold out-of-line half of the schedule_at obs tap: re-reads the sink
  /// (already observed non-null) and reports the Schedule op.
  void notify_schedule(Tick at);
  /// Applies the fault filter to a popped node.  Returns true when the
  /// event survived (caller fires it); on Drop/Defer the node was consumed.
  bool admit(const Node& node);

  std::vector<Node> heap_;                    ///< 4-ary implicit min-heap
  std::vector<std::unique_ptr<Cell[]>> chunks_;  ///< stable action storage
  std::uint32_t free_head_ = kNil;  ///< intrusive free list of dead cells
  std::uint32_t used_ = 0;          ///< cells ever claimed (high-water mark)
  std::uint32_t capacity_ = 0;      ///< total cells across chunks
  Tick now_ = 0;
  std::uint32_t seq_ = 0;
  FaultFilter filter_;  ///< fault-injection stage; empty = pass-through
  std::uint64_t filtered_dropped_ = 0;
  std::uint64_t filtered_deferred_ = 0;
};

}  // namespace rtw::sim
