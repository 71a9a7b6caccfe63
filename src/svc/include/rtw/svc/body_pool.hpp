#pragma once
/// \file body_pool.hpp
/// Recycled buffers for the bodies of data commands on their way from a
/// producer to the shard workers: op-12 (packed FeedBatch) bodies and
/// feed_batch runs.
///
/// A `BodyPool` belongs to one producer thread (its *owner*): a
/// connection's reader, whose pool serves that one byte stream, or any
/// thread that calls SessionManager::feed_batch, which copies its runs
/// into a thread_local pool.  take() copies a body into a spare buffer; the
/// returned `PackedBody` handle rides a ring Command to a shard worker,
/// which walks the bytes and drops the handle.  Dropping it, on whatever
/// thread, pushes the buffer onto the pool's remote-free list: a Treiber
/// stack that other threads only push to and the owner only empties
/// whole, so it needs no lock and has no ABA case.  The owner refills its
/// spares from that list when they run out.
///
/// A body may be written in two pieces (take(head, tail, ...)): a Feed
/// run's body is its core::RunSummary followed by its elements.
///
/// The guarantee: once the pool has held its peak number of bodies in
/// flight (each fitting a buffer it already owns, within kRetainBytes of
/// spares), neither side makes a heap call per body.  A consumer that
/// falls behind raises that peak, so a warm-up that proves "no heap
/// call" must reach the in-flight peak the measured traffic can reach.
///
/// Retention: each refill keeps at most kRetainBytes of spare buffers and
/// frees the rest, so a burst does not pin its peak.  Between refills the
/// spares are bounded by what was in flight.
///
/// Lifetime: buffers may come back after their owner is gone (a
/// connection torn down, or a feeding thread exited, with bodies still
/// queued in the rings).  Returns count down against a bias the owner
/// holds; the owner's release subtracts the bias less the buffers it
/// lent out, so whichever side brings the count to zero -- the owner or
/// the last returning buffer -- frees the shared state and every buffer
/// left in it.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>

namespace rtw::svc {

namespace detail {

struct PoolState;

/// One body: this header, then `capacity` bytes of which `size` are used.
struct BodyBuffer {
  BodyBuffer* next = nullptr;   ///< spare / remote-free list link
  PoolState* pool = nullptr;    ///< nullptr: a copy, freed to the heap
  std::size_t capacity = 0;
  std::size_t size = 0;
  std::uint64_t symbols = 0;    ///< the body's element count

  char* data() noexcept { return reinterpret_cast<char*>(this + 1); }
  const char* data() const noexcept {
    return reinterpret_cast<const char*>(this + 1);
  }
};

/// Hands `buffer` back: to its pool's remote-free list, or to the heap.
void give_back(BodyBuffer* buffer) noexcept;

}  // namespace detail

/// Owning handle to one body.  Moving it is a pointer
/// move; dropping it returns the buffer to its pool from any thread.
/// Copying makes an unpooled heap copy (for tools and tests; the serving
/// path only moves).
class PackedBody {
public:
  PackedBody() noexcept = default;
  PackedBody(const PackedBody& other);
  PackedBody& operator=(const PackedBody& other);
  PackedBody(PackedBody&& other) noexcept
      : buffer_(std::exchange(other.buffer_, nullptr)) {}
  PackedBody& operator=(PackedBody&& other) noexcept {
    if (this != &other) {
      reset();
      buffer_ = std::exchange(other.buffer_, nullptr);
    }
    return *this;
  }
  ~PackedBody() { reset(); }

  explicit operator bool() const noexcept { return buffer_ != nullptr; }
  /// The body bytes (op 12: [varint n] then n elements; a Feed run: its
  /// core::RunSummary then its elements); empty when unset.
  std::string_view bytes() const noexcept {
    return buffer_ ? std::string_view(buffer_->data(), buffer_->size)
                   : std::string_view();
  }
  /// The body's element count: the run's size in symbols.
  std::size_t symbols() const noexcept {
    return buffer_ ? static_cast<std::size_t>(buffer_->symbols) : 0;
  }
  /// Returns the buffer now; the handle is empty afterwards.
  void reset() noexcept {
    if (buffer_) detail::give_back(std::exchange(buffer_, nullptr));
  }

private:
  friend class BodyPool;
  explicit PackedBody(detail::BodyBuffer* buffer) noexcept
      : buffer_(buffer) {}

  detail::BodyBuffer* buffer_ = nullptr;
};

/// The owner side of one producer's body buffers.  take() is owner-thread
/// only; the handles it returns may be dropped anywhere.  The shared
/// state is allocated on the first take().
class BodyPool {
public:
  /// Spare bytes a refill keeps (a larger buffer is never kept).
  static constexpr std::size_t kRetainBytes = 256 * 1024;
  /// Every body's bytes() starts on a multiple of this.
  static constexpr std::size_t kAlign = alignof(detail::BodyBuffer);

  BodyPool() noexcept = default;
  /// Frees the spares now; buffers still out free the state when the
  /// last of them comes back.
  ~BodyPool() { release(); }
  BodyPool(BodyPool&& other) noexcept
      : state_(std::exchange(other.state_, nullptr)) {}
  BodyPool& operator=(BodyPool&& other) noexcept;
  BodyPool(const BodyPool&) = delete;
  BodyPool& operator=(const BodyPool&) = delete;

  /// Copies `body`, of `symbols` elements, into a spare buffer,
  /// allocating only when no spare fits.
  PackedBody take(std::string_view body, std::uint64_t symbols) {
    return take({}, body, symbols);
  }
  /// The same for a body written as `head` followed by `tail`.
  PackedBody take(std::string_view head, std::string_view tail,
                  std::uint64_t symbols);

  /// Buffers every pool in the process has taken from the heap so far
  /// (unpooled copies included).  Relaxed: a reading for benches.
  static std::uint64_t heap_allocations() noexcept;

  /// Buffers on the owner's spare list right now (for tests).
  std::size_t spare_buffers() const noexcept;
  /// Bytes of those buffers (for tests).
  std::size_t spare_bytes() const noexcept;

private:
  /// The owner's release (see the file comment); leaves the pool empty.
  void release() noexcept;
  /// Moves the remote-free list onto the spares, within kRetainBytes.
  void refill() noexcept;

  detail::PoolState* state_ = nullptr;
};

}  // namespace rtw::svc
