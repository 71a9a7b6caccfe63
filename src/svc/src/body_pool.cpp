#include "rtw/svc/body_pool.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <new>

#include "rtw/svc/ring.hpp"

namespace rtw::svc {

namespace detail {

/// The owner's share of `refs`: far above any count of lent buffers.
constexpr std::uint64_t kOwnerBias = std::uint64_t{1} << 62;

/// Smallest allocation, header included: a 256-symbol Char body fits.
constexpr std::size_t kMinBufferBytes = 1024;

struct PoolState {
  // Written by every returning thread.
  alignas(kCacheLine) std::atomic<BodyBuffer*> returned{nullptr};
  /// kOwnerBias minus the returns so far, until the owner releases.
  std::atomic<std::uint64_t> refs{kOwnerBias};

  // Owner-only.
  alignas(kCacheLine) BodyBuffer* spare = nullptr;
  std::size_t spare_bytes = 0;
  std::size_t spare_count = 0;
  std::uint64_t lent = 0;  ///< buffers handed out by take(), ever
};

namespace {

/// Every allocate() call in the process: read by heap_allocations().
std::atomic<std::uint64_t> allocations{0};

BodyBuffer* allocate(PoolState* pool, std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t bytes =
      std::bit_ceil(std::max(sizeof(BodyBuffer) + size, kMinBufferBytes));
  auto* buffer = ::new (::operator new(bytes)) BodyBuffer;
  buffer->pool = pool;
  buffer->capacity = bytes - sizeof(BodyBuffer);
  return buffer;
}

void free_buffer(BodyBuffer* buffer) noexcept {
  buffer->~BodyBuffer();
  ::operator delete(buffer);
}

void free_list(BodyBuffer* list) noexcept {
  while (list) free_buffer(std::exchange(list, list->next));
}

void destroy(PoolState* pool) noexcept {
  free_list(pool->returned.load(std::memory_order_acquire));
  free_list(pool->spare);
  delete pool;
}

}  // namespace

void give_back(BodyBuffer* buffer) noexcept {
  PoolState* pool = buffer->pool;
  if (!pool) {
    free_buffer(buffer);
    return;
  }
  BodyBuffer* head = pool->returned.load(std::memory_order_relaxed);
  do {
    buffer->next = head;
  } while (!pool->returned.compare_exchange_weak(
      head, buffer, std::memory_order_release, std::memory_order_relaxed));
  // The push is sequenced before the decrement, so whoever takes the
  // count to zero sees this buffer on the list it frees.
  if (pool->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) destroy(pool);
}

}  // namespace detail

PackedBody::PackedBody(const PackedBody& other) {
  if (!other.buffer_) return;
  buffer_ = detail::allocate(nullptr, other.buffer_->size);
  buffer_->size = other.buffer_->size;
  buffer_->symbols = other.buffer_->symbols;
  std::memcpy(buffer_->data(), other.buffer_->data(), buffer_->size);
}

PackedBody& PackedBody::operator=(const PackedBody& other) {
  if (this != &other) *this = PackedBody(other);
  return *this;
}

BodyPool& BodyPool::operator=(BodyPool&& other) noexcept {
  if (this != &other) {
    release();
    state_ = std::exchange(other.state_, nullptr);
  }
  return *this;
}

void BodyPool::release() noexcept {
  detail::PoolState* pool = std::exchange(state_, nullptr);
  if (!pool) return;
  detail::free_list(std::exchange(pool->spare, nullptr));
  const std::uint64_t share = detail::kOwnerBias - pool->lent;
  if (pool->refs.fetch_sub(share, std::memory_order_acq_rel) == share)
    detail::destroy(pool);
}

void BodyPool::refill() noexcept {
  detail::PoolState& pool = *state_;
  detail::BodyBuffer* list =
      pool.returned.exchange(nullptr, std::memory_order_acquire);
  while (list) {
    detail::BodyBuffer* buffer = std::exchange(list, list->next);
    if (pool.spare_bytes + buffer->capacity > kRetainBytes) {
      detail::free_buffer(buffer);
      continue;
    }
    buffer->next = pool.spare;
    pool.spare = buffer;
    pool.spare_bytes += buffer->capacity;
    ++pool.spare_count;
  }
}

PackedBody BodyPool::take(std::string_view head, std::string_view tail,
                          std::uint64_t symbols) {
  if (!state_) state_ = new detail::PoolState;
  detail::PoolState& pool = *state_;
  const std::size_t size = head.size() + tail.size();
  if (!pool.spare || pool.spare->capacity < size) refill();
  detail::BodyBuffer* buffer = pool.spare;
  if (buffer) {
    pool.spare = buffer->next;
    pool.spare_bytes -= buffer->capacity;
    --pool.spare_count;
    if (buffer->capacity < size) {
      // The stream's bodies outgrew this spare: let it go.
      detail::free_buffer(buffer);
      buffer = nullptr;
    }
  }
  if (!buffer) buffer = detail::allocate(&pool, size);
  buffer->next = nullptr;
  buffer->size = size;
  buffer->symbols = symbols;
  if (!head.empty()) std::memcpy(buffer->data(), head.data(), head.size());
  if (!tail.empty())
    std::memcpy(buffer->data() + head.size(), tail.data(), tail.size());
  ++pool.lent;
  return PackedBody(buffer);
}

std::uint64_t BodyPool::heap_allocations() noexcept {
  return detail::allocations.load(std::memory_order_relaxed);
}

std::size_t BodyPool::spare_buffers() const noexcept {
  return state_ ? state_->spare_count : 0;
}

std::size_t BodyPool::spare_bytes() const noexcept {
  return state_ ? state_->spare_bytes : 0;
}

}  // namespace rtw::svc
