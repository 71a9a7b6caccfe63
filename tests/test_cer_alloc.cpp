/// \file test_cer_alloc.cpp
/// Pins CerAcceptor's "no allocation per feed" property: once warmed up
/// on a stream, feeding it allocates nothing.  Global operator new is
/// replaced by a counting version, so this lives in its own binary.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "rtw/cer/acceptor.hpp"
#include "rtw/cer/parser.hpp"
#include "rtw/sim/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line, so the compiler does not pair an inlined free() with the
// new-expressions it sees and warn about a mismatch.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

// Every unaligned form is replaced, so no block crosses between this
// malloc/free pair and the runtime's own operator new/delete.
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }

using rtw::core::Symbol;
using rtw::core::Tick;
using rtw::core::TimedSymbol;
using rtw::core::Verdict;

namespace {

/// The serving benchmark's word shapes: `nested` alternates a/b with 1-3
/// tick gaps, the others draw 'a'..'d' with 1-2 tick gaps.
std::vector<TimedSymbol> word_for(const std::string& label, std::size_t n) {
  rtw::sim::Xoshiro256ss rng(7);
  std::vector<TimedSymbol> word;
  word.reserve(n);
  Tick t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    char c = static_cast<char>('a' + rng.uniform(std::uint64_t{4}));
    if (label == "nested") c = i % 2 ? 'b' : 'a';
    t += 1 + rng.uniform(std::uint64_t{label == "nested" ? 3u : 2u});
    word.push_back({Symbol::chr(c), t});
  }
  return word;
}

/// Allocations made by 10k feeds after a 1k-symbol warm-up.
std::uint64_t allocations_per_10k_feeds(const std::string& label,
                                        const char* text) {
  constexpr std::size_t kWarmup = 1000, kFeeds = 10000;
  const auto word = word_for(label, kWarmup + kFeeds);
  auto acceptor = rtw::cer::make_online_acceptor(*rtw::cer::parse(text).query);
  EXPECT_NE(acceptor, nullptr);
  for (std::size_t i = 0; i < kWarmup; ++i) acceptor->feed(word[i]);
  const std::uint64_t before = g_allocations.load();
  for (std::size_t i = kWarmup; i < word.size(); ++i) acceptor->feed(word[i]);
  const std::uint64_t after = g_allocations.load();
  // The stream must still be live, or the feeds were no-ops.
  EXPECT_EQ(acceptor->verdict(), Verdict::Undetermined) << label;
  EXPECT_EQ(acceptor->result().symbols_consumed, word.size()) << label;
  return after - before;
}

}  // namespace

TEST(CerAlloc, CountingNewSeesLibraryAllocations) {
  // Compiling and building an acceptor allocates inside rtw_cer, so a
  // zero count below means no allocations, not a hook that never fires.
  const std::uint64_t before = g_allocations.load();
  auto acceptor = rtw::cer::make_online_acceptor(
      *rtw::cer::parse("(a | b | c | d)+").query);
  EXPECT_GT(g_allocations.load() - before, 0u);
}

TEST(CerAlloc, AltIterFeedsAllocateNothingAfterWarmup) {
  EXPECT_EQ(allocations_per_10k_feeds("alt_iter", "(a | b | c | d)+"), 0u);
}

TEST(CerAlloc, NestedFeedsAllocateNothingAfterWarmup) {
  EXPECT_EQ(allocations_per_10k_feeds(
                "nested", "(within(4){ a ; b })+ | (c ; d)+"),
            0u);
}
