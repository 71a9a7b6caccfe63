/// \file test_cer_alloc.cpp
/// Pins CerAcceptor's "no allocation per feed" property: once warmed up
/// on a stream, feeding it allocates nothing, through transition-cache
/// flushes and thrash-guard trips too; and the cache's tables are
/// allocated on the first feed, within kMaxCacheBytes.  Also pins the
/// wire decoder's bound on what a packed FeedBatch count may reserve,
/// that op-12 frames served through a Server allocate nothing once warm,
/// and that feed_batch runs reach warm shard workers with no heap call.
/// Global operator new and delete are replaced by counting versions, so
/// this lives in its own binary.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "rtw/cer/acceptor.hpp"
#include "rtw/cer/parser.hpp"
#include "rtw/deadline/lane.hpp"
#include "rtw/deadline/problem.hpp"
#include "rtw/sim/rng.hpp"
#include "rtw/svc/profiles.hpp"
#include "rtw/svc/server.hpp"
#include "rtw/svc/wire.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};  ///< bytes requested
std::atomic<std::size_t> g_largest{0};  ///< largest single request
std::atomic<std::uint64_t> g_heap_calls{0};  ///< news and deletes, all threads
thread_local std::uint64_t t_heap_calls = 0;  ///< ... on this thread

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_heap_calls.fetch_add(1, std::memory_order_relaxed);
  ++t_heap_calls;
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest.compare_exchange_weak(largest, size,
                                          std::memory_order_relaxed)) {
  }
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line, so the compiler does not pair an inlined free() with the
// new-expressions it sees and warn about a mismatch.
[[gnu::noinline]] void release(void* p) noexcept {
  if (p) {
    g_heap_calls.fetch_add(1, std::memory_order_relaxed);
    ++t_heap_calls;
  }
  std::free(p);
}
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
/// tick gaps, the others draw 'a'..'d' with 1-2 tick gaps.  11k elements
/// span under 33k ticks, inside `drift`'s window.
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

/// Allocations made by 10k feeds after a 1k-symbol warm-up, summed over
/// two acceptors: one fed a symbol at a time, one through feed_run in
/// 256-element runs (the op-12 frame size).
std::uint64_t allocations_per_10k_feeds(const std::string& label,
                                        const char* text) {
  constexpr std::size_t kWarmup = 1000, kFeeds = 10000, kRun = 256;
  const auto word = word_for(label, kWarmup + kFeeds);
  std::uint64_t allocations = 0;
  for (const bool runs : {false, true}) {
    auto acceptor =
        rtw::cer::make_online_acceptor(*rtw::cer::parse(text).query);
    EXPECT_NE(acceptor, nullptr);
    const auto feed = [&](std::size_t first, std::size_t last) {
      if (!runs) {
        for (std::size_t i = first; i < last; ++i) acceptor->feed(word[i]);
        return;
      }
      for (std::size_t i = first; i < last; i += kRun)
        acceptor->feed_run(word.data() + i, std::min(kRun, last - i));
    };
    feed(0, kWarmup);
    const std::uint64_t before = g_allocations.load();
    feed(kWarmup, word.size());
    allocations += g_allocations.load() - before;
    // The stream must still be live, or the feeds were no-ops.
    EXPECT_EQ(acceptor->verdict(), Verdict::Undetermined) << label;
    EXPECT_EQ(acceptor->result().symbols_consumed, word.size()) << label;
  }
  return allocations;
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

namespace {

constexpr const char* kDrift = "within(65536){ (a | b | c | d)+ }";

rtw::cer::CompiledQuery compile_text(const char* text) {
  return std::move(*rtw::cer::compile(*rtw::cer::parse(text).query).compiled);
}

}  // namespace

TEST(CerAlloc, DriftFeedsAllocateNothingAfterWarmup) {
  // Its clock drifts, so no config set repeats: the cache fills within
  // 64 feeds, and the flush then trips the thrash guard.
  EXPECT_EQ(allocations_per_10k_feeds("drift", kDrift), 0u);
}

TEST(CerAlloc, DriftRefillsFlushesAndTripsAllocateNothing) {
  // reset() turns the cache back on, so every pass refills it with
  // `drift`'s sets, flushes it and trips the guard again.
  const auto word = word_for("drift", 4000);
  rtw::cer::CerAcceptor acceptor(compile_text(kDrift));
  const auto pass = [&] {
    for (const auto& e : word) acceptor.feed(e);
    EXPECT_EQ(acceptor.verdict(), Verdict::Undetermined);
    acceptor.reset();
  };
  pass();
  const auto warm = acceptor.cache_stats();
  const std::uint64_t before = g_allocations.load();
  for (int p = 0; p < 3; ++p) pass();
  EXPECT_EQ(g_allocations.load() - before, 0u);
  const auto stats = acceptor.cache_stats();
  EXPECT_EQ(stats.flushes - warm.flushes, 3u);
  EXPECT_EQ(stats.trips - warm.trips, 3u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(CerAlloc, TheCacheIsAllocatedOnTheFirstFeedWithinItsBound) {
  const auto compiled = compile_text("(within(4){ a ; b })+ | (c ; d)+");
  g_largest.store(0);
  rtw::cer::CerAcceptor acceptor(compiled);
  const std::size_t constructor_largest = g_largest.load();

  // reset() allocates nothing, before and after the cache exists.
  std::uint64_t before = g_allocations.load();
  acceptor.reset();
  EXPECT_EQ(g_allocations.load() - before, 0u);

  // The first feed allocates the tables: requests larger than any the
  // constructor made, summing to at most kMaxCacheBytes.
  const auto word = word_for("nested", 11000);
  g_largest.store(0);
  const std::uint64_t bytes_before = g_bytes.load();
  before = g_allocations.load();
  acceptor.feed(word[0]);
  EXPECT_GT(g_allocations.load() - before, 0u);
  EXPECT_GT(g_largest.load(), constructor_largest);
  EXPECT_LE(g_bytes.load() - bytes_before,
            rtw::cer::CerAcceptor::kMaxCacheBytes);

  for (std::size_t i = 1; i < word.size(); ++i) acceptor.feed(word[i]);
  EXPECT_EQ(acceptor.verdict(), Verdict::Undetermined);
  EXPECT_LE(g_largest.load(), rtw::cer::CerAcceptor::kMaxCacheBytes);

  before = g_allocations.load();
  acceptor.reset();
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_GT(acceptor.cache_stats().hits, 0u);
}

namespace {

/// Largest single allocation made while pushing one op 12 frame whose body
/// is `body`; the decoder must reject it as MalformedBody.
std::size_t largest_allocation_decoding_packed(const std::string& body) {
  std::string frame;
  const auto len = static_cast<std::uint32_t>(9 + body.size());
  for (int i = 0; i < 4; ++i)
    frame.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  frame.append(8, '\0');  // session 0
  frame.push_back(static_cast<char>(rtw::svc::Op::FeedPacked));
  frame += body;
  rtw::svc::Decoder decoder;
  g_largest.store(0);
  decoder.push(frame);
  const std::size_t largest = g_largest.load();
  EXPECT_EQ(decoder.error_code(), rtw::svc::DecodeError::MalformedBody);
  return largest;
}

/// A 20-byte body: the count varint, `count` elements [Char 'a'][dt 1],
/// then stray bytes up to 20.
std::string packed_body(const std::string& count_varint, int count) {
  std::string body = count_varint;
  for (int i = 0; i < count; ++i) body += std::string("\0a\1", 3);
  body.resize(20, 'x');
  return body;
}

}  // namespace

TEST(WireAlloc, PackedCountWithinTheBodyIsReservedExactly) {
  // 6 elements fit the 19 bytes after the count, so the count passes the
  // bound and is reserved; the stray byte then fails the frame.  This
  // shows the hook sees the decoder's reservation.
  EXPECT_EQ(largest_allocation_decoding_packed(packed_body("\x06", 6)),
            6 * sizeof(TimedSymbol));
}

TEST(WireAlloc, LyingPackedCountNeverReservesPastTheBody) {
  // n = 2^40 (a 6-byte varint) over a 20-byte body: no request may exceed
  // body/3 elements.
  const auto body = packed_body("\x80\x80\x80\x80\x80\x20", 4);
  EXPECT_LE(largest_allocation_decoding_packed(body),
            body.size() / 3 * sizeof(TimedSymbol));
}

TEST(WireAlloc, CompleteFramesDecodeInPlace) {
  // 64 KiB reads of 256-symbol FeedBatch frames.  Only the one frame that
  // straddles a read boundary is copied, never the read itself, so the
  // largest request is a decoded run.
  std::vector<TimedSymbol> run;
  for (Tick t = 0; t < 256; ++t) run.push_back({Symbol::chr('a'), t});
  std::string stream;
  while (stream.size() < 4 * 65536)
    stream += rtw::svc::encode_feed_batch(1, run);
  rtw::svc::Decoder decoder;
  rtw::svc::WireEvent ev;
  std::uint64_t runs = 0;
  g_largest.store(0);
  for (std::size_t off = 0; off < stream.size(); off += 65536) {
    decoder.push(std::string_view(stream).substr(off, 65536));
    while (decoder.next(ev)) runs += ev.symbols == run;
  }
  const std::size_t largest = g_largest.load();
  EXPECT_TRUE(decoder.ok()) << decoder.error();
  EXPECT_EQ(runs, decoder.frames());
  EXPECT_LE(largest, run.size() * sizeof(TimedSymbol));
}

/// Holds the shard worker that feeds it until the gate opens.
class GateAcceptor final : public rtw::core::OnlineAcceptor {
public:
  explicit GateAcceptor(const std::atomic<bool>& open) : open_(open) {}
  Verdict feed(rtw::core::Symbol, Tick) override {
    open_.wait(false);
    return Verdict::Undetermined;
  }
  Verdict finish(rtw::core::StreamEnd) override { return Verdict::Rejecting; }
  Verdict verdict() const override { return Verdict::Undetermined; }
  const rtw::core::RunResult& result() const override { return result_; }
  void reset() override {}
  std::string name() const override { return "gate"; }

private:
  const std::atomic<bool>& open_;
  rtw::core::RunResult result_;
};

TEST(WireAlloc, PackedFramesThroughAServerAllocateNothingAfterWarmup) {
  // Two shards, two query sessions and two count:K sessions, fed rounds
  // of one 256-symbol op-12 frame each.  After a warm-up -- acceptor
  // caches, body buffers, decoder chunks, staging vectors -- a round
  // makes no operator new call on any thread: not the reactor's decode
  // and body copy, nor the shard's walk, nor the buffer's trip back.
  // The pool stops allocating once it has held its peak number of bodies
  // in flight (body_pool.hpp), so the warm-up ends by queueing as many
  // rounds as the measurement sends while both shards are held on a gate:
  // a lagging shard cannot then push the measured rounds past that peak.
  rtw::svc::ServerConfig config;
  config.shard.count = 2;
  rtw::svc::Server server(config, rtw::svc::profile_factory());
  auto conn = server.connect();
  constexpr rtw::svc::SessionId kSessions = 4;
  std::string open = rtw::svc::encode_hello();
  for (rtw::svc::SessionId s = 1; s <= kSessions; ++s)
    open += s % 2 ? rtw::svc::encode_submit_query(s, "(a | b | c | d)+")
                  : rtw::svc::encode_open(s, "count:1000000");
  ASSERT_TRUE(conn->on_bytes(open));

  // Every round's bytes are encoded up front: encoding allocates.  The
  // gated warm-up sends kRounds rounds of its own.
  constexpr int kWarmRounds = 64, kRounds = 32;
  std::vector<std::string> rounds;
  Tick t = 0;
  for (int r = 0; r < kWarmRounds + 2 * kRounds; ++r) {
    std::vector<TimedSymbol> run;
    for (int i = 0; i < 256; ++i)
      run.push_back({Symbol::chr(static_cast<char>('a' + i % 4)), ++t});
    std::string bytes;
    for (rtw::svc::SessionId s = 1; s <= kSessions; ++s)
      bytes += rtw::svc::encode_feed_batch(s, run);
    rounds.push_back(std::move(bytes));
  }
  const auto feed = [&](int first, int last) {
    for (int r = first; r < last; ++r) ASSERT_TRUE(conn->on_bytes(rounds[r]));
    server.manager().drain();
  };
  feed(0, kWarmRounds);
  {
    // One gate session per shard, opened under ids picked to land there.
    std::atomic<bool> open{false};
    auto& manager = server.manager();
    std::vector<rtw::svc::SessionId> gates;
    for (rtw::svc::SessionId id = 1; gates.size() < manager.shards(); ++id)
      if (manager.shard_of(id) == gates.size()) gates.push_back(id);
    for (const auto id : gates) {
      manager.open(id, std::make_unique<GateAcceptor>(open));
      ASSERT_EQ(manager.feed(id, rtw::core::Symbol::chr('g'), 0),
                rtw::svc::Admit::Accepted);
    }
    for (int r = kWarmRounds; r < kWarmRounds + kRounds; ++r)
      ASSERT_TRUE(conn->on_bytes(rounds[r]));
    open.store(true);
    open.notify_all();
    for (const auto id : gates) manager.close(id);
    manager.drain();
    (void)manager.collect();
  }
  // The ring-wait reservoirs were reserved by their first sample; a take
  // keeps their capacity.
  (void)server.manager().take_feed_latency_samples();
  const auto warm = server.manager().stats();

  const std::uint64_t before = g_allocations.load();
  feed(kWarmRounds + kRounds, kWarmRounds + 2 * kRounds);
  const std::uint64_t allocations = g_allocations.load() - before;

  const auto stats = server.manager().stats();
  EXPECT_EQ(stats.ingested - warm.ingested, kRounds * kSessions * 256u);
  EXPECT_EQ(stats.active, kSessions);
  EXPECT_EQ(conn->stats().sheds, 0u);
  EXPECT_EQ(allocations, 0u);
}

TEST(SvcAlloc, FeedBatchRunsReachWarmShardsWithNoHeapCall) {
  // Two shards, lane-kernel deadline sessions and query sessions (which
  // take feed_run), fed rounds of one 256-symbol feed_batch run each.
  // The caller's vectors are built and freed on this thread; once warm,
  // the shard workers make no operator new or delete call at all: they
  // read each run from a buffer of this thread's pool and hand it back.
  // Heap calls off this thread are the workers': nothing else runs.
  constexpr std::size_t kRun = 256;
  constexpr int kWarmRounds = 64, kRounds = 32;
  constexpr rtw::svc::SessionId kSessions = 8;
  rtw::svc::ShardConfig shard;
  shard.count = 2;
  rtw::svc::SessionManager manager(shard, rtw::svc::IngressConfig{});

  rtw::core::RunOptions options;
  options.horizon = (kWarmRounds + kRounds + 1) * kRun;
  // Completion past the horizon: the deadline sessions never lock.
  const auto problem = std::make_shared<rtw::deadline::FixedCostProblem>(
      options.horizon + 64);
  const std::vector<TimedSymbol> header = {{Symbol::nat(1), 0},
                                           {rtw::core::marks::dollar(), 0},
                                           {Symbol::nat(1), 0},
                                           {rtw::core::marks::dollar(), 0}};
  for (rtw::svc::SessionId s = 1; s <= kSessions; ++s) {
    if (s % 2) {
      manager.open(s, rtw::deadline::make_lane_acceptor(problem, options));
      ASSERT_EQ(manager.feed_batch(s, header), rtw::svc::Admit::Accepted);
    } else {
      manager.open(s, rtw::cer::make_online_acceptor(
                          *rtw::cer::parse("(a | b | c | d)+").query));
    }
  }

  std::vector<std::vector<TimedSymbol>> rounds;
  for (int r = 0; r < kWarmRounds + kRounds; ++r) {
    std::vector<TimedSymbol> run;
    for (std::size_t i = 0; i < kRun; ++i) {
      const Tick t = 1 + static_cast<Tick>(r) * kRun + i;
      run.push_back({Symbol::chr(static_cast<char>('a' + i % 4)), t});
    }
    rounds.push_back(std::move(run));
  }
  const auto feed = [&](int first, int last) {
    for (int r = first; r < last; ++r)
      for (rtw::svc::SessionId s = 1; s <= kSessions; ++s)
        ASSERT_EQ(manager.feed_batch(s, rounds[r]), rtw::svc::Admit::Accepted);
    manager.drain();
  };
  feed(0, kWarmRounds);
  const auto warm = manager.stats();

  const std::uint64_t all_before = g_heap_calls.load();
  const std::uint64_t mine_before = t_heap_calls;
  feed(kWarmRounds, kWarmRounds + kRounds);
  const std::uint64_t mine = t_heap_calls - mine_before;
  const std::uint64_t workers = g_heap_calls.load() - all_before - mine;

  const auto stats = manager.stats();
  EXPECT_EQ(stats.ingested - warm.ingested, kRounds * kSessions * kRun);
  EXPECT_EQ(stats.lane_symbols - warm.lane_symbols,
            kRounds * kSessions / 2 * kRun);
  EXPECT_EQ(stats.active, kSessions);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_GT(mine, 0u);  // the copies into feed_batch's parameter
  EXPECT_EQ(workers, 0u);
}
