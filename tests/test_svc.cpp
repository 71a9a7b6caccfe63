// rtw::svc test suite: the serving layer and its equivalence theorem.
//
//   1. The wire codec: framing round-trips, arbitrary chunking, frame-
//      atomic decoding, sticky errors, frame-level fault application.
//   2. EngineOnlineAcceptor: the online/batch equivalence contract on
//      hand-picked words plus interface guarantees (monotonicity, verdict
//      latching, reset).
//   3. The tri-workload equivalence property: 500 seeded cases feeding
//      randomized deadline / rtdb / adhoc words symbol-by-symbol and
//      checking the final RunResult equals rtw::engine::run field by
//      field.
//   4. Session / SessionManager: stale filtering, lifecycle, explicit
//      backpressure, idle eviction, shard-count invariance (1 vs 8),
//      wire-driven operation, and the shard worker handoff under
//      producers x shards park/wake storms.
//   5. The fault-injected soak: mangled frame streams through the decoder
//      into the manager, mirrored by a reference state machine --
//      asserting zero verdict divergences (scaled by RTW_SVC_SOAK_SECONDS
//      for the CI svc-soak job).

#include <gtest/gtest.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "proptest.hpp"
#include "rtw/adhoc/mobility.hpp"
#include "rtw/adhoc/route_acceptor.hpp"
#include "rtw/adhoc/words.hpp"
#include "rtw/core/error.hpp"
#include "rtw/core/online.hpp"
#include "rtw/deadline/acceptor.hpp"
#include "rtw/deadline/lane.hpp"
#include "rtw/deadline/online.hpp"
#include "rtw/deadline/word.hpp"
#include "rtw/engine/engine.hpp"
#include "rtw/obs/export.hpp"
#include "rtw/obs/metrics.hpp"
#include "rtw/obs/sink.hpp"
#include "rtw/obs/tracer.hpp"
#include "rtw/rtdb/algebra.hpp"
#include "rtw/rtdb/recognition.hpp"
#include "rtw/svc/service.hpp"
#include "rtw/svc/session.hpp"
#include "rtw/svc/wire.hpp"

namespace {

using namespace rtw::core;
using rtw::svc::Admit;
using rtw::svc::Decoder;
using rtw::svc::Priority;
using rtw::svc::SessionId;
using rtw::svc::SessionManager;
using rtw::svc::SessionReport;
using rtw::svc::IngressConfig;
using rtw::svc::ShardConfig;
using rtw::svc::WireEvent;

// ====================================================== 1. wire codec

std::vector<TimedSymbol> sample_elements() {
  return {{Symbol::chr('a'), 1},
          {Symbol::marker("wq"), 4},
          {Symbol::nat(19), 4},
          {Symbol::chr('z'), 9}};
}

/// Hand-assembles a frame: [u32le len][u64le session][u8 op][body].
std::string raw_frame(std::uint8_t op, std::string_view body,
                      SessionId session = 1) {
  std::string frame;
  const std::uint32_t len = static_cast<std::uint32_t>(9 + body.size());
  for (int i = 0; i < 4; ++i)
    frame.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  for (int i = 0; i < 8; ++i)
    frame.push_back(static_cast<char>((session >> (8 * i)) & 0xff));
  frame.push_back(static_cast<char>(op));
  frame.append(body);
  return frame;
}

TEST(WireCodec, FramesRoundTrip) {
  const auto elements = sample_elements();
  std::string stream = rtw::svc::encode_open(7, "deadline");
  stream += rtw::svc::encode_feed_batch(7, elements);
  stream += rtw::svc::encode_close(7, StreamEnd::Truncated);

  Decoder decoder;
  decoder.push(stream);
  ASSERT_TRUE(decoder.ok()) << decoder.error();

  WireEvent ev;
  ASSERT_TRUE(decoder.next(ev));
  EXPECT_EQ(ev.kind, WireEvent::Kind::Open);
  EXPECT_EQ(ev.session, 7u);
  EXPECT_EQ(ev.profile, "deadline");

  ASSERT_TRUE(decoder.next(ev));
  EXPECT_EQ(ev.kind, WireEvent::Kind::Symbols);
  EXPECT_EQ(ev.symbols, elements);
  ASSERT_TRUE(decoder.next(ev));
  EXPECT_EQ(ev.kind, WireEvent::Kind::Close);
  EXPECT_EQ(ev.end, StreamEnd::Truncated);
  EXPECT_EQ(decoder.frames(), 3u);
}

TEST(WireCodec, EveryChunkingDecodesIdentically) {
  const auto elements = sample_elements();
  std::string stream = rtw::svc::encode_open(3, "p");
  stream += rtw::svc::encode_feed_batch(3, elements);
  stream += rtw::svc::encode_feed_batch(3, {});  // the empty run is valid
  stream += rtw::svc::encode_close(3);

  for (std::size_t chunk = 1; chunk <= 13; ++chunk) {
    Decoder decoder;
    for (std::size_t off = 0; off < stream.size(); off += chunk)
      decoder.push(std::string_view(stream).substr(
          off, std::min(chunk, stream.size() - off)));
    ASSERT_TRUE(decoder.ok()) << "chunk=" << chunk << ": " << decoder.error();
    std::vector<TimedSymbol> got;
    bool open = false, close = false;
    WireEvent ev;
    while (decoder.next(ev)) {
      if (ev.kind == WireEvent::Kind::Open) open = true;
      if (ev.kind == WireEvent::Kind::Close) close = true;
      if (ev.kind == WireEvent::Kind::Symbols)
        got.insert(got.end(), ev.symbols.begin(), ev.symbols.end());
    }
    EXPECT_TRUE(open);
    EXPECT_TRUE(close);
    EXPECT_EQ(got, elements) << "chunk=" << chunk;
    EXPECT_EQ(decoder.frames(), 4u);
  }
}

TEST(WireCodec, ErrorsAreSticky) {
  {
    Decoder decoder;
    std::string bad = rtw::svc::encode_open(1, "x");
    bad[12] = 99;  // opcode byte -> unknown
    decoder.push(bad);
    EXPECT_FALSE(decoder.ok());
    decoder.push(rtw::svc::encode_open(2, "y"));
    WireEvent ev;
    EXPECT_FALSE(decoder.next(ev));
  }
  {
    Decoder small(/*max_frame_bytes=*/16);
    small.push(rtw::svc::encode_feed_batch(1, sample_elements()));
    EXPECT_FALSE(small.ok());
  }
  {
    Decoder decoder;
    // A packed body whose one element has an unknown kind.
    decoder.push(rtw::svc::encode_open(1, "x"));
    std::string corrupt =
        rtw::svc::encode_feed_batch(1, {{Symbol::chr('a'), 1}});
    corrupt[corrupt.size() - 3] = 9;  // [count][kind][char][dt]
    decoder.push(corrupt);
    EXPECT_FALSE(decoder.ok());
  }
}

TEST(WireCodec, NoopFaultPlanIsIdentity) {
  std::vector<std::string> frames;
  for (SessionId id = 0; id < 6; ++id)
    frames.push_back(rtw::svc::encode_open(id, "p"));
  rtw::sim::FaultPlan noop;
  rtw::sim::FaultCounters counters;
  const auto out = rtw::svc::apply_faults(frames, noop, &counters);
  EXPECT_EQ(out, frames);
  EXPECT_TRUE(counters.empty());
}

TEST(WireCodec, FaultedFramesAreDeterministicAndCounted) {
  std::vector<std::string> frames;
  for (SessionId id = 0; id < 64; ++id)
    frames.push_back(rtw::svc::encode_open(id, "p"));
  rtw::sim::FaultPlan plan;
  plan.seed = 0xfeedULL;
  plan.link.drop = 0.25;
  plan.link.duplicate = 0.25;
  plan.link.delay = 0.5;
  plan.link.max_delay = 4;
  rtw::sim::FaultCounters c1, c2;
  const auto a = rtw::svc::apply_faults(frames, plan, &c1);
  const auto b = rtw::svc::apply_faults(frames, plan, &c2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(c1, c2);
  EXPECT_GT(c1.injected(), 0u);
  EXPECT_EQ(a.size(), frames.size() - c1.dropped + c1.duplicated);
}

TEST(WireCodec, FeedBatchDecodesAsExactlyOneEvent) {
  const auto elements = sample_elements();
  const auto frame = rtw::svc::encode_feed_batch(5, elements);
  Decoder decoder;
  // The run is one all-or-nothing admission unit, so nothing decodes
  // until the frame completes.
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.push(std::string_view(frame).substr(i, 1));
    WireEvent probe;
    ASSERT_FALSE(decoder.next(probe)) << "event surfaced at byte " << i;
  }
  decoder.push(std::string_view(frame).substr(frame.size() - 1));
  ASSERT_TRUE(decoder.ok()) << decoder.error();
  WireEvent ev;
  ASSERT_TRUE(decoder.next(ev));
  EXPECT_EQ(ev.kind, WireEvent::Kind::Symbols);
  EXPECT_EQ(ev.session, 5u);
  EXPECT_EQ(ev.symbols, elements);
  EXPECT_FALSE(decoder.next(ev));
  EXPECT_EQ(decoder.frames(), 1u);
}

/// The largest frame the default cap admits, pushed one byte per push():
/// no event before its last byte, one after it, in both PackedModes.  Each
/// push must cost O(1) whatever is pending: a decoder that rescans the
/// held bytes on every push takes hours here instead of milliseconds.
TEST(WireCodec, FrameAtTheSizeCapPushedByteByByteYieldsOneEvent) {
  using rtw::svc::PackedMode;
  // Char elements cost 3 bytes each, after the 9-byte payload header and
  // the 3-byte count varint.
  const std::vector<TimedSymbol> run(
      (rtw::svc::kDefaultMaxFrameBytes - 9 - 3) / 3, {Symbol::chr('a'), 1});
  const std::string frame = rtw::svc::encode_feed_batch(4, run);
  ASSERT_LE(frame.size() - 4, rtw::svc::kDefaultMaxFrameBytes);
  ASSERT_GT(frame.size() - 4, rtw::svc::kDefaultMaxFrameBytes - 3);

  const auto start = std::chrono::steady_clock::now();
  for (const auto mode : {PackedMode::Decode, PackedMode::Pool}) {
    Decoder decoder(rtw::svc::kDefaultMaxFrameBytes, mode);
    WireEvent ev;
    for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
      decoder.push(std::string_view(frame).substr(i, 1));
      ASSERT_FALSE(decoder.next(ev)) << "event surfaced at byte " << i;
    }
    decoder.push(std::string_view(frame).substr(frame.size() - 1));
    ASSERT_TRUE(decoder.ok()) << decoder.error();
    ASSERT_TRUE(decoder.next(ev));
    EXPECT_EQ(ev.kind, WireEvent::Kind::Symbols);
    EXPECT_EQ(ev.session, 4u);
    EXPECT_EQ(mode == PackedMode::Pool ? ev.packed.symbols() : ev.symbols.size(),
              run.size());
    EXPECT_FALSE(decoder.next(ev));
    EXPECT_EQ(decoder.frames(), 1u);
  }
  // Linear decoding takes well under a second even in sanitizer builds;
  // the bound only has to tell linear from quadratic.
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
}

/// Random packed-feed element list: the Char values the text format has to
/// escape, Nat and time extremes, markers, and equal, decreasing and
/// 2^64-1 times.  Length 0 (the empty run) is drawn too.
std::vector<TimedSymbol> random_feed_elements(rtw::sim::Xoshiro256ss& rng,
                                              std::size_t size) {
  static constexpr char kChars[] = {'0', '7', '9', '\'', '<', ' ', '@',
                                    '\0', '|', '>', 'a', 'z'};
  static const char* const kMarkers[] = {"w", "d", "min", "", "a b",
                                         "x@y", "q'<", "long_marker_name"};
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const std::size_t len = rng.uniform(std::uint64_t{4 * size + 1});
  std::vector<TimedSymbol> out;
  out.reserve(len);
  Tick t = rng.uniform(std::uint64_t{4});
  for (std::size_t i = 0; i < len; ++i) {
    Symbol sym;
    switch (rng.uniform(std::uint64_t{3})) {
      case 0:
        sym = Symbol::chr(kChars[rng.uniform(std::uint64_t{sizeof kChars})]);
        break;
      case 1: {
        const std::uint64_t values[] = {0, kMax, rng.uniform(std::uint64_t{7}),
                                        rng.uniform(std::uint64_t{1} << 20),
                                        rng()};
        sym = Symbol::nat(values[rng.uniform(std::uint64_t{5})]);
        break;
      }
      default:
        sym = Symbol::marker(
            kMarkers[rng.uniform(std::uint64_t{std::size(kMarkers)})]);
    }
    switch (rng.uniform(std::uint64_t{6})) {
      case 0: break;                                   // equal
      case 1: t = rng.uniform(t + 1); break;           // decreasing
      case 2: t = kMax; break;
      case 3: t = rng(); break;
      default: t += 1 + rng.uniform(std::uint64_t{3});  // the served shape
    }
    out.push_back({sym, t});
  }
  return out;
}

/// Random packed-feed element list shaped for the stride tail: a first
/// element whose dt takes 1-3 bytes, then runs of 3-byte elements (Chars
/// of any byte, Nats below 128 and empty markers, with gaps of 0-127),
/// each run possibly broken by one element that leaves the stride (a Nat
/// of 128 or more, a named marker or a gap of 128 or more).  Lengths
/// reach past the shard's 64-element chunk.
std::vector<TimedSymbol> random_stride_elements(rtw::sim::Xoshiro256ss& rng,
                                                std::size_t size) {
  const std::size_t len = rng.uniform(std::uint64_t{8 * size + 2});
  std::vector<TimedSymbol> out;
  out.reserve(len);
  Tick t = rng.uniform(std::uint64_t{1} << (7 * (1 + rng.uniform(std::uint64_t{3}))));
  for (std::size_t i = 0; i < len; ++i) {
    Symbol sym;
    const bool leave = i > 0 && rng.uniform(std::uint64_t{24}) == 0;
    switch (rng.uniform(std::uint64_t{4})) {
      case 0:
        sym = leave ? Symbol::nat(128 + rng.uniform(std::uint64_t{1} << 20))
                    : Symbol::nat(rng.uniform(std::uint64_t{128}));
        break;
      case 1:
        sym = Symbol::marker(leave ? "w" : "");
        break;
      default:
        sym = Symbol::chr(static_cast<char>(rng.uniform(std::uint64_t{256})));
    }
    if (i > 0)
      t += leave && rng.uniform(std::uint64_t{2}) ? 128 + rng.uniform(std::uint64_t{1000})
                                                  : rng.uniform(std::uint64_t{128});
    out.push_back({sym, t});
  }
  return out;
}

/// Pushes `stream` in chunks drawn from [1, max_chunk] and returns every
/// event decoded, or nullopt when the decoder failed.
std::optional<std::vector<WireEvent>> decode_chunked(
    std::string_view stream, rtw::sim::Xoshiro256ss& rng,
    std::uint64_t max_chunk) {
  Decoder decoder;
  std::vector<WireEvent> events;
  WireEvent ev;
  for (std::size_t off = 0; off < stream.size();) {
    const std::size_t n = std::min<std::size_t>(
        1 + rng.uniform(max_chunk), stream.size() - off);
    decoder.push(stream.substr(off, n));
    off += n;
    while (decoder.next(ev)) events.push_back(std::move(ev));
  }
  if (!decoder.ok()) return std::nullopt;
  return events;
}

/// Records every element it is fed; settles only at finish.
class RecordingAcceptor final : public OnlineAcceptor {
public:
  Verdict feed(Symbol symbol, Tick at) override {
    fed.push_back({symbol, at});
    return Verdict::Undetermined;
  }
  Verdict finish(StreamEnd) override { return Verdict::Undetermined; }
  Verdict verdict() const override { return Verdict::Undetermined; }
  const RunResult& result() const override { return result_; }
  void reset() override { fed.clear(); }
  std::string name() const override { return "recording"; }

  std::vector<TimedSymbol> fed;

private:
  RunResult result_;
};

/// Frames check_pooled_agrees saw whose stride tail the reactor's
/// validator and the shard's read covered in the fixed-stride pass.
std::uint64_t g_stride_reactor = 0, g_stride_shard = 0;

/// Pushes one frame through a default (decoding) Decoder and a
/// PackedMode::Pool Decoder -- the reactor's validator -- and checks that
/// both accept it or both reject it as a sticky MalformedBody.  When they
/// accept, the pooled body must hold the frame's body bytes and count, a
/// PackedReader walk of it must yield exactly the decoded elements, and
/// Session::feed_packed must feed an acceptor exactly what feed_run feeds
/// it from the decoded run (stale filter included).
std::optional<std::string> check_pooled_agrees(std::string_view frame) {
  using rtw::svc::DecodeError;
  using rtw::svc::PackedMode;
  // The shard's chunked read (the stride pass where the body reaches its
  // stride tail) yields what the element walk yields, up to the same
  // malformation; the settled session's times-only read yields the same
  // elements' times, stops at the same place and counts the same stride.
  {
    rtw::svc::PackedReader walk(frame.substr(13));
    rtw::svc::PackedReader chunked(frame.substr(13));
    rtw::svc::PackedReader timed(frame.substr(13));
    std::vector<TimedSymbol> by_next, by_read;
    rtw::svc::PackedElement element;
    while (walk.next(element)) by_next.push_back({element.symbol(), element.time});
    TimedSymbol chunk[64];
    while (const std::size_t m = chunked.read(chunk, 64))
      by_read.insert(by_read.end(), chunk, chunk + m);
    if (by_read != by_next || chunked.complete() != walk.complete())
      return std::string("PackedReader::read differs from next()");
    std::vector<Tick> by_times;
    Tick times[64];
    while (const std::size_t m = timed.read_times(times, 64))
      by_times.insert(by_times.end(), times, times + m);
    std::vector<Tick> read_times;
    for (const auto& e : by_read) read_times.push_back(e.time);
    if (by_times != read_times || timed.complete() != chunked.complete() ||
        timed.stride_elements() != chunked.stride_elements())
      return std::string("PackedReader::read_times differs from read()");
    if (chunked.stride_elements() > 0) ++g_stride_shard;
  }
  Decoder decoding;
  Decoder pooled(rtw::svc::kDefaultMaxFrameBytes, PackedMode::Pool);
  decoding.push(frame);
  pooled.push(frame);
  if (decoding.ok() != pooled.ok())
    return "validator " + std::string(pooled.ok() ? "accepts" : "rejects") +
           " a body decode_packed " +
           (decoding.ok() ? "accepts" : "rejects");
  if (!decoding.ok()) {
    if (pooled.error_code() != DecodeError::MalformedBody ||
        decoding.error_code() != DecodeError::MalformedBody)
      return std::string("rejection is not MalformedBody");
    return std::nullopt;
  }
  WireEvent decoded, walked;
  if (pooled.stride_bodies() > 0) ++g_stride_reactor;
  if (!decoding.next(decoded) || !pooled.next(walked) ||
      walked.kind != WireEvent::Kind::Symbols || !walked.symbols.empty() ||
      !walked.packed || walked.session != decoded.session)
    return std::string("pooled decoder emitted the wrong event");
  if (walked.packed.bytes() != frame.substr(13) ||
      walked.packed.symbols() != decoded.symbols.size())
    return std::string("pooled body differs from the frame's body");
  std::vector<TimedSymbol> elements;
  rtw::svc::PackedReader reader(walked.packed.bytes());
  rtw::svc::PackedElement element;
  while (reader.next(element))
    elements.push_back({element.symbol(), element.time});
  if (!reader.complete() || elements != decoded.symbols)
    return std::string("shard walk differs from decode_packed");

  auto by_run = std::make_unique<RecordingAcceptor>();
  auto by_body = std::make_unique<RecordingAcceptor>();
  const RecordingAcceptor& run_fed = *by_run;
  const RecordingAcceptor& body_fed = *by_body;
  rtw::svc::Session run_session(1, std::move(by_run));
  rtw::svc::Session body_session(2, std::move(by_body));
  run_session.feed_run(decoded.symbols.data(), decoded.symbols.size());
  body_session.feed_packed(walked.packed.bytes());
  if (run_fed.fed != body_fed.fed ||
      run_session.fed() != body_session.fed() ||
      run_session.stale_dropped() != body_session.stale_dropped())
    return std::string("feed_packed feeds differently from feed_run");
  return std::nullopt;
}

/// Mutants of a well-formed packed body: bit flips, truncations (the
/// empty body included) and the count varint replaced by a nearby or a
/// huge count.
std::vector<std::string> packed_mutants(const std::string& body,
                                        rtw::sim::Xoshiro256ss& rng) {
  std::vector<std::string> mutants;
  for (int k = 0; k < 4; ++k) {
    std::string m = body;
    m[rng.uniform(m.size())] ^=
        static_cast<char>(1u << rng.uniform(std::uint64_t{8}));
    mutants.push_back(std::move(m));
  }
  for (int k = 0; k < 2; ++k)
    mutants.push_back(body.substr(0, rng.uniform(body.size())));
  const std::uint64_t n = rtw::svc::PackedReader(body).count();
  std::size_t count_bytes = 1;
  while (static_cast<unsigned char>(body[count_bytes - 1]) & 0x80)
    ++count_bytes;
  for (const std::uint64_t lie :
       {n + 1, n ? n - 1 : 2, n + 1 + rng.uniform(std::uint64_t{64}),
        std::uint64_t{1} << 40}) {
    std::string m;
    for (std::uint64_t v = lie;; v >>= 7) {
      m.push_back(static_cast<char>((v & 0x7f) | (v >= 0x80 ? 0x80 : 0)));
      if (v < 0x80) break;
    }
    mutants.push_back(m + body.substr(count_bytes));
  }
  return mutants;
}

/// encode_feed_batch emits op 12.  Whatever the chunking, its frame decodes
/// to exactly one Symbols event equal to the input, and that event
/// surfaces only with the frame's last byte.  The pooled decoder and the
/// shard walk agree with it on the frame and on mutants of its body
/// (check_pooled_agrees).
TEST(WireCodec, PackedFeedBatchRoundTripsUnderEveryChunking) {
  rtw::proptest::Config cfg;
  cfg.seed = 0x7061636bULL;  // "pack"
  cfg.cases = 400;
  cfg.max_size = 24;
  std::size_t mutants_accepted = 0, mutants_rejected = 0;
  const auto result = rtw::proptest::run_property(
      "svc.packed_feed_batch", cfg,
      [&](rtw::sim::Xoshiro256ss& rng, std::size_t size)
          -> std::optional<std::string> {
        const auto elements = random_feed_elements(rng, size);
        const std::string packed = rtw::svc::encode_feed_batch(9, elements);
        if (static_cast<unsigned char>(packed[12]) != 12)
          return "encode_feed_batch did not emit op 12";

        // Byte-at-a-time: nothing before the last byte, then one event.
        Decoder slow;
        WireEvent ev;
        for (std::size_t i = 0; i < packed.size(); ++i) {
          slow.push(std::string_view(packed).substr(i, 1));
          if (i + 1 < packed.size() && slow.next(ev))
            return "event surfaced at byte " + std::to_string(i);
        }
        if (!slow.ok()) return "1-byte pushes: " + slow.error();
        if (!slow.next(ev) || ev.kind != WireEvent::Kind::Symbols ||
            ev.session != 9u || ev.symbols != elements)
          return std::string("1-byte pushes: wrong event");
        if (ev.symbols.capacity() != elements.size())
          return std::string("run not sized exactly");
        if (slow.next(ev) || slow.frames() != 1u)
          return std::string("1-byte pushes: more than one event");

        // The reactor's validator and the shard's walk agree with it, and
        // with decode_packed on bit flips, truncations and count lies of
        // the body.
        if (auto why = check_pooled_agrees(packed)) return why;
        for (const auto& mutant : packed_mutants(packed.substr(13), rng)) {
          const std::string frame = raw_frame(12, mutant, 9);
          if (auto why = check_pooled_agrees(frame)) return why;
          Decoder decoder;
          decoder.push(frame);
          ++(decoder.ok() ? mutants_accepted : mutants_rejected);
        }

        // A session's stream under random chunkings: each packed run
        // stays one event.
        std::string stream = rtw::svc::encode_open(9, "p");
        stream += packed;
        stream += packed;
        stream += rtw::svc::encode_close(9);
        for (const std::uint64_t max_chunk : {2u, 7u, 64u, 4096u}) {
          const auto events = decode_chunked(stream, rng, max_chunk);
          if (!events) return "stream failed to decode";
          const auto& evs = *events;
          if (evs.size() != 4 || evs.front().kind != WireEvent::Kind::Open ||
              evs.back().kind != WireEvent::Kind::Close)
            return "stream decoded to the wrong events, max_chunk=" +
                   std::to_string(max_chunk);
          if (evs[1].symbols != elements || evs[2].symbols != elements)
            return "packed run split or changed, max_chunk=" +
                   std::to_string(max_chunk);
        }

        // A stride-shaped body, its mutants, and a fault planted in its
        // tail: a dt with its high bit set, or a Nat of 128 or more in one
        // byte.  Both keep the body 3 bytes per element, so the validator
        // and the shard meet them inside the stride pass.
        const auto strided = random_stride_elements(rng, size);
        const std::string strided_frame =
            rtw::svc::encode_feed_batch(9, strided);
        {
          Decoder decoder;
          decoder.push(strided_frame);
          if (!decoder.next(ev) || ev.symbols != strided)
            return std::string("stride body does not round-trip");
        }
        if (auto why = check_pooled_agrees(strided_frame)) return why;
        const std::string body = strided_frame.substr(13);
        for (const auto& mutant : packed_mutants(body, rng))
          if (auto why = check_pooled_agrees(raw_frame(12, mutant, 9)))
            return why;
        // The stride tail: the 3-byte elements after the last longer one.
        std::size_t tail = 0;
        for (std::size_t i = strided.size(); i > 1; --i) {
          const Symbol sym = strided[i - 1].sym;
          const bool three_bytes =
              strided[i - 1].time - strided[i - 2].time < 128 &&
              (sym.is_char() || (sym.is_nat() && sym.as_nat() < 128) ||
               (sym.is_marker() && sym.name().empty()));
          if (!three_bytes) break;
          ++tail;
        }
        if (tail > 0) {
          const std::size_t at =
              body.size() - 3 * (1 + rng.uniform(std::uint64_t{tail}));
          for (const bool nat : {false, true}) {
            std::string planted = body;
            if (nat) {
              planted[at] = 1;
              planted[at + 1] = static_cast<char>(0x80 | rng.uniform(std::uint64_t{128}));
            } else {
              planted[at + 2] = static_cast<char>(planted[at + 2] | 0x80);
            }
            if (auto why = check_pooled_agrees(raw_frame(12, planted, 9)))
              return why;
          }
        }
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok()) << rtw::proptest::describe(
      "svc.packed_feed_batch", cfg, *result.failure);
  // Mutants land on both sides, or the agreement was checked on one only.
  EXPECT_GT(mutants_accepted, 0u);
  EXPECT_GT(mutants_rejected, 0u);
  // The stride pass ran on both stages.
  EXPECT_GT(g_stride_reactor, 0u);
  EXPECT_GT(g_stride_shard, 0u);
}

TEST(WireCodec, HostilePackedBodiesAreStickyMalformedBody) {
  using rtw::svc::DecodeError;
  const auto bytes = [](std::initializer_list<unsigned> list) {
    std::string out;
    for (const unsigned b : list) out.push_back(static_cast<char>(b));
    return out;
  };
  struct Case {
    const char* what;
    std::string body;
  };
  const Case cases[] = {
      {"no count", ""},
      {"truncated count", bytes({0x80})},
      {"truncated element", bytes({2, 2, 3, 'x', 'y', 'z', 1, 0, 'b'})},
      {"truncated char payload", bytes({2, 2, 3, 'x', 'y', 'z', 1, 0})},
      {"truncated dt", bytes({1, 0, 'a', 0x80})},
      {"unknown kind", bytes({1, 3, 'a', 1})},
      {"over-long varint (11 bytes)",
       bytes({1, 0, 'a', 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
              0x80, 0x80, 0x00})},
      {"10th varint byte above 1",
       bytes({1, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
              0x02, 1})},
      {"marker length past the body", bytes({1, 2, 50, 'x', 1})},
      {"bytes after n elements", bytes({1, 0, 'a', 1, 0xff})},
      {"count lie upward", bytes({3, 0, 'a', 1, 0, 'b', 1})},
      {"count lie upward within the size bound",
       bytes({2, 0, 'a', 1, 1, 0x81, 0x80, 0x01})},
      {"count lie downward", bytes({1, 0, 'a', 1, 0, 'b', 1})},
  };
  for (const auto& c : cases) {
    // The reactor's validator rejects it exactly as the decoder does.
    EXPECT_EQ(check_pooled_agrees(raw_frame(12, c.body)), std::nullopt)
        << c.what;
    Decoder decoder;
    decoder.push(rtw::svc::encode_open(1, "p"));
    decoder.push(raw_frame(12, c.body));
    EXPECT_FALSE(decoder.ok()) << c.what;
    EXPECT_EQ(decoder.error_code(), DecodeError::MalformedBody) << c.what;
    // Sticky: well-formed frames afterwards stay rejected.
    decoder.push(rtw::svc::encode_feed_batch(1, sample_elements()));
    decoder.push(rtw::svc::encode_close(1));
    WireEvent ev;
    ASSERT_TRUE(decoder.next(ev)) << c.what;  // the open before the fault
    EXPECT_EQ(ev.kind, WireEvent::Kind::Open);
    EXPECT_FALSE(decoder.next(ev)) << c.what;
    EXPECT_EQ(decoder.error_code(), DecodeError::MalformedBody) << c.what;
  }
  // The empty run is a valid body: one empty Symbols event.
  Decoder decoder;
  decoder.push(raw_frame(12, bytes({0})));
  ASSERT_TRUE(decoder.ok()) << decoder.error();
  WireEvent ev;
  ASSERT_TRUE(decoder.next(ev));
  EXPECT_EQ(ev.kind, WireEvent::Kind::Symbols);
  EXPECT_TRUE(ev.symbols.empty());
}

TEST(BodyPool, ADroppedBodyIsReusedByTheNextTake) {
  rtw::svc::BodyPool pool;
  rtw::svc::PackedBody a = pool.take("abc", 1);
  ASSERT_TRUE(a);
  EXPECT_EQ(a.bytes(), "abc");
  EXPECT_EQ(a.symbols(), 1u);
  const char* buffer = a.bytes().data();
  a.reset();
  EXPECT_FALSE(a);
  EXPECT_EQ(a.symbols(), 0u);
  const rtw::svc::PackedBody b = pool.take("wxyz", 2);
  EXPECT_EQ(b.bytes().data(), buffer);  // the same buffer, refilled
  EXPECT_EQ(b.bytes(), "wxyz");
  EXPECT_EQ(pool.spare_buffers(), 0u);
  // A copy owns its own heap bytes and leaves the pool alone.
  const rtw::svc::PackedBody copy = b;
  EXPECT_EQ(copy.bytes(), "wxyz");
  EXPECT_NE(copy.bytes().data(), b.bytes().data());
}

TEST(BodyPool, ARefillKeepsAtMostTheRetentionBound) {
  using rtw::svc::BodyPool;
  BodyPool pool;
  const std::string body(700, 'x');
  std::vector<rtw::svc::PackedBody> in_flight;
  for (int i = 0; i < 1000; ++i) in_flight.push_back(pool.take(body, 1));
  in_flight.clear();  // a 1000-body burst comes back
  const rtw::svc::PackedBody next = pool.take(body, 1);
  EXPECT_GT(pool.spare_buffers(), 0u);
  EXPECT_LE(pool.spare_bytes(), BodyPool::kRetainBytes);
  EXPECT_LT(pool.spare_buffers(), 1000u);
  // A body larger than the bound is never kept as a spare: the refill
  // frees it, and the next take gets a fresh buffer.
  BodyPool big_pool;
  rtw::svc::PackedBody big =
      big_pool.take(std::string(BodyPool::kRetainBytes + 1, 'y'), 1);
  const char* big_buffer = big.bytes().data();
  big.reset();
  const rtw::svc::PackedBody small = big_pool.take("z", 1);
  EXPECT_NE(small.bytes().data(), big_buffer);
  EXPECT_EQ(big_pool.spare_bytes(), 0u);
}

TEST(BodyPool, BodiesOutliveTheirPoolAcrossThreads) {
  // The owner goes first; four threads drop the bodies it lent, and the
  // last one frees the pool's state (the sanitizer builds check it).
  std::vector<rtw::svc::PackedBody> bodies;
  {
    rtw::svc::BodyPool pool;
    for (int i = 0; i < 256; ++i)
      bodies.push_back(pool.take(std::string(1 + i, 'b'), 1));
    bodies[0].reset();  // one comes back while the owner still lives
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t)
    threads.emplace_back([&bodies, t] {
      for (std::size_t i = t; i < bodies.size(); i += 4) {
        EXPECT_EQ(bodies[i].bytes(), i == 0 ? std::string()
                                            : std::string(1 + i, 'b'));
        bodies[i].reset();
      }
    });
  for (auto& t : threads) t.join();
}

TEST(WireCodec, OpenPriorityRoundTrips) {
  using rtw::svc::Priority;
  // One Open encoding: op 6 carries every priority, Normal (the default)
  // included.
  EXPECT_EQ(rtw::svc::encode_open(3, "p"),
            raw_frame(6, std::string{static_cast<char>(Priority::Normal)} + "p",
                      3));
  for (const auto priority : {Priority::Low, Priority::Normal, Priority::High}) {
    Decoder decoder;
    decoder.push(rtw::svc::encode_open(9, "profile!", priority));
    ASSERT_TRUE(decoder.ok()) << decoder.error();
    WireEvent ev;
    ASSERT_TRUE(decoder.next(ev));
    EXPECT_EQ(ev.kind, WireEvent::Kind::Open);
    EXPECT_EQ(ev.session, 9u);
    EXPECT_EQ(ev.priority, priority);
    EXPECT_EQ(ev.profile, "profile!");
  }
}

TEST(WireCodec, OpenPriorityRejectsUnknownPriorityByte) {
  auto frame = rtw::svc::encode_open(1, "p", rtw::svc::Priority::High);
  frame[13] = 9;  // the priority byte, right after the opcode
  Decoder decoder;
  decoder.push(frame);
  EXPECT_FALSE(decoder.ok());
}

TEST(WireCodec, OpToStringIsExhaustive) {
  using rtw::svc::Op;
  // Every enumerator prints a distinct, non-empty, non-fallback name.
  std::set<std::string> names;
  for (const auto op : {Op::Close, Op::CloseTruncated, Op::Open, Op::Hello,
                        Op::HelloAck, Op::Verdict, Op::ShedNotice,
                        Op::SubmitQuery, Op::FeedPacked}) {
    const auto name = rtw::svc::to_string(op);
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(name.find("op?"), std::string::npos) << name;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), 9u);
  // Out-of-range and retired values fall back to a numeric form instead
  // of aliasing.
  for (const unsigned raw : {1u, 2u, 5u, 99u})
    EXPECT_EQ(rtw::svc::to_string(static_cast<Op>(raw)),
              "op?" + std::to_string(raw));
}

TEST(WireCodec, HelloFramesRoundTripEveryVersionRange) {
  for (std::uint8_t lo = 0; lo <= 2; ++lo) {
    for (std::uint8_t hi = lo; hi <= 3; ++hi) {
      Decoder decoder;
      decoder.push(rtw::svc::encode_hello(lo, hi));
      ASSERT_TRUE(decoder.ok()) << decoder.error();
      WireEvent ev;
      ASSERT_TRUE(decoder.next(ev));
      EXPECT_EQ(ev.kind, WireEvent::Kind::Hello);
      EXPECT_EQ(ev.version_min, lo);
      EXPECT_EQ(ev.version_max, hi);
    }
  }
  Decoder decoder;
  decoder.push(rtw::svc::encode_hello_ack(rtw::svc::kWireVersion));
  WireEvent ev;
  ASSERT_TRUE(decoder.next(ev));
  EXPECT_EQ(ev.kind, WireEvent::Kind::HelloAck);
  EXPECT_EQ(ev.version, rtw::svc::kWireVersion);
}

TEST(WireCodec, VerdictFramesRoundTripEveryEnumerator) {
  for (const auto verdict :
       {Verdict::Undetermined, Verdict::Accepting, Verdict::Rejecting}) {
    for (const bool exact : {false, true}) {
      for (const bool evicted : {false, true}) {
        Decoder decoder;
        decoder.push(rtw::svc::encode_verdict(77, verdict, exact, evicted,
                                              123456789, 42));
        ASSERT_TRUE(decoder.ok()) << decoder.error();
        WireEvent ev;
        ASSERT_TRUE(decoder.next(ev));
        EXPECT_EQ(ev.kind, WireEvent::Kind::Verdict);
        EXPECT_EQ(ev.session, 77u);
        EXPECT_EQ(ev.verdict, verdict);
        EXPECT_EQ(ev.exact, exact);
        EXPECT_EQ(ev.evicted, evicted);
        EXPECT_EQ(ev.fed, 123456789u);
        EXPECT_EQ(ev.stale, 42u);
      }
    }
  }
}

TEST(WireCodec, ShedNoticeFramesRoundTripEveryEnumerator) {
  using rtw::svc::AdmitResult;
  using rtw::svc::ShedReason;
  for (const auto admit : {Admit::Accepted, Admit::Shed, Admit::Blocked}) {
    for (const auto reason :
         {ShedReason::None, ShedReason::RingFull, ShedReason::SessionBound,
          ShedReason::Priority}) {
      Decoder decoder;
      decoder.push(
          rtw::svc::encode_shed(5, AdmitResult{admit, reason}, 999));
      ASSERT_TRUE(decoder.ok()) << decoder.error();
      WireEvent ev;
      ASSERT_TRUE(decoder.next(ev));
      EXPECT_EQ(ev.kind, WireEvent::Kind::Shed);
      EXPECT_EQ(ev.session, 5u);
      EXPECT_EQ(ev.admit.admit, admit);
      EXPECT_EQ(ev.admit.reason, reason);
      EXPECT_EQ(ev.shed_symbols, 999u);
    }
  }
}

TEST(WireCodec, UnknownOpsAreTypedRejections) {
  using rtw::svc::DecodeError;
  // Ops 1, 2 and 5 are the retired v0-v2 Open and text feed bodies.
  for (const std::uint8_t op :
       {std::uint8_t{0}, std::uint8_t{1}, std::uint8_t{2}, std::uint8_t{5},
        std::uint8_t{13}, std::uint8_t{99}, std::uint8_t{255}}) {
    Decoder decoder;
    decoder.push(raw_frame(op, "body"));
    EXPECT_FALSE(decoder.ok());
    EXPECT_EQ(decoder.error_code(), DecodeError::UnknownOp) << unsigned(op);
    WireEvent ev;
    EXPECT_FALSE(decoder.next(ev));
    // Sticky: later well-formed frames stay rejected.
    decoder.push(rtw::svc::encode_open(1, "x"));
    EXPECT_FALSE(decoder.next(ev));
  }
}

/// An op outside the v3 table fails with its 13-byte header: a 256 KiB
/// retired op-2 frame pushed a byte at a time is refused at its 13th byte,
/// and nothing of its body is ever buffered.
TEST(WireCodec, UnknownOpFailsAsSoonAsItsHeaderIsIn) {
  using rtw::svc::DecodeError;
  const std::string frame = raw_frame(2, std::string(256 * 1024, '7'));
  Decoder decoder;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    decoder.push(std::string_view(frame).substr(i, 1));
    if (i + 1 < 13) {
      ASSERT_TRUE(decoder.ok()) << "failed at byte " << i;
      EXPECT_EQ(decoder.buffered(), i + 1);
    } else {
      ASSERT_FALSE(decoder.ok()) << "still decoding at byte " << i;
      EXPECT_EQ(decoder.error_code(), DecodeError::UnknownOp);
      EXPECT_EQ(decoder.buffered(), 0u) << "byte " << i;
    }
  }
  WireEvent ev;
  EXPECT_FALSE(decoder.next(ev));
  EXPECT_EQ(decoder.frames(), 0u);
}

TEST(WireCodec, MalformedV1BodiesAreTypedRejections) {
  using rtw::svc::DecodeError;
  const auto expect_malformed = [](std::string frame, const char* what) {
    Decoder decoder;
    decoder.push(frame);
    EXPECT_FALSE(decoder.ok()) << what;
    EXPECT_EQ(decoder.error_code(), DecodeError::MalformedBody) << what;
  };
  // Hello with an inverted range.
  expect_malformed(raw_frame(7, std::string("\x02\x01", 2)),
                   "hello min > max");
  // Hello with the wrong body size.
  expect_malformed(raw_frame(7, std::string("\x01", 1)), "hello short");
  // Verdict body truncated to 5 of 19 bytes.
  expect_malformed(raw_frame(9, std::string(5, '\0')), "verdict short");
  // Verdict byte outside core::Verdict.
  {
    std::string body(19, '\0');
    body[0] = 7;
    expect_malformed(raw_frame(9, body), "verdict enum");
  }
  // ShedNotice admit byte outside Admit.
  {
    std::string body(10, '\0');
    body[0] = 7;
    expect_malformed(raw_frame(10, body), "shed admit enum");
  }
  // ShedNotice reason byte outside ShedReason.
  {
    std::string body(10, '\0');
    body[1] = 9;
    expect_malformed(raw_frame(10, body), "shed reason enum");
  }
  // Typed names for the error enum itself (UI/log surface).
  std::set<std::string> names;
  for (const auto e :
       {DecodeError::None, DecodeError::ShortFrame, DecodeError::Oversized,
        DecodeError::UnknownOp, DecodeError::MalformedBody}) {
    const auto name = rtw::svc::to_string(e);
    EXPECT_FALSE(name.empty());
    names.insert(name);
  }
  EXPECT_EQ(names.size(), 5u);
}

TEST(WireCodec, SubmitQueryRoundTrips) {
  const std::string query = "within(4){ a ; (b | c)+ }";
  const std::string frame = rtw::svc::encode_submit_query(42, query);
  Decoder decoder;
  decoder.push(frame);
  ASSERT_TRUE(decoder.ok()) << decoder.error();
  WireEvent ev;
  ASSERT_TRUE(decoder.next(ev));
  EXPECT_EQ(ev.kind, WireEvent::Kind::SubmitQuery);
  EXPECT_EQ(ev.session, 42u);
  EXPECT_EQ(ev.profile, query);
  EXPECT_EQ(decoder.frames(), 1u);

  // Byte-at-a-time chunking decodes to the same single event.
  Decoder slow;
  for (char c : frame) slow.push(std::string_view(&c, 1));
  ASSERT_TRUE(slow.ok()) << slow.error();
  ASSERT_TRUE(slow.next(ev));
  EXPECT_EQ(ev.kind, WireEvent::Kind::SubmitQuery);
  EXPECT_EQ(ev.profile, query);
}

TEST(WireCodec, MalformedSubmitQueryIsAStickyTypedRejection) {
  using rtw::svc::DecodeError;
  for (const char* bad : {"", "a ;", "within(){x}", "(a", "qq"}) {
    Decoder decoder;
    decoder.push(rtw::svc::encode_submit_query(5, bad));
    EXPECT_FALSE(decoder.ok()) << '"' << bad << '"';
    EXPECT_EQ(decoder.error_code(), DecodeError::MalformedBody)
        << '"' << bad << '"';
    EXPECT_NE(decoder.error().find("malformed query"), std::string::npos);
    // Sticky: a later well-formed frame must not resurrect the stream.
    decoder.push(rtw::svc::encode_submit_query(6, "a | b"));
    WireEvent ev;
    EXPECT_FALSE(decoder.next(ev));
  }
}

TEST(AdmitApi, ToStringIsExhaustive) {
  using rtw::svc::AdmitResult;
  using rtw::svc::ShedReason;
  std::set<std::string> names;
  for (const auto a : {Admit::Accepted, Admit::Shed, Admit::Blocked}) {
    const auto name = rtw::svc::to_string(a);
    EXPECT_FALSE(name.empty());
    names.insert(name);
  }
  EXPECT_EQ(names.size(), 3u);
  names.clear();
  for (const auto r : {ShedReason::None, ShedReason::RingFull,
                       ShedReason::SessionBound, ShedReason::Priority}) {
    const auto name = rtw::svc::to_string(r);
    EXPECT_FALSE(name.empty());
    names.insert(name);
  }
  EXPECT_EQ(names.size(), 4u);
  // The structured form prints outcome and reason together.
  const auto both = rtw::svc::to_string(
      AdmitResult{Admit::Shed, ShedReason::RingFull});
  EXPECT_NE(both.find(rtw::svc::to_string(Admit::Shed)), std::string::npos);
  EXPECT_NE(both.find(rtw::svc::to_string(ShedReason::RingFull)),
            std::string::npos);
}

TEST(AdmitApi, AdmitResultConvertsLikeTheOldEnum) {
  using rtw::svc::AdmitResult;
  using rtw::svc::ShedReason;
  constexpr AdmitResult ok{};
  static_assert(ok.accepted());
  static_assert(ok == Admit::Accepted);
  constexpr AdmitResult shed{Admit::Shed, ShedReason::SessionBound};
  static_assert(!shed.accepted());
  static_assert(shed == Admit::Shed);
  EXPECT_EQ(shed.reason, ShedReason::SessionBound);
}

// ================================== 2. online/batch equivalence machinery

/// The engine delivers exactly the symbols timestamped within the horizon;
/// a finite word it exhausts ends the stream (EndOfWord), anything else is
/// a truncation at the horizon.
struct StreamPrefix {
  std::vector<TimedSymbol> symbols;
  StreamEnd end = StreamEnd::Truncated;
};

StreamPrefix stream_prefix(const TimedWord& word, Tick horizon,
                           std::uint64_t cap = 200000) {
  StreamPrefix out;
  auto cursor = word.cursor();
  for (std::uint64_t i = 0; i < cap; ++i) {
    if (cursor.done()) {
      out.end = StreamEnd::EndOfWord;
      return out;
    }
    const auto ts = cursor.current();
    if (ts.time > horizon) return out;
    out.symbols.push_back(ts);
    cursor.advance();
  }
  ADD_FAILURE() << "stream_prefix cap hit (horizon too large for the test)";
  return out;
}

std::string render(const RunResult& r) {
  std::ostringstream out;
  out << "accepted=" << r.accepted << " exact=" << r.exact
      << " ticks=" << r.ticks << " f_count=" << r.f_count << " first_f="
      << (r.first_f ? std::to_string(*r.first_f) : std::string("-"))
      << " consumed=" << r.symbols_consumed;
  return out.str();
}

/// Runs `batch_algorithm` through the engine and the online acceptor over
/// the same word; returns a violation message on any field mismatch.
std::optional<std::string> equivalence_violation(
    RealTimeAlgorithm& batch_algorithm,
    std::unique_ptr<OnlineAcceptor> online, const TimedWord& word,
    const RunOptions& options) {
  const auto batch = rtw::engine::run(batch_algorithm, word, options).result;
  const auto prefix = stream_prefix(word, options.horizon);
  for (const auto& ts : prefix.symbols) online->feed(ts);
  const auto verdict = online->finish(prefix.end);
  const auto& r = online->result();
  const bool online_accepted = verdict == Verdict::Accepting;
  if (batch.accepted != r.accepted || batch.exact != r.exact ||
      batch.ticks != r.ticks || batch.f_count != r.f_count ||
      batch.first_f != r.first_f ||
      batch.symbols_consumed != r.symbols_consumed ||
      online_accepted != batch.accepted) {
    return "batch{" + render(batch) + "} != online{" + render(r) +
           " verdict=" + rtw::core::to_string(verdict) + "}";
  }
  return std::nullopt;
}

TEST(OnlineAcceptor, MatchesEngineOnTrivialAlgorithms) {
  const auto word = TimedWord::finite(
      {{Symbol::chr('a'), 0}, {Symbol::chr('b'), 3}, {Symbol::chr('c'), 9}});
  RunOptions options;
  options.horizon = 32;
  {
    AcceptAll batch;
    auto online = std::make_unique<EngineOnlineAcceptor>(
        std::make_unique<AcceptAll>(), options);
    EXPECT_EQ(equivalence_violation(batch, std::move(online), word, options),
              std::nullopt);
  }
  {
    RejectAll batch;
    auto online = std::make_unique<EngineOnlineAcceptor>(
        std::make_unique<RejectAll>(), options);
    EXPECT_EQ(equivalence_violation(batch, std::move(online), word, options),
              std::nullopt);
  }
}

TEST(OnlineAcceptor, VerdictLatchesAndFeedsBecomeNoops) {
  auto online = std::make_unique<EngineOnlineAcceptor>(
      std::make_unique<AcceptAll>(), RunOptions{});
  // AcceptAll locks at tick 0, which becomes emulable at the first feed
  // with a later timestamp.
  EXPECT_EQ(online->feed(Symbol::chr('a'), 0), Verdict::Undetermined);
  EXPECT_EQ(online->feed(Symbol::chr('b'), 5), Verdict::Accepting);
  EXPECT_TRUE(final_verdict(online->verdict()));
  // Latching: more feeds and even a Rejecting-flavored finish are no-ops.
  EXPECT_EQ(online->feed(Symbol::chr('c'), 7), Verdict::Accepting);
  EXPECT_EQ(online->finish(StreamEnd::Truncated), Verdict::Accepting);
  EXPECT_TRUE(online->result().exact);
}

/// Never commits to a lock state: keeps the acceptor live so interface
/// guarantees (like the monotonicity check) stay observable.
class NeverLock final : public RealTimeAlgorithm {
public:
  void on_tick(const StepContext&) override {}
  std::optional<bool> locked() const override { return std::nullopt; }
  void reset() override {}
  std::string name() const override { return "never-lock"; }
};

TEST(OnlineAcceptor, RejectsTimeGoingBackwards) {
  EngineOnlineAcceptor online(std::make_unique<NeverLock>());
  online.feed(Symbol::chr('a'), 10);
  EXPECT_THROW(online.feed(Symbol::chr('b'), 9), ModelError);
}

TEST(OnlineAcceptor, ResetAllowsReuse) {
  RunOptions options;
  options.horizon = 64;
  EngineOnlineAcceptor online(std::make_unique<AcceptAll>(), options);
  online.feed(Symbol::chr('a'), 1);
  online.finish(StreamEnd::EndOfWord);
  const auto first = online.result();
  online.reset();
  EXPECT_EQ(online.verdict(), Verdict::Undetermined);
  online.feed(Symbol::chr('a'), 1);
  online.finish(StreamEnd::EndOfWord);
  EXPECT_EQ(online.result().accepted, first.accepted);
  EXPECT_EQ(online.result().ticks, first.ticks);
}

TEST(OnlineAcceptor, FinishFlavorsMatchTheEngineOnGappyWords) {
  // A finite word with a symbol beyond the horizon: the engine stops at
  // the idle gap instead of walking to the horizon, so Truncated is the
  // faithful finish; EndOfWord must equal the engine run on the in-range
  // prefix as its own complete word.
  const auto word = TimedWord::finite(
      {{Symbol::chr('a'), 2}, {Symbol::chr('b'), 500}});
  RunOptions options;
  options.horizon = 100;
  RejectAll batch;
  auto online = std::make_unique<EngineOnlineAcceptor>(
      std::make_unique<RejectAll>(), options);
  EXPECT_EQ(equivalence_violation(batch, std::move(online), word, options),
            std::nullopt);
}

// =========================== 3. the tri-workload equivalence property

using rtw::deadline::DeadlineInstance;
using rtw::deadline::Usefulness;

/// One generated workload case, separated from how it is checked: the
/// equivalence property runs batch-vs-online over it, the batched-ingress
/// property streams it through two SessionManagers.
struct GeneratedCase {
  std::unique_ptr<RealTimeAlgorithm> batch;
  std::function<std::unique_ptr<OnlineAcceptor>()> make_online;
  TimedWord word = TimedWord::finite({});
  RunOptions options;
  std::shared_ptr<const void> hold;  ///< keeps the batch acceptor's deps alive
};

std::optional<std::string> check_equivalence(GeneratedCase c) {
  return equivalence_violation(*c.batch, c.make_online(), c.word, c.options);
}

GeneratedCase deadline_gen(rtw::sim::Xoshiro256ss& rng, std::size_t size) {
  DeadlineInstance inst;
  const auto in_len = 1 + rng.uniform(std::uint64_t{1 + size / 4});
  for (std::uint64_t i = 0; i < in_len; ++i)
    inst.input.push_back(Symbol::nat(rng.uniform(std::uint64_t{9})));

  std::shared_ptr<const rtw::deadline::Problem> problem;
  if (rng.bernoulli(0.5))
    problem = std::make_shared<rtw::deadline::SortProblem>();
  else
    problem = std::make_shared<rtw::deadline::FixedCostProblem>(
        1 + rng.uniform(std::uint64_t{30}));

  if (rng.bernoulli(0.7)) {
    inst.proposed_output = problem->solve(inst.input);
  } else {
    const auto out_len = 1 + rng.uniform(std::uint64_t{4});
    for (std::uint64_t i = 0; i < out_len; ++i)
      inst.proposed_output.push_back(Symbol::nat(rng.uniform(std::uint64_t{9})));
  }
  if (rng.bernoulli(0.6)) {
    inst.usefulness = Usefulness::firm(3 + rng.uniform(std::uint64_t{40}), 10);
    inst.min_acceptable = rng.uniform(std::uint64_t{10});
  } else {
    inst.usefulness = Usefulness::none(10);
  }

  GeneratedCase c;
  c.options.horizon = 120 + rng.uniform(std::uint64_t{200});
  c.options.fast_forward = rng.bernoulli(0.8);
  c.word = rtw::deadline::build_deadline_word(inst);
  c.batch = std::make_unique<rtw::deadline::DeadlineAcceptor>(*problem);
  c.hold = problem;
  const auto options = c.options;
  c.make_online = [problem, options] {
    return rtw::deadline::make_online_acceptor(problem, options);
  };
  return c;
}

std::optional<std::string> deadline_case(rtw::sim::Xoshiro256ss& rng,
                                         std::size_t size) {
  return check_equivalence(deadline_gen(rng, size));
}

rtw::rtdb::QueryCatalog image_catalog() {
  rtw::rtdb::QueryCatalog catalog;
  catalog.add(rtw::rtdb::Query("all-images", [](const rtw::rtdb::Database& db) {
    return rtw::rtdb::project(
        rtw::rtdb::select_eq(db.get("Objects"), "Kind",
                             rtw::rtdb::Value{std::string("image")}),
        {"Name"});
  }));
  return catalog;
}

GeneratedCase rtdb_gen(rtw::sim::Xoshiro256ss& rng, std::size_t size) {
  using namespace rtw::rtdb;
  RtdbWordSpec spec;
  spec.invariants = {{"site", Value{std::string("plant")}}};
  const auto images = 1 + rng.uniform(std::uint64_t{1 + size / 12});
  for (std::uint64_t i = 0; i < images; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    spec.images.push_back({std::move(name), 2 + rng.uniform(std::uint64_t{4}),
                           [i](Tick t) {
                             return Value{static_cast<std::int64_t>(
                                 10 * i + t % 5)};
                           }});
  }

  const bool correct = rng.bernoulli(0.6);
  const Tuple candidate = {
      Value{std::string(correct ? "s0" : "nope")}};
  TimedWord word = TimedWord::finite({});
  if (rng.bernoulli(0.7)) {
    AperiodicQuerySpec q;
    q.query = "all-images";
    q.candidate = candidate;
    q.issue_time = 5 + rng.uniform(std::uint64_t{30});
    if (rng.bernoulli(0.7)) {
      q.usefulness = Usefulness::firm(2 + rng.uniform(std::uint64_t{30}), 10);
      q.min_acceptable = 1;
    } else {
      q.usefulness = Usefulness::none(10);
    }
    word = rtw::core::concat(build_dbB(spec), build_aq(q));
  } else {
    PeriodicQuerySpec p;
    p.query = "all-images";
    p.candidate = [candidate](std::uint64_t) { return candidate; };
    p.issue_time = 5 + rng.uniform(std::uint64_t{20});
    p.period = 24 + rng.uniform(std::uint64_t{24});
    p.usefulness = Usefulness::firm(4 + rng.uniform(std::uint64_t{16}), 10);
    p.min_acceptable = 1;
    word = rtw::core::concat(build_dbB(spec), build_pq(p));
  }

  GeneratedCase c;
  c.options.horizon = 150 + rng.uniform(std::uint64_t{250});
  c.options.fast_forward = rng.bernoulli(0.8);
  c.word = std::move(word);
  const Tick patience = 64;
  c.batch = std::make_unique<RecognitionAcceptor>(image_catalog(),
                                                  linear_cost(), patience);
  const auto options = c.options;
  c.make_online = [options, patience] {
    return make_online_recognition(image_catalog(), linear_cost(), patience,
                                   options);
  };
  return c;
}

std::optional<std::string> rtdb_case(rtw::sim::Xoshiro256ss& rng,
                                     std::size_t size) {
  return check_equivalence(rtdb_gen(rng, size));
}

GeneratedCase adhoc_gen(rtw::sim::Xoshiro256ss& rng, std::size_t size) {
  using namespace rtw::adhoc;
  const auto n = static_cast<NodeId>(3 + rng.uniform(std::uint64_t{1 + size / 8}));
  std::vector<std::unique_ptr<Mobility>> nodes;
  for (NodeId i = 0; i < n; ++i)
    nodes.push_back(std::make_unique<Stationary>(Vec2{10.0 * i, 0.0}));
  auto net = std::make_shared<const Network>(std::move(nodes), 12.0);

  RouteTrace trace;
  trace.source = 0;
  trace.destination = n - 1;
  trace.body = 100 + rng.uniform(std::uint64_t{900});
  trace.originated_at = 2 + rng.uniform(std::uint64_t{10});
  Tick t = trace.originated_at;
  for (NodeId i = 0; i + 1 < n; ++i) {
    trace.hops.push_back({t, t + 1, i, i + 1, trace.body});
    t += 1;
  }
  trace.delivered = true;

  switch (rng.uniform(std::uint64_t{4})) {
    case 0:
      break;  // valid chain
    case 1:  // foreign body mid-chain: the witness chain breaks
      trace.hops[trace.hops.size() / 2].body = trace.body + 1;
      break;
    case 2:  // teleport: d_i != s_{i+1}
      if (trace.hops.size() >= 2) trace.hops.erase(trace.hops.begin() + 1);
      break;
    default:  // undelivered: drop the final hop
      trace.hops.pop_back();
      trace.delivered = false;
      break;
  }

  RouteQuery query{0, static_cast<NodeId>(n - 1), trace.body,
                   trace.originated_at};
  GeneratedCase c;
  c.word = route_instance_word(trace, *net);
  c.options.horizon = 60 + rng.uniform(std::uint64_t{80});
  c.options.fast_forward = rng.bernoulli(0.8);
  c.batch = std::make_unique<RouteWordAcceptor>(*net, query);
  c.hold = net;
  const auto options = c.options;
  c.make_online = [net, query, options] {
    return make_online_route_acceptor(net, query, options);
  };
  return c;
}

std::optional<std::string> adhoc_case(rtw::sim::Xoshiro256ss& rng,
                                      std::size_t size) {
  return check_equivalence(adhoc_gen(rng, size));
}

TEST(OnlineBatchEquivalence, FiveHundredSeededCasesAcrossThreeWorkloads) {
  rtw::proptest::Config cfg;
  cfg.seed = 0x73766331ULL;  // "svc1"
  cfg.cases = 500;
  cfg.max_size = 24;
  const auto result = rtw::proptest::run_property(
      "svc.online_batch_equivalence", cfg,
      [](rtw::sim::Xoshiro256ss& rng, std::size_t size)
          -> std::optional<std::string> {
        switch (rng.uniform(std::uint64_t{3})) {
          case 0:
            return deadline_case(rng, size);
          case 1:
            return rtdb_case(rng, size);
          default:
            return adhoc_case(rng, size);
        }
      });
  EXPECT_TRUE(result.ok()) << rtw::proptest::describe(
      "svc.online_batch_equivalence", cfg, *result.failure);
}

/// Batched ingress must be invisible to verdicts: the same stream admitted
/// as random-length feed_batch runs and admitted symbol-by-symbol, through
/// managers at 1 and 2 shards, must produce field-identical reports on the
/// tri-workload mix.  Managers are shared across the 500 cases (one
/// session each) so the property stays cheap.
TEST(OnlineBatchEquivalence, BatchedIngressIsVerdictIdenticalToPerSymbol) {
  ShardConfig shard;
  IngressConfig ingress;
  ingress.ring_capacity = 1 << 13;  // the workload never sheds
  shard.count = 1;
  SessionManager single_1(shard, ingress), batched_1(shard, ingress);
  shard.count = 2;
  SessionManager single_2(shard, ingress), batched_2(shard, ingress);

  rtw::proptest::Config cfg;
  cfg.seed = 0x62617463ULL;  // "batc"
  cfg.cases = 500;
  cfg.max_size = 24;
  const auto result = rtw::proptest::run_property(
      "svc.batched_ingress_equivalence", cfg,
      [&](rtw::sim::Xoshiro256ss& rng,
          std::size_t size) -> std::optional<std::string> {
        GeneratedCase c;
        switch (rng.uniform(std::uint64_t{3})) {
          case 0: c = deadline_gen(rng, size); break;
          case 1: c = rtdb_gen(rng, size); break;
          default: c = adhoc_gen(rng, size); break;
        }
        const auto prefix = stream_prefix(c.word, c.options.horizon);
        const bool two_shards = rng.bernoulli(0.5);
        SessionManager& per = two_shards ? single_2 : single_1;
        SessionManager& bat = two_shards ? batched_2 : batched_1;
        const auto id_per = per.open(c.make_online());
        const auto id_bat = bat.open(c.make_online());

        for (const auto& ts : prefix.symbols)
          if (per.feed(id_per, ts.sym, ts.time) != Admit::Accepted)
            return "per-symbol feed not accepted";
        std::size_t off = 0;
        while (off < prefix.symbols.size()) {
          const std::size_t len =
              std::min<std::size_t>(prefix.symbols.size() - off,
                                    1 + rng.uniform(std::uint64_t{16}));
          if (bat.feed_batch(id_bat,
                             {prefix.symbols.begin() + off,
                              prefix.symbols.begin() + off + len}) !=
              Admit::Accepted)
            return "batched feed not accepted";
          off += len;
        }

        per.close(id_per, prefix.end);
        bat.close(id_bat, prefix.end);
        per.drain();
        bat.drain();
        const auto r_per = per.collect();
        const auto r_bat = bat.collect();
        if (r_per.size() != 1 || r_bat.size() != 1)
          return "expected exactly one report per manager";
        const auto& a = r_per[0];
        const auto& b = r_bat[0];
        if (a.verdict != b.verdict || a.fed != b.fed ||
            a.stale_dropped != b.stale_dropped ||
            a.result.accepted != b.result.accepted ||
            a.result.exact != b.result.exact ||
            a.result.ticks != b.result.ticks ||
            a.result.f_count != b.result.f_count ||
            a.result.first_f != b.result.first_f ||
            a.result.symbols_consumed != b.result.symbols_consumed) {
          return "per-symbol{" + render(a.result) +
                 " verdict=" + rtw::core::to_string(a.verdict) +
                 "} != batched{" + render(b.result) +
                 " verdict=" + rtw::core::to_string(b.verdict) + "}";
        }
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok()) << rtw::proptest::describe(
      "svc.batched_ingress_equivalence", cfg, *result.failure);
}

// ========================================= 4. Session / SessionManager

TEST(Session, DropsStaleSymbolsInsteadOfThrowing) {
  rtw::svc::Session session(
      1, std::make_unique<EngineOnlineAcceptor>(std::make_unique<RejectAll>()));
  session.feed(Symbol::chr('a'), 5);
  session.feed(Symbol::chr('b'), 3);  // reordered by the wire: stale
  session.feed(Symbol::chr('c'), 5);  // equal time is legal
  EXPECT_EQ(session.fed(), 2u);
  EXPECT_EQ(session.stale_dropped(), 1u);
  session.finish(StreamEnd::Truncated);
  const auto report = session.report(false);
  EXPECT_EQ(report.verdict, Verdict::Rejecting);
  EXPECT_EQ(report.stale_dropped, 1u);
}

/// Settles (Rejecting) once it has been fed `k` elements; 0 settles it
/// before any.
class LockingAcceptor final : public OnlineAcceptor {
public:
  explicit LockingAcceptor(std::uint64_t k) : k_(k) { reset(); }
  Verdict feed(Symbol, Tick) override {
    if (final_verdict(verdict_)) return verdict_;
    if (++seen >= k_) verdict_ = Verdict::Rejecting;
    return verdict_;
  }
  Verdict finish(StreamEnd) override { return verdict_; }
  Verdict verdict() const override { return verdict_; }
  const RunResult& result() const override { return result_; }
  void reset() override {
    seen = 0;
    verdict_ = k_ == 0 ? Verdict::Rejecting : Verdict::Undetermined;
  }
  std::string name() const override { return "locking"; }

  std::uint64_t seen = 0;  ///< elements fed before the lock

private:
  std::uint64_t k_;
  Verdict verdict_ = Verdict::Undetermined;
  RunResult result_;
};

/// A session whose acceptor settles before a body, inside it or past it
/// reads the rest of the body's clocks only (feed_packed's times-only
/// pass), and ends exactly where feed_run over the decoded runs ends: the
/// same fed(), stale_dropped() and filter high-water mark.  Each case
/// feeds a prefix body, then the frame's body.  The bodies hold stale
/// prefixes, times that decrease mod 2^64, multi-byte first dts,
/// non-empty markers and Nats of 128 or more.
TEST(Session, SettledSessionsReadOnlyTheClocksOfAPackedBody) {
  rtw::proptest::Config cfg;
  cfg.seed ^= 0x5e771edULL;
  cfg.cases = 400;
  cfg.max_size = 48;
  struct {
    std::uint64_t before = 0, inside = 0, past = 0;  // where k fell
    std::uint64_t stale_after_settling = 0, wrapped = 0, wide_first_dt = 0,
                  named_markers = 0, wide_nats = 0;
  } seen;
  const auto random_body = [](rtw::sim::Xoshiro256ss& rng, std::size_t size) {
    return rng.bernoulli(0.5) ? random_feed_elements(rng, size)
                              : random_stride_elements(rng, size);
  };
  const auto result = rtw::proptest::run_property(
      "svc.settled_sessions_read_clocks", cfg,
      [&](rtw::sim::Xoshiro256ss& rng,
          std::size_t size) -> std::optional<std::string> {
        auto prefix = random_body(rng, size);
        const auto body = random_body(rng, size);
        // Lift the prefix above part of the body, so the body opens stale.
        if (!body.empty() && rng.bernoulli(0.5)) {
          const Tick lift = body[rng.uniform(body.size())].time;
          for (auto& e : prefix) e.time += lift;
        }
        for (std::size_t i = 0; i < body.size(); ++i) {
          seen.wrapped += i > 0 && body[i].time < body[i - 1].time;
          seen.named_markers += body[i].sym.is_marker() &&
                                !body[i].sym.name().empty();
          seen.wide_nats += body[i].sym.is_nat() && body[i].sym.as_nat() >= 128;
        }
        seen.wide_first_dt += !body.empty() && body[0].time >= 128;
        const std::uint64_t k =
            rng.uniform(std::uint64_t{prefix.size() + body.size() + 3});

        auto by_packed = std::make_unique<LockingAcceptor>(k);
        auto by_run = std::make_unique<LockingAcceptor>(k);
        const LockingAcceptor& packed_fed = *by_packed;
        const LockingAcceptor& run_fed = *by_run;
        rtw::svc::Session packed(1, std::move(by_packed));
        rtw::svc::Session run(2, std::move(by_run));
        const std::string prefix_frame = rtw::svc::encode_feed_batch(9, prefix);
        const std::string body_frame = rtw::svc::encode_feed_batch(9, body);
        packed.feed_packed(std::string_view(prefix_frame).substr(13));
        run.feed_run(prefix.data(), prefix.size());
        const bool settled_before = final_verdict(run.verdict());
        const std::uint64_t stale_before = run.stale_dropped();
        packed.feed_packed(std::string_view(body_frame).substr(13));
        run.feed_run(body.data(), body.size());

        if (packed.fed() != run.fed() ||
            packed.stale_dropped() != run.stale_dropped() ||
            packed.lane_filter().high_water != run.lane_filter().high_water ||
            packed.lane_filter().any != run.lane_filter().any)
          return "feed_packed's filter differs from feed_run's: fed " +
                 std::to_string(packed.fed()) + "/" + std::to_string(run.fed()) +
                 " stale " + std::to_string(packed.stale_dropped()) + "/" +
                 std::to_string(run.stale_dropped());
        if (packed.verdict() != run.verdict() || packed_fed.seen != run_fed.seen)
          return std::string("feed_packed fed the acceptor differently");
        if (settled_before) {
          ++seen.before;
          seen.stale_after_settling += run.stale_dropped() > stale_before;
        } else {
          ++(final_verdict(run.verdict()) ? seen.inside : seen.past);
        }
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok()) << rtw::proptest::describe(
      "svc.settled_sessions_read_clocks", cfg, *result.failure);
  EXPECT_GT(seen.before, 0u);
  EXPECT_GT(seen.inside, 0u);
  EXPECT_GT(seen.past, 0u);
  EXPECT_GT(seen.stale_after_settling, 0u);
  EXPECT_GT(seen.wrapped, 0u);
  EXPECT_GT(seen.wide_first_dt, 0u);
  EXPECT_GT(seen.named_markers, 0u);
  EXPECT_GT(seen.wide_nats, 0u);
}

TEST(SessionManager, BasicLifecycle) {
  SessionManager manager;
  const auto accept_id =
      manager.open(std::make_unique<EngineOnlineAcceptor>(
          std::make_unique<AcceptAll>()));
  const auto reject_id =
      manager.open(std::make_unique<EngineOnlineAcceptor>(
          std::make_unique<RejectAll>()));
  for (Tick t = 0; t < 4; ++t) {
    EXPECT_EQ(manager.feed(accept_id, Symbol::chr('a'), t), Admit::Accepted);
    EXPECT_EQ(manager.feed(reject_id, Symbol::chr('a'), t), Admit::Accepted);
  }
  manager.close(accept_id, StreamEnd::Truncated);
  manager.close(reject_id, StreamEnd::Truncated);
  manager.drain();
  auto reports = manager.collect();
  ASSERT_EQ(reports.size(), 2u);
  std::map<SessionId, SessionReport> by_id;
  for (auto& r : reports) by_id[r.id] = r;
  EXPECT_EQ(by_id[accept_id].verdict, Verdict::Accepting);
  EXPECT_EQ(by_id[reject_id].verdict, Verdict::Rejecting);
  EXPECT_EQ(by_id[accept_id].fed, 4u);
  const auto stats = manager.stats();
  EXPECT_EQ(stats.opened, 2u);
  EXPECT_EQ(stats.closed, 2u);
  EXPECT_EQ(stats.ingested, 8u);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_GT(stats.epochs, 0u);
}

TEST(SessionManager, UnknownSessionsAreCountedNotFatal) {
  SessionManager manager;
  EXPECT_EQ(manager.feed(42, Symbol::chr('a'), 0), Admit::Accepted);
  manager.close(42);
  manager.drain();
  EXPECT_EQ(manager.stats().unknown, 2u);
  EXPECT_TRUE(manager.collect().empty());
}

/// An acceptor whose feed() blocks until the test releases it: pins the
/// shard worker so ring occupancy becomes deterministic.
class GateAcceptor final : public OnlineAcceptor {
public:
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
    bool entered = false;

    void release() {
      std::lock_guard lock(mutex);
      open = true;
      cv.notify_all();
    }
    void await_entry() {
      std::unique_lock lock(mutex);
      cv.wait(lock, [this] { return entered; });
    }
  };

  explicit GateAcceptor(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}

  Verdict feed(Symbol, Tick) override {
    std::unique_lock lock(gate_->mutex);
    gate_->entered = true;
    gate_->cv.notify_all();
    gate_->cv.wait(lock, [this] { return gate_->open; });
    return Verdict::Undetermined;
  }
  Verdict finish(StreamEnd) override { return Verdict::Rejecting; }
  Verdict verdict() const override { return Verdict::Undetermined; }
  const RunResult& result() const override { return result_; }
  void reset() override {}
  std::string name() const override { return "gate"; }

private:
  std::shared_ptr<Gate> gate_;
  RunResult result_;
};

TEST(SessionManager, FullRingShedsWhenConfigured) {
  ShardConfig shard;
  shard.count = 1;
  IngressConfig ingress;
  ingress.ring_capacity = 2;
  ingress.shed_on_full = true;
  SessionManager manager(shard, ingress);
  auto gate = std::make_shared<GateAcceptor::Gate>();
  const auto id = manager.open(std::make_unique<GateAcceptor>(gate));
  manager.drain();  // the Open is processed; the worker parks

  EXPECT_EQ(manager.feed(id, Symbol::chr('a'), 0), Admit::Accepted);
  gate->await_entry();  // worker now blocked inside feed; ring is empty
  EXPECT_EQ(manager.feed(id, Symbol::chr('b'), 1), Admit::Accepted);
  EXPECT_EQ(manager.feed(id, Symbol::chr('c'), 2), Admit::Accepted);
  EXPECT_EQ(manager.feed(id, Symbol::chr('d'), 3), Admit::Shed);

  gate->release();
  manager.drain();
  const auto stats = manager.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.shed_ring_full, 1u);  // a physically full ring, by reason
  EXPECT_EQ(stats.shed_priority, 0u);
  EXPECT_EQ(stats.ingested, 3u);
}

TEST(SessionManager, FullRingBlocksWhenShedDisabled) {
  ShardConfig shard;
  shard.count = 1;
  IngressConfig ingress;
  ingress.ring_capacity = 1;
  ingress.shed_on_full = false;
  SessionManager manager(shard, ingress);
  auto gate = std::make_shared<GateAcceptor::Gate>();
  const auto id = manager.open(std::make_unique<GateAcceptor>(gate));
  manager.drain();

  EXPECT_EQ(manager.feed(id, Symbol::chr('a'), 0), Admit::Accepted);
  gate->await_entry();
  EXPECT_EQ(manager.feed(id, Symbol::chr('b'), 1), Admit::Accepted);
  EXPECT_EQ(manager.feed(id, Symbol::chr('c'), 2), Admit::Blocked);
  gate->release();
  manager.drain();
  // After release the ring has space again: the caller's retry succeeds.
  EXPECT_EQ(manager.feed(id, Symbol::chr('c'), 2), Admit::Accepted);
  gate->release();
  manager.drain();
  EXPECT_EQ(manager.stats().blocked, 1u);
}

/// Adaptive admission: with the worker pinned, ring depth is exact, so
/// each feed's admission verdict is a deterministic function of priority
/// and occupancy.  Ring of 8 slots: Low sheds at depth >= 4, Normal at
/// depth >= 7, High only when the data plane is physically full.
TEST(SessionManager, WatermarksShedByPriorityUnderLoad) {
  ShardConfig shard;
  shard.count = 1;
  IngressConfig ingress;
  ingress.ring_capacity = 8;
  ingress.shed_on_full = true;
  SessionManager manager(shard, ingress);
  auto gate = std::make_shared<GateAcceptor::Gate>();
  const auto pinned =
      manager.open(std::make_unique<GateAcceptor>(gate), Priority::High);
  const auto low = manager.open(
      std::make_unique<EngineOnlineAcceptor>(std::make_unique<AcceptAll>()),
      Priority::Low);
  const auto normal = manager.open(
      std::make_unique<EngineOnlineAcceptor>(std::make_unique<AcceptAll>()));
  const auto high = manager.open(
      std::make_unique<EngineOnlineAcceptor>(std::make_unique<AcceptAll>()),
      Priority::High);
  manager.drain();

  ASSERT_EQ(manager.feed(pinned, Symbol::chr('a'), 0), Admit::Accepted);
  gate->await_entry();  // worker blocked inside feed; ring drained to empty

  for (Tick t = 0; t < 4; ++t)
    ASSERT_EQ(manager.feed(high, Symbol::chr('h'), t), Admit::Accepted);
  // Depth 4 = the low watermark: Low data sheds, Normal still lands.
  EXPECT_EQ(manager.feed(low, Symbol::chr('l'), 9), Admit::Shed);
  for (Tick t = 4; t < 7; ++t)
    ASSERT_EQ(manager.feed(normal, Symbol::chr('n'), t), Admit::Accepted);
  // Depth 7 = the high watermark: Normal sheds, High still lands.
  EXPECT_EQ(manager.feed(normal, Symbol::chr('n'), 9), Admit::Shed);
  ASSERT_EQ(manager.feed(high, Symbol::chr('h'), 9), Admit::Accepted);
  // Depth 8 = ring_capacity: everything sheds, and it counts as ring_full.
  EXPECT_EQ(manager.feed(high, Symbol::chr('h'), 10), Admit::Shed);

  gate->release();
  manager.drain();
  const auto stats = manager.stats();
  EXPECT_EQ(stats.shed, 3u);
  EXPECT_EQ(stats.shed_priority, 2u);
  EXPECT_EQ(stats.shed_ring_full, 1u);
  EXPECT_EQ(stats.shed_session_bound, 0u);
  EXPECT_EQ(stats.ingested, 9u);
}

TEST(SessionManager, SessionQuotaShedsWithSessionBound) {
  ShardConfig shard;
  shard.count = 1;
  IngressConfig ingress;
  ingress.ring_capacity = 64;
  ingress.session_quota = 2;
  ingress.shed_on_full = true;
  SessionManager manager(shard, ingress);
  auto gate = std::make_shared<GateAcceptor::Gate>();
  const auto pinned = manager.open(std::make_unique<GateAcceptor>(gate));
  const auto greedy = manager.open(
      std::make_unique<EngineOnlineAcceptor>(std::make_unique<AcceptAll>()));
  const auto other = manager.open(
      std::make_unique<EngineOnlineAcceptor>(std::make_unique<AcceptAll>()));
  manager.drain();

  ASSERT_EQ(manager.feed(pinned, Symbol::chr('a'), 0), Admit::Accepted);
  gate->await_entry();
  // The hot session exhausts its in-flight quota...
  ASSERT_EQ(manager.feed(greedy, Symbol::chr('g'), 0), Admit::Accepted);
  ASSERT_EQ(manager.feed(greedy, Symbol::chr('g'), 1), Admit::Accepted);
  EXPECT_EQ(manager.feed(greedy, Symbol::chr('g'), 2), Admit::Shed);
  // ...without starving anyone else, and a batch that would overshoot the
  // quota sheds whole (admission never tears a run).
  EXPECT_EQ(manager.feed(other, Symbol::chr('o'), 0), Admit::Accepted);
  EXPECT_EQ(manager.feed_batch(other, {{Symbol::chr('o'), 1},
                                       {Symbol::chr('o'), 2}}),
            Admit::Shed);

  gate->release();
  manager.drain();
  const auto stats = manager.stats();
  EXPECT_EQ(stats.shed_session_bound, 3u);  // 1 single + a run of 2
  EXPECT_EQ(stats.ingested, 4u);
  // The quota bounds in-flight symbols, not lifetime: drained work frees it.
  EXPECT_EQ(manager.feed(greedy, Symbol::chr('g'), 9), Admit::Accepted);
  manager.drain();
  EXPECT_EQ(manager.stats().ingested, 5u);
}

TEST(SessionManager, AgedRingDataIsShedUnlessHighPriority) {
  ShardConfig shard;
  shard.count = 1;
  IngressConfig ingress;
  ingress.max_queue_delay_ns = 1'000'000;  // 1 ms freshness bound
  SessionManager manager(shard, ingress);
  auto gate = std::make_shared<GateAcceptor::Gate>();
  const auto pinned =
      manager.open(std::make_unique<GateAcceptor>(gate), Priority::High);
  const auto normal = manager.open(
      std::make_unique<EngineOnlineAcceptor>(std::make_unique<AcceptAll>()));
  const auto vip = manager.open(
      std::make_unique<EngineOnlineAcceptor>(std::make_unique<AcceptAll>()),
      Priority::High);
  manager.drain();

  ASSERT_EQ(manager.feed(pinned, Symbol::chr('a'), 0), Admit::Accepted);
  gate->await_entry();
  for (Tick t = 0; t < 8; ++t)
    ASSERT_EQ(manager.feed(normal, Symbol::chr('n'), t), Admit::Accepted);
  for (Tick t = 0; t < 8; ++t)
    ASSERT_EQ(manager.feed(vip, Symbol::chr('v'), t), Admit::Accepted);
  // Everything queued behind the pinned worker is now past its freshness
  // bound; only the High-priority session's data survives the age check.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  gate->release();
  manager.drain();

  manager.close(normal);
  manager.close(vip);
  manager.close(pinned);
  manager.drain();
  std::map<SessionId, SessionReport> by_id;
  for (auto& r : manager.collect()) by_id[r.id] = r;
  EXPECT_EQ(by_id[normal].fed, 0u);
  EXPECT_EQ(by_id[vip].fed, 8u);
  const auto stats = manager.stats();
  EXPECT_EQ(stats.shed_priority, 8u);
  EXPECT_EQ(stats.ingested, 9u);
}

TEST(SessionManager, FeedLatencySamplesAreRecorded) {
  ShardConfig shard;
  shard.count = 1;
  IngressConfig ingress;
  ingress.latency_sample_every = 1;  // stamp every data command
  SessionManager manager(shard, ingress);
  const auto id = manager.open(
      std::make_unique<EngineOnlineAcceptor>(std::make_unique<AcceptAll>()));
  for (Tick t = 0; t < 64; ++t) manager.feed(id, Symbol::chr('a'), t);
  manager.drain();
  const auto samples = manager.take_feed_latency_samples();
  EXPECT_FALSE(samples.empty());
  EXPECT_LE(samples.size(), 64u);
  // Taking transfers ownership: the buffer starts over.
  EXPECT_TRUE(manager.take_feed_latency_samples().empty());
}

TEST(SessionManager, IdleSessionsAreEvicted) {
  ShardConfig shard;
  shard.count = 1;
  shard.idle_epochs = 2;
  SessionManager manager(shard, IngressConfig{});
  const auto idle = manager.open(std::make_unique<EngineOnlineAcceptor>(
      std::make_unique<AcceptAll>()));
  const auto busy = manager.open(std::make_unique<EngineOnlineAcceptor>(
      std::make_unique<AcceptAll>()));
  manager.drain();
  // Each feed+drain round is at least one shard epoch; the busy session
  // stays active while the idle one ages out.
  for (Tick t = 0; t < 6; ++t) {
    manager.feed(busy, Symbol::chr('a'), t);
    manager.drain();
  }
  auto reports = manager.collect();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].id, idle);
  EXPECT_TRUE(reports[0].evicted);
  EXPECT_EQ(manager.stats().evicted, 1u);
  EXPECT_EQ(manager.stats().active, 1u);
  manager.close(busy, StreamEnd::Truncated);
  manager.drain();
  ASSERT_EQ(manager.collect().size(), 1u);
}

/// Shard-count invariance: verdicts must not depend on how sessions are
/// spread over workers.  Runs the same interleaved deadline workload at 1
/// and at 8 shards and checks every report against the batch engine.
TEST(SessionManager, ShardCountIsObservationallyIrrelevant) {
  rtw::sim::Xoshiro256ss rng(0x5eed);
  struct Job {
    DeadlineInstance instance;
    std::shared_ptr<const rtw::deadline::Problem> problem;
    StreamPrefix prefix;
    RunResult expected;
  };
  RunOptions options;
  options.horizon = 160;
  std::vector<Job> jobs;
  for (int j = 0; j < 24; ++j) {
    Job job;
    job.problem = std::make_shared<rtw::deadline::SortProblem>();
    const auto len = 1 + rng.uniform(std::uint64_t{5});
    for (std::uint64_t i = 0; i < len; ++i)
      job.instance.input.push_back(Symbol::nat(rng.uniform(std::uint64_t{9})));
    job.instance.proposed_output =
        rng.bernoulli(0.6) ? job.problem->solve(job.instance.input)
                           : std::vector<Symbol>{Symbol::nat(1)};
    job.instance.usefulness =
        Usefulness::firm(5 + rng.uniform(std::uint64_t{30}), 10);
    job.instance.min_acceptable = 1;
    const auto word = rtw::deadline::build_deadline_word(job.instance);
    job.prefix = stream_prefix(word, options.horizon);
    rtw::deadline::DeadlineAcceptor batch(*job.problem);
    job.expected = rtw::engine::run(batch, word, options).result;
    jobs.push_back(std::move(job));
  }

  for (const unsigned shards : {1u, 8u}) {
    ShardConfig shard;
    shard.count = shards;
    IngressConfig ingress;
    // Big enough that nothing sheds -- the workload is ~7.4k symbols, so
    // even the Normal-priority watermark (87.5% occupancy) stays out of
    // reach when the single-shard worker lags behind the producer -- but
    // small enough that eight eagerly-allocated rings stay cheap.
    ingress.ring_capacity = 1 << 14;
    SessionManager manager(shard, ingress);
    std::map<SessionId, const Job*> by_id;
    for (const auto& job : jobs)
      by_id[manager.open(rtw::deadline::make_online_acceptor(job.problem,
                                                             options))] = &job;
    // Interleave feeds round-robin across sessions: cross-session order
    // must not matter.
    for (std::size_t i = 0;; ++i) {
      bool any = false;
      for (const auto& [id, job] : by_id) {
        if (i >= job->prefix.symbols.size()) continue;
        any = true;
        ASSERT_EQ(manager.feed(id, job->prefix.symbols[i].sym,
                               job->prefix.symbols[i].time),
                  Admit::Accepted);
      }
      if (!any) break;
    }
    for (const auto& [id, job] : by_id) manager.close(id, job->prefix.end);
    manager.drain();
    const auto reports = manager.collect();
    ASSERT_EQ(reports.size(), jobs.size()) << "shards=" << shards;
    for (const auto& r : reports) {
      const auto& expected = by_id.at(r.id)->expected;
      EXPECT_EQ(r.result.accepted, expected.accepted) << "shards=" << shards;
      EXPECT_EQ(r.result.exact, expected.exact);
      EXPECT_EQ(r.result.ticks, expected.ticks);
      EXPECT_EQ(r.result.f_count, expected.f_count);
      EXPECT_EQ(r.result.first_f, expected.first_f);
      EXPECT_EQ(r.result.symbols_consumed, expected.symbols_consumed);
      EXPECT_EQ(r.verdict == Verdict::Accepting, expected.accepted);
    }
  }
}

TEST(SessionManager, WireDrivenSessions) {
  std::string stream = rtw::svc::encode_open(1, "accept");
  stream += rtw::svc::encode_open(2, "reject");
  stream += rtw::svc::encode_feed_batch(1, {{Symbol::chr('a'), 0},
                                            {Symbol::chr('b'), 2}});
  stream += rtw::svc::encode_feed_batch(2, {{Symbol::chr('a'), 1}});
  stream += rtw::svc::encode_close(1, StreamEnd::Truncated);
  stream += rtw::svc::encode_close(2, StreamEnd::Truncated);

  const rtw::svc::AcceptorFactory factory =
      [](SessionId, std::string_view profile)
      -> std::unique_ptr<OnlineAcceptor> {
    if (profile == "accept")
      return std::make_unique<EngineOnlineAcceptor>(
          std::make_unique<AcceptAll>());
    if (profile == "reject")
      return std::make_unique<EngineOnlineAcceptor>(
          std::make_unique<RejectAll>());
    return nullptr;
  };

  SessionManager manager;
  Decoder decoder;
  decoder.push(stream);
  ASSERT_TRUE(decoder.ok());
  WireEvent ev;
  while (decoder.next(ev))
    EXPECT_EQ(manager.apply(ev, factory), Admit::Accepted);
  manager.drain();
  const auto reports = manager.collect();
  ASSERT_EQ(reports.size(), 2u);
  std::map<SessionId, Verdict> verdicts;
  for (const auto& r : reports) verdicts[r.id] = r.verdict;
  EXPECT_EQ(verdicts[1], Verdict::Accepting);
  EXPECT_EQ(verdicts[2], Verdict::Rejecting);
}

TEST(SessionManager, ShutdownTruncatesRemainingSessions) {
  SessionManager manager;
  const auto id = manager.open(std::make_unique<EngineOnlineAcceptor>(
      std::make_unique<RejectAll>()));
  manager.feed(id, Symbol::chr('a'), 0);
  manager.shutdown(StreamEnd::Truncated);
  const auto reports = manager.collect();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].id, id);
  EXPECT_EQ(reports[0].verdict, Verdict::Rejecting);
  EXPECT_FALSE(reports[0].evicted);
  EXPECT_EQ(manager.stats().active, 0u);
}

// ------------------------------------------------ worker handoff stress

/// Seeded producers open sessions, feed short feed_batch runs with yields
/// and sleeps in between (so the shard workers park and are re-elected
/// thousands of times) and close them, while another thread drains and
/// collects at seeded points.  Blocked runs are retried, never shed, so
/// every offered symbol must be ingested and every session reported once.
TEST(SessionManager, HandoffStressReportsEverySessionExactlyOnce) {
  constexpr int kSessionsPerProducer = 128;
  for (unsigned producers : {1u, 2u, 4u}) {
    for (unsigned shards : {1u, 2u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << producers << " producers x " << shards << " shards");
      const std::uint64_t seed = 0x4a4d0ffULL + producers * 8 + shards;
      ShardConfig shard;
      shard.count = shards;
      IngressConfig ingress;
      ingress.ring_capacity = 8;  // small enough that producers block
      ingress.shed_on_full = false;
      SessionManager manager(shard, ingress);

      std::atomic<std::uint64_t> offered{0};
      std::mutex opened_mutex;
      std::vector<SessionId> opened;
      std::vector<std::thread> threads;
      for (unsigned p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
          auto rng = rtw::proptest::rng_for(seed, p);
          for (int s = 0; s < kSessionsPerProducer; ++s) {
            const SessionId id =
                manager.open(std::make_unique<EngineOnlineAcceptor>(
                    std::make_unique<AcceptAll>()));
            {
              std::lock_guard lock(opened_mutex);
              opened.push_back(id);
            }
            Tick t = 0;
            const int runs = 1 + static_cast<int>(rng() % 4);
            for (int r = 0; r < runs; ++r) {
              std::vector<TimedSymbol> run(1 + rng() % 8);
              for (auto& element : run)
                element = {Symbol::chr('a'), t += rng() % 2};
              while (manager.feed_batch(id, run) == Admit::Blocked)
                std::this_thread::yield();
              offered.fetch_add(run.size(), std::memory_order_relaxed);
              if (rng() % 2)
                std::this_thread::yield();
              else
                std::this_thread::sleep_for(
                    std::chrono::microseconds(rng() % 40));
            }
            manager.close(id, StreamEnd::Truncated);
          }
        });
      }

      std::atomic<bool> producing{true};
      std::vector<SessionReport> reports;
      std::thread drainer([&] {
        auto rng = rtw::proptest::rng_for(seed, 99);
        while (producing.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(100 + rng() % 400));
          manager.drain();
          for (auto& r : manager.collect()) reports.push_back(r);
        }
      });
      for (auto& t : threads) t.join();
      producing.store(false, std::memory_order_release);
      drainer.join();
      manager.drain();
      for (auto& r : manager.collect()) reports.push_back(r);

      std::map<SessionId, int> seen;
      for (const auto& r : reports) ++seen[r.id];
      ASSERT_EQ(opened.size(), producers * kSessionsPerProducer);
      EXPECT_EQ(reports.size(), opened.size());
      for (SessionId id : opened) EXPECT_EQ(seen[id], 1) << "session " << id;
      const auto stats = manager.stats();
      EXPECT_EQ(stats.opened, opened.size());
      EXPECT_EQ(stats.opened, stats.closed);
      EXPECT_EQ(stats.ingested, offered.load());
      EXPECT_EQ(stats.shed, 0u);
      EXPECT_EQ(stats.active, 0u);
    }
  }
}

/// One shard's worker is pinned inside an acceptor's feed.  The other
/// shard's sessions must still be served to completion meanwhile: a
/// blocked shard task may not strand another shard's task behind it.
TEST(SessionManager, PinnedShardDoesNotStallItsSibling) {
  ShardConfig shard;
  shard.count = 2;
  SessionManager manager(shard, IngressConfig{});
  auto ids_on = [&manager](unsigned target, std::size_t n) {
    std::vector<SessionId> ids;
    for (SessionId id = 1; ids.size() < n; ++id)
      if (manager.shard_of(id) == target) ids.push_back(id);
    return ids;
  };
  const SessionId pinned = ids_on(0, 1).front();
  const auto free_ids = ids_on(1, 16);

  auto gate = std::make_shared<GateAcceptor::Gate>();
  manager.open(pinned, std::make_unique<GateAcceptor>(gate));
  ASSERT_EQ(manager.feed(pinned, Symbol::chr('a'), 0), Admit::Accepted);
  gate->await_entry();  // shard 0's worker is now blocked inside feed

  for (SessionId id : free_ids) {
    manager.open(id, std::make_unique<EngineOnlineAcceptor>(
                         std::make_unique<AcceptAll>()));
    for (Tick t = 0; t < 4; ++t)
      ASSERT_EQ(manager.feed(id, Symbol::chr('a'), t), Admit::Accepted);
    manager.close(id, StreamEnd::Truncated);
  }
  // drain() would wait on the pinned shard, so poll for the reports.
  std::set<SessionId> reported;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (reported.size() < free_ids.size() &&
         std::chrono::steady_clock::now() < deadline) {
    for (const auto& r : manager.collect()) reported.insert(r.id);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(reported, std::set<SessionId>(free_ids.begin(), free_ids.end()));

  gate->release();
  manager.close(pinned, StreamEnd::Truncated);
  manager.drain();
  const auto last = manager.collect();
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].id, pinned);
  EXPECT_EQ(manager.stats().closed, free_ids.size() + 1);
}

/// Process CPU time so far, in ns (every thread of the test binary).
std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Opens `sessions` accept-all sessions, feeds each a short run and
/// drains: every worker has done some work and is idle afterwards.
void feed_and_drain(SessionManager& manager, int sessions) {
  std::vector<SessionId> ids;
  for (int s = 0; s < sessions; ++s)
    ids.push_back(manager.open(std::make_unique<EngineOnlineAcceptor>(
        std::make_unique<AcceptAll>())));
  for (const SessionId id : ids)
    ASSERT_EQ(manager.feed_batch(id, {{Symbol::chr('a'), 0},
                                      {Symbol::chr('a'), 1}}),
              Admit::Accepted);
  manager.drain();
}

/// Waits (up to 10 s) until every worker has parked at least `parks` times
/// in total.
bool await_parks(const SessionManager& manager, std::uint64_t parks) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (manager.stats().parks < parks) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Once drained and past the spin window, the dedicated shard workers
/// sleep on their futex words: a 4-shard manager burns (almost) no CPU.
TEST(SessionManager, IdleWorkersBurnNoCpuAfterTheSpinWindow) {
  ShardConfig shard;
  shard.count = 4;
  SessionManager manager(shard, IngressConfig{});
  feed_and_drain(manager, 64);
  // The spin window is 50 us; every worker parks well inside this wait.
  ASSERT_TRUE(await_parks(manager, 4));
  const std::uint64_t before = process_cpu_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint64_t burned = process_cpu_ns() - before;
  EXPECT_LT(burned, 5'000'000u) << "idle workers burned " << burned
                                << " ns of CPU in 100 ms";

  // A push to a parked shard wakes its worker, which counts the wake.
  const auto stats = manager.stats();
  feed_and_drain(manager, 8);
  EXPECT_GT(manager.stats().wakes, stats.wakes);
  EXPECT_LE(manager.stats().wakes, manager.stats().parks);
}

/// Destroying a manager joins its workers whether they are still spinning
/// on their empty rings or already parked, and every session is reported.
TEST(SessionManager, DestroyingTheManagerJoinsSpinningAndParkedWorkers) {
  ShardConfig shard;
  shard.count = 4;
  for (int round = 0; round < 32; ++round) {
    std::mutex mutex;
    std::vector<SessionReport> reports;
    {
      SessionManager manager(shard, IngressConfig{});
      // Four workers report at once; shutdown's close-all runs before the
      // destructor joins them.
      manager.set_report_sink([&](const SessionReport& r) {
        std::lock_guard lock(mutex);
        reports.push_back(r);
        return true;
      });
      feed_and_drain(manager, 16);
      // Even rounds: destroyed within the spin window of the drain.  Odd
      // rounds: destroyed once every worker has parked.
      if (round % 2) {
        ASSERT_TRUE(await_parks(manager, 4));
      }
    }
    EXPECT_EQ(reports.size(), 16u) << "round " << round;
  }
}

// ---------------------------------------- observation never perturbs

std::string fingerprint(const rtw::svc::ServiceStats& s) {
  std::ostringstream out;
  out << "opened=" << s.opened << " closed=" << s.closed
      << " ingested=" << s.ingested << " shed=" << s.shed
      << " shed_ring_full=" << s.shed_ring_full
      << " shed_session_bound=" << s.shed_session_bound
      << " shed_priority=" << s.shed_priority << " blocked=" << s.blocked
      << " stale=" << s.stale << " evicted=" << s.evicted
      << " unknown=" << s.unknown << " active=" << s.active
      << " epochs=" << s.epochs << " batches=" << s.batches
      << " lane_symbols=" << s.lane_symbols
      << " lane_waves=" << s.lane_waves
      << " query_compiled=" << s.query_compiled
      << " query_rejected=" << s.query_rejected;
  return out.str();
}

std::string fingerprint(const SessionReport& r) {
  std::ostringstream out;
  out << "id=" << r.id << " verdict=" << rtw::core::to_string(r.verdict)
      << " " << render(r.result) << " fed=" << r.fed
      << " stale=" << r.stale_dropped
      << " priority=" << static_cast<int>(r.priority)
      << " evicted=" << r.evicted;
  return out.str();
}

struct ObservedRun {
  rtw::svc::ServiceStats stats;
  std::vector<std::string> reports;  ///< fingerprints, in id order
};

/// One seeded multi-session workload on a deterministic epoch schedule:
/// every command is drained before the next one is sent (one command per
/// epoch), except while a gate session pins the worker, when the ring
/// fills to an exact depth and admission sheds by priority and by a full
/// ring.  It covers direct and SubmitQuery opens (one refused by the
/// CompileLimits caps), lane-kernel deadline runs, stale symbols, unknown
/// ids, sheds, idle eviction, explicit closes and the shutdown sweep.
ObservedRun run_observed_workload(std::uint64_t seed) {
  rtw::sim::Xoshiro256ss rng(seed);
  ShardConfig shard;
  shard.count = 1;
  shard.idle_epochs = 48;
  IngressConfig ingress;
  ingress.ring_capacity = 8;
  SessionManager manager(shard, ingress);

  // Deadline sessions: once a stream's header is parsed, its runs step
  // through the lane kernel.
  struct Stream {
    SessionId id;
    StreamPrefix prefix;
    std::size_t next = 0;
  };
  RunOptions options;
  options.horizon = 160;
  const auto problem = std::make_shared<rtw::deadline::SortProblem>();
  std::vector<Stream> streams;
  for (int j = 0; j < 6; ++j) {
    DeadlineInstance instance;
    const auto len = 1 + rng.uniform(std::uint64_t{5});
    for (std::uint64_t i = 0; i < len; ++i)
      instance.input.push_back(Symbol::nat(rng.uniform(std::uint64_t{9})));
    instance.proposed_output = rng.bernoulli(0.6)
                                   ? problem->solve(instance.input)
                                   : std::vector<Symbol>{Symbol::nat(1)};
    instance.usefulness =
        Usefulness::firm(5 + rng.uniform(std::uint64_t{30}), 10);
    instance.min_acceptable = 1;
    const SessionId id =
        manager.open(rtw::deadline::make_lane_acceptor(problem, options));
    manager.drain();
    streams.push_back(
        {id, stream_prefix(rtw::deadline::build_deadline_word(instance),
                           options.horizon)});
  }

  // Engine sessions at every priority, plus one that is never fed and so
  // ages out.
  std::vector<SessionId> plain;
  std::vector<Tick> plain_time;
  for (int j = 0; j < 6; ++j) {
    std::unique_ptr<RealTimeAlgorithm> algorithm;
    if (j % 2 == 0)
      algorithm = std::make_unique<AcceptAll>();
    else
      algorithm = std::make_unique<RejectAll>();
    plain.push_back(manager.open(
        std::make_unique<EngineOnlineAcceptor>(std::move(algorithm)),
        static_cast<Priority>(j % 3)));
    plain_time.push_back(0);
    manager.drain();
  }
  manager.open(
      std::make_unique<EngineOnlineAcceptor>(std::make_unique<AcceptAll>()));
  manager.drain();

  // SubmitQuery opens: two compile, one exceeds the CompileLimits caps.
  std::string nested;
  for (int i = 0; i < 33; ++i) nested += "within(1){ ";
  nested += "a";
  for (int i = 0; i < 33; ++i) nested += " }";
  std::vector<SessionId> queries;
  Tick query_time = 0;
  for (const std::string& text :
       {std::string("within(4){ a ; (b | c)+ }"), std::string("(a)+"),
        nested}) {
    WireEvent open;
    open.kind = WireEvent::Kind::SubmitQuery;
    open.session = 1000 + queries.size();
    open.profile = text;
    if (manager.apply(open, {}) == Admit::Accepted)
      queries.push_back(open.session);
    manager.drain();
  }

  for (int round = 0; round < 160; ++round) {
    switch (rng.uniform(std::uint64_t{4})) {
      case 0: {  // the next run of a deadline stream
        auto& s = streams[rng.uniform(std::uint64_t{streams.size()})];
        const auto& symbols = s.prefix.symbols;
        if (s.next == symbols.size()) break;
        const std::size_t n = std::min<std::size_t>(
            1 + rng.uniform(std::uint64_t{8}), symbols.size() - s.next);
        const auto first = symbols.begin() + static_cast<long>(s.next);
        manager.feed_batch(s.id, {first, first + static_cast<long>(n)});
        s.next += n;
        break;
      }
      case 1: {  // an engine session; some elements step back in time
        const auto k = rng.uniform(std::uint64_t{plain.size()});
        Tick& t = plain_time[k];
        std::vector<TimedSymbol> run;
        const auto n = 1 + rng.uniform(std::uint64_t{6});
        for (std::uint64_t i = 0; i < n; ++i) {
          const Tick at = rng.bernoulli(0.3) && t >= 2
                              ? t - 2
                              : (t += 1 + rng.uniform(std::uint64_t{3}));
          run.push_back({Symbol::chr('a'), at});
        }
        manager.feed_batch(plain[k], std::move(run));
        break;
      }
      case 2: {  // a query session
        const SessionId id =
            queries[rng.uniform(std::uint64_t{queries.size()})];
        const char c = static_cast<char>('a' + rng.uniform(std::uint64_t{3}));
        manager.feed(id, Symbol::chr(c), query_time++);
        break;
      }
      default:  // an id no session owns
        manager.feed(5000 + rng.uniform(std::uint64_t{4}), Symbol::chr('z'),
                     0);
        break;
    }
    manager.drain();
  }

  // Pin the worker: ring depth is then exact, so which feeds shed is a
  // function of the seeded session choice alone.
  auto gate = std::make_shared<GateAcceptor::Gate>();
  const SessionId pinned =
      manager.open(std::make_unique<GateAcceptor>(gate), Priority::High);
  manager.drain();
  manager.feed(pinned, Symbol::chr('g'), 0);
  gate->await_entry();
  for (Tick k = 0; k < 12; ++k)
    manager.feed(plain[rng.uniform(std::uint64_t{plain.size()})],
                 Symbol::chr('x'), 100000 + k);
  // High priority survives until the data plane is physically full.
  for (Tick k = 1; k <= 8; ++k) manager.feed(pinned, Symbol::chr('g'), k);
  gate->release();
  manager.drain();

  for (const auto& s : streams) {
    if (!rng.bernoulli(0.5)) continue;
    manager.close(s.id, s.prefix.end);
    manager.drain();
  }
  manager.shutdown(StreamEnd::Truncated);

  ObservedRun out;
  out.stats = manager.stats();
  auto reports = manager.collect();
  std::sort(reports.begin(), reports.end(),
            [](const SessionReport& a, const SessionReport& b) {
              return a.id < b.id;
            });
  for (const auto& r : reports) out.reports.push_back(fingerprint(r));
  return out;
}

/// The serving layer's counterpart of ZeroOverheadTest: a Tracer installed
/// for a whole workload changes no ServiceStats field and no report, the
/// registry holds no svc.* names (ServiceStats is the one tally), and the
/// trace shows every query compile as a span.
TEST(SessionManager, ObservationNeverPerturbsTheServingLayer) {
  constexpr std::uint64_t kSeed = 0x0b5e7;
  const ObservedRun baseline = run_observed_workload(kSeed);

  rtw::obs::Tracer tracer;
  rtw::obs::set_sink(&tracer);
  const ObservedRun traced = run_observed_workload(kSeed);
  rtw::obs::set_sink(nullptr);

  EXPECT_EQ(fingerprint(traced.stats), fingerprint(baseline.stats));
  EXPECT_EQ(traced.reports, baseline.reports);

  // The workload reaches every path it claims to.
  const auto& s = baseline.stats;
  EXPECT_EQ(s.query_compiled, 2u);
  EXPECT_EQ(s.query_rejected, 1u);
  EXPECT_GT(s.shed_priority, 0u);
  EXPECT_GT(s.shed_ring_full, 0u);
  EXPECT_GT(s.stale, 0u);
  EXPECT_GT(s.unknown, 0u);
  EXPECT_GT(s.evicted, 0u);
  EXPECT_GT(s.lane_symbols, 0u);
  EXPECT_EQ(s.active, 0u);
  EXPECT_EQ(baseline.reports.size(), s.opened);

  for (const auto& view : rtw::obs::MetricsRegistry::instance().snapshot())
    EXPECT_NE(view.name.rfind("svc.", 0), 0u) << view.name;
  std::size_t compile_spans = 0;
  for (const auto& span : tracer.drain())
    if (std::string_view(span.name) == "svc.query.compile") ++compile_spans;
  EXPECT_EQ(compile_spans, 3u);  // one per SubmitQuery, the refused one too
}

/// Producers on short-lived threads feed_batch their sessions' words and
/// exit while every run is still queued behind a pinned worker, so each
/// run's buffer goes back to a pool whose owner is gone.  Every report
/// must equal the one a direct feed of the same word produces: lane
/// sessions read their runs in the kernel's wave, engine sessions in
/// feed_run.
TEST(SessionManager, RunsOutliveTheThreadsThatFedThem) {
  constexpr unsigned kThreads = 8;
  ShardConfig shard;
  shard.count = 1;  // one worker, so the gate holds every run in the ring
  IngressConfig ingress;
  ingress.ring_capacity = 4096;  // room for every run while the gate holds
  ingress.shed_on_full = false;
  SessionManager manager(shard, ingress);

  const SessionId pinned = 1;
  auto gate = std::make_shared<GateAcceptor::Gate>();
  manager.open(pinned, std::make_unique<GateAcceptor>(gate));
  ASSERT_EQ(manager.feed(pinned, Symbol::chr('a'), 0), Admit::Accepted);
  gate->await_entry();

  RunOptions options;
  options.horizon = 160;
  const auto problem = std::make_shared<rtw::deadline::SortProblem>();
  const auto make_acceptor = [&](SessionId id) {
    return id % 2 ? rtw::deadline::make_lane_acceptor(problem, options)
                  : rtw::deadline::make_online_acceptor(problem, options);
  };
  rtw::sim::Xoshiro256ss rng(0x11fe);
  std::map<SessionId, StreamPrefix> words;
  for (SessionId id = 2; id < 2 + 2 * kThreads; ++id) {
    DeadlineInstance instance;
    const auto len = 1 + rng.uniform(std::uint64_t{5});
    for (std::uint64_t i = 0; i < len; ++i)
      instance.input.push_back(Symbol::nat(rng.uniform(std::uint64_t{9})));
    instance.proposed_output = problem->solve(instance.input);
    instance.usefulness = Usefulness::firm(20 + rng.uniform(std::uint64_t{30}), 10);
    instance.min_acceptable = 1;
    words[id] = stream_prefix(rtw::deadline::build_deadline_word(instance),
                              options.horizon);
    manager.open(id, make_acceptor(id));
  }

  // Each thread feeds two sessions in runs of 1-8 symbols, then exits.
  std::size_t runs = 0;
  for (unsigned p = 0; p < kThreads; ++p) {
    const SessionId first = 2 + 2 * p;
    std::size_t fed_runs = 0;
    std::thread([&, first] {
      auto local = rtw::proptest::rng_for(0x11fe, first);
      for (SessionId id = first; id < first + 2; ++id) {
        const auto& symbols = words[id].symbols;
        for (std::size_t off = 0; off < symbols.size();) {
          const std::size_t n = std::min<std::size_t>(
              1 + local() % 8, symbols.size() - off);
          const auto begin = symbols.begin() + static_cast<long>(off);
          ASSERT_EQ(manager.feed_batch(id, {begin, begin + static_cast<long>(n)}),
                    Admit::Accepted);
          off += n;
          ++fed_runs;
        }
      }
    }).join();
    runs += fed_runs;
  }
  EXPECT_GE(manager.ring_depth(0), runs);  // nothing has been processed yet

  gate->release();
  for (const auto& [id, word] : words) manager.close(id, word.end);
  manager.close(pinned, StreamEnd::Truncated);
  manager.drain();
  std::map<SessionId, std::string> got;
  for (const auto& report : manager.collect()) got[report.id] = fingerprint(report);
  ASSERT_EQ(got.size(), words.size() + 1);

  for (const auto& [id, word] : words) {
    rtw::svc::Session direct(id, make_acceptor(id));
    direct.feed_run(word.symbols.data(), word.symbols.size());
    direct.finish(word.end);
    EXPECT_EQ(got[id], fingerprint(direct.report(false))) << "session " << id;
  }
  EXPECT_GT(manager.stats().lane_symbols, 0u);
}

/// The ring-wait samples are a bounded reservoir: a daemon that never
/// takes them holds at most kLatencySamples per shard.
TEST(SessionManager, FeedLatencySamplesStayWithinTheReservoir) {
  constexpr std::uint64_t kCommands = 100000;
  ShardConfig shard;
  shard.count = 1;
  IngressConfig ingress;
  ingress.latency_sample_every = 1;  // stamp every data command
  SessionManager manager(shard, ingress);
  const auto id = manager.open(
      std::make_unique<EngineOnlineAcceptor>(std::make_unique<AcceptAll>()));
  for (Tick t = 0; t < kCommands; ++t) {
    ASSERT_EQ(manager.feed(id, Symbol::chr('a'), t), Admit::Accepted);
    if (t % 512 == 511) manager.drain();  // never fill the ring
  }
  manager.drain();
  EXPECT_EQ(manager.stats().ingested, kCommands);
  const auto samples = manager.take_feed_latency_samples();
  EXPECT_LE(samples.size(), SessionManager::kLatencySamples);
  EXPECT_GT(samples.size(), 0u);
  EXPECT_TRUE(manager.take_feed_latency_samples().empty());
}

// ============================================= 5. fault-injected soak

/// One soak round: K deadline sessions encoded as an interleaved frame
/// stream, mangled by a random FaultPlan, decoded and applied to a
/// SessionManager while a reference state machine mirrors every decoded
/// event.  Divergence = failure.
void soak_round(std::uint64_t seed, unsigned shards) {
  rtw::sim::Xoshiro256ss rng(seed);
  RunOptions options;
  options.horizon = 150;

  struct Spec {
    std::shared_ptr<const rtw::deadline::Problem> problem;
    StreamPrefix prefix;
  };
  std::map<SessionId, Spec> specs;
  std::vector<std::vector<std::string>> per_session_frames;
  const unsigned sessions = 12;
  for (unsigned s = 0; s < sessions; ++s) {
    const SessionId id = 1000 + s;
    Spec spec;
    spec.problem = std::make_shared<rtw::deadline::SortProblem>();
    DeadlineInstance inst;
    const auto len = 1 + rng.uniform(std::uint64_t{5});
    for (std::uint64_t i = 0; i < len; ++i)
      inst.input.push_back(Symbol::nat(rng.uniform(std::uint64_t{9})));
    inst.proposed_output = rng.bernoulli(0.6)
                               ? spec.problem->solve(inst.input)
                               : std::vector<Symbol>{Symbol::nat(2)};
    inst.usefulness = Usefulness::firm(4 + rng.uniform(std::uint64_t{30}), 10);
    inst.min_acceptable = 1;
    spec.prefix = stream_prefix(rtw::deadline::build_deadline_word(inst),
                                options.horizon);

    std::vector<std::string> frames;
    frames.push_back(rtw::svc::encode_open(id, "sort"));
    const auto& symbols = spec.prefix.symbols;
    const std::size_t per_frame = 1 + rng.uniform(std::uint64_t{7});
    for (std::size_t off = 0; off < symbols.size(); off += per_frame)
      frames.push_back(rtw::svc::encode_feed_batch(
          id, {symbols.begin() + off,
               symbols.begin() +
                   std::min(symbols.size(), off + per_frame)}));
    frames.push_back(rtw::svc::encode_close(id, spec.prefix.end));
    per_session_frames.push_back(std::move(frames));
    specs.emplace(id, std::move(spec));
  }

  // Round-robin interleave, then mangle at frame granularity.
  std::vector<std::string> frames;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (const auto& fs : per_session_frames)
      if (i < fs.size()) {
        frames.push_back(fs[i]);
        any = true;
      }
    if (!any) break;
  }
  const auto plan = rtw::proptest::random_fault_plan(rng, 2, 24);
  const auto mangled = rtw::svc::apply_faults(frames, plan);

  ShardConfig shard;
  shard.count = shards;
  IngressConfig ingress;
  ingress.ring_capacity = 1 << 13;  // soak measures divergence, not shedding
  SessionManager manager(shard, ingress);
  const rtw::svc::AcceptorFactory factory =
      [&](SessionId id, std::string_view) -> std::unique_ptr<OnlineAcceptor> {
    const auto it = specs.find(id);
    if (it == specs.end()) return nullptr;
    return rtw::deadline::make_online_acceptor(it->second.problem, options);
  };

  // The reference: the same per-session state machine, run inline.
  std::map<SessionId, rtw::svc::Session> mirror;
  std::vector<SessionReport> expected;
  const auto mirror_open = [&](SessionId id) {
    if (mirror.count(id)) return;  // double open is ignored by the shard
    mirror.emplace(id, rtw::svc::Session(
                           id, rtw::deadline::make_online_acceptor(
                                   specs.at(id).problem, options)));
  };

  Decoder decoder;
  std::string stream;
  for (const auto& f : mangled) stream += f;
  std::size_t offset = 0;
  while (offset < stream.size() || true) {
    if (offset < stream.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.uniform(std::uint64_t{96}),
                                stream.size() - offset);
      decoder.push(std::string_view(stream).substr(offset, chunk));
      offset += chunk;
    }
    WireEvent ev;
    while (decoder.next(ev)) {
      switch (ev.kind) {
        case WireEvent::Kind::Open:
          mirror_open(ev.session);
          manager.apply(ev, factory);
          break;
        case WireEvent::Kind::Symbols: {
          const auto it = mirror.find(ev.session);
          for (const auto& ts : ev.symbols) {
            ASSERT_EQ(manager.feed(ev.session, ts.sym, ts.time),
                      Admit::Accepted);
            if (it != mirror.end()) it->second.feed(ts.sym, ts.time);
          }
          break;
        }
        case WireEvent::Kind::Close: {
          manager.close(ev.session, ev.end);
          const auto it = mirror.find(ev.session);
          if (it != mirror.end()) {
            it->second.finish(ev.end);
            expected.push_back(it->second.report(false));
            mirror.erase(it);
          }
          break;
        }
        default:
          break;  // notification frames never occur in this stream
      }
    }
    if (offset >= stream.size()) break;
  }
  ASSERT_TRUE(decoder.ok()) << decoder.error();

  // Sessions whose Close was dropped are swept by the graceful shutdown.
  manager.shutdown(StreamEnd::Truncated);
  for (auto& [id, session] : mirror) {
    session.finish(StreamEnd::Truncated);
    expected.push_back(session.report(false));
  }
  mirror.clear();

  auto reports = manager.collect();
  ASSERT_EQ(reports.size(), expected.size())
      << "seed=" << seed << " shards=" << shards;
  // Per-id chronological order is preserved on both sides; across ids the
  // order is arbitrary, so compare sorted by (id, sequence).
  const auto order = [](const SessionReport& a, const SessionReport& b) {
    return a.id < b.id;
  };
  std::stable_sort(reports.begin(), reports.end(), order);
  std::stable_sort(expected.begin(), expected.end(), order);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& got = reports[i];
    const auto& want = expected[i];
    ASSERT_EQ(got.id, want.id) << "seed=" << seed << " shards=" << shards;
    EXPECT_EQ(got.verdict, want.verdict)
        << "seed=" << seed << " shards=" << shards << " id=" << got.id;
    EXPECT_EQ(got.result.accepted, want.result.accepted);
    EXPECT_EQ(got.result.exact, want.result.exact);
    EXPECT_EQ(got.result.ticks, want.result.ticks);
    EXPECT_EQ(got.result.f_count, want.result.f_count);
    EXPECT_EQ(got.result.first_f, want.result.first_f);
    EXPECT_EQ(got.result.symbols_consumed, want.result.symbols_consumed);
    EXPECT_EQ(got.fed, want.fed);
    EXPECT_EQ(got.stale_dropped, want.stale_dropped);
  }
}

TEST(SvcSoak, FaultedWireStreamsNeverDiverge) {
  rtw::obs::init_from_env();  // RTW_TRACE=<path> records the soak's spans
  double seconds = 1.0;
  if (const char* env = std::getenv("RTW_SVC_SOAK_SECONDS"))
    seconds = std::atof(env);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  std::uint64_t round = 0;
  do {
    soak_round(0x50414bULL + round, round % 2 ? 8u : 1u);
    ++round;
  } while (std::chrono::steady_clock::now() < deadline &&
           !::testing::Test::HasFailure());
  std::cout << "[svc-soak] rounds=" << round << "\n";
  rtw::obs::flush_env_trace();
}

}  // namespace
