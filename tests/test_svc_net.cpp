// Hermetic loopback tests for the epoll TCP front-end.
//
//   1. Single-client round trip: Hello negotiation, count-profile
//      sessions, Verdict notifications.
//   2. Adversarial byte boundaries: the whole stream delivered in 1-byte
//      and prime-sized chunks with write pacing, so server-side read()
//      calls observe frames split at every offset.
//   3. Multi-client parity: N concurrent clients stream deterministic
//      words; every wire verdict must be bit-identical (verdict, exact,
//      fed, stale) to an in-process SessionManager replay of the same
//      word set.
//   4. Slow reader / partial writes: tiny socket buffers and a tiny
//      write_buffer_limit force the flush path through EAGAIN and the
//      read-pause hysteresis; every verdict must still arrive.
//   5. Graceful drain: stop() truncate-closes abandoned sessions and
//      flushes their verdicts before the socket closes.
//   6. ServerFacade: the Server/Connection pair driven with no sockets --
//      verdict routing per connection, disconnect, id reuse, duplicate
//      opens, and a disconnect storm against live shard workers.
//   7. The op-12 handoff: packed bodies validated on the reader and walked
//      on the shards report exactly what decode + apply reports, parked
//      Blocked bodies included, and bodies still in flight when their
//      connection goes away come back safely.
//
// Everything binds port 0 on 127.0.0.1: no fixed ports, no external
// daemon, safe for parallel ctest.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "rtw/core/symbol.hpp"
#include "rtw/deadline/lane.hpp"
#include "rtw/deadline/problem.hpp"
#include "rtw/svc/net/tcp_server.hpp"
#include "rtw/svc/profiles.hpp"
#include "rtw/svc/server.hpp"
#include "rtw/svc/service.hpp"
#include "rtw/svc/wire.hpp"

namespace {

using namespace rtw::svc;
using rtw::core::StreamEnd;
using rtw::core::Symbol;
using rtw::core::Tick;
using rtw::core::TimedSymbol;
using rtw::core::Verdict;

/// Blocking loopback client with an incremental Decoder on the read side.
class TestClient {
public:
  ~TestClient() { close(); }

  /// `rcvbuf` > 0 shrinks SO_RCVBUF before connect (the kernel clamps to
  /// its minimum), so the server's writes hit EAGAIN after a few KB.
  bool connect_to(std::uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    if (rcvbuf > 0)
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      close();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  /// Writes `bytes` in `chunk`-sized pieces, sleeping `pace_us` between
  /// them -- small chunks + pacing force the server's read() calls to see
  /// frames split at arbitrary byte boundaries.
  bool send_all(std::string_view bytes, std::size_t chunk = SIZE_MAX,
                unsigned pace_us = 0) {
    for (std::size_t off = 0; off < bytes.size();) {
      const std::size_t n = std::min(chunk, bytes.size() - off);
      const ssize_t wrote = ::write(fd_, bytes.data() + off, n);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(wrote);
      if (pace_us > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(pace_us));
    }
    return true;
  }

  /// Pops the next decoded event, reading from the socket (with a poll
  /// timeout) until one is available.  False on timeout/EOF/decode error.
  bool next_event(WireEvent& out, int timeout_ms = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      if (decoder_.next(out)) return true;
      if (!decoder_.ok()) return false;
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return false;
      pollfd pfd{fd_, POLLIN, 0};
      const int remaining = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now)
              .count());
      const int ready = ::poll(&pfd, 1, std::max(1, remaining));
      if (ready < 0 && errno != EINTR) return false;
      if (ready <= 0) continue;
      char buffer[4096];
      const ssize_t n = ::read(fd_, buffer, sizeof(buffer));
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return decoder_.next(out);  // EOF: only buffered events
      decoder_.push(std::string_view(buffer, static_cast<std::size_t>(n)));
    }
  }

  /// Reads until EOF, decoding everything that still arrives.
  std::vector<WireEvent> drain_until_eof(int timeout_ms = 10000) {
    std::vector<WireEvent> events;
    WireEvent ev;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      while (decoder_.next(ev)) events.push_back(ev);
      if (std::chrono::steady_clock::now() >= deadline) break;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      char buffer[4096];
      const ssize_t n = ::read(fd_, buffer, sizeof(buffer));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      decoder_.push(std::string_view(buffer, static_cast<std::size_t>(n)));
    }
    while (decoder_.next(ev)) events.push_back(ev);
    return events;
  }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  const Decoder& decoder() const { return decoder_; }

private:
  int fd_ = -1;
  Decoder decoder_;
};

std::vector<TimedSymbol> word_of(std::size_t n) {
  std::vector<TimedSymbol> word;
  word.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    word.push_back({Symbol::nat(i % 5), static_cast<Tick>(i + 1)});
  return word;
}

/// A server on 127.0.0.1:0 with the profile factory; tears down in order.
struct Harness {
  explicit Harness(ServerConfig config = make_default_config())
      : server(std::move(config), profile_factory()), transport(server) {}

  static ServerConfig make_default_config() {
    ServerConfig config;
    config.net.port = 0;
    config.shard.count = 2;
    return config;
  }

  bool start() { return transport.start(); }

  Server server;
  net::TcpServer transport;
};

TEST(NetLoopback, SingleClientHelloAndVerdictRoundTrip) {
  Harness h;
  ASSERT_TRUE(h.start()) << h.transport.error();

  TestClient client;
  ASSERT_TRUE(client.connect_to(h.transport.port()));
  std::string stream = encode_hello();
  stream += encode_open(1, "count:3");
  stream += encode_feed_batch(1, word_of(3));
  stream += encode_close(1);
  ASSERT_TRUE(client.send_all(stream));

  WireEvent ev;
  ASSERT_TRUE(client.next_event(ev));
  EXPECT_EQ(ev.kind, WireEvent::Kind::HelloAck);
  EXPECT_EQ(ev.version, kWireVersion);
  ASSERT_TRUE(client.next_event(ev));
  EXPECT_EQ(ev.kind, WireEvent::Kind::Verdict);
  EXPECT_EQ(ev.session, 1u);
  EXPECT_EQ(ev.verdict, Verdict::Accepting);
  EXPECT_FALSE(ev.exact);
  EXPECT_FALSE(ev.evicted);
  EXPECT_EQ(ev.fed, 3u);
  EXPECT_EQ(ev.stale, 0u);
}

TEST(NetLoopback, HelloAnswersEachClientWithItsHighestVersion) {
  Harness h;
  ASSERT_TRUE(h.start()) << h.transport.error();

  // A range holding version 3 is answered with 3; a v0-v2 peer fails at
  // the handshake: no HelloAck, no Verdict.
  struct Range {
    std::uint8_t min, max;
    bool served;
  };
  for (const Range r : {Range{0, 9, true}, Range{3, 3, true},
                        Range{0, 1, false}, Range{1, 2, false},
                        Range{2, 2, false}}) {
    TestClient client;
    ASSERT_TRUE(client.connect_to(h.transport.port()));
    std::string stream = encode_hello(r.min, r.max);
    stream += encode_open(1, "count:3");
    stream += encode_feed_batch(1, word_of(3));
    stream += encode_close(1);
    ASSERT_TRUE(client.send_all(stream));
    if (!r.served) {
      EXPECT_TRUE(client.drain_until_eof(5000).empty())
          << unsigned(r.min) << ".." << unsigned(r.max);
      continue;
    }
    WireEvent ev;
    ASSERT_TRUE(client.next_event(ev));
    EXPECT_EQ(ev.kind, WireEvent::Kind::HelloAck);
    EXPECT_EQ(ev.version, 3u) << unsigned(r.min) << ".." << unsigned(r.max);
    ASSERT_TRUE(client.next_event(ev));
    EXPECT_EQ(ev.kind, WireEvent::Kind::Verdict);
    EXPECT_EQ(ev.verdict, Verdict::Accepting);
  }

  // So does a floor above the server's version.
  TestClient future;
  ASSERT_TRUE(future.connect_to(h.transport.port()));
  const auto above = static_cast<std::uint8_t>(kWireVersion + 1);
  ASSERT_TRUE(future.send_all(encode_hello(above, above)));
  EXPECT_TRUE(future.drain_until_eof(5000).empty());
}

TEST(NetLoopback, UnknownProfileDrawsAShedNotice) {
  Harness h;
  ASSERT_TRUE(h.start()) << h.transport.error();

  TestClient client;
  ASSERT_TRUE(client.connect_to(h.transport.port()));
  std::string stream = encode_hello();
  stream += encode_open(4, "no-such-profile");
  ASSERT_TRUE(client.send_all(stream));

  WireEvent ev;
  ASSERT_TRUE(client.next_event(ev));
  EXPECT_EQ(ev.kind, WireEvent::Kind::HelloAck);
  ASSERT_TRUE(client.next_event(ev));
  EXPECT_EQ(ev.kind, WireEvent::Kind::Shed);
  EXPECT_EQ(ev.session, 4u);
  EXPECT_EQ(ev.admit.admit, Admit::Shed);
}

TEST(NetLoopback, AdversarialByteSplitsDecodeIdentically) {
  Harness h;
  ASSERT_TRUE(h.start()) << h.transport.error();

  std::string stream = encode_hello();
  stream += encode_open(1, "count:5");
  // Two packed runs, each split mid-header and mid-body.
  const auto word = word_of(5);
  stream += encode_feed_batch(
      1, std::vector<TimedSymbol>(word.begin(), word.begin() + 2));
  stream += encode_feed_batch(
      1, std::vector<TimedSymbol>(word.begin() + 2, word.end()));
  stream += encode_close(1);

  // chunk=1 with pacing: every server read() sees a handful of bytes at
  // most, so headers, session ids and packed elements all split mid-field.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}}) {
    TestClient client;
    ASSERT_TRUE(client.connect_to(h.transport.port()));
    ASSERT_TRUE(client.send_all(stream, chunk, /*pace_us=*/chunk == 1 ? 50
                                                                      : 0));
    WireEvent ev;
    ASSERT_TRUE(client.next_event(ev)) << "chunk=" << chunk;
    EXPECT_EQ(ev.kind, WireEvent::Kind::HelloAck);
    ASSERT_TRUE(client.next_event(ev)) << "chunk=" << chunk;
    EXPECT_EQ(ev.kind, WireEvent::Kind::Verdict);
    EXPECT_EQ(ev.verdict, Verdict::Accepting) << "chunk=" << chunk;
    EXPECT_EQ(ev.fed, 5u);
  }
}

/// N concurrent clients, deterministic count-profile words, and a replay
/// of the same words through an in-process SessionManager: the wire
/// verdicts must match the in-process reports field for field.
TEST(NetLoopback, ManyClientsMatchInProcessVerdictsBitForBit) {
  Harness h;
  ASSERT_TRUE(h.start()) << h.transport.error();

  constexpr std::size_t kClients = 24;
  constexpr std::size_t kSessions = 3;

  struct WireVerdict {
    bool arrived = false;
    Verdict verdict = Verdict::Undetermined;
    bool exact = false;
    std::uint64_t fed = 0, stale = 0;
  };
  std::vector<std::array<WireVerdict, kSessions>> wire(kClients);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};

  const auto word_len = [](std::size_t c, std::size_t s) {
    return 2 + (c + s) % 6;
  };
  // Session s on client c: target == length for even (c+s) -> Accepting;
  // target == length - 1 for odd -> the overshoot locks Rejecting exactly.
  const auto target = [&](std::size_t c, std::size_t s) {
    const auto len = word_len(c, s);
    return (c + s) % 2 == 0 ? len : len - 1;
  };

  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TestClient client;
      if (!client.connect_to(h.transport.port())) {
        ++failures;
        return;
      }
      std::string stream = encode_hello();
      for (std::size_t s = 0; s < kSessions; ++s) {
        stream += encode_open(s + 1,
                              "count:" + std::to_string(target(c, s)));
        stream += encode_feed_batch(s + 1, word_of(word_len(c, s)));
        stream += encode_close(s + 1);
      }
      if (!client.send_all(stream, /*chunk=*/13)) {
        ++failures;
        return;
      }
      std::size_t verdicts = 0;
      WireEvent ev;
      while (verdicts < kSessions && client.next_event(ev)) {
        if (ev.kind != WireEvent::Kind::Verdict) continue;
        auto& slot = wire[c][ev.session - 1];
        slot.arrived = true;
        slot.verdict = ev.verdict;
        slot.exact = ev.exact;
        slot.fed = ev.fed;
        slot.stale = ev.stale;
        ++verdicts;
      }
      if (verdicts != kSessions) ++failures;
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // In-process replay: same words, blocking ingress so nothing sheds.
  ShardConfig shard;
  shard.count = 2;
  IngressConfig ingress;
  ingress.shed_on_full = false;
  SessionManager manager(shard, ingress);
  const auto factory = profile_factory();
  std::map<SessionId, std::pair<std::size_t, std::size_t>> who;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      const SessionId id = c * kSessions + s + 1;
      who[id] = {c, s};
      manager.open(id, factory(id, "count:" + std::to_string(target(c, s))),
                   Priority::Normal);
      manager.feed_batch(id, word_of(word_len(c, s)));
      manager.close(id);
    }
  }
  manager.drain();
  std::size_t compared = 0;
  for (const auto& report : manager.collect()) {
    const auto [c, s] = who.at(report.id);
    const WireVerdict& w = wire[c][s];
    ASSERT_TRUE(w.arrived) << "client " << c << " session " << s;
    EXPECT_EQ(w.verdict, report.verdict) << "client " << c << " session " << s;
    EXPECT_EQ(w.exact, report.result.exact);
    EXPECT_EQ(w.fed, report.fed);
    EXPECT_EQ(w.stale, report.stale_dropped);
    ++compared;
  }
  EXPECT_EQ(compared, kClients * kSessions);
}

/// Tiny socket buffers + a tiny write_buffer_limit: the server's flush
/// hits EAGAIN (partial writes) while the client sleeps, the output
/// buffer crosses the limit, reads pause, and the hysteresis resumes them
/// once the client finally drains.  All verdicts must still arrive.
TEST(NetLoopback, SlowReaderSurvivesPartialWritesAndBackpressure) {
  ServerConfig config = Harness::make_default_config();
  config.net.sndbuf = 4096;
  config.net.rcvbuf = 4096;
  config.net.write_buffer_limit = 8192;
  Harness h(config);
  ASSERT_TRUE(h.start()) << h.transport.error();

  TestClient client;
  ASSERT_TRUE(client.connect_to(h.transport.port()));

  // Many sessions, each with a fat profile echoing back a 19-byte Verdict
  // frame: ~256 verdicts > sndbuf + write_buffer_limit, so the reactor
  // must stage partial writes while the client reads nothing.
  constexpr std::size_t kSessionCount = 256;
  std::string stream = encode_hello();
  for (std::size_t s = 1; s <= kSessionCount; ++s) {
    stream += encode_open(s, "count:2");
    stream += encode_feed_batch(s, word_of(2));
    stream += encode_close(s);
  }
  ASSERT_TRUE(client.send_all(stream));
  // Sleep without reading: verdict frames pile into the server's buffers.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  std::size_t verdicts = 0;
  WireEvent ev;
  while (verdicts < kSessionCount && client.next_event(ev)) {
    if (ev.kind == WireEvent::Kind::Verdict) {
      EXPECT_EQ(ev.verdict, Verdict::Accepting);
      EXPECT_EQ(ev.fed, 2u);
      ++verdicts;
    }
  }
  EXPECT_EQ(verdicts, kSessionCount);
  EXPECT_TRUE(client.decoder().ok()) << client.decoder().error();
}

/// An acceptor whose first feed blocks until the test opens its gate:
/// pins the shard worker so the ring fills behind it.
class GatedAcceptor final : public rtw::core::OnlineAcceptor {
public:
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    bool entered = false;
    bool open = false;

    /// Lets every feed through, now and from now on.
    void release() {
      {
        std::lock_guard lock(mutex);
        open = true;
      }
      cv.notify_all();
    }
  };
  explicit GatedAcceptor(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}

  Verdict feed(Symbol, Tick) override {
    std::unique_lock lock(gate_->mutex);
    gate_->entered = true;
    gate_->cv.notify_all();
    gate_->cv.wait(lock, [this] { return gate_->open; });
    return Verdict::Undetermined;
  }
  Verdict finish(StreamEnd) override { return Verdict::Rejecting; }
  Verdict verdict() const override { return Verdict::Undetermined; }
  const rtw::core::RunResult& result() const override { return result_; }
  void reset() override {}
  std::string name() const override { return "gated"; }

private:
  std::shared_ptr<Gate> gate_;
  rtw::core::RunResult result_;
};

/// Write-side backpressure with the stream pre-buffered: the client's
/// entire input lands in the kernel rcvbuf, the output buffer crosses
/// write_buffer_limit mid-stream, and reads pause with most of the input
/// unread.  Resuming must deliver that buffered tail without a fresh
/// EPOLLIN edge announcing it -- the unconditional re-read guarantees
/// this by construction, where gating on an edge would depend on epoll
/// happening to re-report EPOLLIN alongside the EPOLLOUT that triggers
/// the resume.
///
/// Worker-delivered verdicts would make the pause position racy, so the
/// output pressure here is ShedNotice frames: a gated session pins the one
/// shard worker and its runs fill the single tiny ring behind it, every
/// wire feed sheds, and each shed queues its notice *synchronously* on the
/// reactor.  The pause point is then a pure function of bytes read --
/// always mid-stream, long after loopback delivery finished.  (Producer
/// threads flooding the ring held it full only while they refilled it
/// faster than the worker drained it, so on a loaded host reads sometimes
/// never paused.)
TEST(NetLoopback, ResumeAfterBackpressureReadsBufferedTail) {
  ServerConfig config = Harness::make_default_config();
  config.shard.count = 1;
  config.ingress.ring_capacity = 8;  // shed_on_full stays true: shed storm
  config.net.sndbuf = 1;             // clamped up to the kernel minimum
  // Tiny read chunks make consuming the stream (hundreds of read() +
  // decode rounds) far slower than loopback delivery, so the whole stream
  // is buffered long before the pause can trigger.
  config.net.read_chunk = 64;
  config.net.write_buffer_limit = 512;
  Harness h(config);
  ASSERT_TRUE(h.start()) << h.transport.error();

  auto& manager = h.server.manager();
  auto gate = std::make_shared<GatedAcceptor::Gate>();
  // Opens the gate however the test leaves, so the worker can be joined.
  struct GateGuard {
    GatedAcceptor::Gate& gate;
    ~GateGuard() { gate.release(); }
  } gate_guard{*gate};
  const SessionId gated = manager.open(std::make_unique<GatedAcceptor>(gate),
                                       Priority::High);
  manager.feed_batch(gated, {{Symbol::chr('g'), 1}});
  {
    std::unique_lock lock(gate->mutex);
    gate->cv.wait(lock, [&] { return gate->entered; });
  }
  // The worker is pinned: High-priority runs fill the ring to capacity.
  for (Tick t = 2; manager.feed_batch(gated, {{Symbol::chr('g'), t}}) ==
                   Admit::Accepted;
       ++t) {
  }

  TestClient client;
  ASSERT_TRUE(client.connect_to(h.transport.port(), /*rcvbuf=*/1));

  // 2000 single-symbol feeds: ~38KB of shed notices against ~10KB of
  // socket capacity guarantees the pause, with most of the stream still
  // unread when it hits.  Ticks increase across feeds so admitted symbols
  // are never dropped as stale.
  constexpr std::size_t kFeeds = 2000;
  std::string stream = encode_hello();
  stream += encode_open(1, "count:" + std::to_string(kFeeds));
  for (std::size_t i = 0; i < kFeeds; ++i) {
    stream += encode_feed_batch(
        1, {{Symbol::nat(i % 5), static_cast<Tick>(i + 1)}});
  }
  stream += encode_close(1);
  ASSERT_TRUE(client.send_all(stream));
  // Sleep without reading: the server sheds feed after feed until its
  // output fills, pauses reads, and from here on only EPOLLOUT (us
  // draining) can wake the connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  gate->release();
  manager.close(gated);

  // Every feed either queued a ShedNotice or reached the session; the
  // close's Verdict is last, so its arrival proves the whole tail was
  // read after the resume.
  std::uint64_t sheds = 0;
  std::uint64_t fed = 0;
  bool saw_verdict = false;
  WireEvent ev;
  while (!saw_verdict && client.next_event(ev)) {
    if (ev.kind == WireEvent::Kind::Shed) {
      ++sheds;
    } else if (ev.kind == WireEvent::Kind::Verdict) {
      EXPECT_EQ(ev.session, 1u);
      fed = ev.fed;
      saw_verdict = true;
    }
  }
  ASSERT_TRUE(saw_verdict) << "verdict never arrived: tail stranded";
  EXPECT_EQ(sheds + fed, kFeeds);
  EXPECT_TRUE(client.decoder().ok()) << client.decoder().error();
  // The scenario must actually have paused reads, or it proves nothing.
  EXPECT_GE(h.transport.stats().read_pauses, 1u);
}

/// Regression: admission parking over TCP.  A tiny single-shard ring with
/// shed_on_full=false makes wire feeds hit Admit::Blocked while an
/// in-process flooder keeps the shard saturated; the reactor parks the
/// connection with most of the (tiny) client stream still unread in the
/// kernel rcvbuf.  When the flood stops and retry_pending() succeeds, the
/// resume must re-read that tail without waiting for an input edge.
TEST(NetLoopback, AdmissionParkResumesBufferedTail) {
  ServerConfig config = Harness::make_default_config();
  config.shard.count = 1;
  config.ingress.ring_capacity = 2;
  config.ingress.shed_on_full = false;  // full ring parks, never sheds
  config.net.read_chunk = 64;  // park mid-stream, tail stays in rcvbuf
  Harness h(config);
  ASSERT_TRUE(h.start()) << h.transport.error();

  auto& manager = h.server.manager();
  const auto factory = profile_factory();
  constexpr SessionId kFloodSession = SessionId{1} << 20;
  manager.open(kFloodSession, factory(kFloodSession, "accept"),
               Priority::High);
  std::atomic<bool> flood{true};
  // Several flooders: feed_batch copies the run (tens of us per call), so
  // one thread alone leaves refill gaps where a wire feed could slip in
  // without ever seeing Blocked.
  std::vector<std::thread> flooders;
  for (int i = 0; i < 3; ++i) {
    flooders.emplace_back([&] {
      const auto big = word_of(20000);
      while (flood.load(std::memory_order_relaxed))
        manager.feed_batch(kFloodSession, big);  // Blocked = just retry
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  TestClient client;
  ASSERT_TRUE(client.connect_to(h.transport.port()));
  constexpr std::size_t kSessionCount = 8;
  std::string stream = encode_hello();
  for (std::size_t s = 1; s <= kSessionCount; ++s) {
    stream += encode_open(s, "count:3");
    stream += encode_feed_batch(s, word_of(3));
    stream += encode_close(s);
  }
  // One small write: the whole stream is in the server's rcvbuf long
  // before the park lifts, so no further input edge will arrive.
  ASSERT_TRUE(client.send_all(stream));

  // Let the reactor park on a Blocked feed while the flood saturates the
  // ring, then stop the flood so the poll-retry can admit the rest.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  flood.store(false, std::memory_order_relaxed);
  for (auto& t : flooders) t.join();
  manager.close(kFloodSession);

  std::size_t verdicts = 0;
  WireEvent ev;
  while (verdicts < kSessionCount && client.next_event(ev)) {
    if (ev.kind == WireEvent::Kind::Verdict) {
      EXPECT_EQ(ev.verdict, Verdict::Accepting);
      EXPECT_EQ(ev.fed, 3u);
      ++verdicts;
    }
  }
  EXPECT_EQ(verdicts, kSessionCount);
  EXPECT_TRUE(client.decoder().ok()) << client.decoder().error();
}

TEST(NetLoopback, GracefulDrainFlushesTruncatedVerdicts) {
  auto h = std::make_unique<Harness>();
  ASSERT_TRUE(h->start()) << h->transport.error();

  TestClient client;
  ASSERT_TRUE(client.connect_to(h->transport.port()));
  std::string stream = encode_hello();
  stream += encode_open(9, "count:8");
  stream += encode_feed_batch(9, word_of(4));  // never closed by the client
  ASSERT_TRUE(client.send_all(stream));

  // Wait for the HelloAck so the server has definitely consumed the open.
  WireEvent ev;
  ASSERT_TRUE(client.next_event(ev));
  EXPECT_EQ(ev.kind, WireEvent::Kind::HelloAck);

  h->transport.stop();  // graceful drain: truncate-close, flush, close

  bool saw_verdict = false;
  for (const auto& event : client.drain_until_eof()) {
    if (event.kind != WireEvent::Kind::Verdict) continue;
    saw_verdict = true;
    EXPECT_EQ(event.session, 9u);
    // count:8 truncated at 4 symbols: settled Rejecting, heuristically.
    EXPECT_EQ(event.verdict, Verdict::Rejecting);
    EXPECT_FALSE(event.exact);
    EXPECT_EQ(event.fed, 4u);
  }
  EXPECT_TRUE(saw_verdict);
  EXPECT_EQ(h->server.manager().stats().active, 0u);
}

TEST(NetLoopback, SubmitQuerySessionRoundTripsUnderByteSplits) {
  Harness h;
  ASSERT_TRUE(h.start()) << h.transport.error();

  std::string stream = encode_hello();
  stream += encode_submit_query(1, "within(4){ a ; (b | c)+ }");
  stream += encode_feed_batch(1, {{Symbol::chr('a'), 10},
                                  {Symbol::chr('c'), 12},
                                  {Symbol::chr('b'), 14}});
  stream += encode_close(1);

  // chunk=1 with pacing: the query text itself arrives one byte per
  // read(), so the decoder's frame reassembly -- not the parser -- must
  // hold the partial body.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{5}}) {
    TestClient client;
    ASSERT_TRUE(client.connect_to(h.transport.port()));
    ASSERT_TRUE(client.send_all(stream, chunk, /*pace_us=*/chunk == 1 ? 50
                                                                      : 0));
    WireEvent ev;
    ASSERT_TRUE(client.next_event(ev)) << "chunk=" << chunk;
    EXPECT_EQ(ev.kind, WireEvent::Kind::HelloAck);
    ASSERT_TRUE(client.next_event(ev)) << "chunk=" << chunk;
    EXPECT_EQ(ev.kind, WireEvent::Kind::Verdict);
    EXPECT_EQ(ev.session, 1u);
    EXPECT_EQ(ev.verdict, Verdict::Accepting) << "chunk=" << chunk;
    EXPECT_TRUE(ev.exact);
    EXPECT_EQ(ev.fed, 3u);
  }
  EXPECT_GE(h.server.manager().stats().query_compiled, 2u);
}

TEST(NetLoopback, MalformedSubmitQueryKillsTheConnectionNotTheServer) {
  Harness h;
  ASSERT_TRUE(h.start()) << h.transport.error();

  TestClient bad;
  ASSERT_TRUE(bad.connect_to(h.transport.port()));
  std::string stream = encode_hello();
  stream += encode_submit_query(3, "within(){ oops");
  // Paced 1-byte writes: the server sees the malformed body assemble
  // byte by byte and must reject only once the frame completes.
  ASSERT_TRUE(bad.send_all(stream, /*chunk=*/1, /*pace_us=*/50));

  // The sticky DecodeError closes the connection; the drain must see EOF
  // rather than hang, and no Verdict/Shed for the dead session.
  for (const auto& event : bad.drain_until_eof(5000)) {
    EXPECT_NE(event.kind, WireEvent::Kind::Verdict);
    EXPECT_NE(event.kind, WireEvent::Kind::Shed);
  }
  EXPECT_EQ(h.server.manager().stats().opened, 0u);

  // The listener is unharmed: a fresh client still gets full service.
  TestClient good;
  ASSERT_TRUE(good.connect_to(h.transport.port()));
  std::string ok = encode_hello();
  ok += encode_submit_query(4, "(a)+");
  ok += encode_feed_batch(4, {{Symbol::chr('a'), 1}, {Symbol::chr('a'), 2}});
  ok += encode_close(4);
  ASSERT_TRUE(good.send_all(ok));
  WireEvent ev;
  ASSERT_TRUE(good.next_event(ev));
  EXPECT_EQ(ev.kind, WireEvent::Kind::HelloAck);
  ASSERT_TRUE(good.next_event(ev));
  EXPECT_EQ(ev.kind, WireEvent::Kind::Verdict);
  EXPECT_EQ(ev.verdict, Verdict::Accepting);
}

TEST(NetLoopback, TruncatedSubmitQueryBodyNeverHangsTheConnection) {
  Harness h;
  ASSERT_TRUE(h.start()) << h.transport.error();

  TestClient client;
  ASSERT_TRUE(client.connect_to(h.transport.port()));
  std::string stream = encode_hello();
  // A SubmitQuery frame whose header promises more body bytes than the
  // client will ever send, then EOF mid-frame.
  const std::string frame = encode_submit_query(6, "within(3){ a ; b }");
  stream += frame.substr(0, frame.size() - 7);
  ASSERT_TRUE(client.send_all(stream, /*chunk=*/1, /*pace_us=*/50));

  WireEvent ev;
  ASSERT_TRUE(client.next_event(ev));
  EXPECT_EQ(ev.kind, WireEvent::Kind::HelloAck);
  client.close();  // EOF with the frame still open

  // The server must tear the half-open connection down without opening a
  // session; give the reactor a moment and assert nothing leaked.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (h.server.manager().stats().active > 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(h.server.manager().stats().opened, 0u);
  EXPECT_EQ(h.server.manager().stats().active, 0u);
}

// ------------------------------------------------------------ facade

/// Decodes every whole frame in `bytes`; false on a framing error.
bool decode_frames(std::string_view bytes, std::vector<WireEvent>& events) {
  Decoder decoder;
  decoder.push(bytes);
  WireEvent ev;
  while (decoder.next(ev)) events.push_back(ev);
  return decoder.ok();
}

/// Takes and decodes everything queued on `conn`.
std::vector<WireEvent> take_events(Connection& conn) {
  std::string out;
  conn.take_output(out, SIZE_MAX);
  std::vector<WireEvent> events;
  EXPECT_TRUE(decode_frames(out, events));
  return events;
}

/// One whole session on the wire: open, a word of `n` symbols, close.
std::string session_frames(SessionId client, const std::string& profile,
                           std::size_t n) {
  std::string frames = encode_open(client, profile);
  frames += encode_feed_batch(client, word_of(n));
  frames += encode_close(client);
  return frames;
}

/// Counts wake-hook calls per connection id.  The hook runs on shard
/// workers, so the map is mutex-guarded.
struct WakeCounter {
  void install(Server& server) {
    server.set_wakeup([this](const std::shared_ptr<Connection>& conn) {
      std::lock_guard lock(mutex);
      ++wakes[conn->id()];
    });
  }
  std::size_t of(std::uint64_t id) {
    std::lock_guard lock(mutex);
    const auto it = wakes.find(id);
    return it == wakes.end() ? 0 : it->second;
  }

  std::mutex mutex;
  std::map<std::uint64_t, std::size_t> wakes;
};

ServerConfig facade_config() {
  ServerConfig config;
  config.shard.count = 2;
  return config;
}

TEST(ServerFacade, DisconnectDropsInFlightVerdictsButNotDirectReports) {
  WakeCounter wakes;  // declared first: outlives the server's drain
  Server server(facade_config(), profile_factory());
  wakes.install(server);

  auto conn = server.connect();
  std::string stream = encode_hello();
  for (SessionId s = 1; s <= 4; ++s) {
    stream += encode_open(s, "count:8");
    stream += encode_feed_batch(s, word_of(3));
  }
  ASSERT_TRUE(conn->on_bytes(stream));
  ASSERT_EQ(take_events(*conn).size(), 1u);  // the HelloAck

  const SessionId direct =
      server.manager().open(profile_factory()(0, "count:2"));
  server.manager().feed_batch(direct, word_of(2));
  server.disconnect(conn);  // truncate-closes the four wire sessions
  server.manager().close(direct);
  server.manager().drain();

  EXPECT_EQ(conn->output_size(), 0u);
  EXPECT_EQ(wakes.of(conn->id()), 0u);
  EXPECT_EQ(conn->stats().verdicts, 0u);
  const auto reports = server.manager().collect();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].id, direct);
  EXPECT_EQ(reports[0].verdict, Verdict::Accepting);
  EXPECT_EQ(reports[0].fed, 2u);
  EXPECT_EQ(server.manager().stats().closed, 5u);
  EXPECT_EQ(server.manager().stats().active, 0u);
}

TEST(ServerFacade, TwoConnectionsSharingAClientIdEachGetTheirOwnVerdict) {
  WakeCounter wakes;
  Server server(facade_config(), profile_factory());
  wakes.install(server);

  auto a = server.connect();
  auto b = server.connect();
  ASSERT_TRUE(a->on_bytes(encode_hello() + session_frames(7, "count:3", 3)));
  ASSERT_TRUE(b->on_bytes(encode_hello() + session_frames(7, "count:3", 5)));
  server.manager().drain();

  struct Want {
    Connection& conn;
    std::uint64_t fed;
    Verdict verdict;
  };
  for (const Want want : {Want{*a, 3, Verdict::Accepting},
                          Want{*b, 5, Verdict::Rejecting}}) {
    const auto events = take_events(want.conn);
    ASSERT_EQ(events.size(), 2u) << "connection " << want.conn.id();
    EXPECT_EQ(events[0].kind, WireEvent::Kind::HelloAck);
    EXPECT_EQ(events[1].kind, WireEvent::Kind::Verdict);
    EXPECT_EQ(events[1].session, 7u);
    EXPECT_EQ(events[1].fed, want.fed);
    EXPECT_EQ(events[1].verdict, want.verdict);
    EXPECT_EQ(wakes.of(want.conn.id()), 1u);
    EXPECT_EQ(want.conn.stats().opens, 1u);
    EXPECT_EQ(want.conn.stats().verdicts, 1u);
  }
  EXPECT_TRUE(server.manager().collect().empty());
}

TEST(ServerFacade, AClientIdReopensAfterItsVerdict) {
  Server server(facade_config(), profile_factory());
  auto conn = server.connect();

  ASSERT_TRUE(conn->on_bytes(encode_hello() + session_frames(1, "count:2", 2)));
  server.manager().drain();
  const auto first = take_events(*conn);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[1].kind, WireEvent::Kind::Verdict);
  EXPECT_EQ(first[1].verdict, Verdict::Accepting);
  EXPECT_EQ(first[1].fed, 2u);

  ASSERT_TRUE(conn->on_bytes(session_frames(1, "count:2", 4)));
  server.manager().drain();
  const auto second = take_events(*conn);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].kind, WireEvent::Kind::Verdict);
  EXPECT_EQ(second[0].session, 1u);
  EXPECT_EQ(second[0].verdict, Verdict::Rejecting);
  EXPECT_EQ(second[0].fed, 4u);

  const ConnectionStats stats = conn->stats();
  EXPECT_EQ(stats.opens, 2u);
  EXPECT_EQ(stats.dup_opens, 0u);
  EXPECT_EQ(stats.unknown_frames, 0u);
  EXPECT_EQ(stats.verdicts, 2u);
  conn->finish_input();
  EXPECT_TRUE(conn->complete());
}

TEST(ServerFacade, DuplicateOpenWhileLiveCountsDupOpens) {
  Server server(facade_config(), profile_factory());
  auto conn = server.connect();

  std::string stream = encode_hello();
  stream += encode_open(1, "count:3");
  stream += encode_feed_batch(1, word_of(2));
  stream += encode_open(1, "count:9");  // duplicate: ignored, counted
  stream += encode_feed_batch(1, {{Symbol::nat(0), 3}});
  stream += encode_close(1);
  ASSERT_TRUE(conn->on_bytes(stream));
  server.manager().drain();

  const auto events = take_events(*conn);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].kind, WireEvent::Kind::Verdict);
  EXPECT_EQ(events[1].verdict, Verdict::Accepting);  // count:3 kept
  EXPECT_EQ(events[1].fed, 3u);
  EXPECT_EQ(conn->stats().opens, 1u);
  EXPECT_EQ(conn->stats().dup_opens, 1u);
  EXPECT_EQ(server.manager().stats().opened, 1u);
}

TEST(ServerFacade, ConnectionsWithoutHelloGetVerdictsAndShedNotices) {
  Server server(facade_config(), profile_factory());
  auto conn = server.connect();

  // No Hello: the notification plane is protocol, not negotiation.
  ASSERT_TRUE(conn->on_bytes(session_frames(1, "count:2", 2) +
                             encode_open(2, "no-such-profile")));
  server.manager().drain();

  // A shard worker may deliver the verdict before the reader refuses the
  // second open, so the two frames come in either order.
  auto events = take_events(*conn);
  ASSERT_EQ(events.size(), 2u);
  if (events[0].kind == WireEvent::Kind::Verdict)
    std::swap(events[0], events[1]);
  EXPECT_EQ(events[0].kind, WireEvent::Kind::Shed);
  EXPECT_EQ(events[0].session, 2u);
  EXPECT_EQ(events[0].admit.admit, Admit::Shed);
  EXPECT_EQ(events[1].kind, WireEvent::Kind::Verdict);
  EXPECT_EQ(events[1].session, 1u);
  EXPECT_EQ(events[1].verdict, Verdict::Accepting);
  EXPECT_EQ(events[1].fed, 2u);
  EXPECT_EQ(conn->stats().refused_opens, 1u);
  EXPECT_EQ(conn->stats().verdicts, 1u);
}

/// One thread opens, feeds and disconnects connections at seeded points
/// while the shard workers finish their sessions and the wake hook drains
/// each connection on the worker that delivered, as perfbench's
/// in-process path does.  The test drops its own reference right after
/// disconnect() or finish_input(), so the last reference to a Connection
/// may be released on a shard worker; the sanitizer builds check that.
TEST(ServerFacade, DisconnectStormReleasesConnectionsOnShardWorkers) {
  struct Delivered {
    std::mutex mutex;
    std::map<std::uint64_t, std::size_t> verdicts;
    std::atomic<bool> framing_ok{true};
  } delivered;
  Server server(facade_config(), profile_factory());
  server.set_wakeup([&delivered](const std::shared_ptr<Connection>& conn) {
    std::string out;
    conn->take_output(out, SIZE_MAX);
    std::vector<WireEvent> events;
    if (!decode_frames(out, events)) delivered.framing_ok = false;
    std::size_t n = 0;
    for (const auto& ev : events) n += ev.kind == WireEvent::Kind::Verdict;
    std::lock_guard lock(delivered.mutex);
    delivered.verdicts[conn->id()] += n;
  });

  struct Plan {
    std::weak_ptr<Connection> conn;
    std::uint64_t id = 0;
    std::size_t opened = 0;
    bool detached = false;
  };
  std::vector<Plan> plans;
  std::mt19937_64 rng(0x5eed'd15c);
  constexpr std::size_t kConnections = 2000;
  for (std::size_t c = 0; c < kConnections; ++c) {
    auto conn = server.connect();
    ASSERT_TRUE(conn->on_bytes(encode_hello()));
    ASSERT_EQ(take_events(*conn).size(), 1u);  // HelloAck, before any wake
    Plan plan;
    plan.conn = conn;
    plan.id = conn->id();
    // Disconnect after session `cut` (0 = before any frame past the
    // Hello); a cut past the last session keeps the connection attached
    // and ends it with finish_input() instead.
    const std::size_t sessions = 1 + rng() % 4;
    const std::size_t cut = rng() % (sessions + 2);
    for (std::size_t s = 1; s <= sessions && !plan.detached; ++s) {
      if (s - 1 == cut) {
        server.disconnect(conn);
        plan.detached = true;
        break;
      }
      std::string frames = encode_open(s, "count:" + std::to_string(rng() % 48));
      frames += encode_feed_batch(s, word_of(1 + rng() % 64));
      if (rng() % 2) frames += encode_close(s);  // else left in flight
      ASSERT_TRUE(conn->on_bytes(frames));
      ++plan.opened;
    }
    if (!plan.detached) {
      if (cut == sessions) {
        server.disconnect(conn);  // every session already sent
        plan.detached = true;
      } else {
        conn->finish_input();
      }
    }
    plans.push_back(std::move(plan));
  }
  server.manager().drain();

  EXPECT_TRUE(delivered.framing_ok.load());
  EXPECT_TRUE(server.manager().collect().empty());
  EXPECT_EQ(server.manager().stats().active, 0u);
  std::size_t attached = 0;
  {
    std::lock_guard lock(delivered.mutex);
    for (const Plan& plan : plans) {
      const auto it = delivered.verdicts.find(plan.id);
      const std::size_t got = it == delivered.verdicts.end() ? 0 : it->second;
      if (plan.detached) {
        EXPECT_LE(got, plan.opened) << "connection " << plan.id;
      } else {
        ++attached;
        EXPECT_EQ(got, plan.opened) << "connection " << plan.id;
      }
    }
  }
  EXPECT_GT(attached, 0u);
  EXPECT_LT(attached, kConnections);

  // Nothing outlives its sessions: once every connection is detached and
  // every verdict settled, no Connection is left alive.
  for (const Plan& plan : plans)
    if (auto conn = plan.conn.lock()) server.disconnect(conn);
  server.manager().drain();
  for (const Plan& plan : plans)
    EXPECT_TRUE(plan.conn.expired()) << "connection " << plan.id;
  server.set_wakeup(nullptr);
}

// ------------------------------------------------- op-12 handoff

/// Both paths' acceptors: the wire profiles, plus "deadline:C" -- a
/// section 4.1 deadline session with fixed cost C on its lane acceptor,
/// whose words carry the `$` and `d` markers.
AcceptorFactory handoff_factory() {
  return [](SessionId, std::string_view profile)
             -> std::unique_ptr<rtw::core::OnlineAcceptor> {
    constexpr std::string_view kDeadline = "deadline:";
    if (profile.substr(0, kDeadline.size()) != kDeadline)
      return make_profile_acceptor(profile);
    const auto cost = std::stoull(std::string(profile.substr(kDeadline.size())));
    rtw::core::RunOptions options;
    options.horizon = 1u << 20;
    return rtw::deadline::make_lane_acceptor(
        std::make_shared<rtw::deadline::FixedCostProblem>(cost), options);
  };
}

/// One session's plan: how it opens, its word, how it closes.
struct HandoffSession {
  std::string open;  ///< its Open or SubmitQuery frame
  std::vector<TimedSymbol> word;
  StreamEnd end = StreamEnd::EndOfWord;
};

/// Seeded sessions over the three acceptor kinds the handoff serves
/// differently: cer queries (fed element by element from the bytes),
/// count:K profiles (Char, Nat and marker elements, with time
/// regressions for the stale filter) and deadline lane sessions (decoded
/// into the shard's wave storage).
std::vector<HandoffSession> handoff_sessions(std::mt19937_64& rng) {
  static const char* const kQueries[] = {
      "a ; b ; c ; d", "(a | b | c | d)+", "within(8){ a ; (b | c)+ ; d }",
      "(within(4){ a ; b })+ | (c ; d)+"};
  std::vector<HandoffSession> sessions;
  for (SessionId s = 1; s <= 12; ++s) {
    HandoffSession plan;
    Tick t = 0;
    const std::size_t n = 50 + rng() % 1500;
    switch (s % 3) {
      case 0:
        plan.open = encode_submit_query(s, kQueries[rng() % 4]);
        for (std::size_t i = 0; i < n; ++i) {
          t += 1 + rng() % 3;
          const char c = static_cast<char>('a' + (s % 2 ? rng() % 4 : i % 2));
          plan.word.push_back({Symbol::chr(rng() % 200 ? c : 'e'), t});
        }
        break;
      case 1:
        plan.open = encode_open(s, "count:" + std::to_string(n - rng() % 8));
        for (std::size_t i = 0; i < n; ++i) {
          t = rng() % 16 ? t + rng() % 3 : t - std::min<Tick>(t, rng() % 5);
          const Symbol sym = i % 3 == 0   ? Symbol::chr('x')
                             : i % 3 == 1 ? Symbol::nat(rng())
                                          : Symbol::marker("mk");
          plan.word.push_back({sym, t});
        }
        break;
      default:
        plan.open = encode_open(s, "deadline:" + std::to_string(n / 2 + rng() % n));
        plan.word = {{Symbol::nat(1), 0},
                     {rtw::core::marks::dollar(), 0},
                     {Symbol::nat(1), 0},
                     {rtw::core::marks::dollar(), 0}};
        for (std::size_t i = 0; i < n; ++i) {
          t = rng() % 32 ? t + 1 : t - std::min<Tick>(t, 2);
          if (i % 17 == 0) {
            plan.word.push_back({rtw::core::marks::deadline(), t});
            plan.word.push_back({Symbol::nat(rng() % 7), t});
          } else {
            plan.word.push_back({Symbol::chr('w'), t});
          }
        }
    }
    plan.end = rng() % 4 ? StreamEnd::EndOfWord : StreamEnd::Truncated;
    sessions.push_back(std::move(plan));
  }
  return sessions;
}

/// Hello, every open, then each session's word as op-12 frames of
/// 1..300 elements interleaved across sessions, then every close.
std::string handoff_stream(const std::vector<HandoffSession>& sessions,
                           std::mt19937_64& rng) {
  std::string stream = encode_hello();
  for (const auto& plan : sessions) stream += plan.open;
  std::vector<std::size_t> sent(sessions.size(), 0);
  for (std::size_t live = sessions.size(); live > 0;) {
    const std::size_t s = rng() % sessions.size();
    const auto& word = sessions[s].word;
    if (sent[s] == word.size()) continue;
    const std::size_t n = std::min<std::size_t>(1 + rng() % 300,
                                                word.size() - sent[s]);
    stream += encode_feed_batch(
        s + 1, {word.begin() + static_cast<long>(sent[s]),
                word.begin() + static_cast<long>(sent[s] + n)});
    sent[s] += n;
    if (sent[s] == word.size()) --live;
  }
  for (std::size_t s = 0; s < sessions.size(); ++s)
    stream += encode_close(s + 1, sessions[s].end);
  return stream;
}

struct Settled {
  Verdict verdict = Verdict::Undetermined;
  bool exact = false;
  std::uint64_t fed = 0;
  std::uint64_t stale = 0;
  bool operator==(const Settled&) const = default;
};

/// Op-12 streams give the same reports -- verdict, exact, fed, stale --
/// through Connection::on_bytes (bodies validated on the reader, walked
/// on the shards) as through a decoding Decoder and
/// SessionManager::apply.  With shed_on_full off and a 2-slot ring the
/// connection parks Blocked bodies in their pooled buffers and retries
/// them; with it on, the ring is large enough that nothing sheds.
TEST(ServerFacade, PackedHandoffReportsMatchDecodeAndApply) {
  for (const bool shed_on_full : {true, false}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("shed_on_full=" + std::to_string(shed_on_full) +
                   " seed=" + std::to_string(seed));
      std::mt19937_64 rng(seed);
      const auto sessions = handoff_sessions(rng);
      const std::string stream = handoff_stream(sessions, rng);
      ServerConfig config;
      config.shard.count = 2;
      config.ingress.shed_on_full = shed_on_full;
      config.ingress.ring_capacity = shed_on_full ? 4096 : 2;

      std::map<SessionId, Settled> by_wire;
      Server server(config, handoff_factory());
      {
        auto conn = server.connect();
        for (std::size_t off = 0; off < stream.size();) {
          const std::size_t n =
              std::min<std::size_t>(1 + rng() % 9000, stream.size() - off);
          ASSERT_TRUE(conn->on_bytes(std::string_view(stream).substr(off, n)))
              << conn->error();
          off += n;
          while (conn->paused() && !conn->retry_pending())
            std::this_thread::yield();
        }
        server.manager().drain();
        for (const auto& ev : take_events(*conn))
          if (ev.kind == WireEvent::Kind::Verdict)
            by_wire[ev.session] = {ev.verdict, ev.exact, ev.fed, ev.stale};
        EXPECT_EQ(conn->stats().sheds, 0u);
      }
      const auto served = server.manager().stats();
      EXPECT_GT(served.lane_symbols, 0u);  // the wave decode ran
      if (!shed_on_full) {
        EXPECT_GT(served.blocked, 0u);  // bodies parked and retried
      }

      std::map<SessionId, Settled> by_apply;
      SessionManager manager(config);
      Decoder decoder;
      decoder.push(stream);
      WireEvent ev;
      const auto factory = handoff_factory();
      while (decoder.next(ev)) {
        if (ev.kind != WireEvent::Kind::Hello) {
          EXPECT_EQ(manager.apply(ev, factory), Admit::Accepted);
        }
      }
      manager.drain();
      for (const auto& r : manager.collect())
        by_apply[r.id] = {r.verdict, r.result.exact, r.fed, r.stale_dropped};

      EXPECT_EQ(by_wire.size(), sessions.size());
      EXPECT_EQ(by_wire, by_apply);
      std::uint64_t stale = 0;
      for (const auto& [id, settled] : by_apply) stale += settled.stale;
      EXPECT_GT(stale, 0u);
    }
  }
}

/// Bodies still in flight when their connection goes away.  A gated
/// session pins the one shard worker while connections open sessions,
/// send op-12 bodies, close or disconnect, and are dropped by the test.
/// When the gate opens, the worker processes a connection's last Close
/// in the same drain batch as the Feeds before it; that Close drops the
/// last route, so the Connection -- and the BodyPool its Decoder owns --
/// is destroyed while those Feed commands still hold their buffers,
/// which then come back to a pool whose owner is gone.  The sanitizer
/// builds check that handoff.
TEST(ServerFacade, DisconnectStormWithBodiesInFlight) {
  ServerConfig config;
  config.shard.count = 1;
  Server server(config, profile_factory());
  auto& manager = server.manager();
  std::mt19937_64 rng(0xb0d1e5);
  std::uint64_t sent_symbols = 0;
  std::vector<std::weak_ptr<Connection>> gone;
  for (int round = 0; round < 20; ++round) {
    auto gate = std::make_shared<GatedAcceptor::Gate>();
    const SessionId gated =
        manager.open(std::make_unique<GatedAcceptor>(gate));
    manager.feed_batch(gated, {{Symbol::chr('g'), 1}});
    {
      std::unique_lock lock(gate->mutex);
      gate->cv.wait(lock, [&] { return gate->entered; });
    }
    for (int c = 0; c < 8; ++c) {
      auto conn = server.connect();
      std::string frames = encode_hello();
      for (SessionId s = 1; s <= 3; ++s) {
        frames += encode_open(s, "accept");
        for (std::size_t f = 1 + rng() % 12; f > 0; --f) {
          const std::size_t n = 1 + rng() % 200;
          frames += encode_feed_batch(s, word_of(n));
          sent_symbols += n;
        }
        if (rng() % 2) frames += encode_close(s);
      }
      ASSERT_TRUE(conn->on_bytes(frames));
      if (rng() % 2)
        server.disconnect(conn);
      else
        conn->finish_input();
      gone.push_back(conn);
    }
    gate->release();
    manager.close(gated);
    manager.drain();
  }
  for (const auto& conn : gone) EXPECT_TRUE(conn.expired());
  const auto stats = manager.stats();
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.ingested, sent_symbols + 20);  // + each round's gate feed
}

// The slow-reader test can race a close into a write: never die on
// SIGPIPE.  Runs before gtest_main enters main.
const int kIgnoreSigpipe = [] {
  std::signal(SIGPIPE, SIG_IGN);
  return 0;
}();

}  // namespace
