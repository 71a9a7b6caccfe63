// pb_load: load generator, verdict checker and traced per-layer replays for
// the serving benchmark (see perfbench/NOTES.md for the workloads).
//
//   pb_load --workload wire_churn|wire_query|inproc_deadline --seed N
//           --seconds S --trace 0|1 --server PATH/pb_server [--out DIR]
//           [--rate SESSIONS_PER_S] [--plant-wrong]
//
// The last stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// --rate overrides wire_churn's offered rate; --plant-wrong flips one
// expected verdict (both exist for run.py --self-check).
//
// Every session's verdict is checked.  A session counts as failed when
// any of its runs was shed, its open was refused, its verdict never came
// or came more than a second after its Close, or the verdict
// (accepting/rejecting, exact, fed, stale) differs from the in-process
// reference.  Throughput counts only symbols of sessions whose verdict
// arrived in the window, in time, and matched.
//
// A traced run measures the workload once more over TCP (untraced first
// half, traced second half: the difference is the tracing overhead), then
// replays the same schedule through an in-process Server and through bare
// Decoder + SessionManager calls, and feeds the acceptors directly; the
// per-layer metrics are differences and counts across those phases.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <deque>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "rtw/cer/acceptor.hpp"
#include "rtw/cer/compile.hpp"
#include "rtw/cer/parser.hpp"
#include "rtw/deadline/lane.hpp"
#include "rtw/deadline/online.hpp"
#include "rtw/deadline/problem.hpp"
#include "rtw/svc/profiles.hpp"
#include "rtw/svc/server.hpp"
#include "rtw/svc/service.hpp"
#include "rtw/svc/wire.hpp"

namespace {

using pb::now_ns;
using rtw::core::Symbol;
using rtw::core::TimedSymbol;
using rtw::core::Verdict;
using rtw::svc::SessionId;
using rtw::svc::WireEvent;

constexpr std::size_t kConnections = 4;
/// wire_churn's offered load when --rate is not given; see NOTES.md for
/// the knee measurement that fixed it.
constexpr double kChurnRate = 16000;
constexpr std::size_t kQueryWindow = 2;  ///< sessions in flight per conn
constexpr int kSetups = 11;  ///< set-ups per run; setup_s is their median
/// A verdict that arrives later than this after its session's Close (due)
/// is an answer out of time: the session fails, as in Definition 3.4 an
/// output after the deadline is no output.
constexpr std::uint64_t kVerdictDeadlineNs = 1'000'000'000;

/// The bench_cer catalog.
struct CatalogQuery {
  const char* label;
  const char* text;
};
constexpr CatalogQuery kQueries[] = {
    {"seq", "a ; b ; c ; d"},
    {"alt_iter", "(a | b | c | d)+"},
    {"window", "within(8){ a ; (b | c)+ ; d }"},
    {"nested", "(within(4){ a ; b })+ | (c ; d)+"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server_path;
  std::string out_dir = ".";
  double rate = 0;
  bool plant_wrong = false;
};

[[noreturn]] void die(const std::string& message) {
  std::cerr << "pb_load: " << message << "\n";
  std::exit(1);
}

double ms(double ns) { return ns / 1e6; }
double us(double ns) { return ns / 1e3; }

// ------------------------------------------------------------- run tally

/// Outcome of every session of a run, and the end-to-end samples of the
/// measured window.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;    ///< verdict differs from the reference
  std::uint64_t shed = 0;     ///< sessions with a shed run or refused open
  std::uint64_t missing = 0;  ///< verdict never arrived
  std::uint64_t late = 0;     ///< verdict later than kVerdictDeadlineNs
  std::uint64_t window_start = 0, window_end = 0;
  std::uint64_t delivered = 0;  ///< symbols of matched in-window sessions
  pb::Latencies verdict;        ///< close (due) -> verdict, in window

  /// Throughput and p50 restricted to the verdicts that arrived in
  /// [from, to): the traced run compares its untraced and traced halves.
  struct Part {
    std::uint64_t symbols = 0;
    std::vector<std::uint64_t> latency;
  };
  Part halves[2];

  void count(std::uint64_t at, std::uint64_t latency_ns, std::uint64_t symbols) {
    if (at < window_start || at >= window_end) return;
    verdict.add(at, latency_ns);
    delivered += symbols;
    const std::uint64_t mid = window_start + (window_end - window_start) / 2;
    Part& half = halves[at < mid ? 0 : 1];
    half.symbols += symbols;
    half.latency.push_back(latency_ns);
  }
  double window_s() const {
    return static_cast<double>(window_end - window_start) / 1e9;
  }
  /// Adds another phase's session outcomes (not its samples).
  void absorb(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    wrong += other.wrong;
    shed += other.shed;
    missing += other.missing;
    late += other.late;
  }
};

/// Relative change of the traced half against the untraced half, in %.
void report_overhead(const Tally& tally, pb::Metrics& m) {
  const double t0 = static_cast<double>(tally.halves[0].symbols);
  const double t1 = static_cast<double>(tally.halves[1].symbols);
  const double p0 = pb::quantile(tally.halves[0].latency, 0.5);
  const double p1 = pb::quantile(tally.halves[1].latency, 0.5);
  m.set("trace.overhead_throughput_pct", t0 > 0 ? 100.0 * (t0 - t1) / t0 : 0,
        "%");
  m.set("trace.overhead_p50_pct", p0 > 0 ? 100.0 * (p1 - p0) / p0 : 0, "%");
}

// ------------------------------------------------------------ wire pools

struct Expect {
  Verdict verdict = Verdict::Undetermined;
  bool exact = false;
  std::uint64_t fed = 0;
  std::uint64_t stale = 0;
};

/// One session's frames (Open/SubmitQuery, FeedBatch..., Close) with the
/// session id left zero; send() patches in each instance's id.
struct PoolEntry {
  std::string bytes;
  std::vector<std::uint32_t> frames;  ///< frame start offsets
  std::size_t close_at = 0;           ///< offset of the Close frame
  std::uint64_t symbols = 0;
  std::vector<TimedSymbol> word;
  Expect expect;
};

void patch_id(std::string& bytes, std::size_t base, const PoolEntry& entry,
              SessionId id) {
  for (const std::uint32_t off : entry.frames)
    for (int i = 0; i < 8; ++i)
      bytes[base + off + 4 + static_cast<std::size_t>(i)] =
          static_cast<char>((id >> (8 * i)) & 0xff);
}

PoolEntry make_entry(const std::string& open_frame,
                     const std::vector<TimedSymbol>& word, std::size_t run) {
  PoolEntry e;
  const auto add = [&e](const std::string& frame) {
    e.frames.push_back(static_cast<std::uint32_t>(e.bytes.size()));
    e.bytes += frame;
  };
  add(open_frame);
  for (std::size_t off = 0; off < word.size(); off += run) {
    const auto first = word.begin() + static_cast<std::ptrdiff_t>(off);
    const auto last =
        word.begin() + static_cast<std::ptrdiff_t>(std::min(word.size(), off + run));
    add(rtw::svc::encode_feed_batch(0, std::vector<TimedSymbol>(first, last)));
  }
  e.close_at = e.bytes.size();
  add(rtw::svc::encode_close(0));
  e.symbols = word.size();
  e.word = word;
  return e;
}

/// wire_churn: count:K sessions of 64 symbols in FeedBatch frames of 8;
/// half hit K exactly (Accepting at close), half overshoot K by one
/// (Rejecting, locked early by the 64th symbol).
std::vector<PoolEntry> churn_pool(std::uint64_t seed) {
  pb::Rng rng(seed);
  std::vector<PoolEntry> pool;
  for (int i = 0; i < 256; ++i) {
    const bool accept = rng.below(2) == 0;
    std::vector<TimedSymbol> word;
    rtw::core::Tick t = 1;
    for (int s = 0; s < 64; ++s) {
      t += rng.below(3);
      word.push_back({Symbol::nat(rng.below(7)), t});
    }
    pool.push_back(make_entry(
        rtw::svc::encode_open(0, accept ? "count:64" : "count:63"), word, 8));
  }
  return pool;
}

/// wire_query: SubmitQuery sessions over the four catalog queries, 16384
/// symbols each in FeedBatch frames of 256.  Anchored matching kills
/// a config set at its first impossible symbol, so the words are chosen to
/// keep one: random a-d for alt_iter, a->b pairs at most 3 ticks apart for
/// nested.  Half of those sessions carry one stray `e` in their second
/// half (Rejecting, exact); seq and window die within a few symbols on the
/// bench_cer cycling word whatever follows.
std::vector<PoolEntry> query_pool(std::uint64_t seed) {
  pb::Rng rng(seed);
  std::vector<PoolEntry> pool;
  constexpr int kSymbols = 16384;
  // 16 variants per query: the stray symbol's position sets how long a
  // session keeps its config set alive, so a small pool would make a
  // run's compute, and its throughput, depend on the seed.
  for (int v = 0; v < 16; ++v) {
    for (const auto& q : kQueries) {
      const std::string label = q.label;
      std::vector<TimedSymbol> word;
      rtw::core::Tick t = 0;
      for (int s = 0; s < kSymbols; ++s) {
        char c = static_cast<char>('a' + (s & 3));
        if (label == "alt_iter") c = static_cast<char>('a' + rng.below(4));
        if (label == "nested") c = s % 2 ? 'b' : 'a';
        t += 1 + rng.below(label == "nested" ? 3 : 2);
        word.push_back({Symbol::chr(c), t});
      }
      if ((label == "alt_iter" || label == "nested") && rng.below(2) == 0)
        word[kSymbols / 2 + rng.below(kSymbols / 2)].sym = Symbol::chr('e');
      pool.push_back(
          make_entry(rtw::svc::encode_submit_query(0, q.text), word, 256));
    }
  }
  return pool;
}

/// The wire = in-process equivalence: every pool entry's bytes go through
/// Decoder -> SessionManager::apply (blocking admission, so nothing is
/// lost) and the resulting report is that entry's expected verdict.
void replay_pool(std::vector<PoolEntry>& pool) {
  rtw::svc::ShardConfig shard;
  shard.count = 2;
  rtw::svc::IngressConfig ingress;
  ingress.ring_capacity = 4096;
  ingress.shed_on_full = false;
  rtw::svc::SessionManager manager(shard, ingress);
  const auto factory = rtw::svc::profile_factory();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    std::string bytes = pool[i].bytes;
    patch_id(bytes, 0, pool[i], i + 1);
    rtw::svc::Decoder decoder;
    decoder.push(bytes);
    WireEvent ev;
    while (decoder.next(ev)) {
      if (manager.apply(ev, factory).admit != rtw::svc::Admit::Accepted)
        die("reference replay refused a frame of pool entry " +
            std::to_string(i));
    }
    if (!decoder.ok()) die("reference replay: " + decoder.error());
  }
  manager.drain();
  std::size_t seen = 0;
  for (const auto& report : manager.collect()) {
    if (report.id == 0 || report.id > pool.size()) continue;
    Expect& x = pool[report.id - 1].expect;
    x.verdict = report.verdict;
    x.exact = report.result.exact;
    x.fed = report.fed;
    x.stale = report.stale_dropped;
    ++seen;
  }
  if (seen != pool.size()) die("reference replay lost reports");
}

/// The wire generator spins on the last allowed CPU and the serving
/// side's threads get the others.  Without the split, the spinning
/// generator and the reactor or a shard worker take turns on one CPU and
/// a run's verdict p99 jumps by milliseconds.
std::vector<int> serving_cpus() {
  auto cpus = pb::allowed_cpus();
  if (cpus.size() > 1) cpus.pop_back();
  return cpus;
}

int generator_cpu() { return pb::allowed_cpus().back(); }

/// Keeps every serving CPU busy at SCHED_IDLE priority while it lives.
/// A vCPU that halts when its thread sleeps is woken by the hypervisor,
/// which takes anything from microseconds to milliseconds; that made
/// about half of wire_churn's 1000-session windows show a millisecond p99
/// and moved a run's p99 by 8x.  An idle-priority spinner yields at once
/// to any runnable thread but keeps the vCPU from halting.
class IdleSpinners {
public:
  IdleSpinners() {
    for (const int cpu : serving_cpus()) {
      threads_.emplace_back([this, cpu] {
        pb::pin(0, {cpu});
        sched_param param{};
        ::sched_setscheduler(0, SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// -------------------------------------------------------- server process

struct ServerProcess {
  pid_t pid = -1;
  int stdin_fd = -1;
  int stdout_fd = -1;
  std::uint16_t port = 0;
};

/// Reads one '\n'-terminated line from `fd` within `timeout_ms`.
std::optional<std::string> read_line(int fd, int timeout_ms) {
  std::string line;
  const std::uint64_t deadline = now_ns() + std::uint64_t(timeout_ms) * 1000000;
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= deadline) return std::nullopt;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>((deadline - now) / 1000000) + 1) <= 0)
      continue;
    char c = 0;
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return std::nullopt;
    if (c == '\n') return line;
    line += c;
  }
}

ServerProcess spawn_server(const std::string& path) {
  int in_pipe[2], out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0 || ::pipe2(out_pipe, O_CLOEXEC) != 0)
    die("pipe failed");
  const std::vector<int> serving = serving_cpus();
  const pid_t pid = ::fork();
  if (pid < 0) die("fork failed");
  if (pid == 0) {
    pb::pin(0, serving);
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::execl(path.c_str(), path.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  ServerProcess sp;
  sp.pid = pid;
  sp.stdin_fd = in_pipe[1];
  sp.stdout_fd = out_pipe[0];
  const auto line = read_line(sp.stdout_fd, 10000);
  if (!line || line->rfind("listening ", 0) != 0)
    die("server did not start: " + path);
  sp.port = static_cast<std::uint16_t>(std::stoi(line->substr(10)));
  return sp;
}

/// Closes the server's stdin (it drains and exits) and returns its stats
/// line.
std::string stop_server(ServerProcess& sp) {
  ::close(sp.stdin_fd);
  const auto line = read_line(sp.stdout_fd, 30000);
  int status = 0;
  if (!line) ::kill(sp.pid, SIGKILL);
  ::waitpid(sp.pid, &status, 0);
  ::close(sp.stdout_fd);
  if (!line) die("server did not report its stats");
  return *line;
}

double json_field(const std::string& line, const std::string& key) {
  const auto pos = line.find("\"" + key + "\":");
  if (pos == std::string::npos) die("server stats lack " + key);
  return std::stod(line.substr(pos + key.size() + 3));
}

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    die("connect failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Blocking write of a whole buffer (handshake only).
void write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n <= 0) die("write failed");
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

// ---------------------------------------------------------- wire client

/// Which side of the serving stack the wire generator drives, always on
/// the same schedule: a pb_server process over TCP; an in-process Server
/// fed through Connection::on_bytes; or a Decoder plus the SessionManager
/// calls a Connection makes, with no Server at all.  The last two run in
/// traced runs only.
enum class Path { Tcp, Server, Manager };

struct WireConfig {
  bool open_loop = true;
  double rate = 0;           ///< sessions/s (open loop)
  std::size_t window = 0;    ///< sessions in flight per conn (closed loop)
  double warm_s = 0.5;
  double measure_s = 10;
  std::uint64_t seed = 1;
  bool plant_wrong = false;
};

/// Per-layer observations a wire run can make.
struct WireLayers {
  std::vector<std::uint64_t> lag_ns;  ///< send completion - due (or verdict) time
  std::uint64_t on_bytes_ns = 0, on_bytes_frames = 0;  ///< Server path
  std::uint64_t decode_ns = 0, decode_frames = 0;      ///< Manager path
  std::uint64_t apply_ns = 0, apply_frames = 0;        ///< Manager path
  std::vector<std::uint64_t> admit_ns;  ///< feed_batch() calls, Manager path
  pb::Latencies route;                         ///< Close applied -> wakeup
  std::vector<std::uint64_t> depth;            ///< ring_depth samples
  rtw::svc::ConnectionStats conn_stats;
  rtw::svc::ServiceStats svc_stats;
  std::vector<std::uint64_t> ring_wait_ns;
};

class WireClient {
public:
  WireClient(Path path, const WireConfig& cfg, const std::vector<PoolEntry>& pool,
             pb::Spans& spans, std::uint16_t port)
      : path_(path), cfg_(cfg), pool_(pool), spans_(spans), rng_(cfg.seed * 31 + 7) {
    ::sched_getaffinity(0, sizeof(saved_cpus_), &saved_cpus_);
    epoll_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (path_ == Path::Tcp) {
      for (std::size_t c = 0; c < kConnections; ++c) {
        conns_[c].fd = connect_to(port);
        write_all(conns_[c].fd, rtw::svc::encode_hello());
      }
      await_hello_acks();
      for (std::size_t c = 0; c < kConnections; ++c) {
        ::fcntl(conns_[c].fd, F_SETFL, ::fcntl(conns_[c].fd, F_GETFL) | O_NONBLOCK);
        add_fd(conns_[c].fd, c);
      }
    } else {
      // Shard workers inherit this thread's CPUs when they are created.
      pb::pin(0, serving_cpus());
      build_in_process();
    }
    pb::pin(0, {generator_cpu()});
  }

  ~WireClient() {
    if (server_) {
      server_->set_wakeup(nullptr);
      server_.reset();
    }
    if (manager_) {
      manager_->drain();
      manager_->set_report_sink(nullptr);
      manager_.reset();
    }
    for (auto& c : conns_)
      if (c.fd >= 0) ::close(c.fd);
    ::close(epoll_);
    if (doorbell_ >= 0) ::close(doorbell_);
    ::sched_setaffinity(0, sizeof(saved_cpus_), &saved_cpus_);
  }

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  void run(Tally& tally, WireLayers& layers) {
    tally_ = &tally;
    layers_ = &layers;
    const std::uint64_t start = now_ns();
    tally.window_start = start + static_cast<std::uint64_t>(cfg_.warm_s * 1e9);
    tally.window_end =
        tally.window_start + static_cast<std::uint64_t>(cfg_.measure_s * 1e9);
    trace_from_ = tally.window_start + (tally.window_end - tally.window_start) / 2;
    const std::uint64_t period =
        cfg_.open_loop ? static_cast<std::uint64_t>(1e9 / cfg_.rate) : 0;
    std::uint64_t next_due = start;
    std::size_t issued = 0;
    if (!cfg_.open_loop)
      for (std::size_t c = 0; c < kConnections; ++c)
        for (std::size_t w = 0; w < cfg_.window; ++w) send(c, start);

    const std::uint64_t drain_deadline = tally.window_end + 20'000'000'000ULL;
    for (;;) {
      const std::uint64_t now = now_ns();
      if (cfg_.open_loop) {
        // A backed-up socket holds the schedule instead of buffering
        // without bound; the sessions go out late and count from their due
        // time, so an overloaded server shows as latency, then failures.
        while (next_due <= now && next_due < tally.window_end && !backlogged()) {
          send(issued % kConnections, next_due);
          ++issued;
          next_due = start + issued * period;
        }
      }
      const bool sending = cfg_.open_loop && next_due < tally.window_end;
      if (!sending && live_ == 0 && (cfg_.open_loop || now >= tally.window_end))
        break;
      if (now >= drain_deadline) break;
      // Spin while sessions are due: a timer wakeup on a VM costs tens of
      // microseconds of jitter, as much as the latency measured.
      poll_events(sending ? 0 : 50);
    }
    for (auto& c : conns_) {
      tally.missing += c.live.size();
      tally.failed += c.live.size();
      c.live.clear();
    }
    if (server_ || manager_) finish_in_process();
  }

private:
  static constexpr std::uint64_t kDoorbellTag = 100;
  static constexpr SessionId kIdMask = (SessionId{1} << 48) - 1;

  struct Live {
    std::uint32_t entry = 0;
    std::uint64_t due = 0;     ///< open loop: scheduled send time
    std::uint64_t origin = 0;  ///< latency origin (due, or Close written)
    std::uint64_t close_applied = 0;
    bool shed = false;
  };

  struct Conn {
    int fd = -1;
    std::shared_ptr<rtw::svc::Connection> logical;
    std::string out;
    std::size_t out_off = 0;
    std::uint64_t queued = 0, written = 0;
    std::deque<std::pair<std::uint64_t, SessionId>> marks;  ///< end pos -> id
    rtw::svc::Decoder decoder;
    std::uint64_t next_id = 1;
    std::unordered_map<SessionId, Live> live;
    bool want_out = false;
  };

  struct Arrival {
    std::size_t conn;
    WireEvent event;
    std::uint64_t at;
  };

  void build_in_process() {
    doorbell_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    add_fd(doorbell_, kDoorbellTag);
    rtw::svc::ServerConfig config;  // pb_server's configuration
    config.shard.count = 2;
    config.ingress.ring_capacity = 4096;
    if (path_ == Path::Manager) {
      manager_ = std::make_unique<rtw::svc::SessionManager>(config);
      // Client ids are remapped to (conn << 48 | id), as Server does with
      // its global ids; the sink turns each report back into a Verdict.
      manager_->set_report_sink([this](const rtw::svc::SessionReport& r) {
        WireEvent ev;
        ev.kind = WireEvent::Kind::Verdict;
        ev.session = r.id & kIdMask;
        ev.verdict = r.verdict;
        ev.exact = r.result.exact;
        ev.fed = r.fed;
        ev.stale = r.stale_dropped;
        deliver(r.id >> 48, std::move(ev), now_ns());
        return true;
      });
      return;
    }
    server_ = std::make_unique<rtw::svc::Server>(config, rtw::svc::profile_factory());
    for (std::size_t c = 0; c < kConnections; ++c) {
      conns_[c].logical = server_->connect();
      conns_[c].logical->on_bytes(rtw::svc::encode_hello());
      std::string ack;
      conns_[c].logical->take_output(ack, SIZE_MAX);
      by_logical_[conns_[c].logical->id()] = c;
    }
    // Verdicts land on shard workers; the wakeup hook takes them off the
    // connection right there so each one is stamped when it landed.
    server_->set_wakeup([this](const std::shared_ptr<rtw::svc::Connection>& conn) {
      collect_output(by_logical_.at(conn->id()));
    });
  }

  bool backlogged() const {
    for (const auto& c : conns_)
      if (c.out.size() - c.out_off > (4u << 20)) return true;
    return false;
  }

  void add_fd(int fd, std::uint64_t tag) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = tag;
    ::epoll_ctl(epoll_, EPOLL_CTL_ADD, fd, &ev);
  }

  void await_hello_acks() {
    for (auto& c : conns_) {
      bool acked = false;
      while (!acked) {
        char buf[256];
        const ssize_t n = ::read(c.fd, buf, sizeof(buf));
        if (n <= 0) die("handshake read failed");
        c.decoder.push(std::string_view(buf, static_cast<std::size_t>(n)));
        WireEvent ev;
        while (c.decoder.next(ev))
          if (ev.kind == WireEvent::Kind::HelloAck) acked = true;
      }
    }
  }

  bool traced(std::uint64_t at) const { return spans_.enabled() && at >= trace_from_; }

  /// Starts one session on connection `c`; `due` is when it was scheduled.
  void send(std::size_t c, std::uint64_t due) {
    Conn& conn = conns_[c];
    const std::uint32_t entry = static_cast<std::uint32_t>(rng_.below(pool_.size()));
    const PoolEntry& e = pool_[entry];
    const SessionId id = conn.next_id++;
    Live& s = conn.live[id];
    s.entry = entry;
    s.due = due;
    s.origin = due;
    ++live_;
    ++tally_->attempted;
    if (path_ == Path::Tcp) {
      const std::size_t base = conn.out.size();
      conn.out += e.bytes;
      patch_id(conn.out, base, e, id);
      conn.queued += e.bytes.size();
      conn.marks.emplace_back(conn.queued, id);
      flush(c);
      return;
    }
    std::string bytes = e.bytes;
    patch_id(bytes, 0, e, id);
    const std::string_view all(bytes);
    // The session may settle before the call carrying its Close returns,
    // so Close counts as applied just before that call.
    const std::uint64_t t0 = now_ns();
    if (path_ == Path::Server) {
      if (!conn.logical->on_bytes(all.substr(0, e.close_at)))
        die("in-process connection died: " + conn.logical->error());
      const std::uint64_t t1 = now_ns();
      s.close_applied = t1;
      conn.logical->on_bytes(all.substr(e.close_at));
      const std::uint64_t t2 = now_ns();
      layers_->on_bytes_ns += t2 - t0;
      layers_->on_bytes_frames += e.frames.size();
      if (traced(t0)) {
        const std::uint32_t body = spans_.record("server.on_bytes", t0, t1, id);
        spans_.record("server.on_bytes", t1, t2, id, body);
      }
      if (t0 >= tally_->window_start && t0 < tally_->window_end) {
        layers_->depth.push_back(server_->manager().ring_depth(0));
        layers_->depth.push_back(server_->manager().ring_depth(1));
      }
      mark_written(c, id, t1);
      collect_output(c);  // shed notices are queued on the input plane
    } else {
      const std::uint64_t t1 = apply_bytes(c, all.substr(0, e.close_at), s);
      s.close_applied = t1;
      apply_bytes(c, all.substr(e.close_at), s);
      mark_written(c, id, t1);
    }
  }

  /// Manager path: the Server's input plane with the Server taken out.
  /// Decoder::push/next, then the SessionManager call Connection makes for
  /// each event (open / feed_batch / close on a remapped id), each timed;
  /// returns the time the last call ended.
  std::uint64_t apply_bytes(std::size_t c, std::string_view bytes, Live& s) {
    Conn& conn = conns_[c];
    const bool traced_now = traced(now_ns());
    std::uint64_t t0 = now_ns();
    conn.decoder.push(bytes);
    WireEvent ev;
    for (;;) {
      const bool got = conn.decoder.next(ev);
      const std::uint64_t t1 = now_ns();
      layers_->decode_ns += t1 - t0;
      if (!got) return t1;
      ++layers_->decode_frames;
      const SessionId global = (static_cast<SessionId>(c) << 48) | ev.session;
      const char* layer = "svc.close";
      bool admitted = true;
      switch (ev.kind) {
        case WireEvent::Kind::Open:
        case WireEvent::Kind::SubmitQuery: {
          layer = "svc.open";
          auto acceptor = ev.kind == WireEvent::Kind::SubmitQuery
                              ? manager_->build_query_acceptor(global, ev.profile)
                              : rtw::svc::make_profile_acceptor(ev.profile);
          admitted = acceptor != nullptr;
          if (admitted) manager_->open(global, std::move(acceptor), ev.priority);
          break;
        }
        case WireEvent::Kind::Symbols:
          layer = "svc.feed_batch";
          admitted = manager_->feed_batch(global, std::move(ev.symbols)).admit ==
                     rtw::svc::Admit::Accepted;
          break;
        default:
          manager_->close(global, ev.end);
          break;
      }
      t0 = now_ns();
      layers_->apply_ns += t0 - t1;
      ++layers_->apply_frames;
      if (ev.kind == WireEvent::Kind::Symbols && t1 >= tally_->window_start &&
          t1 < tally_->window_end)
        layers_->admit_ns.push_back(t0 - t1);
      if (traced_now) spans_.record(layer, t1, t0, ev.session);
      if (!admitted) s.shed = true;
    }
  }

  /// In-process paths: hands one decoded event, stamped with the time it
  /// landed, to the generator thread.
  void deliver(std::size_t c, WireEvent ev, std::uint64_t at) {
    std::lock_guard lock(inbox_mutex_);
    inbox_.push_back({c, std::move(ev), at});
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(doorbell_, &one, sizeof(one));
  }

  void mark_written(std::size_t c, SessionId id, std::uint64_t at) {
    auto it = conns_[c].live.find(id);
    if (it == conns_[c].live.end()) return;
    Live& s = it->second;
    // Open loop: how late the send ran against its schedule.  Closed loop:
    // how long after its predecessor's verdict the session was on the wire.
    if (s.due >= tally_->window_start && s.due < tally_->window_end)
      layers_->lag_ns.push_back(at - s.due);
    if (!cfg_.open_loop) s.origin = at;
  }

  void flush(std::size_t c) {
    Conn& conn = conns_[c];
    while (conn.out_off < conn.out.size()) {
      const std::uint64_t t0 = now_ns();
      const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_off,
                                conn.out.size() - conn.out_off);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN) die("socket write failed");
        break;
      }
      const std::uint64_t t1 = now_ns();
      if (traced(t0)) spans_.record("gen.write", t0, t1, c);
      conn.out_off += static_cast<std::size_t>(n);
      conn.written += static_cast<std::uint64_t>(n);
      while (!conn.marks.empty() && conn.marks.front().first <= conn.written) {
        mark_written(c, conn.marks.front().second, t1);
        conn.marks.pop_front();
      }
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    } else if (conn.out_off > (1u << 20)) {
      conn.out.erase(0, conn.out_off);
      conn.out_off = 0;
    }
    const bool want = conn.out_off < conn.out.size();
    if (want != conn.want_out) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.u64 = c;
      ::epoll_ctl(epoll_, EPOLL_CTL_MOD, conn.fd, &ev);
      conn.want_out = want;
    }
  }

  /// In-process path: moves a connection's queued output into the inbox,
  /// decoded and stamped (shard-worker or generator thread).
  void collect_output(std::size_t c) {
    const std::uint64_t at = now_ns();
    std::lock_guard lock(inbox_mutex_);
    std::string bytes;
    conns_[c].logical->take_output(bytes, SIZE_MAX);
    if (bytes.empty()) return;
    conns_[c].decoder.push(bytes);
    WireEvent ev;
    while (conns_[c].decoder.next(ev)) inbox_.push_back({c, std::move(ev), at});
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(doorbell_, &one, sizeof(one));
  }

  void poll_events(int timeout_ms) {
    epoll_event events[16];
    const int n = ::epoll_wait(epoll_, events, 16, timeout_ms);
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kDoorbellTag) {
        std::uint64_t rings = 0;
        [[maybe_unused]] const ssize_t r = ::read(doorbell_, &rings, sizeof(rings));
        std::vector<Arrival> batch;
        {
          std::lock_guard lock(inbox_mutex_);
          batch.swap(inbox_);
        }
        for (auto& a : batch) on_event(a.conn, a.event, a.at);
      } else {
        const std::size_t c = static_cast<std::size_t>(tag);
        if (events[i].events & EPOLLOUT) flush(c);
        if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) read_socket(c);
      }
    }
  }

  void read_socket(std::size_t c) {
    Conn& conn = conns_[c];
    char buf[64 * 1024];
    for (;;) {
      const std::uint64_t t0 = now_ns();
      const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN) return;
        die("socket read failed");
      }
      if (n == 0) die("server closed a connection");
      const std::uint64_t t1 = now_ns();
      conn.decoder.push(std::string_view(buf, static_cast<std::size_t>(n)));
      WireEvent ev;
      std::vector<WireEvent> events;
      while (conn.decoder.next(ev)) events.push_back(std::move(ev));
      if (!conn.decoder.ok()) die("bad frame from server: " + conn.decoder.error());
      if (traced(t0)) {
        spans_.record("gen.read", t0, t1, c);
        spans_.record("gen.decode", t1, now_ns(), c);
      }
      for (const auto& e : events) on_event(c, e, t1);
    }
  }

  void on_event(std::size_t c, const WireEvent& ev, std::uint64_t at) {
    Conn& conn = conns_[c];
    if (ev.kind == WireEvent::Kind::Shed) {
      const auto it = conn.live.find(ev.session);
      if (it != conn.live.end()) it->second.shed = true;
      return;
    }
    if (ev.kind != WireEvent::Kind::Verdict) {
      ++tally_->wrong;  // the server sends nothing else after HelloAck
      ++tally_->failed;
      return;
    }
    const auto it = conn.live.find(ev.session);
    if (it == conn.live.end()) {
      ++tally_->wrong;
      ++tally_->failed;
      return;
    }
    const Live s = it->second;
    conn.live.erase(it);
    --live_;
    Expect x = pool_[s.entry].expect;
    if (cfg_.plant_wrong && s.entry == 0)
      x.verdict = x.verdict == Verdict::Accepting ? Verdict::Rejecting
                                                  : Verdict::Accepting;
    const bool match = ev.verdict == x.verdict && ev.exact == x.exact &&
                       ev.fed == x.fed && ev.stale == x.stale;
    if (s.shed) {
      ++tally_->shed;
      ++tally_->failed;
    } else if (!match) {
      ++tally_->wrong;
      ++tally_->failed;
    } else if (at - s.origin > kVerdictDeadlineNs) {
      ++tally_->late;
      ++tally_->failed;
    } else {
      tally_->count(at, at - s.origin, pool_[s.entry].symbols);
      if (path_ != Path::Tcp && at >= tally_->window_start &&
          at < tally_->window_end)
        layers_->route.add(at, at - s.close_applied);
    }
    if (traced(s.origin))
      spans_.record("session", s.origin, at, ev.session);
    if (!cfg_.open_loop && at < tally_->window_end) send(c, at);
  }

  void finish_in_process() {
    auto& manager = server_ ? server_->manager() : *manager_;
    manager.drain();
    layers_->ring_wait_ns = manager.take_feed_latency_samples();
    layers_->svc_stats = manager.stats();
    if (!server_) return;
    for (const auto& c : conns_) {
      const auto s = c.logical->stats();
      layers_->conn_stats.opens += s.opens;
      layers_->conn_stats.refused_opens += s.refused_opens;
      layers_->conn_stats.sheds += s.sheds;
      layers_->conn_stats.unknown_frames += s.unknown_frames;
    }
  }

  Path path_;
  cpu_set_t saved_cpus_;
  WireConfig cfg_;
  const std::vector<PoolEntry>& pool_;
  pb::Spans& spans_;
  pb::Rng rng_;
  int epoll_ = -1, doorbell_ = -1;
  Conn conns_[kConnections];
  std::unordered_map<std::uint64_t, std::size_t> by_logical_;
  std::unique_ptr<rtw::svc::Server> server_;
  std::unique_ptr<rtw::svc::SessionManager> manager_;
  std::mutex inbox_mutex_;
  std::vector<Arrival> inbox_;
  std::size_t live_ = 0;
  std::uint64_t trace_from_ = 0;
  Tally* tally_ = nullptr;
  WireLayers* layers_ = nullptr;
};

// ------------------------------------------------ directly-fed acceptors

/// Feeds `word` through fresh acceptors from `make` for about `budget_s`
/// and returns the rate in Msym/s.
template <typename Make>
double direct_rate(Make make, const std::vector<TimedSymbol>& word,
                   double budget_s, pb::Spans& spans, const char* layer) {
  std::uint64_t symbols = 0, busy = 0;
  const std::uint64_t stop = now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  std::uint64_t rep = 0;
  while (now_ns() < stop || symbols == 0) {
    auto acceptor = make();
    const std::uint64_t t0 = now_ns();
    for (const auto& ts : word) acceptor->feed(ts.sym, ts.time);
    acceptor->finish(rtw::core::StreamEnd::EndOfWord);
    const std::uint64_t t1 = now_ns();
    spans.record(layer, t0, t1, rep++);
    busy += t1 - t0;
    symbols += word.size();
  }
  return static_cast<double>(symbols) / static_cast<double>(busy) * 1e3;
}

void cer_layer(const std::vector<PoolEntry>& pool, pb::Spans& spans,
               pb::Metrics& m) {
  std::vector<std::uint64_t> compile_ns;
  for (int rep = 0; rep < 50; ++rep) {
    for (const auto& q : kQueries) {
      const std::uint64_t t0 = now_ns();
      auto parsed = rtw::cer::parse(q.text);
      const std::uint64_t t1 = now_ns();
      auto compiled = rtw::cer::compile(*parsed.query);
      const std::uint64_t t2 = now_ns();
      spans.record("cer.parse", t0, t1, static_cast<std::uint64_t>(rep));
      spans.record("cer.compile", t1, t2, static_cast<std::uint64_t>(rep));
      if (!compiled.ok()) die("catalog query failed to compile");
      compile_ns.push_back(t2 - t0);
    }
  }
  m.set("cer.compile_p50_us", us(pb::quantile(compile_ns, 0.5)), "us");
  m.set("cer.compile_p99_us", us(pb::quantile(compile_ns, 0.99)), "us");
  // Each query on its own wire_query word (pool entries cycle the catalog).
  for (std::size_t i = 0; i < std::size(kQueries); ++i) {
    const auto& q = kQueries[i];
    const auto compiled = rtw::cer::compile(*rtw::cer::parse(q.text).query);
    const double rate = direct_rate(
        [&] { return rtw::cer::make_online_acceptor(*compiled.compiled); },
        pool[i].word, 0.15, spans, "cer.step");
    m.set(std::string("cer.step_msym_s.") + q.label, rate, "Msym/s");
  }
}

// ---------------------------------------------------- deadline sessions

/// One §4.1 deadline session shape: the time-0 header, then `w` ticks
/// with a (d, usefulness) pair every 32 ticks.  P_w completes just after
/// the last symbol, so every symbol is fed to a live lane and the verdict
/// settles at Close: accept iff the last usefulness clears the header's
/// min threshold.
struct Shape {
  std::vector<TimedSymbol> header;
  std::vector<TimedSymbol> body;
  Expect expect;
};

constexpr rtw::core::Tick kDeadlineTicks = 16384;

rtw::core::RunOptions deadline_options() {
  rtw::core::RunOptions options;
  options.horizon = kDeadlineTicks + 16;
  return options;
}

std::vector<Shape> deadline_shapes(
    std::uint64_t seed,
    const std::shared_ptr<const rtw::deadline::Problem>& problem,
    std::size_t count = 16) {
  pb::Rng rng(seed);
  const Symbol dollar = rtw::core::marks::dollar();
  const Symbol d = rtw::core::marks::deadline();
  const Symbol w = Symbol::chr('w');
  std::vector<Shape> shapes(count);
  for (auto& shape : shapes) {
    shape.header = {{Symbol::marker("min"), 0},
                    {Symbol::nat(1 + rng.below(6)), 0},
                    {Symbol::nat(1), 0},
                    {dollar, 0},
                    {Symbol::nat(1), 0},
                    {dollar, 0}};
    for (rtw::core::Tick t = 1; t <= kDeadlineTicks; ++t) {
      if (t % 32 == 0) {
        shape.body.push_back({d, t});
        shape.body.push_back({Symbol::nat(rng.below(7)), t});
      } else {
        shape.body.push_back({w, t});
      }
    }
    // Reference: the engine replica (lane kernel = engine equivalence).
    auto reference = rtw::deadline::make_online_acceptor(problem, deadline_options());
    for (const auto& ts : shape.header) reference->feed(ts.sym, ts.time);
    for (const auto& ts : shape.body) reference->feed(ts.sym, ts.time);
    shape.expect.verdict = reference->finish(rtw::core::StreamEnd::EndOfWord);
    shape.expect.exact = reference->result().exact;
    shape.expect.fed = shape.header.size() + shape.body.size();
  }
  return shapes;
}

constexpr std::size_t kDeadlineSessions = 1000;
constexpr std::size_t kRun = 256;

struct DeadlineRig {
  struct Closing {
    std::uint64_t at;
    std::uint32_t shape;
  };
  std::mutex mutex;  ///< guards everything below (report sink vs producers)
  std::unordered_map<SessionId, Closing> closing;
  Tally* tally = nullptr;
  const std::vector<Shape>* shapes = nullptr;
  bool plant_wrong = false;
  pb::Spans* sink_spans = nullptr;

  bool on_report(const rtw::svc::SessionReport& r) {
    const std::uint64_t at = now_ns();
    std::lock_guard lock(mutex);
    const auto it = closing.find(r.id);
    if (it == closing.end()) return true;  // not closed by us: ignore
    const Closing c = it->second;
    closing.erase(it);
    Expect x = (*shapes)[c.shape].expect;
    if (plant_wrong && c.shape == 0)
      x.verdict = x.verdict == Verdict::Accepting ? Verdict::Rejecting
                                                  : Verdict::Accepting;
    const bool match = r.verdict == x.verdict && r.result.exact == x.exact &&
                       r.fed == x.fed && r.stale_dropped == 0;
    if (!match) {
      ++tally->wrong;
      ++tally->failed;
    } else if (at - c.at > kVerdictDeadlineNs) {
      ++tally->late;
      ++tally->failed;
    } else {
      tally->count(at, at - c.at, x.fed);
    }
    if (sink_spans) sink_spans->record("session", c.at, at, r.id);
    return true;
  }
};

struct Slot {
  SessionId id = 0;
  std::uint32_t shape = 0;
  std::size_t off = 0;  ///< next body element to feed
};

/// Opens a session with its header run fed (retrying on Blocked).
void open_deadline(rtw::svc::SessionManager& m, Slot& slot, SessionId id,
                   std::uint32_t shape, const std::vector<Shape>& shapes,
                   const std::shared_ptr<const rtw::deadline::Problem>& problem) {
  slot.id = id;
  slot.shape = shape;
  slot.off = 0;
  m.open(id, rtw::deadline::make_lane_acceptor(problem, deadline_options()));
  while (m.feed_batch(id, shapes[shape].header).admit == rtw::svc::Admit::Blocked)
    std::this_thread::yield();
}

struct ProducerObs {
  std::vector<std::uint64_t> admit_ns;
  std::vector<std::uint64_t> depth;
  std::uint64_t runs = 0;
};

/// One producer thread: round-robin over its slots, one feed_batch run of
/// 256 per session per pass; a finished session is closed and replaced.
void produce(rtw::svc::SessionManager& m, DeadlineRig& rig,
             std::vector<Slot>& slots, std::size_t first, std::size_t count,
             std::uint64_t seed, std::size_t producer,
             const std::vector<Shape>& shapes,
             const std::shared_ptr<const rtw::deadline::Problem>& problem,
             std::uint64_t stop_at, std::uint64_t trace_from, pb::Spans& spans,
             ProducerObs& obs) {
  pb::Rng rng(seed * 131 + producer);
  SessionId next = (static_cast<SessionId>(producer + 1) << 40) + kDeadlineSessions;
  const bool tracing = spans.enabled();
  while (now_ns() < stop_at) {
    for (std::size_t i = first; i < first + count; ++i) {
      Slot& slot = slots[i];
      const auto& body = shapes[slot.shape].body;
      const std::size_t n = std::min(kRun, body.size() - slot.off);
      const auto begin = body.begin() + static_cast<std::ptrdiff_t>(slot.off);
      const bool timed = tracing && (obs.runs & 15) == 0 && now_ns() >= trace_from;
      for (;;) {
        const std::uint64_t t0 = timed ? now_ns() : 0;
        const auto admitted = m.feed_batch(
            slot.id, std::vector<TimedSymbol>(begin, begin + static_cast<std::ptrdiff_t>(n)));
        if (admitted.admit == rtw::svc::Admit::Accepted) {
          if (timed) {
            const std::uint64_t t1 = now_ns();
            obs.admit_ns.push_back(t1 - t0);
            spans.record("svc.feed_batch", t0, t1, slot.id);
            obs.depth.push_back(m.ring_depth(0));
            obs.depth.push_back(m.ring_depth(1));
          }
          break;
        }
        if (admitted.admit == rtw::svc::Admit::Shed) die("inproc run was shed");
        std::this_thread::yield();
      }
      ++obs.runs;
      slot.off += n;
      if (slot.off == body.size()) {
        const std::uint64_t t0 = now_ns();
        {
          std::lock_guard lock(rig.mutex);
          rig.closing[slot.id] = {t0, slot.shape};
          ++rig.tally->attempted;
        }
        m.close(slot.id, rtw::core::StreamEnd::EndOfWord);
        if (tracing && t0 >= trace_from) spans.record("svc.close", t0, now_ns(), slot.id);
        open_deadline(m, slot, next++, static_cast<std::uint32_t>(rng.below(shapes.size())),
                      shapes, problem);
      }
      if (now_ns() >= stop_at) break;
    }
  }
}

// ------------------------------------------------------------ workloads

struct RunResult {
  Tally tally;
  pb::Metrics metrics;
};

std::uint64_t peak_rss_kib() { return pb::proc_status_kib("VmHWM:"); }
std::uint64_t current_rss_kib() { return pb::proc_status_kib("VmRSS:"); }

void report_end_to_end(const Tally& tally, const std::vector<double>& setups,
                       std::uint64_t server_rss_kib, pb::Metrics& m) {
  m.set("throughput_msym_s",
        static_cast<double>(tally.delivered) / tally.window_s() / 1e6, "Msym/s");
  m.set("verdict_p50_ms", ms(tally.verdict.windowed(0.5)), "ms");
  m.set("verdict_p99_ms", ms(tally.verdict.windowed(0.99)), "ms");
  m.set("setup_s", pb::median(setups), "s");
  m.set("server_rss_mb", static_cast<double>(server_rss_kib) / 1024.0, "MB");
}

/// Every per-layer metric, in BENCHMARK.json order.  A traced run reports
/// all of them; a layer its workload bypasses reads 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"gen.lag_p99_ms", "ms"},
    {"net.read_bytes", "bytes"},
    {"net.written_bytes", "bytes"},
    {"net.read_pauses", "count"},
    {"net.frame_errors", "count"},
    {"net.transport_p50_us", "us"},
    {"net.transport_p99_us", "us"},
    {"wire.decode_ns_per_frame", "ns"},
    {"wire.decode_msym_s", "Msym/s"},
    {"wire.bytes_per_symbol", "bytes"},
    {"server.on_bytes_self_ns_per_frame", "ns"},
    {"server.verdict_route_p50_us", "us"},
    {"server.verdict_route_p99_us", "us"},
    {"server.opens", "count"},
    {"server.refused_opens", "count"},
    {"server.sheds", "count"},
    {"server.unknown_frames", "count"},
    {"svc.admit_p50_ns", "ns"},
    {"svc.admit_p99_ns", "ns"},
    {"svc.ring_wait_p50_us", "us"},
    {"svc.ring_wait_p99_us", "us"},
    {"svc.ring_wait_samples", "count"},
    {"svc.blocked", "count"},
    {"svc.shed.ring_full", "count"},
    {"svc.shed.session_bound", "count"},
    {"svc.shed.priority", "count"},
    {"svc.symbols_per_batch", "symbols"},
    {"ring.depth_mean", "slots"},
    {"ring.depth_max", "slots"},
    {"lane.share", "ratio"},
    {"lane.symbols_per_wave", "symbols"},
    {"lane.acceptor_msym_s", "Msym/s"},
    {"cer.compile_p50_us", "us"},
    {"cer.compile_p99_us", "us"},
    {"cer.step_msym_s.seq", "Msym/s"},
    {"cer.step_msym_s.alt_iter", "Msym/s"},
    {"cer.step_msym_s.window", "Msym/s"},
    {"cer.step_msym_s.nested", "Msym/s"},
    {"cer.compiled", "count"},
    {"cer.rejected", "count"},
    {"trace.overhead_throughput_pct", "%"},
    {"trace.overhead_p50_pct", "%"},
};

/// Acceptors fed directly, outside the serving stack: the lane acceptor
/// on a deadline session and each catalog query's CerAcceptor.
void direct_layers(std::uint64_t seed, pb::Spans& spans, pb::Metrics& m) {
  const auto problem =
      std::make_shared<rtw::deadline::FixedCostProblem>(kDeadlineTicks + 8);
  const auto shape = deadline_shapes(seed, problem, 1).front();
  std::vector<TimedSymbol> word = shape.header;
  word.insert(word.end(), shape.body.begin(), shape.body.end());
  m.set("lane.acceptor_msym_s",
        direct_rate(
            [&] { return rtw::deadline::make_lane_acceptor(problem, deadline_options()); },
            word, 0.3, spans, "lane.acceptor"),
        "Msym/s");
  cer_layer(query_pool(seed), spans, m);
}

/// Prints the traced run's per-layer span breakdown and writes its spans.
void print_layers(const std::vector<const pb::Spans*>& all, const Options& opt) {
  std::cout << "# layer                     spans     total_ms      self_ms"
               "      mean_ns\n";
  for (const auto& line : pb::Spans::dump(
           all, opt.out_dir + "/spans-" + opt.workload + ".tsv"))
    std::cout << "# layer " << line << "\n";
}

rtw::svc::ServiceStats minus(rtw::svc::ServiceStats a, const rtw::svc::ServiceStats& b) {
  a.ingested -= b.ingested;
  a.shed -= b.shed;
  a.shed_ring_full -= b.shed_ring_full;
  a.shed_session_bound -= b.shed_session_bound;
  a.shed_priority -= b.shed_priority;
  a.blocked -= b.blocked;
  a.batches -= b.batches;
  a.lane_symbols -= b.lane_symbols;
  a.lane_waves -= b.lane_waves;
  return a;
}

/// The svc, ring and lane layer metrics of one serving phase.
void svc_layer(const rtw::svc::ServiceStats& s, const std::vector<std::uint64_t>& ring_wait,
               const std::vector<std::uint64_t>& depth, pb::Metrics& m) {
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  m.set("svc.ring_wait_p50_us", us(pb::quantile(ring_wait, 0.5)), "us");
  m.set("svc.ring_wait_p99_us", us(pb::quantile(ring_wait, 0.99)), "us");
  m.set("svc.ring_wait_samples", count(ring_wait.size()), "count");
  m.set("svc.blocked", count(s.blocked), "count");
  m.set("svc.shed.ring_full", count(s.shed_ring_full), "count");
  m.set("svc.shed.session_bound", count(s.shed_session_bound), "count");
  m.set("svc.shed.priority", count(s.shed_priority), "count");
  m.set("svc.symbols_per_batch", ratio(s.ingested, s.batches), "symbols");
  std::uint64_t depth_sum = 0, depth_max = 0;
  for (const auto v : depth) {
    depth_sum += v;
    depth_max = std::max(depth_max, v);
  }
  m.set("ring.depth_mean", ratio(depth_sum, depth.size()), "slots");
  m.set("ring.depth_max", count(depth_max), "slots");
  m.set("lane.share", ratio(s.lane_symbols, s.ingested), "ratio");
  m.set("lane.symbols_per_wave", ratio(s.lane_symbols, s.lane_waves), "symbols");
}

void run_inproc_deadline(const Options& opt, RunResult& out) {
  const auto problem =
      std::make_shared<rtw::deadline::FixedCostProblem>(kDeadlineTicks + 8);
  const auto shapes = deadline_shapes(opt.seed, problem);
  pb::Spans sink_spans(opt.trace);
  DeadlineRig rig;
  rig.tally = &out.tally;
  rig.shapes = &shapes;
  rig.plant_wrong = opt.plant_wrong;
  rig.sink_spans = opt.trace ? &sink_spans : nullptr;

  rtw::svc::ShardConfig shard;
  shard.count = 2;
  rtw::svc::IngressConfig ingress;
  ingress.ring_capacity = 1024;
  ingress.shed_on_full = false;

  // Set-up: a fresh manager with its 1000-session pool open and every
  // header admitted.  Done kSetups times; the median is setup_s and the
  // last pool serves the run.
  pb::Rng rng(opt.seed * 17 + 3);
  std::vector<Slot> slots(kDeadlineSessions);
  std::unique_ptr<rtw::svc::SessionManager> manager;
  std::vector<double> setups;
  const std::vector<int> cpus = pb::allowed_cpus();
  // The serving side shares this process with the generator, whose inputs
  // are all built by now: its memory is the peak above this baseline.
  const std::uint64_t base_rss_kib = current_rss_kib();
  for (int rep = 0; rep < kSetups; ++rep) {
    manager.reset();
    const auto before = pb::task_ids();
    const std::uint64_t t0 = now_ns();
    manager = std::make_unique<rtw::svc::SessionManager>(shard, ingress);
    // Producers take the first two CPUs, the new shard workers one each of
    // the next two: the same placement every run.
    if (cpus.size() >= 4) {
      std::size_t next = 2;
      for (const pid_t tid : pb::task_ids())
        if (!std::binary_search(before.begin(), before.end(), tid))
          pb::pin(tid, {cpus[next++ % 4]});
    }
    manager->set_report_sink(
        [&rig](const rtw::svc::SessionReport& r) { return rig.on_report(r); });
    for (std::size_t i = 0; i < kDeadlineSessions; ++i)
      open_deadline(*manager, slots[i], i + 1,
                    static_cast<std::uint32_t>(rng.below(shapes.size())), shapes,
                    problem);
    manager->drain();
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const std::uint64_t start = now_ns();
  out.tally.window_start = start + 1'000'000'000ULL;
  out.tally.window_end =
      out.tally.window_start + static_cast<std::uint64_t>(opt.seconds * 1e9);
  const std::uint64_t trace_from =
      out.tally.window_start + (out.tally.window_end - out.tally.window_start) / 2;
  std::deque<pb::Spans> spans;
  for (int p = 0; p < 2; ++p) spans.emplace_back(opt.trace);
  ProducerObs obs[2];
  std::vector<std::thread> producers;
  const std::size_t half = kDeadlineSessions / 2;
  for (std::size_t p = 0; p < 2; ++p)
    producers.emplace_back([&, p] {
      if (cpus.size() >= 4) pb::pin(0, {cpus[p]});
      produce(*manager, rig, slots, p * half, half, opt.seed, p, shapes, problem,
              out.tally.window_end, trace_from, spans[p], obs[p]);
    });
  // Window-boundary stats snapshot for the per-layer ratios.
  while (now_ns() < out.tally.window_start)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto at_window = manager->stats();
  for (auto& t : producers) t.join();
  manager->drain();
  const auto window_stats = minus(manager->stats(), at_window);
  const auto ring_wait = manager->take_feed_latency_samples();
  {
    std::lock_guard lock(rig.mutex);
    out.tally.missing += rig.closing.size();
    out.tally.failed += rig.closing.size();
    rig.closing.clear();
  }
  manager->set_report_sink(nullptr);
  manager.reset();

  auto& m = out.metrics;
  if (!opt.trace) {
    report_end_to_end(out.tally, setups, peak_rss_kib() - base_rss_kib, m);
    return;
  }
  std::vector<std::uint64_t> admit, depth;
  for (const auto& o : obs) {
    admit.insert(admit.end(), o.admit_ns.begin(), o.admit_ns.end());
    depth.insert(depth.end(), o.depth.begin(), o.depth.end());
  }
  m.set("svc.admit_p50_ns", pb::quantile(admit, 0.5), "ns");
  m.set("svc.admit_p99_ns", pb::quantile(admit, 0.99), "ns");
  svc_layer(window_stats, ring_wait, depth, m);
  report_overhead(out.tally, m);
  pb::Spans direct(true);
  direct_layers(opt.seed, direct, m);
  print_layers({&spans[0], &spans[1], &sink_spans, &direct}, opt);
}

/// Decoder alone over the workload's own bytes, pushed in the reactor's
/// 64 KiB read chunks: ns per frame, Msym/s, bytes per symbol.
void wire_layer(const std::vector<PoolEntry>& pool, pb::Spans& spans,
                pb::Metrics& m) {
  std::string stream;
  std::uint64_t symbols = 0;
  for (SessionId id = 1; stream.size() < (8u << 20); ++id) {
    const PoolEntry& e = pool[id % pool.size()];
    const std::size_t base = stream.size();
    stream += e.bytes;
    patch_id(stream, base, e, id);
    symbols += e.symbols;
  }
  constexpr std::size_t kChunk = 64 * 1024;
  std::uint64_t busy = 0, frames = 0;
  for (int rep = 0; rep < 3; ++rep) {
    rtw::svc::Decoder decoder;
    WireEvent ev;
    for (std::size_t off = 0; off < stream.size(); off += kChunk) {
      const std::uint64_t t0 = now_ns();
      decoder.push(std::string_view(stream).substr(off, kChunk));
      const std::uint64_t t1 = now_ns();
      while (decoder.next(ev)) {
      }
      const std::uint64_t t2 = now_ns();
      const std::uint32_t push = spans.record("wire.push", t0, t1, off);
      spans.record("wire.next", t1, t2, off, push);
      busy += t2 - t0;
    }
    if (!decoder.ok()) die("decoder replay: " + decoder.error());
    frames += decoder.frames();
  }
  m.set("wire.decode_ns_per_frame",
        static_cast<double>(busy) / static_cast<double>(frames), "ns");
  m.set("wire.decode_msym_s", 3.0 * static_cast<double>(symbols) /
                                  static_cast<double>(busy) * 1e3,
        "Msym/s");
  m.set("wire.bytes_per_symbol",
        static_cast<double>(stream.size()) / static_cast<double>(symbols), "bytes");
}

void run_wire(const Options& opt, bool churn, RunResult& out) {
  auto pool = churn ? churn_pool(opt.seed) : query_pool(opt.seed);
  replay_pool(pool);
  if (churn)  // count:K profiles also have an analytic verdict
    for (const auto& e : pool)
      if (e.expect.fed != 64 || e.expect.stale != 0) die("churn reference is off");

  WireConfig cfg;
  cfg.open_loop = churn;
  cfg.rate = opt.rate > 0 ? opt.rate : kChurnRate;
  cfg.window = kQueryWindow;
  cfg.measure_s = opt.seconds;
  cfg.seed = opt.seed;
  cfg.plant_wrong = opt.plant_wrong;

  // Set-up: spawn the server, wait for it to listen, connect and handshake
  // all four connections.  Done kSetups times; the median is setup_s and
  // the last one serves the run.
  pb::Spans gen_spans(opt.trace);
  ServerProcess server;
  std::unique_ptr<WireClient> client;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (client) {
      client.reset();
      stop_server(server);
    }
    const std::uint64_t t0 = now_ns();
    server = spawn_server(opt.server_path);
    client = std::make_unique<WireClient>(Path::Tcp, cfg, pool, gen_spans, server.port);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  WireLayers tcp;
  {
    IdleSpinners spinners;
    client->run(out.tally, tcp);
  }
  client.reset();
  const std::string stats = stop_server(server);

  auto& m = out.metrics;
  if (!opt.trace) {
    report_end_to_end(out.tally, setups,
                      static_cast<std::uint64_t>(json_field(stats, "peak_rss_kib")), m);
    return;
  }

  m.set("gen.lag_p99_ms", ms(pb::quantile(tcp.lag_ns, 0.99)), "ms");
  m.set("net.read_bytes", json_field(stats, "read_bytes"), "bytes");
  m.set("net.written_bytes", json_field(stats, "written_bytes"), "bytes");
  m.set("net.read_pauses", json_field(stats, "read_pauses"), "count");
  m.set("net.frame_errors", json_field(stats, "frame_errors"), "count");
  m.set("cer.compiled", json_field(stats, "query_compiled"), "count");
  m.set("cer.rejected", json_field(stats, "query_rejected"), "count");
  report_overhead(out.tally, m);

  // The same schedule twice more, a quarter as long each: through an
  // in-process Server (Connection::on_bytes, verdicts stamped in the
  // set_wakeup hook), then through a Decoder plus the SessionManager calls
  // a Connection makes (verdicts stamped in the report sink).  Their
  // differences split the wire path by layer.
  cfg.measure_s = opt.seconds / 4;
  Tally server_tally, manager_tally;
  WireLayers in, bare;
  pb::Spans server_spans(true), manager_spans(true);
  {
    WireClient replay(Path::Server, cfg, pool, server_spans, 0);
    replay.run(server_tally, in);
  }
  {
    WireClient replay(Path::Manager, cfg, pool, manager_spans, 0);
    replay.run(manager_tally, bare);
  }
  for (const Tally* t : {&server_tally, &manager_tally}) out.tally.absorb(*t);

  m.set("net.transport_p50_us",
        us(out.tally.verdict.windowed(0.5) - server_tally.verdict.windowed(0.5)), "us");
  m.set("net.transport_p99_us",
        us(out.tally.verdict.windowed(0.99) - server_tally.verdict.windowed(0.99)), "us");

  pb::Spans wire_spans(true);
  wire_layer(pool, wire_spans, m);
  const auto per = [](std::uint64_t ns, std::uint64_t n) {
    return n ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
  };
  m.set("server.on_bytes_self_ns_per_frame",
        per(in.on_bytes_ns, in.on_bytes_frames) - per(bare.decode_ns, bare.decode_frames) -
            per(bare.apply_ns, bare.apply_frames),
        "ns");
  m.set("server.verdict_route_p50_us", us(in.route.windowed(0.5)), "us");
  m.set("server.verdict_route_p99_us", us(in.route.windowed(0.99)), "us");
  m.set("server.opens", static_cast<double>(in.conn_stats.opens), "count");
  m.set("server.refused_opens", static_cast<double>(in.conn_stats.refused_opens), "count");
  m.set("server.sheds", static_cast<double>(in.conn_stats.sheds), "count");
  m.set("server.unknown_frames", static_cast<double>(in.conn_stats.unknown_frames), "count");

  m.set("svc.admit_p50_ns", pb::quantile(bare.admit_ns, 0.5), "ns");
  m.set("svc.admit_p99_ns", pb::quantile(bare.admit_ns, 0.99), "ns");
  svc_layer(in.svc_stats, in.ring_wait_ns, in.depth, m);

  pb::Spans direct(true);
  direct_layers(opt.seed, direct, m);
  std::cout << "# in-process Server verdict p50/p99 " << us(server_tally.verdict.windowed(0.5))
            << "/" << us(server_tally.verdict.windowed(0.99))
            << " us; Decoder + manager calls verdict p50/p99 " << us(manager_tally.verdict.windowed(0.5))
            << "/" << us(manager_tally.verdict.windowed(0.99)) << " us\n";
  print_layers({&gen_spans, &server_spans, &manager_spans, &wire_spans, &direct}, opt);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--plant-wrong") {
      opt.plant_wrong = true;
      continue;
    }
    if (i + 1 >= argc) die("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") opt.workload = value;
    else if (arg == "--seed") opt.seed = std::stoull(value);
    else if (arg == "--seconds") opt.seconds = std::stod(value);
    else if (arg == "--trace") opt.trace = value == "1";
    else if (arg == "--server") opt.server_path = value;
    else if (arg == "--out") opt.out_dir = value;
    else if (arg == "--rate") opt.rate = std::stod(value);
    else die("unknown argument " + arg);
  }
  std::signal(SIGPIPE, SIG_IGN);

  RunResult result;
  if (opt.trace)
    for (const auto& [name, unit] : kLayerMetrics) result.metrics.set(name, 0, unit);
  if (opt.workload == "inproc_deadline") run_inproc_deadline(opt, result);
  else if (opt.workload == "wire_churn") run_wire(opt, true, result);
  else if (opt.workload == "wire_query") run_wire(opt, false, result);
  else die("unknown workload " + opt.workload);

  const Tally& t = result.tally;
  std::cout << "# sessions attempted " << t.attempted << ", failed " << t.failed
            << " (wrong " << t.wrong << ", shed " << t.shed << ", missing "
            << t.missing << ", late " << t.late << "), verdict samples " << t.verdict.size()
            << ", delivered symbols " << t.delivered << "\n";
  for (const double q : {0.5, 0.99}) {
    std::cout << "# verdict p" << static_cast<int>(q * 100) << " per sub-window (us):";
    for (const double v : t.verdict.per_window(q)) std::cout << ' ' << us(v);
    std::cout << "\n";
  }
  std::cout << "{\"correct\": " << (t.wrong == 0 ? "true" : "false")
            << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
            << ", \"metrics\": " << result.metrics.json() << "}" << std::endl;
  return 0;
}
