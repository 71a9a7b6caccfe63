// EXP-SVC: serving-layer throughput (sessions x shards sweep).
//
// Each cell opens S sessions over a SessionManager with N shards, feeds
// every session the same number of monotone symbols round-robin from one
// producer thread -- buffered per session and admitted as feed_batch runs
// (one ring slot per run) -- then closes everything Truncated and drains.
// Reported per cell:
//   * aggregate symbols/s (ingested / wall time, producer-side) and the
//     per-core rate (divided by the worker threads actually running),
//   * shed rate under the bounded per-shard rings, broken down by reason
//     (ring_full / session_bound / priority),
//   * p50/p99 *admit* latency in ns: the producer-side cost of one
//     batched admission call (sampled every 16th run),
//   * p50/p99 *feed* latency in ns: enqueue -> shard-worker-process delta
//     from the manager's sampled stamps -- the time a symbol actually
//     waited in the ring -- with the sample count (`feed_samples`) emitted
//     so a reader can judge how much the percentiles are worth,
//   * lane-kernel effectiveness: symbols stepped by the batch lane kernel
//     and the wave count,
//   * the two stages' CPU prices: the producer's thread CPU per run it
//     offered (`producer_ns_per_run`: buffering, admission, the pooled
//     copy, up to the closing drain()) and the shard workers' per ring
//     command they drained (`shard_ns_per_command`: process CPU minus the
//     main thread's, drain()'s yielding wait included, minus the time the
//     dedicated workers spun on empty rings), with that spin beside it
//     (`spin_ns_per_command`) and the workers' futex `parks` and `wakes`,
//   * the BodyPool heap calls per offered run (`pool_allocs_per_run`, 0
//     once every pool holds its in-flight peak; the wire cell reports it
//     per frame's body),
//   * the host's load over the measured window, read as the wire cell
//     reads it (see below): the steal delta (`steal_ms`) and the run-queue
//     delay of every task but the producer, the shards, per drained ring
//     command (`shard_runq_ns_per_command`).
//
// The first `--warmup` fraction of each session's stream is fed, drained
// and *excluded*: stats are deltaed and latency samples discarded, so the
// reported numbers cover the steady state rather than the cold ramp
// (session opens, first-touch allocation, lane promotion).
//
// Workloads:
//   --workload=counting   a non-locking counting algorithm behind
//                         EngineOnlineAcceptor (every feed drives one real
//                         emulated tick; the PR-6 baseline workload);
//   --workload=deadline   section 4.1 deadline sessions whose completion
//                         sits past the horizon, so every session stays in
//                         the compressed Working phase for the whole run --
//                         the batch-lane target workload;
//   --workload=wire       the in-process wire-replay cell, instead of the
//                         sweep: a Server with 2 shards (or the first
//                         --shards value), one Connection, 8 SubmitQuery
//                         sessions over the bench_cer catalog queries,
//                         each fed --symbols (default 16384) Char symbols
//                         in op-12 frames of 256, pushed through
//                         Connection::on_bytes in 64 KiB chunks; --rounds
//                         (default 256) fresh sets of sessions, after one
//                         unmeasured warm-up round.  It prices the two
//                         stages a frame crosses: the reader's on_bytes
//                         (thread CPU ns per frame) and the shard workers
//                         (process CPU minus the main thread's and minus
//                         the workers' spin, ns per ring command; the
//                         spin, parks and wakes beside it), plus the
//                         frames' wall Msym/s.  Beside
//                         them it reads the host's load over the same
//                         windows (Linux /proc, 0 where absent): the
//                         steal delta (steal_ms, /proc/stat) and the
//                         run-queue delay deltas of the reader thread
//                         (reader_runq_ns_per_frame) and of every other
//                         task of the process, the shards
//                         (shard_runq_ns_per_command), from field 2 of
//                         /proc/self/task/<tid>/schedstat.  They are read
//                         only, to tell a slow stage from a busy host.
// Acceptors (deadline workload only):
//   --acceptor=engine     deadline::make_online_acceptor (engine replica,
//                         per-symbol drive loop);
//   --acceptor=lane       deadline::make_lane_acceptor (vectorizable).
// Kernel:
//   --kernel=on|off       ShardConfig::lane_kernel; with `off` (or with
//                         --acceptor=engine) every run takes the
//                         per-symbol feed_run path.
//
// Stdout carries the human table; `--json=PATH` (alias `--svc_json=PATH`)
// appends the JSONL records (CI scrapes them into BENCH_svc.json).
//
// Flags (defaults reproduce the committed BENCH_svc.json sweep):
//   --sessions=100,1000   session counts to sweep
//   --shards=1,2,4,8      shard counts to sweep
//   --symbols=2000        symbols per session
//   --rounds=256          measured rounds (--workload=wire only)
//   --batch=256           producer-side run length (1 = per-symbol feeds)
//   --ring=4096           ring slots per shard
//   --warmup=0.2          warmup fraction excluded from measurement
//   --json=PATH           append JSONL records

#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rtw/core/lane.hpp"
#include "rtw/core/online.hpp"
#include "rtw/deadline/lane.hpp"
#include "rtw/deadline/online.hpp"
#include "rtw/deadline/problem.hpp"
#include "rtw/sim/jsonl.hpp"
#include "rtw/sim/rng.hpp"
#include "rtw/svc/body_pool.hpp"
#include "rtw/svc/profiles.hpp"
#include "rtw/svc/server.hpp"
#include "rtw/svc/service.hpp"
#include "rtw/svc/wire.hpp"

namespace {

using namespace rtw::core;
using rtw::svc::Admit;

using rtw::svc::SessionId;
using rtw::svc::SessionManager;

/// Counts arrivals forever; never locks.  The cheapest algorithm that
/// still exercises the EngineOnlineAcceptor drive loop per feed.
class CountingAlgorithm final : public RealTimeAlgorithm {
public:
  void on_tick(const StepContext& ctx) override {
    seen_ += ctx.arrivals.size();
  }
  std::optional<bool> locked() const override { return std::nullopt; }
  void reset() override { seen_ = 0; }
  std::string name() const override { return "counting"; }

private:
  std::uint64_t seen_ = 0;
};

struct Percentiles {
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::size_t samples = 0;
};

Percentiles percentiles(std::vector<std::uint64_t> samples) {
  Percentiles p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.p50 = samples[samples.size() / 2];
  p.p99 = samples[std::min(samples.size() - 1, samples.size() * 99 / 100)];
  return p;
}

enum class Workload { Counting, Deadline };
enum class AcceptorKind { Engine, Lane };

struct CellConfig {
  unsigned sessions = 0;
  unsigned shards = 0;
  std::uint64_t symbols_per_session = 2000;
  std::size_t batch = 256;
  std::size_t ring = 4096;
  double warmup = 0.2;
  Workload workload = Workload::Counting;
  AcceptorKind acceptor = AcceptorKind::Engine;
  bool kernel = true;
};

struct Cell {
  std::uint64_t symbols = 0;      ///< admitted (ingested) in measurement
  std::uint64_t offered = 0;      ///< symbols offered in measurement
  std::uint64_t shed = 0;
  std::uint64_t shed_ring_full = 0;
  std::uint64_t shed_session_bound = 0;
  std::uint64_t shed_priority = 0;
  std::uint64_t lane_symbols = 0;
  std::uint64_t lane_waves = 0;
  double wall_s = 0;
  double symbols_per_sec = 0;
  double per_core_symbols_per_sec = 0;
  double shed_rate = 0;
  Percentiles admit_ns;   ///< producer-side cost of one admission call
  Percentiles feed_ns;    ///< enqueue -> worker-process ring wait
  double producer_ns_per_run = 0;   ///< producer thread CPU per offered run
  double shard_ns_per_command = 0;  ///< shard CPU per drained ring command
  double spin_ns_per_command = 0;   ///< worker spin per drained ring command
  double pool_allocs_per_run = 0;   ///< BodyPool heap calls per offered run
  std::uint64_t parks = 0;  ///< worker futex waits in the window
  std::uint64_t wakes = 0;  ///< ... ended by a claimed wake
  double steal_ms = 0;  ///< host steal over the measured window
  double shard_runq_ns_per_command = 0;  ///< shards' run-queue delay
};

/// CPU time of `clock` (a thread or the process) in ns.
double cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// The host's steal time so far, in ms: the 8th value of /proc/stat's
/// "cpu" line (clock ticks); 0 where it cannot be read.
double steal_ms() {
  std::ifstream in("/proc/stat");
  std::string label;
  std::uint64_t fields[8] = {};
  if (!(in >> label) || label != "cpu") return 0;
  for (auto& field : fields)
    if (!(in >> field)) return 0;
  return static_cast<double>(fields[7]) * 1000.0 /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Run-queue delay so far (ns) of each task of this process: field 2 of
/// /proc/self/task/<tid>/schedstat.  Empty where it cannot be read.
std::map<long, double> runq_ns_by_task() {
  std::map<long, double> wait;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream in(task.path() / "schedstat");
    std::uint64_t run = 0, waited = 0;
    if (in >> run >> waited)
      wait[std::stol(task.path().filename().string())] =
          static_cast<double>(waited);
  }
  return wait;
}

/// Run-queue delay accrued between two runq_ns_by_task() samples: the
/// calling thread's, and every other task's (a task born in between
/// counts whole).
struct RunQueueDelta {
  double self_ns = 0;
  double others_ns = 0;
};
RunQueueDelta runq_delta(const std::map<long, double>& before,
                         const std::map<long, double>& after) {
  const long self = static_cast<long>(syscall(SYS_gettid));
  RunQueueDelta delta;
  for (const auto& [tid, waited] : after) {
    const auto it = before.find(tid);
    const double d = it == before.end() ? waited : waited - it->second;
    (tid == self ? delta.self_ns : delta.others_ns) += d;
  }
  return delta;
}

/// One deadline session's acceptor.  Completion is pushed past the horizon
/// so the session stays in the compressed Working phase for the whole
/// stream: the steady state the lane kernel exists for.
std::unique_ptr<OnlineAcceptor> make_deadline_session(
    const std::shared_ptr<const rtw::deadline::Problem>& problem,
    const RunOptions& options, AcceptorKind kind) {
  if (kind == AcceptorKind::Lane)
    return rtw::deadline::make_lane_acceptor(problem, options);
  return rtw::deadline::make_online_acceptor(problem, options);
}

Cell run_cell(const CellConfig& cc) {
  using clock = std::chrono::steady_clock;

  rtw::svc::ShardConfig shard;
  shard.count = cc.shards;
  shard.lane_kernel = cc.kernel;
  rtw::svc::IngressConfig ingress;
  ingress.ring_capacity = cc.ring;
  ingress.shed_on_full = true;  // overload -> shed, producer never stalls
  SessionManager manager(shard, ingress);

  RunOptions options;
  options.horizon = cc.symbols_per_session + 16;
  std::vector<SessionId> ids;
  ids.reserve(cc.sessions);
  if (cc.workload == Workload::Counting) {
    for (unsigned s = 0; s < cc.sessions; ++s)
      ids.push_back(manager.open(std::make_unique<EngineOnlineAcceptor>(
          std::make_unique<CountingAlgorithm>(), options)));
  } else {
    const auto problem = std::make_shared<rtw::deadline::FixedCostProblem>(
        cc.symbols_per_session + 64);  // completion > horizon: never locks
    for (unsigned s = 0; s < cc.sessions; ++s)
      ids.push_back(
          manager.open(make_deadline_session(problem, options, cc.acceptor)));
  }
  manager.drain();

  if (cc.workload == Workload::Deadline) {
    // Header run at time 0: proposed output {1} $ input {1} $ (identity
    // problem, so the claimed solution matches).  A fast-forwarding
    // acceptor promotes to its lane on the first post-header symbol.
    const std::vector<TimedSymbol> header = {{Symbol::nat(1), 0},
                                             {marks::dollar(), 0},
                                             {Symbol::nat(1), 0},
                                             {marks::dollar(), 0}};
    for (const auto id : ids) manager.feed_batch(id, header);
    manager.drain();
  }

  // Per-session producer buffers: symbols accumulate in offer order and
  // flush as one all-or-nothing feed_batch run of `batch` elements.
  std::vector<std::vector<TimedSymbol>> buffers(cc.sessions);
  for (auto& b : buffers) b.reserve(cc.batch);

  std::vector<std::uint64_t> admit_samples;
  admit_samples.reserve(
      cc.sessions * cc.symbols_per_session / (16 * cc.batch) + 1);

  Cell cell;
  std::uint64_t flushes = 0;
  const auto flush = [&](unsigned s) {
    if (buffers[s].empty()) return;
    if ((flushes++ & 15) == 0) {
      const auto t0 = clock::now();
      manager.feed_batch(ids[s], std::move(buffers[s]));
      admit_samples.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                               t0)
              .count()));
    } else {
      manager.feed_batch(ids[s], std::move(buffers[s]));
    }
    buffers[s].clear();
    buffers[s].reserve(cc.batch);  // moved-from: recover capacity up front
  };
  const auto offer = [&](unsigned s, Symbol sym, Tick t) {
    ++cell.offered;
    buffers[s].push_back({sym, t});
    if (buffers[s].size() >= cc.batch) flush(s);
  };

  const Symbol wait_sym =
      cc.workload == Workload::Counting ? Symbol::chr('a') : Symbol::chr('w');
  const Symbol d_sym = marks::deadline();
  const auto feed_tick = [&](Tick t) {
    for (unsigned s = 0; s < cc.sessions; ++s) {
      if (cc.workload == Workload::Deadline && t % 32 == 0) {
        // Exercise the P_m fold: a (d, usefulness) pair instead of `w`.
        offer(s, d_sym, t);
        offer(s, Symbol::nat(t % 7), t);
      } else {
        offer(s, wait_sym, t);
      }
    }
  };

  // Warmup: feed the cold ramp, drain it, and zero every meter.
  const Tick first = cc.workload == Workload::Deadline ? 1 : 0;
  Tick t = first;
  const Tick warmup_end =
      first + static_cast<Tick>(cc.warmup *
                                static_cast<double>(cc.symbols_per_session));
  for (; t < warmup_end; ++t) feed_tick(t);
  for (unsigned s = 0; s < cc.sessions; ++s) flush(s);
  manager.drain();
  const auto warm = manager.stats();
  (void)manager.take_feed_latency_samples();  // discard warmup samples
  admit_samples.clear();
  cell.offered = 0;

  const std::uint64_t warm_flushes = flushes;
  // Host-load probes bracket the CPU window, as in the wire cell.
  const double steal0 = steal_ms();
  const auto runq0 = runq_ns_by_task();
  const std::uint64_t allocs0 = rtw::svc::BodyPool::heap_allocations();
  const auto start = clock::now();
  const double process0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
  const double producer0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
  for (; t < first + cc.symbols_per_session; ++t) feed_tick(t);
  for (unsigned s = 0; s < cc.sessions; ++s) flush(s);
  for (const auto id : ids) manager.close(id, StreamEnd::Truncated);
  const double producer = cpu_ns(CLOCK_THREAD_CPUTIME_ID) - producer0;
  manager.drain();  // yields on this thread until the shards are idle
  const double main_thread = cpu_ns(CLOCK_THREAD_CPUTIME_ID) - producer0;
  const double process = cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - process0;
  const auto stop = clock::now();
  const auto runq = runq_delta(runq0, runq_ns_by_task());
  cell.steal_ms = steal_ms() - steal0;

  const auto stats = manager.stats();
  cell.symbols = stats.ingested - warm.ingested;
  cell.shed = stats.shed - warm.shed;
  cell.shed_ring_full = stats.shed_ring_full - warm.shed_ring_full;
  cell.shed_session_bound =
      stats.shed_session_bound - warm.shed_session_bound;
  cell.shed_priority = stats.shed_priority - warm.shed_priority;
  cell.lane_symbols = stats.lane_symbols - warm.lane_symbols;
  cell.lane_waves = stats.lane_waves - warm.lane_waves;
  cell.wall_s = std::chrono::duration<double>(stop - start).count();
  cell.symbols_per_sec =
      cell.wall_s > 0 ? static_cast<double>(cell.symbols) / cell.wall_s : 0;
  const unsigned cores = std::max(1u, std::min(
      cc.shards, std::thread::hardware_concurrency()));
  cell.per_core_symbols_per_sec =
      cell.symbols_per_sec / static_cast<double>(cores);
  cell.shed_rate = cell.offered
                       ? static_cast<double>(cell.shed) /
                             static_cast<double>(cell.offered)
                       : 0;
  cell.admit_ns = percentiles(std::move(admit_samples));
  cell.feed_ns = percentiles(manager.take_feed_latency_samples());
  const std::uint64_t runs = flushes - warm_flushes;
  const std::uint64_t commands = stats.batches - warm.batches;
  const auto spin = static_cast<double>(stats.spin_ns - warm.spin_ns);
  cell.parks = stats.parks - warm.parks;
  cell.wakes = stats.wakes - warm.wakes;
  cell.producer_ns_per_run =
      runs ? producer / static_cast<double>(runs) : 0;
  cell.shard_ns_per_command =
      commands ? (process - main_thread - spin) / static_cast<double>(commands)
               : 0;
  cell.spin_ns_per_command =
      commands ? spin / static_cast<double>(commands) : 0;
  cell.pool_allocs_per_run =
      runs ? static_cast<double>(rtw::svc::BodyPool::heap_allocations() -
                                 allocs0) /
                 static_cast<double>(runs)
           : 0;
  cell.shard_runq_ns_per_command =
      commands ? runq.others_ns / static_cast<double>(commands) : 0;
  // Sanity: every opened session must come back exactly once.
  if (manager.collect().size() != cc.sessions)
    std::cerr << "WARNING: report count != sessions\n";
  return cell;
}

struct WireCell {
  std::uint64_t frames = 0;    ///< op-12 frames pushed in measurement
  std::uint64_t commands = 0;  ///< ring commands the shards drained
  std::uint64_t symbols = 0;   ///< symbols ingested in measurement
  std::uint64_t sheds = 0;
  std::uint64_t stride_bodies = 0;  ///< bodies validated in the stride pass
  double wall_s = 0;
  double symbols_per_sec = 0;
  double reactor_ns_per_frame = 0;
  double shard_ns_per_command = 0;
  double spin_ns_per_command = 0;  ///< worker spin per drained ring command
  double pool_allocs_per_run = 0;  ///< BodyPool heap calls per frame's body
  std::uint64_t parks = 0;  ///< worker futex waits in the windows
  std::uint64_t wakes = 0;  ///< ... ended by a claimed wake
  double steal_ms = 0;  ///< host steal over the measured windows
  double reader_runq_ns_per_frame = 0;   ///< reader's run-queue delay
  double shard_runq_ns_per_command = 0;  ///< other tasks' run-queue delay
};

/// The wire-replay cell (see the file comment).  Only the frames are
/// measured: opens and closes go through on_bytes outside the window.
WireCell run_wire_cell(unsigned shards, std::uint64_t symbols_per_session,
                       unsigned rounds) {
  using clock = std::chrono::steady_clock;
  constexpr unsigned kSessions = 8;
  constexpr std::size_t kFrameSymbols = 256;
  constexpr std::size_t kReadChunk = 64 * 1024;
  static const char* const kQueries[] = {
      "a ; b ; c ; d", "(a | b | c | d)+", "within(8){ a ; (b | c)+ ; d }",
      "(within(4){ a ; b })+ | (c ; d)+"};

  rtw::svc::ServerConfig config;
  config.shard.count = shards;
  config.ingress.ring_capacity = 4096;
  rtw::svc::Server server(config, rtw::svc::profile_factory());

  // The words of bench_cer's catalog shapes: a->b pairs for `nested`,
  // random a-d for the rest (so alt_iter stays alive), 1-2 tick gaps.
  rtw::sim::Xoshiro256ss rng(1);
  std::string opens, frames, closes;
  std::uint64_t frame_count = 0;
  std::vector<std::vector<TimedSymbol>> words(kSessions);
  for (unsigned s = 0; s < kSessions; ++s) {
    const bool nested = s % 4 == 3;
    Tick t = 0;
    for (std::uint64_t i = 0; i < symbols_per_session; ++i) {
      const char c = nested ? (i % 2 ? 'b' : 'a')
                            : static_cast<char>('a' + rng.uniform(std::uint64_t{4}));
      t += 1 + rng.uniform(std::uint64_t{nested ? 3u : 2u});
      words[s].push_back({Symbol::chr(c), t});
    }
    opens += rtw::svc::encode_submit_query(s + 1, kQueries[s % 4]);
    closes += rtw::svc::encode_close(s + 1);
  }
  for (std::size_t first = 0; first < symbols_per_session;
       first += kFrameSymbols) {
    const std::size_t last = std::min<std::size_t>(
        first + kFrameSymbols, static_cast<std::size_t>(symbols_per_session));
    for (unsigned s = 0; s < kSessions; ++s) {
      frames += rtw::svc::encode_feed_batch(
          s + 1, {words[s].begin() + static_cast<long>(first),
                  words[s].begin() + static_cast<long>(last)});
      ++frame_count;
    }
  }

  WireCell cell;
  double reactor_ns = 0;
  double main_ns = 0;  ///< the reader thread's CPU, drain() included
  double spin_ns = 0;
  std::uint64_t pool_allocs = 0;
  double process_ns = 0;
  double wall_s = 0;
  double reader_runq_ns = 0, shard_runq_ns = 0;
  std::string out;
  for (unsigned round = 0; round <= rounds; ++round) {
    auto conn = server.connect();
    conn->on_bytes(rtw::svc::encode_hello() + opens);
    server.manager().drain();
    const auto before = server.manager().stats();
    // Host-load probes bracket the CPU window, so their own reads are not
    // charged to the shards.
    const double steal0 = steal_ms();
    const auto runq0 = runq_ns_by_task();
    const std::uint64_t allocs0 = rtw::svc::BodyPool::heap_allocations();
    const auto start = clock::now();
    const double process0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    const double main0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    double reader = 0;
    for (std::size_t off = 0; off < frames.size(); off += kReadChunk) {
      const double t0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
      conn->on_bytes(std::string_view(frames).substr(off, kReadChunk));
      reader += cpu_ns(CLOCK_THREAD_CPUTIME_ID) - t0;
    }
    server.manager().drain();
    const double main = cpu_ns(CLOCK_THREAD_CPUTIME_ID) - main0;
    const double process = cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - process0;
    const double wall =
        std::chrono::duration<double>(clock::now() - start).count();
    const std::uint64_t allocs =
        rtw::svc::BodyPool::heap_allocations() - allocs0;
    const auto runq = runq_delta(runq0, runq_ns_by_task());
    const double steal = steal_ms() - steal0;
    const auto after = server.manager().stats();
    conn->on_bytes(closes);
    server.manager().drain();
    out.clear();
    conn->take_output(out, SIZE_MAX);
    if (round == 0) continue;  // warm-up: first-touch allocation, caches
    cell.stride_bodies += conn->stats().stride_bodies;
    reactor_ns += reader;
    main_ns += main;
    process_ns += process;
    spin_ns += static_cast<double>(after.spin_ns - before.spin_ns);
    pool_allocs += allocs;
    cell.parks += after.parks - before.parks;
    cell.wakes += after.wakes - before.wakes;
    wall_s += wall;
    cell.steal_ms += steal;
    reader_runq_ns += runq.self_ns;
    shard_runq_ns += runq.others_ns;
    cell.frames += frame_count;
    cell.commands += after.batches - before.batches;
    cell.symbols += after.ingested - before.ingested;
    cell.sheds += after.shed - before.shed;
  }
  cell.wall_s = wall_s;
  cell.symbols_per_sec =
      wall_s > 0 ? static_cast<double>(cell.symbols) / wall_s : 0;
  cell.reactor_ns_per_frame =
      cell.frames ? reactor_ns / static_cast<double>(cell.frames) : 0;
  // The reader thread's CPU (on_bytes, then drain()'s yielding wait) is
  // part of the process CPU; the rest is the shard workers', less the time
  // they spun on empty rings.
  cell.shard_ns_per_command =
      cell.commands ? (process_ns - main_ns - spin_ns) /
                          static_cast<double>(cell.commands)
                    : 0;
  cell.spin_ns_per_command =
      cell.commands ? spin_ns / static_cast<double>(cell.commands) : 0;
  cell.pool_allocs_per_run =
      cell.frames ? static_cast<double>(pool_allocs) /
                        static_cast<double>(cell.frames)
                  : 0;
  cell.reader_runq_ns_per_frame =
      cell.frames ? reader_runq_ns / static_cast<double>(cell.frames) : 0;
  cell.shard_runq_ns_per_command =
      cell.commands ? shard_runq_ns / static_cast<double>(cell.commands) : 0;
  return cell;
}

std::vector<unsigned> parse_csv(const std::string& text) {
  std::vector<unsigned> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto comma = text.find(',', pos);
    const auto part = text.substr(pos, comma == std::string::npos
                                           ? std::string::npos
                                           : comma - pos);
    if (!part.empty()) out.push_back(static_cast<unsigned>(std::stoul(part)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<unsigned> session_counts = {100, 1000};
  std::vector<unsigned> shard_counts = {1, 2, 4, 8};
  CellConfig cc;
  bool wire = false;
  bool shards_set = false;
  bool symbols_set = false;
  unsigned rounds = 256;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](std::string_view flag) {
      return arg.substr(flag.size());
    };
    if (arg.rfind("--svc_json=", 0) == 0) json_path = value("--svc_json=");
    else if (arg.rfind("--json=", 0) == 0) json_path = value("--json=");
    else if (arg.rfind("--sessions=", 0) == 0)
      session_counts = parse_csv(value("--sessions="));
    else if (arg.rfind("--shards=", 0) == 0) {
      shard_counts = parse_csv(value("--shards="));
      shards_set = true;
    }
    else if (arg.rfind("--symbols=", 0) == 0) {
      cc.symbols_per_session = std::stoull(value("--symbols="));
      symbols_set = true;
    } else if (arg.rfind("--rounds=", 0) == 0)
      rounds = static_cast<unsigned>(std::stoul(value("--rounds=")));
    else if (arg.rfind("--batch=", 0) == 0)
      cc.batch = std::stoull(value("--batch="));
    else if (arg.rfind("--ring=", 0) == 0)
      cc.ring = std::stoull(value("--ring="));
    else if (arg.rfind("--warmup=", 0) == 0)
      cc.warmup = std::stod(value("--warmup="));
    else if (arg == "--workload=counting") cc.workload = Workload::Counting;
    else if (arg == "--workload=deadline") cc.workload = Workload::Deadline;
    else if (arg == "--workload=wire") wire = true;
    else if (arg == "--acceptor=engine") cc.acceptor = AcceptorKind::Engine;
    else if (arg == "--acceptor=lane") cc.acceptor = AcceptorKind::Lane;
    else if (arg == "--kernel=on") cc.kernel = true;
    else if (arg == "--kernel=off") cc.kernel = false;
    else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }
  if (cc.batch == 0) cc.batch = 1;
  if (cc.warmup < 0) cc.warmup = 0;
  if (cc.warmup > 0.9) cc.warmup = 0.9;

  if (wire) {
    const unsigned shards =
        shards_set && !shard_counts.empty() ? shard_counts.front() : 2;
    const std::uint64_t symbols =
        symbols_set ? cc.symbols_per_session : 16384;
    std::cout << "==========================================================\n";
    std::cout << " EXP-WIRE-HANDOFF: op-12 frames of 256 Char symbols through"
                 " an in-process\n Server, " << shards << " shards, 8 query"
                 " sessions x " << symbols << " symbols, " << rounds
              << " rounds\n";
    std::cout << " expected shape: the reader's ns/frame falls when bodies"
                 " are handed over\n undecoded; the shards' ns/command"
                 " rises by less than that\n";
    std::cout << "==========================================================\n\n";
    const WireCell cell = run_wire_cell(shards, symbols, rounds);
    std::printf(" frames %llu  reader %.0f ns/frame  shard %.0f ns/command"
                "  %.1f Msym/s  sheds %llu  stride bodies %llu\n",
                static_cast<unsigned long long>(cell.frames),
                cell.reactor_ns_per_frame, cell.shard_ns_per_command,
                cell.symbols_per_sec / 1e6,
                static_cast<unsigned long long>(cell.sheds),
                static_cast<unsigned long long>(cell.stride_bodies));
    std::printf(" shard workers: spin %.0f ns/command  parks %llu  wakes %llu"
                "  pool allocs %.4f/body\n",
                cell.spin_ns_per_command,
                static_cast<unsigned long long>(cell.parks),
                static_cast<unsigned long long>(cell.wakes),
                cell.pool_allocs_per_run);
    std::printf(" host load: steal %.0f ms  run-queue delay: reader %.0f"
                " ns/frame  shards %.0f ns/command\n",
                cell.steal_ms, cell.reader_runq_ns_per_frame,
                cell.shard_runq_ns_per_command);
    const std::string line = rtw::sim::bench_record("svc")
                                 .field("workload", "wire_replay")
                                 .field("shards", shards)
                                 .field("sessions", 8)
                                 .field("symbols_per_session", symbols)
                                 .field("frame_symbols", 256)
                                 .field("rounds", rounds)
                                 .field("frames", cell.frames)
                                 .field("commands", cell.commands)
                                 .field("symbols_ingested", cell.symbols)
                                 .field("sheds", cell.sheds)
                                 .field("stride_bodies", cell.stride_bodies)
                                 .field("wall_s", cell.wall_s)
                                 .field("symbols_per_sec", cell.symbols_per_sec)
                                 .field("reactor_on_bytes_ns_per_frame",
                                        cell.reactor_ns_per_frame)
                                 .field("shard_ns_per_command",
                                        cell.shard_ns_per_command)
                                 .field("spin_ns_per_command",
                                        cell.spin_ns_per_command)
                                 .field("pool_allocs_per_run",
                                        cell.pool_allocs_per_run)
                                 .field("parks", cell.parks)
                                 .field("wakes", cell.wakes)
                                 .field("steal_ms", cell.steal_ms)
                                 .field("reader_runq_ns_per_frame",
                                        cell.reader_runq_ns_per_frame)
                                 .field("shard_runq_ns_per_command",
                                        cell.shard_runq_ns_per_command)
                                 .str();
    std::cout << "--- jsonl ------------------------------------------------\n";
    std::cout << line << "\n";
    if (!json_path.empty()) std::ofstream(json_path, std::ios::app) << line << "\n";
    return cell.sheds == 0 ? 0 : 1;
  }

  const char* workload =
      cc.workload == Workload::Counting ? "counting" : "deadline";
  const char* acceptor = cc.acceptor == AcceptorKind::Engine ? "engine" : "lane";

  std::cout << "==========================================================\n";
  std::cout << " EXP-SVC: sessions x shards, " << cc.symbols_per_session
            << " symbols/session, ring " << cc.ring << ", batch " << cc.batch
            << ", shed-on-full\n";
  std::cout << " workload " << workload << ", acceptor " << acceptor
            << ", kernel " << (cc.kernel ? "on" : "off") << ", warmup "
            << cc.warmup << "\n";
  std::cout << "==========================================================\n\n";
  std::cout << " sessions  shards    Msym/s   shed%  admit p50/p99(ns)"
               "  feed p50/p99(us)  lane%  ns/run  ns/cmd  spin/cmd   parks"
               "  steal(ms)  runq/cmd  allocs/run\n";
  std::cout << " ---------------------------------------------------------"
               "-----------------------------------------------------------"
               "------------------\n";

  std::vector<std::string> json;
  for (const auto sessions : session_counts) {
    for (const auto shards : shard_counts) {
      cc.sessions = sessions;
      cc.shards = shards;
      const auto cell = run_cell(cc);
      const double lane_frac =
          cell.symbols ? 100.0 * static_cast<double>(cell.lane_symbols) /
                             static_cast<double>(cell.symbols)
                       : 0.0;
      std::printf(
          " %8u  %6u  %8.3f  %6.2f  %8llu /%8llu  %8.1f /%8.1f  %5.1f"
          "  %6.0f  %6.0f  %8.0f  %6llu  %9.0f  %8.0f  %10.4f\n",
          sessions, shards, cell.symbols_per_sec / 1e6,
          100.0 * cell.shed_rate,
          static_cast<unsigned long long>(cell.admit_ns.p50),
          static_cast<unsigned long long>(cell.admit_ns.p99),
          static_cast<double>(cell.feed_ns.p50) / 1e3,
          static_cast<double>(cell.feed_ns.p99) / 1e3, lane_frac,
          cell.producer_ns_per_run, cell.shard_ns_per_command,
          cell.spin_ns_per_command,
          static_cast<unsigned long long>(cell.parks), cell.steal_ms,
          cell.shard_runq_ns_per_command, cell.pool_allocs_per_run);
      json.push_back(rtw::sim::bench_record("svc")
                         .field("workload", workload)
                         .field("acceptor", acceptor)
                         .field("kernel", cc.kernel ? "on" : "off")
                         .field("sessions", sessions)
                         .field("shards", shards)
                         .field("symbols_per_session", cc.symbols_per_session)
                         .field("batch", cc.batch)
                         .field("ring", cc.ring)
                         .field("warmup_frac", cc.warmup)
                         .field("symbols_ingested", cell.symbols)
                         .field("symbols_offered", cell.offered)
                         .field("wall_s", cell.wall_s)
                         .field("symbols_per_sec", cell.symbols_per_sec)
                         .field("per_core_symbols_per_sec",
                                cell.per_core_symbols_per_sec)
                         .field("lane_symbols", cell.lane_symbols)
                         .field("lane_waves", cell.lane_waves)
                         .field("shed_rate", cell.shed_rate)
                         .field("shed_ring_full", cell.shed_ring_full)
                         .field("shed_session_bound", cell.shed_session_bound)
                         .field("shed_priority", cell.shed_priority)
                         .field("admit_samples", cell.admit_ns.samples)
                         .field("p50_admit_ns", cell.admit_ns.p50)
                         .field("p99_admit_ns", cell.admit_ns.p99)
                         .field("feed_samples", cell.feed_ns.samples)
                         .field("p50_feed_ns", cell.feed_ns.p50)
                         .field("p99_feed_ns", cell.feed_ns.p99)
                         .field("producer_ns_per_run",
                                cell.producer_ns_per_run)
                         .field("shard_ns_per_command",
                                cell.shard_ns_per_command)
                         .field("spin_ns_per_command", cell.spin_ns_per_command)
                         .field("pool_allocs_per_run", cell.pool_allocs_per_run)
                         .field("parks", cell.parks)
                         .field("wakes", cell.wakes)
                         .field("steal_ms", cell.steal_ms)
                         .field("shard_runq_ns_per_command",
                                cell.shard_runq_ns_per_command)
                         .str());
    }
    std::cout << "\n";
  }

  std::cout << "--- jsonl ------------------------------------------------\n";
  for (const auto& line : json) std::cout << line << "\n";
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::app);
    for (const auto& line : json) out << line << "\n";
  }
  return 0;
}
