// EXP-BATCH-KERNEL: throughput of the deadline lane kernel.
//
// Strips the serving layer away and measures the kernel itself: L promoted
// deadline lanes (compressed Working phase, completion past the horizon so
// no lane ever settles), stepped through R rounds of W-symbol runs.  Two
// legs over identical streams:
//   engine   Session::feed_run over deadline::make_online_acceptor -- the
//            per-symbol virtual drive loop the kernel replaces;
//   scalar   the deadline BatchStepper over promoted lanes, each run staged
//            with the summary its producer would have made.
// Data is laid out the way a shard reads it: every lane's run of a round
// sits in its own buffer, behind its core::RunSummary as in a pooled Feed
// body, in shuffled address order, and the buffers of consecutive rounds
// rotate through a ring of at least kRingBytes (larger than one core's
// L2), so a run is cold when its lane is stepped.  Refilling a ring slot
// for a later round -- copying each run and summarising it, the producer's
// work -- happens between rounds, outside the timed step.  The scalar row's
// `summarize_ns_per_run` times that summary pass on its own, over a run in
// cache as a producer holds it.  Every leg feeds the same symbols, so
// symbols/s divides out and the `speedup_vs_engine` field is the honest
// per-core kernel win.  Rows append to BENCH_kernel.json beside the sim
// EventQueue rows under the distinct bench name "batch_kernel".
//
// Flags:
//   --lanes=1024    concurrent sessions (lanes)
//   --run=64        symbols per run (ring-slot batch the shard would stage)
//   --rounds=200    measured rounds (each: one run per lane)
//   --kernel_json=PATH | --json=PATH   append JSONL records

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "rtw/core/lane.hpp"
#include "rtw/core/online.hpp"
#include "rtw/deadline/lane.hpp"
#include "rtw/deadline/online.hpp"
#include "rtw/deadline/problem.hpp"
#include "rtw/sim/jsonl.hpp"
#include "rtw/sim/rng.hpp"
#include "rtw/svc/session.hpp"

namespace {

using namespace rtw::core;
using rtw::svc::Session;

struct Config {
  std::size_t lanes = 1024;
  std::size_t run = 64;
  std::size_t rounds = 200;
};

/// The symbol stream, one vector per round: every lane sees the same timed
/// word.  Mostly waits, with a (deadline, usefulness) pair every 32 ticks to
/// exercise the P_m fold.
std::vector<std::vector<TimedSymbol>> build_rounds(const Config& cfg) {
  std::vector<std::vector<TimedSymbol>> rounds(cfg.rounds);
  Tick t = 1;
  for (auto& round : rounds) {
    round.reserve(cfg.run);
    while (round.size() < cfg.run) {
      if (t % 32 == 0 && round.size() + 2 <= cfg.run) {
        round.push_back({marks::deadline(), t});
        round.push_back({Symbol::nat(t % 7), t});
      } else {
        round.push_back({Symbol::chr('w'), t});
      }
      ++t;
    }
  }
  return rounds;
}

/// Opens `lanes` sessions over `factory`, feeds the promotion header (time
/// 0) plus one symbol at time 1 so fast-forwarding lane acceptors reach the
/// compressed phase before measurement starts.
template <typename Factory>
std::vector<std::unique_ptr<Session>> open_lanes(const Config& cfg,
                                                 Factory&& factory) {
  RunOptions options;
  // Far horizon and a completion beyond it: lanes never settle mid-bench.
  const std::uint64_t span = cfg.run * cfg.rounds + 64;
  options.horizon = span + 16;
  const auto problem =
      std::make_shared<rtw::deadline::FixedCostProblem>(span + 64);
  std::vector<std::unique_ptr<Session>> sessions;
  sessions.reserve(cfg.lanes);
  for (std::size_t i = 0; i < cfg.lanes; ++i) {
    auto s = std::make_unique<Session>(i, factory(problem, options));
    s->feed(Symbol::nat(1), 0);
    s->feed(marks::dollar(), 0);
    s->feed(Symbol::nat(1), 0);
    s->feed(marks::dollar(), 0);
    s->feed(Symbol::chr('w'), 1);  // past time 0: triggers lane promotion
    sessions.push_back(std::move(s));
  }
  return sessions;
}

/// The ring of per-lane run buffers is at least this large, so a round's
/// runs have left the stepping core's L2 by the time they are read.
constexpr std::size_t kRingBytes = std::size_t{8} << 20;

/// Per-lane run buffers for every round, read the way a shard reads pooled
/// runs: each (round, lane) run has its own allocation, its summary at the
/// head and its elements after it, the lanes of one ring slot are
/// allocated in a shuffled order, and `slots` rounds rotate through the
/// ring.  refill() rewrites a slot for a later round.
class LaneBuffers {
public:
  LaneBuffers(const Config& cfg,
              const std::vector<std::vector<TimedSymbol>>& rounds)
      : rounds_(rounds) {
    const std::size_t slot_bytes =
        cfg.lanes * (sizeof(RunSummary) + cfg.run * sizeof(TimedSymbol));
    const std::size_t slots = std::min(
        cfg.rounds, std::max<std::size_t>(1, (kRingBytes + slot_bytes - 1) /
                                                 slot_bytes));
    rtw::sim::Xoshiro256ss rng(0x6c616e6573ULL);  // "lanes"
    ring_.resize(slots);
    for (std::size_t slot = 0; slot < slots; ++slot) {
      std::vector<std::size_t> order(cfg.lanes);
      for (std::size_t i = 0; i < cfg.lanes; ++i) order[i] = i;
      for (std::size_t i = cfg.lanes; i > 1; --i)
        std::swap(order[i - 1], order[rng.uniform(std::uint64_t{i})]);
      ring_[slot].resize(cfg.lanes);
      for (const std::size_t lane : order)
        ring_[slot][lane] = std::make_unique<std::byte[]>(
            sizeof(RunSummary) + cfg.run * sizeof(TimedSymbol));
      refill(slot);
    }
  }

  /// Lane `lane`'s run of round `round`.
  const TimedSymbol* run(std::size_t round, std::size_t lane) const {
    return reinterpret_cast<const TimedSymbol*>(buffer(round, lane) +
                                                sizeof(RunSummary));
  }
  /// Its summary.
  const RunSummary* summary(std::size_t round, std::size_t lane) const {
    return reinterpret_cast<const RunSummary*>(buffer(round, lane));
  }

  /// After `round` is stepped, load its ring slot with the round that will
  /// use the slot next (untimed).
  void advance(std::size_t round) {
    if (round + ring_.size() < rounds_.size()) refill(round + ring_.size());
  }

private:
  const std::byte* buffer(std::size_t round, std::size_t lane) const {
    return ring_[round % ring_.size()][lane].get();
  }

  void refill(std::size_t round) {
    const auto& symbols = rounds_[round];
    for (auto& buffer : ring_[round % ring_.size()]) {
      auto* run = reinterpret_cast<TimedSymbol*>(buffer.get() +
                                                 sizeof(RunSummary));
      std::copy(symbols.begin(), symbols.end(), run);
      ::new (buffer.get()) RunSummary(summarize_run(run, symbols.size()));
    }
  }

  const std::vector<std::vector<TimedSymbol>>& rounds_;
  std::vector<std::vector<std::unique_ptr<std::byte[]>>> ring_;
};

/// Where the timed summary pass leaves a result, so it is not elided.
volatile std::uint64_t summary_sink = 0;

struct Leg {
  std::string name;
  double wall_s = 0;
  double symbols_per_sec = 0;
  std::uint64_t symbols = 0;
  double summarize_ns_per_run = -1;  ///< < 0: the leg makes no summaries
  bool ran = false;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void finish_leg(Leg& leg) {
  leg.symbols_per_sec =
      leg.wall_s > 0 ? static_cast<double>(leg.symbols) / leg.wall_s : 0;
  leg.ran = true;
}

Leg run_engine(const Config& cfg,
               const std::vector<std::vector<TimedSymbol>>& rounds) {
  auto sessions = open_lanes(cfg, [](const auto& problem, const auto& opt) {
    return rtw::deadline::make_online_acceptor(problem, opt);
  });
  LaneBuffers buffers(cfg, rounds);
  Leg leg{"engine"};
  for (std::size_t round = 0; round < rounds.size(); ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < sessions.size(); ++i)
      sessions[i]->feed_run(buffers.run(round, i), cfg.run);
    leg.wall_s += seconds_since(t0);
    leg.symbols += cfg.run * cfg.lanes;
    buffers.advance(round);
  }
  finish_leg(leg);
  return leg;
}

Leg run_kernel(const Config& cfg,
               const std::vector<std::vector<TimedSymbol>>& rounds) {
  Leg leg{"scalar"};
  auto sessions = open_lanes(cfg, [](const auto& problem, const auto& opt) {
    return rtw::deadline::make_lane_acceptor(problem, opt);
  });
  auto stepper = sessions.front()->acceptor().make_lane_stepper();
  if (!stepper) {
    std::cerr << "no lane stepper (TimedSymbol layout probe failed)\n";
    return leg;
  }
  std::vector<LaneRun> runs(cfg.lanes);
  for (std::size_t i = 0; i < cfg.lanes; ++i) {
    void* state = sessions[i]->acceptor().lane_state();
    if (!state) {
      std::cerr << "lane " << i << " failed to promote\n";
      return leg;
    }
    runs[i].filter = &sessions[i]->lane_filter();
    runs[i].state = state;
    runs[i].size = cfg.run;
  }
  // The summary pass alone, over each round's run in cache, once per lane.
  std::uint64_t keep = 0;
  const auto s0 = std::chrono::steady_clock::now();
  for (const auto& round : rounds)
    for (std::size_t i = 0; i < cfg.lanes; ++i)
      keep += summarize_run(round.data(), round.size()).last_start;
  leg.summarize_ns_per_run =
      seconds_since(s0) * 1e9 /
      static_cast<double>(rounds.size() * cfg.lanes);
  summary_sink = keep;

  LaneBuffers buffers(cfg, rounds);
  for (std::size_t round = 0; round < rounds.size(); ++round) {
    for (std::size_t i = 0; i < cfg.lanes; ++i) {
      runs[i].data = buffers.run(round, i);
      runs[i].summary = buffers.summary(round, i);
    }
    const auto t0 = std::chrono::steady_clock::now();
    stepper->step(runs.data(), runs.size());
    leg.wall_s += seconds_since(t0);
    leg.symbols += cfg.run * cfg.lanes;
    buffers.advance(round);
  }
  finish_leg(leg);
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--lanes=", 0) == 0)
      cfg.lanes = std::stoull(arg.substr(8));
    else if (arg.rfind("--run=", 0) == 0)
      cfg.run = std::stoull(arg.substr(6));
    else if (arg.rfind("--rounds=", 0) == 0)
      cfg.rounds = std::stoull(arg.substr(9));
    else if (arg.rfind("--kernel_json=", 0) == 0)
      json_path = arg.substr(14);
    else if (arg.rfind("--json=", 0) == 0)
      json_path = arg.substr(7);
    else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }
  if (cfg.lanes == 0 || cfg.run == 0 || cfg.rounds == 0) {
    std::cerr << "lanes/run/rounds must be nonzero\n";
    return 2;
  }

  const auto rounds = build_rounds(cfg);

  std::cout << "==========================================================\n";
  std::cout << " EXP-BATCH-KERNEL: " << cfg.lanes << " lanes x " << cfg.rounds
            << " rounds x " << cfg.run << " symbols/run\n";
  std::cout << " one buffer per lane and round, ring of >= "
            << (kRingBytes >> 20) << " MiB\n";
  std::cout << "==========================================================\n\n";

  std::vector<Leg> legs;
  legs.push_back(run_engine(cfg, rounds));
  legs.push_back(run_kernel(cfg, rounds));

  const double engine_rate = legs.front().symbols_per_sec;
  std::cout << " leg        Msym/s    speedup vs engine\n";
  std::cout << " -------------------------------------\n";
  std::vector<std::string> json;
  for (const auto& leg : legs) {
    if (!leg.ran) continue;
    const double speedup =
        engine_rate > 0 ? leg.symbols_per_sec / engine_rate : 0;
    std::printf(" %-8s  %8.2f    %6.2fx", leg.name.c_str(),
                leg.symbols_per_sec / 1e6, speedup);
    if (leg.summarize_ns_per_run >= 0)
      std::printf("    summary pass %.0f ns/run", leg.summarize_ns_per_run);
    std::printf("\n");
    auto record = rtw::sim::bench_record("batch_kernel")
                      .field("leg", leg.name)
                      .field("lanes", cfg.lanes)
                      .field("run_len", cfg.run)
                      .field("rounds", cfg.rounds)
                      .field("symbols", leg.symbols)
                      .field("wall_s", leg.wall_s)
                      .field("symbols_per_sec", leg.symbols_per_sec)
                      .field("speedup_vs_engine", speedup);
    if (leg.summarize_ns_per_run >= 0)
      record.field("summarize_ns_per_run", leg.summarize_ns_per_run);
    json.push_back(record.str());
  }

  std::cout << "\n--- jsonl ----------------------------------------------\n";
  for (const auto& line : json) std::cout << line << "\n";
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::app);
    for (const auto& line : json) out << line << "\n";
  }
  return 0;
}
