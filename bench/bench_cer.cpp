// EXP-CER: timed-pattern query serving throughput.
//
// Sweeps a fixed catalog of CER queries (a plain sequence, an iterated
// disjunction, a windowed phrase, a nested window-under-iteration, and
// an iteration under one long window whose clock drifts) across session
// and shard counts.  Every session is opened through the SubmitQuery
// wire-event path -- parse, compile to the clocked position automaton,
// admit -- and three rates are reported:
//
//   * open_rate:  SubmitQuery opens (parse + compile + admit) per second,
//   * symbols_rate: symbols admitted and processed per second through the
//     SessionManager.  The word cycles a, b, c, d, on which `seq`,
//     `window` and `nested` die within four symbols, and one producer
//     feeds every shard, so this prices the serving path (admission,
//     rings, the settled-session fast path) more than the runtime;
//   * step_rate: symbols per second fed straight into one CerAcceptor on
//     a word that keeps the query live where one exists (`alt_iter` and
//     `drift`: random a-d with 1-2 tick gaps; `nested`: a/b alternating
//     with 1-3 tick gaps).  `seq` and `window` have no such word: they
//     are fed the cycling word and reset whenever they lock, so every
//     counted symbol steps the acceptor.  This prices the runtime alone.
//     It depends only on the query, so every row of a query repeats it;
//   * run_step_rate: step_rate's word fed through CerAcceptor::feed_run
//     in 256-element runs (an op-12 frame's size, the run a shard hands a
//     served query session), reset on a final verdict and resumed after
//     the element that locked.  This prices the acceptor step as served.
//
// Stdout carries the human table; `--json=PATH` appends JSONL under the
// standard bench envelope (schema "cer").  CI runs a smoke-sized sweep
// and checks BENCH_cer.json for well-formedness; the committed sweep
// lives in BENCH_cer.json.
//
// Flags (defaults are CI-smoke sized -- a couple of seconds total):
//   --sessions=64,512   sessions per cell
//   --shards=1,2,4      shard counts to sweep
//   --symbols=2000      symbols fed per session
//   --batch=64          run length per batched admission
//   --json=PATH         append JSONL records

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "rtw/cer/acceptor.hpp"
#include "rtw/cer/parser.hpp"
#include "rtw/sim/jsonl.hpp"
#include "rtw/sim/rng.hpp"
#include "rtw/svc/service.hpp"

namespace {

using namespace rtw::core;
using rtw::svc::Admit;
using rtw::svc::SessionId;
using rtw::svc::SessionManager;
using rtw::svc::WireEvent;

/// The word step_rate feeds (see the file comment).
enum class StepWord { Cycle, RandomAD, AlternateAB };

struct QuerySpec {
  const char* label;
  const char* text;
  StepWord step_word;
};

constexpr QuerySpec kQueries[] = {
    {"seq", "a ; b ; c ; d", StepWord::Cycle},
    {"alt_iter", "(a | b | c | d)+", StepWord::RandomAD},
    {"window", "within(8){ a ; (b | c)+ ; d }", StepWord::Cycle},
    {"nested", "(within(4){ a ; b })+ | (c ; d)+", StepWord::AlternateAB},
    {"drift", "within(65536){ (a | b | c | d)+ }", StepWord::RandomAD},
};

/// step_rate's word.  16384 elements with gaps of at most 3 ticks span
/// under 65536 ticks, so `drift` stays inside its window.
std::vector<TimedSymbol> step_word(StepWord kind) {
  constexpr std::size_t kLength = 16384;
  rtw::sim::Xoshiro256ss rng(7);
  std::vector<TimedSymbol> word;
  word.reserve(kLength);
  Tick t = 0;
  for (std::size_t i = 0; i < kLength; ++i) {
    char c = static_cast<char>('a' + (i & 3));
    Tick gap = 1;
    if (kind == StepWord::RandomAD) {
      c = static_cast<char>('a' + rng.uniform(std::uint64_t{4}));
      gap = 1 + rng.uniform(std::uint64_t{2});
    } else if (kind == StepWord::AlternateAB) {
      c = i % 2 ? 'b' : 'a';
      gap = 1 + rng.uniform(std::uint64_t{3});
    }
    t += gap;
    word.push_back({Symbol::chr(c), t});
  }
  return word;
}

/// Symbols per second fed straight into one CerAcceptor: one warm-up
/// pass, then 128 timed passes over step_word, with a reset() before
/// each pass and after each lock.  A symbol at a time (step_rate), or in
/// kRunElements-element feed_run calls (run_step_rate), each resuming
/// after the element that locked.
double step_rate(const QuerySpec& query, bool runs) {
  using clock = std::chrono::steady_clock;
  constexpr int kPasses = 128;
  constexpr std::size_t kRunElements = 256;
  auto compiled = rtw::cer::compile(*rtw::cer::parse(query.text).query);
  rtw::cer::CerAcceptor acceptor(std::move(*compiled.compiled));
  const auto word = step_word(query.step_word);
  const auto pass = [&] {
    acceptor.reset();
    if (!runs) {
      for (const auto& e : word)
        if (final_verdict(acceptor.feed(e.sym, e.time))) acceptor.reset();
      return;
    }
    for (std::size_t pos = 0; pos < word.size();) {
      const std::size_t n = std::min(kRunElements, word.size() - pos);
      const std::uint64_t before = acceptor.result().symbols_consumed;
      if (!final_verdict(acceptor.feed_run(word.data() + pos, n))) {
        pos += n;
        continue;
      }
      pos += acceptor.result().symbols_consumed - before;
      acceptor.reset();
    }
  };
  pass();
  const auto start = clock::now();
  for (int p = 0; p < kPasses; ++p) pass();
  const double wall =
      std::chrono::duration<double>(clock::now() - start).count();
  return wall > 0 ? static_cast<double>(word.size()) * kPasses / wall : 0;
}

struct Cell {
  const QuerySpec* query = nullptr;
  unsigned sessions = 0;
  unsigned shards = 0;
  std::uint64_t symbols = 0;       ///< total symbols offered
  double open_wall_s = 0;          ///< SubmitQuery opens, incl. drain
  double open_rate = 0;            ///< opens (parse+compile+admit) per s
  double feed_wall_s = 0;          ///< feed + close + drain
  double symbols_rate = 0;
  std::uint64_t ingested = 0;
  std::uint64_t shed = 0;
  std::uint64_t query_compiled = 0;
  std::uint64_t query_rejected = 0;
};

Cell run_cell(const QuerySpec& query, unsigned sessions, unsigned shards,
              std::uint64_t symbols_per_session, std::size_t batch) {
  using clock = std::chrono::steady_clock;

  rtw::svc::ShardConfig shard;
  shard.count = shards;
  rtw::svc::IngressConfig ingress;
  ingress.ring_capacity = 4096;
  ingress.shed_on_full = false;  // throughput cell: block, don't shed
  SessionManager manager(shard, ingress);

  Cell cell;
  cell.query = &query;
  cell.sessions = sessions;
  cell.shards = shards;

  const auto open_start = clock::now();
  for (unsigned s = 0; s < sessions; ++s) {
    WireEvent open;
    open.kind = WireEvent::Kind::SubmitQuery;
    open.session = s + 1;
    open.profile = query.text;
    if (manager.apply(open, {}).admit != Admit::Accepted)
      std::cerr << "WARNING: SubmitQuery refused for " << query.text << "\n";
  }
  manager.drain();
  cell.open_wall_s =
      std::chrono::duration<double>(clock::now() - open_start).count();
  cell.open_rate = cell.open_wall_s > 0
                       ? static_cast<double>(sessions) / cell.open_wall_s
                       : 0;

  std::vector<TimedSymbol> run;
  run.reserve(batch);
  const auto feed_start = clock::now();
  for (unsigned s = 0; s < sessions; ++s) {
    const SessionId id = s + 1;
    Tick t = 0;
    for (std::uint64_t i = 0; i < symbols_per_session;) {
      run.clear();
      for (std::size_t b = 0; b < batch && i < symbols_per_session;
           ++b, ++i, ++t)
        run.push_back({Symbol::chr(static_cast<char>('a' + (i & 3))), t});
      cell.symbols += run.size();
      while (manager.feed_batch(id, run).admit == Admit::Blocked)
        std::this_thread::yield();
    }
    manager.close(id, StreamEnd::EndOfWord);
  }
  manager.drain();
  cell.feed_wall_s =
      std::chrono::duration<double>(clock::now() - feed_start).count();
  cell.symbols_rate = cell.feed_wall_s > 0
                          ? static_cast<double>(cell.symbols) / cell.feed_wall_s
                          : 0;

  const auto stats = manager.stats();
  cell.ingested = stats.ingested;
  cell.shed = stats.shed;
  cell.query_compiled = stats.query_compiled;
  cell.query_rejected = stats.query_rejected;
  if (manager.collect().size() != sessions)
    std::cerr << "WARNING: report count != sessions\n";
  return cell;
}

std::vector<unsigned> parse_unsigned_csv(const std::string& text) {
  std::vector<unsigned> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto comma = text.find(',', pos);
    const auto part = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!part.empty()) out.push_back(static_cast<unsigned>(std::stoul(part)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<unsigned> session_counts = {64, 512};
  std::vector<unsigned> shard_counts = {1, 2, 4};
  std::uint64_t symbols = 2000;
  std::size_t batch = 64;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](std::string_view flag) {
      return arg.substr(flag.size());
    };
    if (arg.rfind("--json=", 0) == 0) json_path = value("--json=");
    else if (arg.rfind("--sessions=", 0) == 0)
      session_counts = parse_unsigned_csv(value("--sessions="));
    else if (arg.rfind("--shards=", 0) == 0)
      shard_counts = parse_unsigned_csv(value("--shards="));
    else if (arg.rfind("--symbols=", 0) == 0)
      symbols = std::stoull(value("--symbols="));
    else if (arg.rfind("--batch=", 0) == 0)
      batch = std::stoull(value("--batch="));
    else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }
  if (batch == 0) batch = 1;

  // Sanity: every catalog query must parse (a broken catalog would
  // silently bench the refusal path).
  for (const auto& q : kQueries) {
    const auto parsed = rtw::cer::parse(q.text);
    if (!parsed.ok()) {
      std::cerr << "catalog query " << q.label
                << " failed to parse: " << parsed.error << "\n";
      return 1;
    }
  }

  std::cout << "==========================================================\n";
  std::cout << " EXP-CER: timed-pattern query serving throughput\n";
  std::cout << " " << symbols << " symbols/session, batch " << batch << "\n";
  std::cout << "==========================================================\n\n";
  std::cout << " query      sessions  shards   opens/s    Msym/s  step Msym/s"
               "   run Msym/s\n";
  std::cout << " ----------------------------------------------------------------"
               "-------------\n";

  std::vector<std::string> json;
  for (const auto& query : kQueries) {
    const double query_step_rate = step_rate(query, /*runs=*/false);
    const double query_run_step_rate = step_rate(query, /*runs=*/true);
    for (const auto sessions : session_counts) {
      for (const auto shards : shard_counts) {
        const auto cell = run_cell(query, sessions, shards, symbols, batch);
        std::printf(" %-9s  %8u  %6u  %8.0f  %8.3f  %11.3f  %11.3f\n",
                    query.label, sessions, shards, cell.open_rate,
                    cell.symbols_rate / 1e6, query_step_rate / 1e6,
                    query_run_step_rate / 1e6);
        json.push_back(rtw::sim::bench_record("cer")
                           .field("query", query.label)
                           .field("query_text", query.text)
                           .field("sessions", sessions)
                           .field("shards", shards)
                           .field("symbols", cell.symbols)
                           .field("batch", batch)
                           .field("open_wall_s", cell.open_wall_s)
                           .field("open_rate", cell.open_rate)
                           .field("feed_wall_s", cell.feed_wall_s)
                           .field("symbols_rate", cell.symbols_rate)
                           .field("step_rate", query_step_rate)
                           .field("run_step_rate", query_run_step_rate)
                           .field("ingested", cell.ingested)
                           .field("shed", cell.shed)
                           .field("query_compiled", cell.query_compiled)
                           .field("query_rejected", cell.query_rejected)
                           .str());
      }
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
