// EXP-RTDB -- the recognition problem for real-time databases
// (section 5.1.3, Definition 5.1).
//
// Table 1: L_aq acceptance vs query deadline for a sensor database with r
//   image objects (evaluation cost grows with r, so tighter deadlines and
//   bigger databases reject).  Expected shape: a feasibility staircase
//   along the diagonal deadline ~ cost(r).  The 25-word sweep runs through
//   rtw::engine::BatchRunner (recognition_sweep).
//
// Table 2: Lemma 5.1 empirically -- for the periodic-query word, the
//   first index k' with tau_{k'} >= k stays finite and grows ~ k^2 /
//   (2 t_p) * contributions (every invocation keeps contributing symbols
//   each tick), while the word remains well-behaved.
//
// Table 3: periodic service -- invocations served/failed vs period
//   against the evaluation cost.  Runs through rtw::engine::run so each
//   row also reports the engine's RunTrace.
//
// After each table the same data is emitted as JSON Lines (one object per
// scenario, tagged with "bench" and "table") for machine scraping.

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "rtw/engine/engine.hpp"
#include "rtw/rtdb/algebra.hpp"
#include "rtw/rtdb/recognition.hpp"
#include "rtw/sim/jsonl.hpp"
#include "rtw/sim/table.hpp"

using namespace rtw::rtdb;
using rtw::core::Tick;
using rtw::deadline::Usefulness;

namespace {

RtdbWordSpec sensors(unsigned count) {
  RtdbWordSpec spec;
  spec.invariants = {{"site", Value{std::string("plant-7")}}};
  for (unsigned i = 0; i < count; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    spec.images.push_back(
        {std::move(name), 4 + i % 3, [i](Tick t) {
           return Value{static_cast<std::int64_t>(10 * i + t % 7)};
         }});
  }
  return spec;
}

QueryCatalog catalog_for() {
  QueryCatalog catalog;
  catalog.add(Query("all-images", [](const Database& db) {
    return project(select_eq(db.get("Objects"), "Kind",
                             Value{std::string("image")}),
                   {"Name"});
  }));
  return catalog;
}

}  // namespace

int main() {
  std::cout << "==========================================================\n";
  std::cout << " EXP-RTDB Table 1: L_aq acceptance vs deadline and |B|\n";
  std::cout << " (query: all image objects; cost = linear in object count)\n";
  std::cout << "==========================================================\n\n";
  const std::vector<unsigned> sizes = {1u, 2u, 4u, 8u, 16u};
  const std::vector<Tick> deadlines = {2u, 4u, 8u, 16u, 32u};
  std::vector<rtw::core::TimedWord> words;
  for (unsigned r : sizes) {
    const auto spec = sensors(r);
    for (Tick t_d : deadlines) {
      AperiodicQuerySpec q;
      q.query = "all-images";
      q.candidate = {Value{std::string("s0")}};
      q.issue_time = 10;
      q.usefulness = Usefulness::firm(t_d, 10);
      q.min_acceptable = 1;
      words.push_back(rtw::core::concat(build_dbB(spec), build_aq(q)));
    }
  }
  // The whole grid is one batch sweep: verdicts come back in word order,
  // bit-identical to a serial run at any thread count.
  const auto verdicts =
      recognition_sweep(catalog_for(), linear_cost(), words, 800);
  rtw::sim::Table t1({"r images", "cost", "t_d=2", "t_d=4", "t_d=8", "t_d=16",
                      "t_d=32"});
  std::size_t flat = 0;
  for (unsigned r : sizes) {
    t1.row().cell(std::to_string(r)).cell(std::to_string(r + 1));
    for (std::size_t d = 0; d < deadlines.size(); ++d)
      t1.cell(verdicts[flat++] ? "ACCEPT" : "reject");
  }
  t1.print(std::cout, 1);
  std::cout << "\nexpected shape: the ACCEPT region is the staircase "
               "t_d > cost(r) = r + 1\n(evaluation must finish before the "
               "firm deadline).\n\n";
  flat = 0;
  for (unsigned r : sizes)
    for (Tick t_d : deadlines)
      std::cout << rtw::sim::bench_record("rtdb_recognition")
                       .field("table", "t1_aq_staircase")
                       .field("r", r)
                       .field("cost", r + 1)
                       .field("t_d", t_d)
                       .field("accepted", static_cast<bool>(verdicts[flat++]))
                       .str()
                << "\n";
  std::cout << "\n";

  std::cout << "==========================================================\n";
  std::cout << " EXP-RTDB Table 2: Lemma 5.1 -- k' = first index with\n";
  std::cout << " tau_k' >= k on pq[q, s, t=1, t_p=3] (firm t_d=2)\n";
  std::cout << "==========================================================\n\n";
  PeriodicQuerySpec pq;
  pq.query = "all-images";
  pq.candidate = [](std::uint64_t i) {
    return Tuple{Value{static_cast<std::int64_t>(i)}};
  };
  pq.issue_time = 1;
  pq.period = 3;
  pq.usefulness = Usefulness::firm(2, 4);
  pq.min_acceptable = 1;
  const auto word = build_pq(pq);
  rtw::sim::Table t2({"k", "k' (first idx with tau >= k)", "finite"});
  std::vector<std::string> t2_json;
  for (Tick k : {2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    const auto idx = lemma51_index(word, k, 1u << 22);
    t2.row().cell(std::to_string(k));
    t2.cell(idx ? std::to_string(*idx) : "NOT FOUND");
    t2.cell(idx ? "yes" : "NO");
    rtw::sim::JsonLine line = rtw::sim::bench_record("rtdb_recognition");
    line
        .field("table", "t2_lemma51")
        .field("k", k)
        .field("finite", idx.has_value());
    if (idx) line.field("k_prime", *idx);
    t2_json.push_back(line.str());
  }
  t2.print(std::cout, 1);
  std::cout << "\nexpected shape: k' finite for every k (Lemma 5.1: the "
               "word is well-behaved)\nand superlinear in k (each elapsed "
               "tick adds one symbol per active invocation).\n\n";
  for (const auto& line : t2_json) std::cout << line << "\n";
  std::cout << "\n";

  std::cout << "==========================================================\n";
  std::cout << " EXP-RTDB Table 3: periodic query service vs period\n";
  std::cout << " (4 sensors, cost 5, loose firm deadline 20, horizon 400)\n";
  std::cout << "==========================================================\n\n";
  rtw::sim::Table t3({"t_p", "invocations served", "failed", "verdict"});
  std::vector<std::string> t3_json;
  for (Tick period : {10u, 20u, 40u, 80u}) {
    const auto spec = sensors(4);
    PeriodicQuerySpec p;
    p.query = "all-images";
    p.candidate = [](std::uint64_t) { return Tuple{Value{std::string("s0")}}; };
    p.issue_time = 10;
    p.period = period;
    p.usefulness = Usefulness::firm(20, 10);
    p.min_acceptable = 1;
    const auto w = rtw::core::concat(build_dbB(spec), build_pq(p));
    RecognitionAcceptor acceptor(catalog_for(), linear_cost());
    rtw::core::RunOptions options;
    options.horizon = 400;
    const auto run = rtw::engine::run(acceptor, w, options);
    t3.row().cell(std::to_string(period));
    t3.cell(acceptor.served());
    t3.cell(acceptor.failed());
    t3.cell(run.result.accepted ? "ACCEPT" : "reject");
    t3_json.push_back(rtw::sim::bench_record("rtdb_recognition")
                          .field("table", "t3_periodic_service")
                          .field("t_p", period)
                          .field("served", acceptor.served())
                          .field("failed", acceptor.failed())
                          .field("accepted", run.result.accepted)
                          .field("ticks_executed", run.trace.ticks_executed)
                          .field("ticks_skipped", run.trace.ticks_skipped)
                          .str());
  }
  t3.print(std::cout, 1);
  std::cout << "\nexpected shape: served count ~ horizon / t_p; every "
               "invocation meets the loose\ndeadline, so all rows accept "
               "with zero failures.\n\n";
  for (const auto& line : t3_json) std::cout << line << "\n";
  return 0;
}
