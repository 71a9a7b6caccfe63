#pragma once
/// \file lane.hpp
/// Batch acceptance lanes: the interface a shard worker uses to advance
/// *many* sessions per kernel call instead of one virtual feed per symbol.
///
/// The paper's acceptor step is per-tick and per-acceptor, but nothing in
/// Definition 3.4 couples two runs: distinct sessions never exchange state,
/// so a worker may evaluate N independent acceptors in lockstep (the
/// parallel-lanes reading formalized in Hui & Chikkagoudar's parallel
/// real-time model).  A *lane* is one session's automaton state as a POD
/// the family kernel can copy into registers: the ingress filter watermark,
/// the verdict/lock bytes and the family's own counters.  The kernel steps
/// one lane's whole run at a time, and while it steps lane k it prefetches
/// lane k+1's state, so a wave of staged runs is also what lets it see the
/// next lane early.
///
/// A run is read once, where it is produced: summarize_run folds it into a
/// RunSummary (its length, its first and last times and whether they never
/// decrease, its last time group, its last Nat and its markers' id), and a
/// family's closed form steps the lane from the summary alone.  The run's
/// elements are read again only for a run the closed form declines.
///
/// Contracts:
///  * A family kernel must be *bit-identical* to feeding the same elements
///    through Session::feed one at a time -- verdict lattice transitions
///    (Undetermined ⊑ {Accepting, Rejecting}, no downgrade ever), RunResult
///    fields, and the stale-filter counters all included.  The equivalence
///    proptests in tests/test_lane_kernel.cpp enforce this.
///  * The kernel owns the session's stale filter while stepping: elements
///    below the high-water mark are dropped and counted per lane exactly
///    like Session::feed would.
///  * A LaneRun's summary, when it has one, is summarize_run of exactly its
///    elements; a run without one is summarised by the kernel on the spot.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "rtw/core/timed_word.hpp"

namespace rtw::core {

/// Kernel families.  A family is a set of acceptors whose automaton state
/// compresses to fixed-width registers; None means "no lane kernel, use the
/// per-symbol virtual path".
enum class LaneFamily : std::uint8_t {
  None,
  Deadline,  ///< section 4.1 counter/threshold automaton (deadline::*)
};

std::string_view to_string(LaneFamily family) noexcept;

/// The ingress hygiene state of one session (rtw::svc::Session's stale
/// filter), exposed as a POD so a kernel can update it in registers.
struct LaneFilter {
  Tick high_water = 0;
  std::uint64_t fed = 0;
  std::uint64_t stale = 0;
  bool any = false;  ///< false until the first element passes the filter

  /// The filter's rule: an element strictly below the high-water mark is
  /// dropped and counted stale (false); anything else advances the mark
  /// and counts as fed (true).
  bool admit(Tick at) noexcept {
    if (any && at < high_water) {
      ++stale;
      return false;
    }
    high_water = at;
    any = true;
    ++fed;
    return true;
  }
};

/// What a closed-form run step needs to know of a run, gathered in one
/// pass over it.  The time fields describe the run as written; they mean
/// "the run's ticks" only when `sorted` holds, and a closed form declines
/// any run where it does not.
struct RunSummary {
  std::uint64_t size = 0;        ///< elements in the run
  Tick first = 0;                ///< time of the first element
  Tick last = 0;                 ///< time of the last element
  std::uint64_t last_start = 0;  ///< first index of the last time group
  Tick before_last = 0;          ///< time at last_start - 1 (if last_start)
  std::uint64_t last_nat = 0;    ///< payload of the last Nat (if has_nat)
  std::uint64_t marker = 0;      ///< the markers' id (if markers, !mixed)
  std::uint64_t markers = 0;     ///< Marker elements in the run
  bool sorted = true;            ///< times never decrease
  bool has_nat = false;          ///< the run holds a Nat
  bool mixed = false;            ///< its markers carry two or more ids
};

/// The one pass that fills a RunSummary.  It branches once per four
/// elements, on whether any of them is not a Char, and the markers' ids
/// are OR-ed and AND-ed, which agree exactly when every marker carries one
/// id.
RunSummary summarize_run(const TimedSymbol* run, std::size_t n) noexcept;

/// One lane's unit of work: a run of timed elements plus the session state
/// the kernel advances.  `state` points at the family's lane-state POD (the
/// acceptor's OnlineAcceptor::lane_state()); its concrete type is the
/// family's business -- a stepper must only ever receive runs of its own
/// family.  `summary` is the run's summarize_run, or nullptr when the
/// stager has none.
struct LaneRun {
  const TimedSymbol* data = nullptr;
  std::size_t size = 0;
  LaneFilter* filter = nullptr;
  void* state = nullptr;
  const RunSummary* summary = nullptr;
};

/// A family's batch kernel: advances every lane in `runs` by its whole run,
/// one lane at a time.
class BatchStepper {
public:
  virtual ~BatchStepper() = default;
  virtual LaneFamily family() const noexcept = 0;
  virtual void step(const LaneRun* runs, std::size_t count) = 0;
};

}  // namespace rtw::core
