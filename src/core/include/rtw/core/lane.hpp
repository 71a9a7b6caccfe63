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
/// lane k+1's run, so a wave of staged runs is also what lets it see the
/// next run early.
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

/// One lane's unit of work: a run of timed elements plus the session state
/// the kernel advances.  `state` points at the family's lane-state POD (the
/// acceptor's OnlineAcceptor::lane_state()); its concrete type is the
/// family's business -- a stepper must only ever receive runs of its own
/// family.
struct LaneRun {
  const TimedSymbol* data = nullptr;
  std::size_t size = 0;
  LaneFilter* filter = nullptr;
  void* state = nullptr;
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
