#pragma once
/// \file lane.hpp
/// Batch acceptance lanes: the interface a shard worker uses to advance
/// *many* sessions per kernel call instead of one virtual feed per symbol.
///
/// The paper's acceptor step is per-tick and per-acceptor, but nothing in
/// Definition 3.4 couples two runs: distinct sessions never exchange state,
/// so a worker may evaluate N independent acceptors in lockstep (the
/// parallel-lanes reading formalized in Hui & Chikkagoudar's parallel
/// real-time model).  A *lane* is one session's automaton state laid out so
/// a family kernel can keep it in SIMD registers: the ingress filter
/// watermark, the verdict/lock bytes and the family's own counters live in
/// parallel arrays, and an SSE2/AVX2 kernel steps W lanes per instruction.
///
/// Contracts:
///  * A family kernel must be *bit-identical* to feeding the same elements
///    through Session::feed one at a time -- verdict lattice transitions
///    (Undetermined ⊑ {Accepting, Rejecting}, no downgrade ever), RunResult
///    fields, and the stale-filter counters all included.  The equivalence
///    proptests in tests/test_lane_kernel.cpp enforce this per variant.
///  * The kernel owns the session's stale filter while stepping: elements
///    below the high-water mark are dropped and counted per lane exactly
///    like Session::feed would.
///  * Variant selection is a process-wide runtime decision (CPUID probe,
///    overridable with RTW_FORCE_SCALAR=1); every compiled variant accepts
///    the same LaneRun batches.

#include <cstddef>
#include <cstdint>
#include <memory>
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
/// filter), exposed as a POD so a kernel can update it in SIMD registers.
struct LaneFilter {
  Tick high_water = 0;
  std::uint64_t fed = 0;
  std::uint64_t stale = 0;
  bool any = false;  ///< false until the first element passes the filter

  /// The filter's scalar rule: an element strictly below the high-water
  /// mark is dropped and counted stale (false); anything else advances the
  /// mark and counts as fed (true).  The SIMD kernels keep the same rule
  /// in register form.
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

/// Compiled kernel variants, ordered by preference.
enum class KernelVariant : std::uint8_t { Scalar, SSE2, AVX2 };

std::string_view to_string(KernelVariant variant) noexcept;

/// A family's batch kernel: advances every lane in `runs` by its whole run.
/// Implementations group lanes into SIMD waves internally; the scalar
/// variant is the portable reference.
class BatchStepper {
public:
  virtual ~BatchStepper() = default;
  virtual LaneFamily family() const noexcept = 0;
  /// The variant actually executing (after unavailable-ISA clamping).
  virtual KernelVariant variant() const noexcept = 0;
  virtual void step(const LaneRun* runs, std::size_t count) = 0;
};

/// Pure variant selection given the RTW_FORCE_SCALAR environment value
/// (nullptr when unset).  Exposed for tests; production code uses the
/// cached dispatch_variant().
KernelVariant detect_variant(const char* force_scalar_env) noexcept;

/// True when `variant` can run on this build *and* this CPU.
bool variant_supported(KernelVariant variant) noexcept;

/// The process-wide kernel variant: CPUID-probed once, best ISA first,
/// RTW_FORCE_SCALAR=1 (or a -DRTW_FORCE_SCALAR=ON build) forces Scalar.
KernelVariant dispatch_variant() noexcept;

}  // namespace rtw::core
