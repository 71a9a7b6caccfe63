#pragma once
/// \file compile.hpp
/// Query -> timed-automaton compilation.
///
/// The compiler lowers a query AST to an epsilon-free nondeterministic
/// timed automaton by a Glushkov-style position construction extended
/// with the clock semantics of automata/clocks.hpp:
///
///   * one automaton state per Sym leaf ("position"), plus a start
///     state; a transition into position p consumes one stream event
///     matching p's predicate (no epsilon moves -- possible because
///     every query construct consumes at least one event);
///   * each `within(t)` node allocates one clock g: g is reset on
///     every transition *entering* the node's subtree and the guard
///     g <= t decorates every transition *internal* to the subtree.
///     Since the last event of a sub-match is consumed by an internal
///     transition (or is the entry event itself, when the sub-match is
///     a single event and the window holds trivially), and time is
///     monotone, guarding every internal step is equivalent to the
///     declarative first-to-last constraint tau_j - tau_i <= t;
///   * guards are evaluated against the valuation advanced to the
///     event's timestamp *before* the transition's resets apply, so a
///     step can simultaneously close one window check and open the
///     next (iteration loop-backs re-entering a `within` body).
///
/// All guards are upper bounds (x <= c), which makes two runtime
/// simplifications sound: valuations are capped at cmax+1 (clocks.hpp
/// capping argument), and a configuration (q, nu) is subsumed by
/// (q, nu') with nu' <= nu pointwise.
///
/// Runtime form.  Because every guard is a conjunction of `g <= window[g]`
/// and each clock belongs to exactly one `within`, a transition's guard
/// and resets are two 32-bit clock masks (so a query has at most 32
/// clocks).  Because every transition into position p carries p's
/// predicate (the Glushkov property), predicates are resolved once per
/// event instead of once per edge: `classify` maps a symbol to a class
/// id (a 256-entry table for Char symbols, a sorted lookup for Nat and
/// marker symbols, class 0 for symbols no exact predicate names), and
/// each state's out-edges are sorted into one wildcard range followed by
/// one range per class.  The per-(state, class) offset table holds
/// num_states * (num_classes + 1) entries; num_classes <= num_states, so
/// it is bounded by max_states * (max_states + 1) offsets.
///
/// Compilation is total: structural blow-ups (Glushkov is O(n^2) in
/// transitions) are caught by CompileLimits and reported as an error
/// result -- queries come from untrusted clients, so the serving layer
/// turns a limit hit into a refused open, never an allocation storm.

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rtw/automata/clocks.hpp"
#include "rtw/cer/query.hpp"

namespace rtw::cer {

using StateId = std::uint32_t;

/// A set of clocks, bit g standing for clock g.
using ClockMask = std::uint32_t;

/// The mask width: no query can use more clocks than this.
inline constexpr automata::ClockId kMaxClocks = 32;

/// Structural ceilings applied during compilation.  Defaults are sized
/// for wire-submitted queries (a few hundred bytes of text).
struct CompileLimits {
  /// Bounds num_states, the start state included.
  std::uint32_t max_states = 256;
  std::uint32_t max_transitions = 4096;
  /// Capped at kMaxClocks (the ClockMask width) whatever is asked for.
  std::uint32_t max_clocks = 32;
};

/// The compiled automaton.  States are 0..num_states-1 with 0 the
/// (non-accepting) start state; transitions are grouped by source in
/// CSR form for the runtime's config-set sweep.
struct CompiledQuery {
  struct Transition {
    StateId from = 0;
    StateId to = 0;
    SymbolPred pred;            ///< event filter (always `to`'s predicate)
    ClockMask guard_mask = 0;   ///< holds iff nu[g] <= window[g] for each g
    ClockMask reset_mask = 0;   ///< clocks zeroed once the guard held
  };

  std::uint32_t num_states = 0;
  automata::ClockId num_clocks = 0;
  /// cmax + 1: valuations advanced past this value are indistinguishable
  /// to every guard, so the runtime caps them here (finite config space).
  automata::ClockValue clock_cap = 1;
  std::vector<automata::ClockValue> window;  ///< per clock: its `within` bound
  /// Sorted by `from`; within one source, wildcard targets first, then
  /// exact targets by ascending class.
  std::vector<Transition> transitions;
  std::vector<std::uint32_t> first_out;  ///< CSR: num_states+1 offsets
  std::vector<bool> accepting;           ///< per state

  /// Symbol classes: 0 is "no exact predicate", then one class per
  /// distinct Char predicate (byte order), then one per distinct Nat or
  /// marker predicate (Symbol order).
  std::uint32_t num_classes = 1;
  std::array<std::uint16_t, 256> char_class{};  ///< Char byte -> class
  /// Sorted; other_syms[i] is class num_classes - other_syms.size() + i.
  std::vector<core::Symbol> other_syms;
  /// Per state, num_classes + 1 offsets into `transitions`: entry 0 ends
  /// the wildcard range, entries c and c+1 bound class c's range.
  std::vector<std::uint32_t> class_first;

  Query source;

  /// Transitions leaving `s` as a [begin, end) index pair.
  std::pair<std::uint32_t, std::uint32_t> out_range(StateId s) const {
    return {first_out[s], first_out[s + 1]};
  }

  /// The class of `s`; edges into exact positions match it only when
  /// their class is equal.
  std::uint32_t classify(core::Symbol s) const {
    // Symbol::hash() is (kind << 62) ^ value with Kind::Char == 0, so a
    // Char's hash is its byte: an inline read on the per-event path,
    // where as_char() is an out-of-line checked call.
    if (s.is_char()) return char_class[s.hash() & 0xffu];
    const auto it = std::lower_bound(other_syms.begin(), other_syms.end(), s);
    if (it == other_syms.end() || *it != s) return 0;
    return num_classes -
           static_cast<std::uint32_t>(other_syms.end() - it);
  }

  /// Transitions leaving `s` into wildcard positions.
  std::pair<std::uint32_t, std::uint32_t> wildcard_range(StateId s) const {
    return {first_out[s], class_first[std::size_t{s} * (num_classes + 1)]};
  }

  /// Transitions leaving `s` into exact positions of class `c`.
  std::pair<std::uint32_t, std::uint32_t> class_range(StateId s,
                                                      std::uint32_t c) const {
    const std::uint32_t* row = &class_first[std::size_t{s} * (num_classes + 1)];
    return {row[c], row[c + 1]};
  }
};

/// Outcome of compilation: `ok()` implies `compiled` is set, otherwise
/// `error` says which limit (or structural rule) was violated.
struct CompileResult {
  std::optional<CompiledQuery> compiled;
  std::string error;

  bool ok() const noexcept { return compiled.has_value(); }
};

CompileResult compile(const Query& query, CompileLimits limits = {});

}  // namespace rtw::cer
