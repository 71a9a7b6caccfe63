#pragma once
/// \file acceptor.hpp
/// Compiled queries as core::OnlineAcceptor sessions.
///
/// CerAcceptor runs the compiled automaton as a subset ("config set")
/// simulation: a configuration is a state plus a capped clock
/// valuation; feeding an event advances every configuration's clocks
/// to the event's timestamp, fires all transitions whose predicate and
/// guard hold (guards checked before the transition's resets apply),
/// and dedups the successor set with pointwise-dominance subsumption
/// (sound because every guard is an upper bound).
///
/// The sweep runs on the compiled query's flat form (compile.hpp): the
/// event is classified once, and each configuration visits only its
/// state's wildcard range and the event class's range, with no
/// per-edge predicate test.  Advancing a valuation also yields the mask
/// of clocks past their window, so a guard is one AND against it and a
/// reset one masked copy.  The config set is structure-of-arrays -- a
/// state array plus one flat valuation arena of num_clocks values per
/// configuration -- and successors are deduplicated along per-state
/// chains, so a successor is compared only with configurations in the
/// same state.  All of it lives in buffers reused across feeds: once
/// the set has reached its largest size, feed() allocates nothing.
///
/// Dominance pruning never removes a state from the set (a dropped
/// successor is subsumed by a kept one in the same state), so the set
/// of live states -- and everything below derived from it -- does not
/// depend on the order in which configurations are deduplicated.
///
/// Matching is anchored: the stream as a whole must be a word of the
/// query's language.  The verdict therefore stays Undetermined until
/// the stream finishes -- with one exception: an empty configuration
/// set means no extension can ever match, which locks Rejecting with
/// exact = true.  finish(EndOfWord) settles Accepting/Rejecting with
/// exact = true; finish(Truncated) settles the same verdict over the
/// visible prefix with exact = false (the full word could differ).
///
/// RunResult mirrors Definition 3.4 bookkeeping: f_count counts feeds
/// after which some accepting configuration existed (the ticks where a
/// hypothetical output tape would carry f), first_f the first such
/// timestamp.

#include <memory>

#include "rtw/cer/compile.hpp"
#include "rtw/core/online.hpp"

namespace rtw::cer {

class CerAcceptor final : public core::OnlineAcceptor {
public:
  explicit CerAcceptor(CompiledQuery compiled);

  core::Verdict feed(core::Symbol symbol, core::Tick at) override;
  using core::OnlineAcceptor::feed;
  core::Verdict finish(core::StreamEnd end) override;
  core::Verdict verdict() const override { return verdict_; }
  const core::RunResult& result() const override { return result_; }
  void reset() override;
  std::string name() const override;

  const CompiledQuery& compiled() const noexcept { return compiled_; }
  /// Live configurations (post-dedup) -- exposed for tests/bench.
  std::size_t config_count() const noexcept { return states_.size(); }

private:
  void step(core::Symbol symbol, core::Tick at);
  /// Adds (to, nu) to the successor set unless a configuration in the
  /// same state subsumes it; a successor that subsumes one replaces it.
  void add_successor(StateId to, const automata::ClockValue* nu);

  CompiledQuery compiled_;
  // Current and successor config sets: states, plus num_clocks values
  // per configuration in the matching arena.
  std::vector<StateId> states_, next_states_;
  std::vector<automata::ClockValue> clocks_, next_clocks_;
  // Per-state dedup chains over the successor set.  chain_head_[s] packs
  // (stamp << 32 | index of the newest successor in s); an entry whose
  // stamp is not stamp_ is empty.  chain_next_ links successors.
  std::vector<std::uint64_t> chain_head_;
  std::vector<std::uint32_t> chain_next_;
  std::uint32_t stamp_ = 0;
  std::vector<automata::ClockValue> succ_;  ///< one valuation of scratch
  bool any_accepting_ = false;  ///< some live configuration accepts
  core::Verdict verdict_ = core::Verdict::Undetermined;
  core::RunResult result_;
  core::Tick last_time_ = 0;
  bool any_fed_ = false;
  bool finished_ = false;
};

/// Compiles `query` and wraps it; returns nullptr when a CompileLimits
/// ceiling is hit (callers that need the reason use compile() directly).
std::unique_ptr<core::OnlineAcceptor> make_online_acceptor(
    const Query& query, CompileLimits limits = {});

/// Wraps an already-compiled query (no failure path).
std::unique_ptr<core::OnlineAcceptor> make_online_acceptor(
    CompiledQuery compiled);

}  // namespace rtw::cer
