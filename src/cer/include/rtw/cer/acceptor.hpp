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
/// Transition cache.  The sweep is memoized per acceptor as an
/// on-the-fly subset construction (a lazy DFA): every config set the
/// sweep produces is interned once, and every step is stored as an edge
/// (set, symbol class, capped elapsed time) -> successor set.  A repeated
/// step is then one table probe plus two flag reads (`dead`: the set is
/// empty; `accepting`: some configuration accepts), which drive the
/// verdict lock, f_count, first_f and finish() exactly as the swept set
/// would.  A miss runs the sweep unchanged and records its result, so
/// the sweep stays the only definition of a transition.
///
///   * Key.  The successor is a pure function of the ordered config set,
///     classify(symbol) and min(elapsed, clock_cap) (0 when the query has
///     no clocks).  Capping the elapsed time is exact: valuations
///     saturate at clock_cap, so every elapsed time >= clock_cap advances
///     a valuation to the same value.  The first feed uses elapsed 0, as
///     the sweep does.
///   * Ordered interning.  A set is interned as its exact sequence of
///     (state, valuation) pairs, not a canonical form: dominance
///     replacement depends on the order the sweep visits configurations
///     in, so the next sweep must see the same order.
///   * Bounds.  All limits are constants: 64 interned sets, 256 edge
///     slots (flushed at half load), and a 3 KiB arena for the interned
///     sets' configurations; a set larger than the arena is never
///     interned and its steps always run the sweep.  In all at most
///     kMaxCacheBytes per acceptor, allocated on the first feed (the
///     serving layer constructs acceptors on the network thread and
///     feeds them on shard workers) and never in the constructor.
///   * Flush.  When a new set or edge does not fit, the tables are
///     cleared in place (nothing is freed, so warm feeds stay
///     allocation-free) and the current set is interned afresh.  The
///     cache depends only on the compiled query, so reset() keeps it.
///   * Thrash guard.  If, at a flush, fewer lookups hit than missed since
///     the previous one, the acceptor stops consulting the cache until
///     reset(): a stream whose sets never repeat (a clock drifting inside
///     a long window) then pays one branch per feed, not a failed probe
///     and an intern.
///   * Run loop.  feed_run() steps a stretch of cache hits with the
///     current set id, the last time and the RunResult counters held in
///     locals: an element costs classify(), one edge probe and two flag
///     reads, and the locals are committed once per stretch.  Whatever
///     the stretch cannot take -- a miss, the first feed, the cache off,
///     a time below the last -- goes through feed() unchanged, so a run
///     leaves the verdict, result() and cache_stats() exactly as feeding
///     its elements one at a time does, and throws ModelError at the
///     same element.
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

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "rtw/cer/compile.hpp"
#include "rtw/core/online.hpp"

namespace rtw::cer {

class CerAcceptor final : public core::OnlineAcceptor {
public:
  explicit CerAcceptor(CompiledQuery compiled);

  core::Verdict feed(core::Symbol symbol, core::Tick at) override;
  using core::OnlineAcceptor::feed;
  /// One virtual call per run, stopping at the first final verdict.
  /// Stretches of cache hits run in run_hits(); every other element goes
  /// through feed() (see the file comment).
  core::Verdict feed_run(const core::TimedSymbol* run, std::size_t n) override;
  core::Verdict finish(core::StreamEnd end) override;
  core::Verdict verdict() const override { return verdict_; }
  const core::RunResult& result() const override { return result_; }
  void reset() override;
  std::string name() const override;

  const CompiledQuery& compiled() const noexcept { return compiled_; }

  /// Transition-cache counters over the acceptor's lifetime (reset()
  /// keeps them, as it keeps the cache).
  struct CacheStats {
    std::uint64_t hits = 0;     ///< feeds answered by one edge probe
    std::uint64_t misses = 0;   ///< feeds that ran the sweep, cache on
    std::uint64_t flushes = 0;  ///< table clears, guard trips included
    std::uint64_t trips = 0;    ///< thrash-guard trips
  };
  const CacheStats& cache_stats() const noexcept { return cache_stats_; }

  /// Upper bound on the transition cache's tables, per acceptor.
  static constexpr std::size_t kMaxCacheBytes = 8 * 1024 + 256;

private:
  /// The run loop: steps run[i..n) while each element is a cache hit at
  /// a time no lower than the last, with the set id, the last time and
  /// the RunResult counters in locals, and commits them once.  Returns
  /// the first element it did not take (past the one that emptied the
  /// set, if one did).  Requires the cache on and current_ interned.
  std::size_t run_hits(const core::TimedSymbol* run, std::size_t i,
                       std::size_t n);
  /// Advances the config set over one event; false when it is empty.
  bool step(core::Symbol symbol, core::Tick at);
  /// The config-set sweep: the one definition of a transition.
  void sweep(std::uint32_t cls, automata::ClockValue elapsed);
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

  // Transition cache (see the file comment).
  static constexpr std::uint32_t kNoSet = ~std::uint32_t{0};
  struct CachedSet {
    std::uint32_t hash = 0;
    std::uint32_t first = 0;  ///< first configuration in the arena
    std::uint32_t size = 0;
    bool accepting = false;
  };
  struct Edge {
    automata::ClockValue elapsed = 0;
    std::uint32_t key = 0;  ///< 0: empty slot
    std::uint32_t to = 0;
  };
  void allocate_cache();
  /// Id of the set held in states_/clocks_, interned if new; kNoSet
  /// when it is too large to intern or a flush tripped the guard.
  std::uint32_t intern();
  /// Records a swept step from `from` (kNoSet: none) to the new set.
  void record(std::uint32_t from, std::uint32_t cls,
              automata::ClockValue elapsed);
  std::uint32_t find_edge(std::uint32_t from, std::uint32_t cls,
                          automata::ClockValue elapsed) const;
  /// Clears the tables in place; false when the guard trips.
  bool flush();
  /// Copies interned set `id` back into states_/clocks_.
  void load(std::uint32_t id);

  std::vector<Edge> edges_;              ///< open addressing, kEdgeSlots
  std::vector<std::uint8_t> set_slots_;  ///< 1 + set id, 0 when empty
  std::vector<CachedSet> sets_;
  std::vector<StateId> arena_states_;
  std::vector<automata::ClockValue> arena_clocks_;
  std::uint32_t arena_capacity_ = 0;  ///< configurations
  std::uint32_t edge_count_ = 0;
  std::uint32_t current_ = kNoSet;  ///< interned id of the current set
  bool stale_ = false;  ///< states_/clocks_ do not hold current_
  bool cache_off_ = false;  ///< the guard tripped; on again at reset()
  CacheStats cache_stats_;
  std::uint64_t hits_at_flush_ = 0, misses_at_flush_ = 0;

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
