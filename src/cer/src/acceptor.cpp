#include "rtw/cer/acceptor.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "rtw/core/error.hpp"

namespace rtw::cer {

namespace {

using automata::ClockValue;

/// End of a dedup chain.
constexpr std::uint32_t kNoConfig = ~std::uint32_t{0};

// Transition-cache bounds.  Set ids fit the uint8_t slots; edge slots
// are a power of two for masking and flushed at half load, so a probe
// always reaches an empty slot.
constexpr std::uint32_t kMaxSets = 64;
constexpr std::uint32_t kSetSlots = 2 * kMaxSets;
constexpr std::uint32_t kEdgeSlots = 256;
constexpr std::size_t kArenaBytes = 3 * 1024;

constexpr std::uint64_t kMix = 0x9e3779b97f4a7c15ull;

/// nu' subsumes nu when nu' <= nu pointwise: every guard is an upper
/// bound, so anything nu can still do, nu' can too.
bool dominates(const ClockValue* lo, const ClockValue* hi, std::uint32_t n) {
  for (std::uint32_t i = 0; i < n; ++i) {
    if (lo[i] > hi[i]) return false;
  }
  return true;
}

}  // namespace

CerAcceptor::CerAcceptor(CompiledQuery compiled)
    : compiled_(std::move(compiled)) {
  // Size every buffer for one configuration per state up front; the
  // arenas hold at least one value so their data() is never null.
  const std::size_t states = compiled_.num_states;
  const std::size_t width = std::max<std::size_t>(compiled_.num_clocks, 1);
  states_.reserve(states);
  next_states_.reserve(states);
  clocks_.reserve(states * width);
  next_clocks_.reserve(states * width);
  chain_next_.reserve(states);
  chain_head_.assign(states, 0);
  succ_.assign(width, 0);
  reset();
}

void CerAcceptor::reset() {
  states_.assign(1, 0);
  clocks_.assign(compiled_.num_clocks, 0);
  any_accepting_ = compiled_.accepting[0];
  current_ = kNoSet;
  stale_ = false;
  cache_off_ = false;
  verdict_ = core::Verdict::Undetermined;
  result_ = {};
  last_time_ = 0;
  any_fed_ = false;
  finished_ = false;
}

core::Verdict CerAcceptor::feed(core::Symbol symbol, core::Tick at) {
  if (finished_ || core::final_verdict(verdict_)) return verdict_;
  if (any_fed_ && at < last_time_) {
    throw core::ModelError("CerAcceptor: non-monotone feed time");
  }
  const bool live = step(symbol, at);
  last_time_ = at;
  any_fed_ = true;
  ++result_.symbols_consumed;
  result_.ticks = at;
  if (!live) {
    // No configuration survives: no extension of the stream is in the
    // language, the strongest statement an anchored matcher can make.
    verdict_ = core::Verdict::Rejecting;
    result_.accepted = false;
    result_.exact = true;
  } else if (any_accepting_) {
    ++result_.f_count;
    if (!result_.first_f) result_.first_f = at;
  }
  return verdict_;
}

core::Verdict CerAcceptor::feed_run(const core::TimedSymbol* run,
                                    std::size_t n) {
  std::size_t i = 0;
  while (i < n && !core::final_verdict(verdict_)) {
    // current_ is interned only after a first feed, so a stretch never
    // starts the stream.
    if (!cache_off_ && current_ != kNoSet) {
      i = run_hits(run, i, n);
      if (i == n || core::final_verdict(verdict_)) break;
    }
    // What the stretch cannot take -- a miss, a time below the last (it
    // throws here), the first feed, the cache off -- feed() takes.
    CerAcceptor::feed(run[i].sym, run[i].time);
    ++i;
  }
  return verdict_;
}

std::size_t CerAcceptor::run_hits(const core::TimedSymbol* run,
                                  std::size_t i, std::size_t n) {
  const std::size_t first = i;
  const bool clocked = compiled_.num_clocks != 0;
  const ClockValue cap = compiled_.clock_cap;
  const CachedSet* sets = sets_.data();
  std::uint32_t set = current_;
  core::Tick last = last_time_;
  std::uint64_t f_count = result_.f_count;
  std::optional<core::Tick> first_f = result_.first_f;
  bool dead = false;
  for (; i < n; ++i) {
    const core::Tick at = run[i].time;
    if (at < last) break;
    const ClockValue elapsed =
        clocked ? std::min<ClockValue>(at - last, cap) : 0;
    const std::uint32_t to =
        find_edge(set, compiled_.classify(run[i].sym), elapsed);
    if (to == kNoSet) break;
    set = to;
    last = at;
    if (sets[to].size == 0) {
      dead = true;
      ++i;
      break;
    }
    if (sets[to].accepting) {
      ++f_count;
      if (!first_f) first_f = at;
    }
  }
  const std::size_t taken = i - first;
  if (taken == 0) return i;
  // One commit per stretch: exactly what `taken` hits through feed()
  // would have left behind.
  cache_stats_.hits += taken;
  current_ = set;
  stale_ = true;
  any_accepting_ = sets[set].accepting;
  last_time_ = last;
  result_.symbols_consumed += taken;
  result_.ticks = last;
  result_.f_count = f_count;
  result_.first_f = first_f;
  if (dead) {
    verdict_ = core::Verdict::Rejecting;
    result_.accepted = false;
    result_.exact = true;
  }
  return i;
}

// Inlined into step(), so a feed with the cache off costs what the
// sweep alone did (one call, not two).
[[gnu::always_inline]] inline void CerAcceptor::sweep(std::uint32_t cls,
                                                     ClockValue elapsed) {
  const std::uint32_t nc = compiled_.num_clocks;
  const ClockValue cap = compiled_.clock_cap;
  const ClockValue* window = compiled_.window.data();
  const CompiledQuery::Transition* edges = compiled_.transitions.data();

  next_states_.clear();
  next_clocks_.clear();
  chain_next_.clear();
  any_accepting_ = false;
  if (++stamp_ == 0) {
    // Stamp wrap: stale heads could alias the new stamp, so drop them.
    std::fill(chain_head_.begin(), chain_head_.end(), 0);
    stamp_ = 1;
  }

  ClockValue* succ = succ_.data();
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const StateId state = states_[i];
    // Clock values are time since reset; the first event's elapsed time
    // is immaterial because every guard's clock is reset on some
    // earlier transition of the same run.
    ClockValue* nu = clocks_.data() + i * nc;
    // Clocks past their window: guards on them fail.  Computed without
    // branches, since whether a window has closed is data-dependent.
    ClockMask late = 0;
    for (std::uint32_t g = 0; g < nc; ++g) {
      nu[g] = std::min<ClockValue>(nu[g] + elapsed, cap);
      late |= static_cast<ClockMask>(nu[g] > window[g]) << g;
    }
    const auto fire = [&](std::pair<std::uint32_t, std::uint32_t> range) {
      for (std::uint32_t e = range.first; e < range.second; ++e) {
        const CompiledQuery::Transition& t = edges[e];
        if (t.guard_mask & late) continue;
        for (std::uint32_t g = 0; g < nc; ++g)  // zero the reset clocks
          succ[g] = nu[g] & (ClockValue{(t.reset_mask >> g) & 1u} - 1);
        add_successor(t.to, succ);
      }
    };
    fire(compiled_.wildcard_range(state));
    fire(compiled_.class_range(state, cls));
  }
  states_.swap(next_states_);
  clocks_.swap(next_clocks_);
}

bool CerAcceptor::step(core::Symbol symbol, core::Tick at) {
  const std::uint32_t cls = compiled_.classify(symbol);
  // Valuations saturate at clock_cap, so every gap >= clock_cap advances
  // them alike: capping the gap is exact and bounds the cache key.
  const ClockValue elapsed =
      compiled_.num_clocks == 0
          ? 0
          : std::min<ClockValue>(any_fed_ ? at - last_time_ : 0,
                                 compiled_.clock_cap);
  if (!cache_off_) {
    if (edges_.empty()) allocate_cache();
    if (current_ == kNoSet) current_ = intern();
    if (current_ != kNoSet) {
      const std::uint32_t to = find_edge(current_, cls, elapsed);
      if (to != kNoSet) {
        ++cache_stats_.hits;
        current_ = to;
        stale_ = true;
        any_accepting_ = sets_[to].accepting;
        return sets_[to].size != 0;
      }
      if (stale_) load(current_);
    }
  }
  const std::uint32_t from = current_;
  sweep(cls, elapsed);
  if (!cache_off_) record(from, cls, elapsed);
  return !states_.empty();
}

void CerAcceptor::add_successor(StateId to, const ClockValue* nu) {
  const std::uint32_t nc = compiled_.num_clocks;
  std::uint64_t& head = chain_head_[to];
  const std::uint32_t first = (head >> 32) == stamp_
                                  ? static_cast<std::uint32_t>(head)
                                  : kNoConfig;
  for (std::uint32_t j = first; j != kNoConfig; j = chain_next_[j]) {
    ClockValue* existing = next_clocks_.data() + std::size_t{j} * nc;
    if (dominates(existing, nu, nc)) return;
    if (dominates(nu, existing, nc)) {
      std::copy(nu, nu + nc, existing);  // replaced in place
      return;
    }
  }
  const auto index = static_cast<std::uint32_t>(next_states_.size());
  next_states_.push_back(to);
  next_clocks_.insert(next_clocks_.end(), nu, nu + nc);
  chain_next_.push_back(first);
  head = (std::uint64_t{stamp_} << 32) | index;
  if (compiled_.accepting[to]) any_accepting_ = true;
}

void CerAcceptor::allocate_cache() {
  static_assert(kEdgeSlots * sizeof(Edge) + kSetSlots +
                    kMaxSets * sizeof(CachedSet) + kArenaBytes <=
                kMaxCacheBytes);
  set_slots_.assign(kSetSlots, 0);
  sets_.reserve(kMaxSets);
  const std::uint32_t nc = compiled_.num_clocks;
  const auto capacity = static_cast<std::uint32_t>(
      kArenaBytes / (sizeof(StateId) + nc * sizeof(ClockValue)));
  arena_states_.reserve(capacity);
  arena_clocks_.reserve(std::size_t{capacity} * nc);
  arena_capacity_ = capacity;
  // Last: a non-empty edge table means every table is in place, so a
  // feed that threw bad_alloc here retries the allocation.
  edges_.assign(kEdgeSlots, Edge{});
}

std::uint32_t CerAcceptor::intern() {
  const std::size_t size = states_.size();
  if (size > arena_capacity_) return kNoSet;
  std::uint64_t h = size;
  for (const StateId s : states_) h = (h ^ s) * kMix;
  for (const ClockValue v : clocks_) h = (h ^ v) * kMix;
  const auto hash = static_cast<std::uint32_t>(h >> 32);
  const std::size_t nc = compiled_.num_clocks;
  std::uint32_t slot = hash & (kSetSlots - 1);
  for (; set_slots_[slot] != 0; slot = (slot + 1) & (kSetSlots - 1)) {
    const std::uint32_t id = set_slots_[slot] - 1u;
    const CachedSet& set = sets_[id];
    if (set.hash == hash && set.size == size &&
        std::equal(states_.begin(), states_.end(),
                   arena_states_.begin() + set.first) &&
        std::equal(clocks_.begin(), clocks_.end(),
                   arena_clocks_.begin() + set.first * nc))
      return id;
  }
  if (sets_.size() == kMaxSets ||
      arena_states_.size() + size > arena_capacity_) {
    if (!flush()) return kNoSet;
    slot = hash & (kSetSlots - 1);  // the tables are empty now
  }
  const auto id = static_cast<std::uint32_t>(sets_.size());
  sets_.push_back({hash, static_cast<std::uint32_t>(arena_states_.size()),
                   static_cast<std::uint32_t>(size), any_accepting_});
  arena_states_.insert(arena_states_.end(), states_.begin(), states_.end());
  arena_clocks_.insert(arena_clocks_.end(), clocks_.begin(), clocks_.end());
  set_slots_[slot] = static_cast<std::uint8_t>(id + 1);
  return id;
}

namespace {

/// The edge key: nonzero, unique per (set, class).  cls < num_classes,
/// and the compiled class table already holds num_classes^2 entries, so
/// cls * kMaxSets cannot overflow for any query that compiled.
std::uint32_t edge_key(std::uint32_t from, std::uint32_t cls) {
  return cls * kMaxSets + from + 1;
}

/// The top 8 bits of a multiplicative hash: one of the kEdgeSlots.
std::uint32_t edge_slot(std::uint32_t key, ClockValue elapsed) {
  static_assert(kEdgeSlots == 256);
  return static_cast<std::uint32_t>(
      (((std::uint64_t{key} << 32) ^ elapsed) * kMix) >> 56);
}

}  // namespace

std::uint32_t CerAcceptor::find_edge(std::uint32_t from, std::uint32_t cls,
                                     ClockValue elapsed) const {
  const std::uint32_t key = edge_key(from, cls);
  for (std::uint32_t i = edge_slot(key, elapsed);;
       i = (i + 1) & (kEdgeSlots - 1)) {
    const Edge& e = edges_[i];
    if (e.key == key && e.elapsed == elapsed) return e.to;
    if (e.key == 0) return kNoSet;
  }
}

void CerAcceptor::record(std::uint32_t from, std::uint32_t cls,
                         ClockValue elapsed) {
  ++cache_stats_.misses;
  if (from != kNoSet && edge_count_ >= kEdgeSlots / 2) {
    if (!flush()) return;
    from = kNoSet;  // flushed with the tables
  }
  const std::uint64_t flushes = cache_stats_.flushes;
  current_ = intern();
  if (from == kNoSet || current_ == kNoSet || cache_stats_.flushes != flushes)
    return;
  const std::uint32_t key = edge_key(from, cls);
  std::uint32_t i = edge_slot(key, elapsed);
  while (edges_[i].key != 0) i = (i + 1) & (kEdgeSlots - 1);
  edges_[i] = {elapsed, key, current_};
  ++edge_count_;
}

bool CerAcceptor::flush() {
  const std::uint64_t hits = cache_stats_.hits - hits_at_flush_;
  const std::uint64_t misses = cache_stats_.misses - misses_at_flush_;
  hits_at_flush_ = cache_stats_.hits;
  misses_at_flush_ = cache_stats_.misses;
  std::fill(edges_.begin(), edges_.end(), Edge{});
  std::fill(set_slots_.begin(), set_slots_.end(), 0);
  sets_.clear();
  arena_states_.clear();
  arena_clocks_.clear();
  edge_count_ = 0;
  current_ = kNoSet;
  ++cache_stats_.flushes;
  if (hits >= misses) return true;
  ++cache_stats_.trips;
  cache_off_ = true;
  return false;
}

void CerAcceptor::load(std::uint32_t id) {
  const CachedSet& set = sets_[id];
  const std::size_t nc = compiled_.num_clocks;
  const auto states = arena_states_.begin() + set.first;
  const auto clocks = arena_clocks_.begin() + set.first * nc;
  states_.assign(states, states + set.size);
  clocks_.assign(clocks, clocks + set.size * nc);
  stale_ = false;
}

core::Verdict CerAcceptor::finish(core::StreamEnd end) {
  if (finished_) return verdict_;
  finished_ = true;
  if (core::final_verdict(verdict_)) return verdict_;
  const bool accepted = any_accepting_;
  verdict_ = accepted ? core::Verdict::Accepting : core::Verdict::Rejecting;
  result_.accepted = accepted;
  // A truncated stream settles over the visible prefix only: the full
  // word could extend past the cut, so the verdict is heuristic.
  result_.exact = (end == core::StreamEnd::EndOfWord);
  return verdict_;
}

std::string CerAcceptor::name() const {
  std::string text = compiled_.source.to_string();
  constexpr std::size_t kMax = 48;
  if (text.size() > kMax) {
    text.resize(kMax - 3);
    text += "...";
  }
  return "cer:" + text;
}

std::unique_ptr<core::OnlineAcceptor> make_online_acceptor(
    const Query& query, CompileLimits limits) {
  CompileResult r = compile(query, limits);
  if (!r.ok()) return nullptr;
  return std::make_unique<CerAcceptor>(std::move(*r.compiled));
}

std::unique_ptr<core::OnlineAcceptor> make_online_acceptor(
    CompiledQuery compiled) {
  return std::make_unique<CerAcceptor>(std::move(compiled));
}

}  // namespace rtw::cer
