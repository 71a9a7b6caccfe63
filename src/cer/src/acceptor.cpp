#include "rtw/cer/acceptor.hpp"

#include <algorithm>
#include <utility>

#include "rtw/core/error.hpp"

namespace rtw::cer {

namespace {

using automata::ClockValue;

/// End of a dedup chain.
constexpr std::uint32_t kNoConfig = ~std::uint32_t{0};

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
  step(symbol, at);
  last_time_ = at;
  any_fed_ = true;
  ++result_.symbols_consumed;
  result_.ticks = at;
  if (states_.empty()) {
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

void CerAcceptor::step(core::Symbol symbol, core::Tick at) {
  const core::Tick elapsed = any_fed_ ? at - last_time_ : 0;
  const std::uint32_t nc = compiled_.num_clocks;
  const ClockValue cap = compiled_.clock_cap;
  const ClockValue* window = compiled_.window.data();
  const CompiledQuery::Transition* edges = compiled_.transitions.data();
  const std::uint32_t cls = compiled_.classify(symbol);

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
