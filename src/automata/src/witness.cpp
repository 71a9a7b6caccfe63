#include "rtw/automata/witness.hpp"

#include <sstream>
#include <string>

#include "rtw/core/error.hpp"

namespace rtw::automata {

using rtw::core::Symbol;

bool in_block_language(const std::vector<Symbol>& word) {
  // a^u b^x c^v d^x with u, x, v > 0: single pass with run-length counting.
  std::size_t i = 0;
  auto run = [&](char c) {
    std::size_t n = 0;
    while (i < word.size() && word[i] == Symbol::chr(c)) {
      ++i;
      ++n;
    }
    return n;
  };
  const std::size_t u = run('a');
  const std::size_t x = run('b');
  const std::size_t v = run('c');
  const std::size_t y = run('d');
  return i == word.size() && u > 0 && x > 0 && v > 0 && y == x;
}

bool in_block_language(std::string_view word) {
  return in_block_language(rtw::core::symbols_of(word));
}

std::string block_word(unsigned u, unsigned x, unsigned v) {
  std::string out;
  out.append(u, 'a');
  out.append(x, 'b');
  out.append(v, 'c');
  out.append(x, 'd');
  return out;
}

bool in_l_omega(const OmegaWord& word) {
  const Symbol sep = Symbol::chr('$');
  // The cycle must contribute infinitely many separators.
  bool cycle_has_sep = false;
  for (const auto& s : word.cycle)
    if (s == sep) cycle_has_sep = true;
  if (!cycle_has_sep) return false;

  // Unroll prefix + enough cycle laps that the block decomposition becomes
  // periodic: after the prefix, blocks repeat with period = one cycle lap
  // once a lap boundary coincides with a block boundary.  Checking
  // prefix + 3 laps covers the transient and one full period for every
  // lasso whose blocks are lap-periodic; all samples and probes here are.
  const std::uint64_t n =
      word.prefix.size() + 3 * std::max<std::size_t>(word.cycle.size(), 1);
  const auto unrolled = word.unroll(n);

  std::vector<Symbol> block;
  std::size_t complete_blocks = 0;
  for (const auto& s : unrolled) {
    if (s == sep) {
      if (!in_block_language(block)) return false;
      ++complete_blocks;
      block.clear();
    } else {
      block.push_back(s);
    }
  }
  // Need at least one complete block to have evidence, and the trailing
  // partial block must be a *prefix* of some L-member -- we only insist it
  // uses the right alphabet (full check happens next lap in the periodic
  // decomposition).
  if (complete_blocks == 0) return false;
  for (const auto& s : block) {
    if (!(s == Symbol::chr('a') || s == Symbol::chr('b') ||
          s == Symbol::chr('c') || s == Symbol::chr('d')))
      return false;
  }
  return true;
}

OmegaWord l_omega_member(unsigned u, unsigned x, unsigned v) {
  return omega_word("", block_word(u, x, v) + "$");
}

std::string Counterexample::describe() const {
  std::ostringstream out;
  out << "word ("
      << rtw::core::to_string(word.prefix) << ")("
      << rtw::core::to_string(word.cycle) << ")^w : automaton "
      << (automaton_accepts ? "accepts" : "rejects") << ", language "
      << (in_language ? "contains" : "excludes") << " it";
  return out.str();
}

std::optional<Counterexample> refute_buchi_candidate(
    const BuchiAutomaton& candidate, unsigned max_x) {
  auto probe = [&](const OmegaWord& w) -> std::optional<Counterexample> {
    const bool acc = candidate.accepts(w);
    const bool mem = in_l_omega(w);
    if (acc != mem) return Counterexample{w, acc, mem};
    return std::nullopt;
  };

  // The cycle a b^x c d^d $.
  const auto cycle = [](unsigned x, unsigned d) {
    std::string out = "a";
    out.append(x, 'b');
    out += 'c';
    out.append(d, 'd');
    out += '$';
    return out;
  };

  for (unsigned x = 1; x <= max_x; ++x) {
    // Genuine member: (a b^x c d^x $)^omega.
    if (auto c = probe(l_omega_member(1, x, 1))) return c;
    // Corrupted near-members: d-run off by one in both directions.
    if (auto c = probe(omega_word("", cycle(x, x + 1)))) return c;
    if (x >= 2) {
      if (auto c = probe(omega_word("", cycle(x, x - 1)))) return c;
    }
  }
  return std::nullopt;
}

FiniteAutomaton theorem31_extract(const BuchiAutomaton& a,
                                  const OmegaWord& sample, unsigned laps) {
  const Symbol sep = Symbol::chr('$');
  const auto& base = a.base();

  // Subset-simulate A over the unrolled sample, recording the state sets
  // immediately after ($ -> S1) and immediately before ($ -> S2) each
  // separator.
  std::set<State> s1;  // states right after a $
  std::set<State> s2;  // states right before a $
  std::set<State> current = base.closure({base.initial()});
  const std::uint64_t n =
      sample.prefix.size() +
      static_cast<std::uint64_t>(laps) * sample.cycle.size();
  for (std::uint64_t i = 0; i < n; ++i) {
    const Symbol sym = sample.at(i);
    if (sym == sep) s2.insert(current.begin(), current.end());
    current = base.step(current, sym);
    if (sym == sep) s1.insert(current.begin(), current.end());
    if (current.empty()) break;
  }

  // A' = A plus a fresh initial state s' with lambda-moves into S1; the
  // final states of A' are S2.  (Proof of Theorem 3.1.)
  FiniteAutomaton prime(base.states() + 1, base.states());
  for (const auto& t : base.transitions())
    prime.add_transition(t.from, t.to, t.symbol);
  for (State s : s1) prime.add_lambda(base.states(), s);
  for (State s : s2) prime.add_final(s);
  return prime;
}

}  // namespace rtw::automata
