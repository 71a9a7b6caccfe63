/// \file test_cer.cpp
/// The timed-pattern query subsystem: parser, compiler, runtime acceptor,
/// reference evaluator, the compiled-vs-reference differential property
/// (standalone and through SessionManager at 1 and 8 shards), and a
/// RunResult-exact differential against the earlier config-set runtime,
/// on short words and on long streams that exercise the transition
/// cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "proptest.hpp"
#include "rtw/cer/acceptor.hpp"
#include "rtw/cer/compile.hpp"
#include "rtw/cer/parser.hpp"
#include "rtw/cer/query.hpp"
#include "rtw/cer/reference.hpp"
#include "rtw/core/error.hpp"
#include "rtw/svc/service.hpp"

using rtw::core::StreamEnd;
using rtw::core::Symbol;
using rtw::core::Tick;
using rtw::core::TimedSymbol;
using rtw::core::Verdict;
namespace cer = rtw::cer;

namespace {

std::vector<TimedSymbol> word_of(
    std::initializer_list<std::pair<char, Tick>> elems) {
  std::vector<TimedSymbol> out;
  for (const auto& [c, t] : elems) out.push_back({Symbol::chr(c), t});
  return out;
}

/// Compiles or aborts the test.
cer::CompiledQuery must_compile(const cer::Query& q,
                                cer::CompileLimits limits = {}) {
  auto r = cer::compile(q, limits);
  EXPECT_TRUE(r.ok()) << r.error;
  return std::move(*r.compiled);
}

Verdict run_to_end(const cer::CompiledQuery& compiled,
                   std::span<const TimedSymbol> word,
                   StreamEnd end = StreamEnd::EndOfWord) {
  cer::CerAcceptor acceptor(compiled);
  for (const auto& e : word) acceptor.feed(e.sym, e.time);
  return acceptor.finish(end);
}

}  // namespace

// ============================================================== 1. parser

TEST(CerParser, AtomsAndPrecedence) {
  // `|` binds loosest, then `;`, then `+`.
  auto r = cer::parse("a ; b | c+");
  ASSERT_TRUE(r.ok()) << r.error;
  const auto& root = r.query->root();
  ASSERT_EQ(root->kind, cer::Node::Kind::Alt);
  EXPECT_EQ(root->left->kind, cer::Node::Kind::Seq);
  EXPECT_EQ(root->right->kind, cer::Node::Kind::Iter);
  EXPECT_EQ(r.query->text(), "a ; b | c+");

  // Every atom form: bare letter, quoted char, nat, marker, wildcard.
  auto atoms = cer::parse("x ; '3' ; 42 ; <boom> ; .");
  ASSERT_TRUE(atoms.ok()) << atoms.error;
  std::vector<Symbol> expected{Symbol::chr('x'), Symbol::chr('3'),
                               Symbol::nat(42), Symbol::marker("boom")};
  const cer::Node* n = atoms.query->root().get();
  std::vector<const cer::Node*> leaves;
  // Left-assoc Seq spine: ((((x ; '3') ; 42) ; <boom>) ; .)
  while (n->kind == cer::Node::Kind::Seq) {
    leaves.push_back(n->right.get());
    n = n->left.get();
  }
  leaves.push_back(n);
  ASSERT_EQ(leaves.size(), 5u);
  EXPECT_EQ(leaves[0]->pred.kind, cer::SymbolPred::Kind::Any);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& pred = leaves[leaves.size() - 1 - i]->pred;
    EXPECT_EQ(pred.kind, cer::SymbolPred::Kind::Exact);
    EXPECT_EQ(pred.sym, expected[i]);
  }
}

TEST(CerParser, WithinGroupsAndParens) {
  auto r = cer::parse("within(7){ a ; (b | c)+ }");
  ASSERT_TRUE(r.ok()) << r.error;
  const auto& root = r.query->root();
  ASSERT_EQ(root->kind, cer::Node::Kind::Within);
  EXPECT_EQ(root->window, 7u);
  EXPECT_EQ(root->left->kind, cer::Node::Kind::Seq);
  EXPECT_EQ(root->left->right->kind, cer::Node::Kind::Iter);
}

TEST(CerParser, RejectsMalformedInput) {
  for (const char* bad : {
           "",                // nothing
           "a ;",             // dangling operator
           "(a",              // unclosed group
           "a)",              // trailing junk
           "within(){a}",     // missing window
           "within(3) a",     // missing braces
           "within(3){}",     // empty body
           "ab",              // unknown keyword
           "'x",              // unterminated literal
           "<>",              // empty marker
           "<m",              // unterminated marker
           "+",               // operator without operand
           "a | | b",         // operator gap
           "99999999999999999999",  // nat overflow
       }) {
    auto r = cer::parse(bad);
    EXPECT_FALSE(r.ok()) << "accepted: " << bad;
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(CerParser, DeepNestingIsAnErrorNotACrash) {
  std::string bomb(4096, '(');
  bomb += 'a';
  bomb.append(4096, ')');
  auto r = cer::parse(bomb);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("nesting"), std::string::npos);
}

TEST(CerParser, CanonicalTextRoundTrips) {
  for (const char* text : {"a", "a ; b | c+", "within(3){ a ; b }",
                           "(a | b) ; c", "((a ; b) | c)+",
                           "within(2){ within(1){ a ; b } ; c }",
                           ". ; '(' ; <m> ; 7"}) {
    auto first = cer::parse(text);
    ASSERT_TRUE(first.ok()) << text << ": " << first.error;
    const std::string canon = first.query->to_string();
    auto second = cer::parse(canon);
    ASSERT_TRUE(second.ok()) << canon << ": " << second.error;
    EXPECT_EQ(second.query->to_string(), canon) << "from " << text;
  }
}

// ============================================================ 2. compiler

TEST(CerCompile, PositionAutomatonShape) {
  // a ; (b | c)+  -- 3 positions + start; transitions: start->a,
  // a->{b,c}, loop-backs {b,c}x{b,c}.
  auto compiled = must_compile(*cer::parse("a ; (b | c)+").query);
  EXPECT_EQ(compiled.num_states, 4u);
  EXPECT_EQ(compiled.num_clocks, 0u);
  EXPECT_EQ(compiled.transitions.size(), 1u + 2u + 4u);
  EXPECT_FALSE(compiled.accepting[0]);
  std::size_t accepting = 0;
  for (bool a : compiled.accepting) accepting += a ? 1 : 0;
  EXPECT_EQ(accepting, 2u);  // b and c positions
}

TEST(CerCompile, WithinAllocatesClocksAndCapsValuations) {
  auto compiled =
      must_compile(*cer::parse("within(9){ a ; b } ; within(4){ c ; d }").query);
  EXPECT_EQ(compiled.num_clocks, 2u);
  EXPECT_EQ(compiled.clock_cap, 10u);  // cmax + 1
}

TEST(CerCompile, LimitsRefuseStructuralBlowups) {
  // 33 nested within() -> clock limit.
  std::string nested;
  for (int i = 0; i < 33; ++i) nested += "within(1){ ";
  nested += "a";
  for (int i = 0; i < 33; ++i) nested += " }";
  auto parsed = cer::parse(nested);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  auto r = cer::compile(*parsed.query);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("clock"), std::string::npos);

  // (x1|...|x70)+ -> ~70^2 loop-backs, past the transition limit.
  cer::Query wide = cer::chr('a');
  for (int i = 0; i < 69; ++i) wide = cer::alt(std::move(wide), cer::any());
  auto big = cer::compile(cer::iter(std::move(wide)));
  ASSERT_FALSE(big.ok());
  EXPECT_NE(big.error.find("transition"), std::string::npos);

  EXPECT_FALSE(cer::compile(cer::Query{}).ok());  // empty query
}

namespace {

/// a ; a ; ... with `leaves` positions: leaves + 1 states.
cer::Query chain_of(int leaves) {
  cer::Query q = cer::chr('a');
  for (int i = 1; i < leaves; ++i) q = cer::seq(std::move(q), cer::chr('a'));
  return q;
}

/// `depth` nested within(1){ ... } around a single `a`.
cer::Query nested_windows(int depth) {
  cer::Query q = cer::chr('a');
  for (int i = 0; i < depth; ++i) q = cer::within(1, std::move(q));
  return q;
}

}  // namespace

TEST(CerCompile, StateLimitBoundsNumStatesExactly) {
  // max_states counts the start state: 255 leaves make 256 states.
  const auto at_limit = cer::compile(chain_of(255));
  ASSERT_TRUE(at_limit.ok()) << at_limit.error;
  EXPECT_EQ(at_limit.compiled->num_states, 256u);
  const auto over = cer::compile(chain_of(256));
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.error.find("state limit"), std::string::npos);

  const cer::CompileLimits three{.max_states = 3};
  EXPECT_TRUE(cer::compile(chain_of(2), three).ok());
  EXPECT_FALSE(cer::compile(chain_of(3), three).ok());
}

TEST(CerCompile, ClockLimitIsCappedAtTheMaskWidth) {
  const cer::CompileLimits wide{.max_clocks = 64};
  const auto at_cap = cer::compile(nested_windows(32), wide);
  ASSERT_TRUE(at_cap.ok()) << at_cap.error;
  EXPECT_EQ(at_cap.compiled->num_clocks, cer::kMaxClocks);
  const auto over = cer::compile(nested_windows(33), wide);
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.error.find("clock limit"), std::string::npos);
  // A lower limit still applies below the cap.
  EXPECT_FALSE(cer::compile(nested_windows(3),
                            cer::CompileLimits{.max_clocks = 2})
                   .ok());
}

TEST(CerCompile, MasksEncodeWindowGuardsAndEntryResets) {
  // within(5){ a ; b } ; c: clock 0 reset entering a, guarding a->b only.
  const auto q = must_compile(*cer::parse("within(5){ a ; b } ; c").query);
  ASSERT_EQ(q.num_clocks, 1u);
  ASSERT_EQ(q.window.size(), 1u);
  EXPECT_EQ(q.window[0], 5u);
  ASSERT_EQ(q.transitions.size(), 3u);
  for (const auto& t : q.transitions) {
    const char to = t.pred.sym.as_char();
    EXPECT_EQ(t.reset_mask, to == 'a' ? 1u : 0u) << to;
    EXPECT_EQ(t.guard_mask, to == 'b' ? 1u : 0u) << to;
  }
}

TEST(CerCompile, ClassRangesPartitionEveryStatesMatchingEdges) {
  const auto q = must_compile(
      *cer::parse("(a | . | 7 | <m> | b ; a)+ ; (<m> | 7 | c)").query);
  const std::vector<Symbol> probes{Symbol::chr('a'), Symbol::chr('b'),
                                   Symbol::chr('c'), Symbol::chr('e'),
                                   Symbol::nat(7),   Symbol::nat(8),
                                   Symbol::marker("m"), Symbol::marker("n")};
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const bool named = c == 'a' || c == 'b' || c == 'c';
    EXPECT_EQ(q.classify(Symbol::chr(c)) != 0, named) << b;
    EXPECT_EQ(q.classify(Symbol::chr(c)), q.char_class[b]) << b;
  }
  EXPECT_EQ(q.classify(Symbol::chr('e')), 0u);
  EXPECT_EQ(q.classify(Symbol::nat(8)), 0u);
  EXPECT_EQ(q.classify(Symbol::marker("n")), 0u);
  EXPECT_NE(q.classify(Symbol::nat(7)), q.classify(Symbol::marker("m")));
  EXPECT_EQ(q.num_classes, 6u);  // other, a, b, c, 7, <m>
  for (cer::StateId s = 0; s < q.num_states; ++s) {
    for (const Symbol& sym : probes) {
      std::vector<cer::StateId> expected, flat;
      const auto [begin, end] = q.out_range(s);
      for (std::uint32_t i = begin; i < end; ++i)
        if (q.transitions[i].pred.matches(sym))
          expected.push_back(q.transitions[i].to);
      for (const auto& [b, e] :
           {q.wildcard_range(s), q.class_range(s, q.classify(sym))})
        for (std::uint32_t i = b; i < e; ++i) {
          EXPECT_GE(i, begin);
          EXPECT_LT(i, end);
          flat.push_back(q.transitions[i].to);
        }
      std::sort(expected.begin(), expected.end());
      std::sort(flat.begin(), flat.end());
      EXPECT_EQ(flat, expected) << "state " << s << " symbol "
                                << sym.to_string();
    }
  }
}

// ===================================================== 3. runtime acceptor

TEST(CerAcceptor, AnchoredSequenceSemantics) {
  auto compiled = must_compile(*cer::parse("a ; b").query);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 0}, {'b', 1}})),
            Verdict::Accepting);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 0}})), Verdict::Rejecting);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 0}, {'b', 1}, {'c', 2}})),
            Verdict::Rejecting);
  EXPECT_EQ(run_to_end(compiled, {}), Verdict::Rejecting);  // no empty word
}

TEST(CerAcceptor, DeadConfigSetLocksRejectingEarly) {
  auto compiled = must_compile(*cer::parse("a ; b").query);
  cer::CerAcceptor acceptor(compiled);
  EXPECT_EQ(acceptor.feed(Symbol::chr('x'), 0), Verdict::Rejecting);
  EXPECT_TRUE(acceptor.result().exact);
  // Final verdicts are sticky; further feeds are no-ops.
  EXPECT_EQ(acceptor.feed(Symbol::chr('a'), 1), Verdict::Rejecting);
  EXPECT_EQ(acceptor.finish(StreamEnd::EndOfWord), Verdict::Rejecting);
  EXPECT_EQ(acceptor.result().symbols_consumed, 1u);
}

TEST(CerAcceptor, WindowConstraintUsesEventTimes) {
  auto compiled = must_compile(*cer::parse("within(3){ a ; b }").query);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 10}, {'b', 13}})),
            Verdict::Accepting);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 10}, {'b', 14}})),
            Verdict::Rejecting);
  // Single-event within: trivially inside any window.
  auto single = must_compile(*cer::parse("within(0){ a }").query);
  EXPECT_EQ(run_to_end(single, word_of({{'a', 99}})), Verdict::Accepting);
}

TEST(CerAcceptor, IterationReopensWindowsPerPass) {
  // Each a;b pass must fit in 2 ticks, but passes may be far apart.
  auto compiled = must_compile(*cer::parse("(within(2){ a ; b })+").query);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 0}, {'b', 2}, {'a', 50},
                                          {'b', 51}})),
            Verdict::Accepting);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 0}, {'b', 2}, {'a', 50},
                                          {'b', 53}})),
            Verdict::Rejecting);
}

TEST(CerAcceptor, WindowOverWholeIteration) {
  auto compiled = must_compile(*cer::parse("within(5){ (a)+ }").query);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 0}, {'a', 3}, {'a', 5}})),
            Verdict::Accepting);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 0}, {'a', 3}, {'a', 6}})),
            Verdict::Rejecting);
}

TEST(CerAcceptor, TruncatedFinishIsInexact) {
  auto compiled = must_compile(*cer::parse("a ; b").query);
  cer::CerAcceptor acceptor(compiled);
  acceptor.feed(Symbol::chr('a'), 0);
  acceptor.feed(Symbol::chr('b'), 1);
  EXPECT_EQ(acceptor.verdict(), Verdict::Undetermined);  // anchored: not yet
  EXPECT_EQ(acceptor.finish(StreamEnd::Truncated), Verdict::Accepting);
  EXPECT_FALSE(acceptor.result().exact);

  acceptor.reset();
  acceptor.feed(Symbol::chr('a'), 0);
  acceptor.feed(Symbol::chr('b'), 1);
  EXPECT_EQ(acceptor.finish(StreamEnd::EndOfWord), Verdict::Accepting);
  EXPECT_TRUE(acceptor.result().exact);
  EXPECT_EQ(acceptor.result().f_count, 1u);       // accepting config at b@1
  ASSERT_TRUE(acceptor.result().first_f.has_value());
  EXPECT_EQ(*acceptor.result().first_f, 1u);
}

TEST(CerAcceptor, NonMonotoneFeedThrows) {
  auto compiled = must_compile(*cer::parse("(a)+").query);
  cer::CerAcceptor acceptor(compiled);
  acceptor.feed(Symbol::chr('a'), 5);
  EXPECT_THROW(acceptor.feed(Symbol::chr('a'), 3), rtw::core::ModelError);
}

TEST(CerAcceptor, FactoryRefusesOversizedQueriesWithNullptr) {
  EXPECT_EQ(cer::make_online_acceptor(cer::chr('a'),
                                      cer::CompileLimits{.max_states = 0}),
            nullptr);
  auto ok = cer::make_online_acceptor(*cer::parse("a | b").query);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->feed(Symbol::chr('b'), 0), Verdict::Undetermined);
  EXPECT_EQ(ok->finish(StreamEnd::EndOfWord), Verdict::Accepting);
}

// ==================================================== 4. reference evaluator

TEST(CerReference, MatchesHandEvaluatedExamples) {
  const auto q = *cer::parse("within(4){ a ; (b | c)+ }").query;
  const auto yes = word_of({{'a', 0}, {'c', 2}, {'b', 4}});
  const auto no_window = word_of({{'a', 0}, {'c', 2}, {'b', 5}});
  const auto no_shape = word_of({{'a', 0}, {'a', 1}});
  EXPECT_TRUE(cer::eval_reference(q, yes));
  EXPECT_FALSE(cer::eval_reference(q, no_window));
  EXPECT_FALSE(cer::eval_reference(q, no_shape));
  EXPECT_FALSE(cer::eval_reference(q, {}));
}

// =========================================== 5. differential property suite

namespace {

/// A symbol from the generators' alphabet: mostly 'a'..'d', sometimes a
/// Nat (0, 1) or a marker (<m>, <n>).  `foreign` also allows symbols no
/// query names ('e', Nat 2, <o>): they land in the "other" class.
Symbol random_symbol(rtw::sim::Xoshiro256ss& rng, bool foreign) {
  const std::uint64_t kinds = foreign ? 10 : 8;
  switch (rng.uniform(kinds)) {
    case 0:
      return Symbol::nat(rng.uniform(std::uint64_t{2}));
    case 1:
      return Symbol::marker(rng.uniform(std::uint64_t{2}) == 0 ? "m" : "n");
    case 8:
      return rng.uniform(std::uint64_t{2}) == 0 ? Symbol::chr('e')
                                                 : Symbol::marker("o");
    case 9:
      return Symbol::nat(2);
    default:
      return Symbol::chr(
          static_cast<char>('a' + rng.uniform(std::uint64_t{4})));
  }
}

/// Random query AST over the word generators' alphabet (random_symbol
/// plus the wildcard), node count bounded by `budget`.
cer::Query random_query(rtw::sim::Xoshiro256ss& rng, std::size_t budget) {
  if (budget <= 1 || rng.uniform(std::uint64_t{4}) == 0) {
    if (rng.uniform(std::uint64_t{5}) == 0) return cer::any();
    return cer::sym(random_symbol(rng, false));
  }
  switch (rng.uniform(std::uint64_t{4})) {
    case 0: {
      const std::size_t left = 1 + rng.uniform(budget - 1);
      return cer::seq(random_query(rng, left),
                      random_query(rng, budget - left));
    }
    case 1: {
      const std::size_t left = 1 + rng.uniform(budget - 1);
      return cer::alt(random_query(rng, left),
                      random_query(rng, budget - left));
    }
    case 2:
      return cer::iter(random_query(rng, budget - 1));
    default:
      return cer::within(rng.uniform(std::uint64_t{8}),
                         random_query(rng, budget - 1));
  }
}

/// The symbols `node`'s exact predicates name, with repeats.
void leaf_symbols(const cer::NodeRef& node, std::vector<Symbol>& out) {
  if (!node) return;
  if (node->kind == cer::Node::Kind::Sym &&
      node->pred.kind == cer::SymbolPred::Kind::Exact)
    out.push_back(node->pred.sym);
  leaf_symbols(node->left, out);
  leaf_symbols(node->right, out);
}

/// Random monotone word, then fault-style mutations that preserve
/// monotonicity: drops, duplicates (same timestamp), and cumulative
/// delay jitter -- the wire-level fault modes as seen by one session.
/// Three symbols in four are drawn from the ones `query` names, so
/// matches survive past the first few elements; the rest come from the
/// whole alphabet, foreign symbols included.
std::vector<TimedSymbol> random_mutated_word(rtw::sim::Xoshiro256ss& rng,
                                             std::size_t size,
                                             const cer::Query& query) {
  std::vector<Symbol> named;
  leaf_symbols(query.root(), named);
  std::vector<TimedSymbol> word;
  const std::size_t len = rng.uniform(size + 1);
  Tick t = rng.uniform(std::uint64_t{4});
  for (std::size_t i = 0; i < len; ++i) {
    t += rng.uniform(std::uint64_t{4});
    const bool pick_named =
        !named.empty() && rng.uniform(std::uint64_t{4}) != 0;
    word.push_back({pick_named ? named[rng.uniform(named.size())]
                               : random_symbol(rng, true),
                    t});
  }
  std::vector<TimedSymbol> mutated;
  Tick shift = 0;
  for (const auto& e : word) {
    if (rng.bernoulli(0.1)) continue;                     // drop
    if (rng.bernoulli(0.1)) shift += rng.uniform(std::uint64_t{3});  // delay
    TimedSymbol out{e.sym, e.time + shift};
    mutated.push_back(out);
    if (rng.bernoulli(0.08)) mutated.push_back(out);      // duplicate
  }
  return mutated;
}

}  // namespace

TEST(CerDifferential, CompiledAcceptorAgreesWithReferenceOnEveryPrefix) {
  rtw::proptest::Config cfg;
  cfg.cases = 500;
  cfg.max_size = 24;
  const auto result = rtw::proptest::run_property(
      "cer_compiled_vs_reference", cfg,
      [](rtw::sim::Xoshiro256ss& rng,
         std::size_t size) -> std::optional<std::string> {
        const cer::Query query =
            random_query(rng, 2 + rng.uniform(std::uint64_t{8}));
        auto compiled = cer::compile(query);
        if (!compiled.ok()) return std::nullopt;  // limits are not a bug
        const auto word = random_mutated_word(rng, size, query);

        // The canonical rendering must parse back to an equivalent query.
        auto reparsed = cer::parse(query.to_string());
        if (!reparsed.ok())
          return "canonical text failed to parse: " + query.to_string() +
                 " (" + reparsed.error + ")";

        for (std::size_t len = 0; len <= word.size(); ++len) {
          const std::span<const TimedSymbol> prefix(word.data(), len);
          cer::CerAcceptor fresh(*compiled.compiled);
          for (const auto& e : prefix) fresh.feed(e.sym, e.time);
          const bool acc =
              fresh.finish(StreamEnd::EndOfWord) == Verdict::Accepting;
          const bool ref = cer::eval_reference(query, prefix);
          const bool ref2 = cer::eval_reference(*reparsed.query, prefix);
          if (acc != ref)
            return "compiled=" + std::to_string(acc) +
                   " reference=" + std::to_string(ref) + " at prefix " +
                   std::to_string(len) + " of query " + query.to_string();
          if (ref2 != ref)
            return "round-tripped query diverged: " + query.to_string();
        }

        // Incremental run: never Accepting mid-stream (anchored), and a
        // Rejecting lock must be justified by the reference.
        cer::CerAcceptor inc(*compiled.compiled);
        for (std::size_t i = 0; i < word.size(); ++i) {
          const Verdict v = inc.feed(word[i].sym, word[i].time);
          if (v == Verdict::Accepting)
            return "accepting verdict before finish at element " +
                   std::to_string(i);
          if (v == Verdict::Rejecting) {
            const std::span<const TimedSymbol> prefix(word.data(), i + 1);
            if (cer::eval_reference(query, prefix))
              return "early Rejecting lock contradicts the reference at " +
                     std::to_string(i);
          }
        }
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok()) << rtw::proptest::describe(
      "cer_compiled_vs_reference", cfg, *result.failure);
  EXPECT_EQ(result.cases_run, cfg.cases);
}

namespace {

using rtw::automata::ClockConstraint;
using rtw::automata::ClockId;

/// The compiled table in its earlier shape: a ClockConstraint guard and
/// a reset list per transition, rebuilt from the masks.
struct LegacyQuery {
  struct Transition {
    cer::StateId from = 0;
    cer::StateId to = 0;
    cer::SymbolPred pred;
    ClockConstraint guard = ClockConstraint::top();
    std::vector<ClockId> resets;
  };

  explicit LegacyQuery(const cer::CompiledQuery& q)
      : num_states(q.num_states),
        num_clocks(q.num_clocks),
        clock_cap(q.clock_cap),
        first_out(q.first_out),
        accepting(q.accepting) {
    for (const auto& t : q.transitions) {
      Transition lt{t.from, t.to, t.pred, ClockConstraint::top(), {}};
      for (ClockId g = 0; g < q.num_clocks; ++g) {
        if ((t.guard_mask >> g) & 1u)
          lt.guard = lt.guard && ClockConstraint::le(g, q.window[g]);
        if ((t.reset_mask >> g) & 1u) lt.resets.push_back(g);
      }
      transitions.push_back(std::move(lt));
    }
  }

  std::uint32_t num_states = 0;
  ClockId num_clocks = 0;
  rtw::automata::ClockValue clock_cap = 1;
  std::vector<Transition> transitions;
  std::vector<std::uint32_t> first_out;
  std::vector<bool> accepting;

  std::pair<std::uint32_t, std::uint32_t> out_range(cer::StateId s) const {
    return {first_out[s], first_out[s + 1]};
  }
};

/// The config-set acceptor as it stood before the flat runtime, kept
/// verbatim as an oracle: per-edge predicate tests, ClockConstraint
/// guards, a heap valuation per configuration and a linear dedup scan.
class LegacyCerAcceptor {
public:
  explicit LegacyCerAcceptor(LegacyQuery compiled)
      : compiled_(std::move(compiled)) {
    reset();
  }

  void reset() {
    configs_.clear();
    configs_.push_back(
        Config{0, rtw::automata::ClockValuation(compiled_.num_clocks, 0)});
    next_.clear();
    verdict_ = Verdict::Undetermined;
    result_ = {};
    last_time_ = 0;
    any_fed_ = false;
    finished_ = false;
  }

  Verdict feed(Symbol symbol, Tick at) {
    if (finished_ || rtw::core::final_verdict(verdict_)) return verdict_;
    if (any_fed_ && at < last_time_) {
      throw rtw::core::ModelError("CerAcceptor: non-monotone feed time");
    }
    step(symbol, at);
    last_time_ = at;
    any_fed_ = true;
    ++result_.symbols_consumed;
    result_.ticks = at;
    if (configs_.empty()) {
      verdict_ = Verdict::Rejecting;
      result_.accepted = false;
      result_.exact = true;
    } else if (any_accepting()) {
      ++result_.f_count;
      if (!result_.first_f) result_.first_f = at;
    }
    return verdict_;
  }

  Verdict finish(StreamEnd end) {
    if (finished_) return verdict_;
    finished_ = true;
    if (rtw::core::final_verdict(verdict_)) return verdict_;
    const bool accepted = any_accepting();
    verdict_ = accepted ? Verdict::Accepting : Verdict::Rejecting;
    result_.accepted = accepted;
    result_.exact = (end == StreamEnd::EndOfWord);
    return verdict_;
  }

  Verdict verdict() const { return verdict_; }
  const rtw::core::RunResult& result() const { return result_; }

private:
  struct Config {
    cer::StateId state = 0;
    rtw::automata::ClockValuation clocks;
  };

  static bool dominates(const rtw::automata::ClockValuation& lo,
                        const rtw::automata::ClockValuation& hi) {
    for (std::size_t i = 0; i < lo.size(); ++i) {
      if (lo[i] > hi[i]) return false;
    }
    return true;
  }

  void step(Symbol symbol, Tick at) {
    const Tick elapsed = any_fed_ ? at - last_time_ : 0;
    next_.clear();
    for (const Config& c : configs_) {
      rtw::automata::ClockValuation nu =
          rtw::automata::advance(c.clocks, elapsed, compiled_.clock_cap);
      const auto [begin, end] = compiled_.out_range(c.state);
      for (std::uint32_t i = begin; i < end; ++i) {
        const auto& t = compiled_.transitions[i];
        if (!t.pred.matches(symbol)) continue;
        if (!t.guard.satisfied(nu)) continue;
        Config succ{t.to, rtw::automata::reset(nu, t.resets)};
        bool subsumed = false;
        for (Config& existing : next_) {
          if (existing.state != succ.state) continue;
          if (dominates(existing.clocks, succ.clocks)) {
            subsumed = true;
            break;
          }
          if (dominates(succ.clocks, existing.clocks)) {
            existing.clocks = succ.clocks;
            subsumed = true;  // replaced in place
            break;
          }
        }
        if (!subsumed) next_.push_back(std::move(succ));
      }
    }
    configs_.swap(next_);
  }

  bool any_accepting() const {
    return std::any_of(configs_.begin(), configs_.end(), [&](const Config& c) {
      return compiled_.accepting[c.state];
    });
  }

  LegacyQuery compiled_;
  std::vector<Config> configs_;
  std::vector<Config> next_;
  Verdict verdict_ = Verdict::Undetermined;
  rtw::core::RunResult result_;
  Tick last_time_ = 0;
  bool any_fed_ = false;
  bool finished_ = false;
};

/// Empty when `flat` and `legacy` agree on the verdict and every
/// RunResult field, otherwise what differs.
std::optional<std::string> diff_runs(const cer::CerAcceptor& flat,
                                     const LegacyCerAcceptor& legacy) {
  const auto& a = flat.result();
  const auto& b = legacy.result();
  std::string out;
  if (flat.verdict() != legacy.verdict()) out += " verdict";
  if (a.symbols_consumed != b.symbols_consumed) out += " symbols_consumed";
  if (a.ticks != b.ticks) out += " ticks";
  if (a.f_count != b.f_count) out += " f_count";
  if (a.first_f != b.first_f) out += " first_f";
  if (a.exact != b.exact) out += " exact";
  if (a.accepted != b.accepted) out += " accepted";
  if (out.empty()) return std::nullopt;
  return "differs in" + out;
}

/// Runs `word` through `flat` and a legacy acceptor for the same query,
/// twice (the second pass checks reset()), comparing after every feed
/// and after finish.  Empty when they agree throughout.
std::optional<std::string> run_against_legacy(
    cer::CerAcceptor& flat, const cer::Query& query,
    const std::vector<TimedSymbol>& word, StreamEnd end) {
  LegacyCerAcceptor legacy{LegacyQuery(flat.compiled())};
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < word.size(); ++i) {
      flat.feed(word[i].sym, word[i].time);
      legacy.feed(word[i].sym, word[i].time);
      if (auto d = diff_runs(flat, legacy))
        return *d + " after element " + std::to_string(i) + " (pass " +
               std::to_string(pass) + ") of query " + query.to_string();
    }
    flat.finish(end);
    legacy.finish(end);
    if (auto d = diff_runs(flat, legacy))
      return *d + " after finish of query " + query.to_string();
    flat.reset();
    legacy.reset();
  }
  return std::nullopt;
}

/// An iterated sub-query, often under a small window (its sets recur)
/// and often inside one large window (its clock drifts, so its sets do
/// not).  Each symbol the body names is usually also a one-symbol
/// branch, so words over those symbols keep the iteration alive.
cer::Query long_stream_query(rtw::sim::Xoshiro256ss& rng) {
  cer::Query body = random_query(rng, 2 + rng.uniform(std::uint64_t{6}));
  if (rng.bernoulli(0.5))
    body = cer::within(1 + rng.uniform(std::uint64_t{12}), body);
  std::vector<Symbol> named;
  leaf_symbols(body.root(), named);
  std::sort(named.begin(), named.end());
  named.erase(std::unique(named.begin(), named.end()), named.end());
  for (const Symbol s : named)
    if (rng.bernoulli(0.7)) body = cer::alt(body, cer::sym(s));
  cer::Query query = cer::iter(body);
  if (rng.bernoulli(0.5))
    query = cer::within(rng.uniform(std::uint64_t{2001}), query);
  return query;
}

/// 1000-3000 symbols the query names ('a'..'d' when it names none),
/// with gaps of 0-3 ticks.
std::vector<TimedSymbol> long_stream_word(rtw::sim::Xoshiro256ss& rng,
                                          const cer::Query& query) {
  std::vector<Symbol> named;
  leaf_symbols(query.root(), named);
  if (named.empty())
    for (char c = 'a'; c <= 'd'; ++c) named.push_back(Symbol::chr(c));
  std::vector<TimedSymbol> word(1000 + rng.uniform(std::uint64_t{2001}));
  Tick t = rng.uniform(std::uint64_t{4});
  for (auto& e : word) {
    t += rng.uniform(std::uint64_t{4});
    e = {named[rng.uniform(named.size())], t};
  }
  return word;
}

}  // namespace

TEST(CerOracle, FlatRuntimeMatchesLegacyRunResultsAfterEveryFeed) {
  rtw::proptest::Config cfg;
  cfg.cases = 500;
  cfg.max_size = 32;
  cfg.seed ^= 0x0ac1e;
  const auto result = rtw::proptest::run_property(
      "cer_flat_vs_legacy", cfg,
      [](rtw::sim::Xoshiro256ss& rng,
         std::size_t size) -> std::optional<std::string> {
        const cer::Query query =
            random_query(rng, 2 + rng.uniform(std::uint64_t{10}));
        auto compiled = cer::compile(query);
        if (!compiled.ok()) return std::nullopt;  // limits are not a bug
        const auto word = random_mutated_word(rng, size, query);
        const StreamEnd end = rng.bernoulli(0.5) ? StreamEnd::EndOfWord
                                                 : StreamEnd::Truncated;
        cer::CerAcceptor flat(*compiled.compiled);
        return run_against_legacy(flat, query, word, end);
      });
  EXPECT_TRUE(result.ok()) << rtw::proptest::describe("cer_flat_vs_legacy",
                                                      cfg, *result.failure);
  EXPECT_EQ(result.cases_run, cfg.cases);
}

namespace {

/// Why `by_run` differs from `by_symbol` in verdict, any RunResult field
/// or any cache_stats() counter; nullopt when they agree.
std::optional<std::string> fed_state_differs(const cer::CerAcceptor& by_run,
                                             const cer::CerAcceptor& by_symbol) {
  const auto& a = by_run.result();
  const auto& b = by_symbol.result();
  if (by_run.verdict() != by_symbol.verdict() ||
      a.symbols_consumed != b.symbols_consumed || a.ticks != b.ticks ||
      a.f_count != b.f_count || a.first_f != b.first_f ||
      a.exact != b.exact || a.accepted != b.accepted)
    return std::string("feed_run differs from per-symbol feeds");
  const auto& x = by_run.cache_stats();
  const auto& y = by_symbol.cache_stats();
  if (x.hits != y.hits || x.misses != y.misses || x.flushes != y.flushes ||
      x.trips != y.trips)
    return "feed_run's cache_stats differ: hits " + std::to_string(x.hits) +
           "/" + std::to_string(y.hits) + " misses " +
           std::to_string(x.misses) + "/" + std::to_string(y.misses) +
           " flushes " + std::to_string(x.flushes) + "/" +
           std::to_string(y.flushes) + " trips " + std::to_string(x.trips) +
           "/" + std::to_string(y.trips);
  return std::nullopt;
}

/// Cache events the per-symbol twin saw at an element of a run after a
/// hit earlier in the same run: where feed_run's loop hands an element
/// to feed() partway through a run.
struct InsideRun {
  std::uint64_t settled = 0;
  std::uint64_t misses = 0;
  std::uint64_t flushes = 0;
  std::uint64_t trips = 0;
};

/// Feeds `word` to `by_run` in random runs of 1-300 elements and to
/// `by_symbol` one element at a time, twice (reset() between), comparing
/// the verdict, every RunResult field and cache_stats() after every run
/// and after finish.
std::optional<std::string> feed_runs_against_symbols(
    rtw::sim::Xoshiro256ss& rng, const std::vector<TimedSymbol>& word,
    cer::CerAcceptor& by_run, cer::CerAcceptor& by_symbol,
    InsideRun& inside) {
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t pos = 0; pos < word.size();) {
      const std::size_t n = std::min<std::size_t>(
          1 + rng.uniform(std::uint64_t{300}), word.size() - pos);
      const bool open = !final_verdict(by_symbol.verdict());
      Verdict expected = by_symbol.verdict();
      bool hit = false;
      for (std::size_t i = pos; i < pos + n; ++i) {
        const auto before = by_symbol.cache_stats();
        expected = by_symbol.feed(word[i].sym, word[i].time);
        const auto& after = by_symbol.cache_stats();
        if (open && final_verdict(expected) && i + 1 < pos + n)
          ++inside.settled;
        if (hit) {
          inside.misses += after.misses - before.misses;
          inside.flushes += after.flushes - before.flushes;
          inside.trips += after.trips - before.trips;
        }
        hit = hit || after.hits != before.hits;
      }
      if (by_run.feed_run(word.data() + pos, n) != expected)
        return "feed_run returned another verdict at " + std::to_string(pos);
      if (auto why = fed_state_differs(by_run, by_symbol))
        return *why + " after the run at " + std::to_string(pos);
      pos += n;
    }
    const StreamEnd end = rng.bernoulli(0.5) ? StreamEnd::EndOfWord
                                             : StreamEnd::Truncated;
    by_symbol.finish(end);
    by_run.finish(end);
    if (auto why = fed_state_differs(by_run, by_symbol))
      return *why + " after finish";
    by_symbol.reset();
    by_run.reset();
  }
  return std::nullopt;
}

}  // namespace

/// CerAcceptor::feed_run is per-symbol feed() in one call: fed in random
/// runs of 1-300 elements -- runs that cross the point where the verdict
/// settles, and a second pass after reset() -- it returns the verdict and
/// holds every RunResult field and every cache_stats() counter an
/// acceptor fed one symbol at a time does, after every run and after
/// finish.  The long-stream words of the transition-cache oracle below
/// drive the run loop through its exits: a miss, a flush and a guard trip
/// each happen partway through some run, after a hit in it.
TEST(CerAcceptor, FeedRunMatchesPerSymbolFeeds) {
  rtw::proptest::Config cfg;
  cfg.cases = 300;
  cfg.max_size = 64;
  cfg.seed ^= 0xfeed7;
  InsideRun inside;
  const auto result = rtw::proptest::run_property(
      "cer_feed_run_vs_feed", cfg,
      [&](rtw::sim::Xoshiro256ss& rng,
          std::size_t size) -> std::optional<std::string> {
        const cer::Query query =
            random_query(rng, 2 + rng.uniform(std::uint64_t{8}));
        auto compiled = cer::compile(query);
        if (!compiled.ok()) return std::nullopt;  // limits are not a bug
        const auto word = rng.bernoulli(0.5)
                              ? long_stream_word(rng, query)
                              : random_mutated_word(rng, 8 * size, query);
        cer::CerAcceptor by_symbol(*compiled.compiled);
        cer::CerAcceptor by_run(*compiled.compiled);
        return feed_runs_against_symbols(rng, word, by_run, by_symbol,
                                         inside);
      });
  EXPECT_TRUE(result.ok()) << rtw::proptest::describe("cer_feed_run_vs_feed",
                                                      cfg, *result.failure);
  EXPECT_GT(inside.settled, 0u);

  rtw::proptest::Config long_cfg;
  long_cfg.cases = 200;
  long_cfg.seed ^= 0x10a65;  // the oracle's words below
  InsideRun long_inside;
  const auto long_result = rtw::proptest::run_property(
      "cer_feed_run_vs_feed_long", long_cfg,
      [&](rtw::sim::Xoshiro256ss& rng,
          std::size_t) -> std::optional<std::string> {
        const cer::Query query = long_stream_query(rng);
        auto compiled = cer::compile(query);
        if (!compiled.ok()) return std::nullopt;  // limits are not a bug
        const auto word = long_stream_word(rng, query);
        cer::CerAcceptor by_symbol(*compiled.compiled);
        cer::CerAcceptor by_run(*compiled.compiled);
        return feed_runs_against_symbols(rng, word, by_run, by_symbol,
                                         long_inside);
      });
  EXPECT_TRUE(long_result.ok()) << rtw::proptest::describe(
      "cer_feed_run_vs_feed_long", long_cfg, *long_result.failure);
  EXPECT_GT(long_inside.misses, 0u);
  EXPECT_GT(long_inside.flushes, 0u);
  EXPECT_GT(long_inside.trips, 0u);
}

/// A time below the last, partway through a run, throws ModelError at
/// that element -- after the run loop has taken the cache hits before it
/// -- and leaves the verdict, every RunResult field and cache_stats()
/// exactly where per-symbol feeding leaves them up to that element.
TEST(CerAcceptor, FeedRunThrowsAtATimeBelowTheLastInsideARun) {
  rtw::proptest::Config cfg;
  cfg.cases = 300;
  cfg.seed ^= 0xbac4;
  std::uint64_t thrown_after_a_hit = 0;
  const auto result = rtw::proptest::run_property(
      "cer_feed_run_backwards", cfg,
      [&](rtw::sim::Xoshiro256ss& rng,
          std::size_t) -> std::optional<std::string> {
        const cer::Query query = long_stream_query(rng);
        auto compiled = cer::compile(query);
        if (!compiled.ok()) return std::nullopt;  // limits are not a bug
        auto word = long_stream_word(rng, query);
        word.resize(std::min<std::size_t>(word.size(), 400));
        cer::CerAcceptor by_symbol(*compiled.compiled);
        cer::CerAcceptor by_run(*compiled.compiled);
        // Warm both caches on the clean word, so the run below hits.
        for (const auto& e : word) by_symbol.feed(e.sym, e.time);
        by_run.feed_run(word.data(), word.size());
        by_symbol.reset();
        by_run.reset();
        // Step one element's time below its predecessor's.
        const std::size_t j = 1 + rng.uniform(word.size() - 1);
        if (word[j - 1].time == 0) return std::nullopt;
        word[j].time = rng.uniform(word[j - 1].time);
        bool symbol_threw = false;
        bool hit_before = false;
        for (std::size_t i = 0; i < word.size(); ++i) {
          const std::uint64_t hits = by_symbol.cache_stats().hits;
          try {
            by_symbol.feed(word[i].sym, word[i].time);
          } catch (const rtw::core::ModelError&) {
            symbol_threw = true;
            break;
          }
          if (i + 1 == j) hit_before = by_symbol.cache_stats().hits != hits;
        }
        bool run_threw = false;
        try {
          by_run.feed_run(word.data(), word.size());
        } catch (const rtw::core::ModelError&) {
          run_threw = true;
        }
        if (run_threw != symbol_threw)
          return std::string(run_threw ? "feed_run threw, feed() did not"
                                       : "feed() threw, feed_run did not");
        if (auto why = fed_state_differs(by_run, by_symbol)) return why;
        thrown_after_a_hit += symbol_threw && hit_before;
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok()) << rtw::proptest::describe(
      "cer_feed_run_backwards", cfg, *result.failure);
  EXPECT_GT(thrown_after_a_hit, 0u);
}

TEST(CerOracle, LongStreamsFillFlushAndTripTheTransitionCache) {
  // Thousands of symbols per word push the transition cache through
  // every path: hits, misses after hits (the sweep reloads an interned
  // set), flushes that re-intern the current set, and guard trips.
  rtw::proptest::Config cfg;
  cfg.cases = 400;
  cfg.seed ^= 0x10a65;
  cer::CerAcceptor::CacheStats total;
  const auto result = rtw::proptest::run_property(
      "cer_long_streams_vs_legacy", cfg,
      [&](rtw::sim::Xoshiro256ss& rng,
          std::size_t) -> std::optional<std::string> {
        const cer::Query query = long_stream_query(rng);
        auto compiled = cer::compile(query);
        if (!compiled.ok()) return std::nullopt;  // limits are not a bug
        const auto word = long_stream_word(rng, query);
        const StreamEnd end = rng.bernoulli(0.5) ? StreamEnd::EndOfWord
                                                 : StreamEnd::Truncated;
        cer::CerAcceptor flat(*compiled.compiled);
        auto failure = run_against_legacy(flat, query, word, end);
        const auto& stats = flat.cache_stats();
        total.hits += stats.hits;
        total.misses += stats.misses;
        total.flushes += stats.flushes;
        total.trips += stats.trips;
        return failure;
      });
  EXPECT_TRUE(result.ok()) << rtw::proptest::describe(
      "cer_long_streams_vs_legacy", cfg, *result.failure);
  EXPECT_EQ(result.cases_run, cfg.cases);
  // Every cache path ran: a trip is a flush, so flushes must outnumber
  // trips for some flush to have kept the cache on.
  EXPECT_GT(total.hits, total.misses);
  EXPECT_GT(total.trips, 0u);
  EXPECT_GT(total.flushes, total.trips);
}

namespace {

/// The same differential, but the compiled side runs as real
/// SessionManager sessions opened through SubmitQuery wire events.
void run_shard_differential(unsigned shards) {
  rtw::svc::ShardConfig shard_cfg;
  shard_cfg.count = shards;
  rtw::svc::IngressConfig ingress_cfg;
  ingress_cfg.ring_capacity = 4096;
  rtw::svc::SessionManager manager(shard_cfg, ingress_cfg);

  rtw::proptest::Config cfg;
  cfg.cases = 500;
  cfg.max_size = 24;
  // Distinct suite seed per shard count so the two runs are independent
  // samples rather than the same 500 scenarios twice.
  cfg.seed ^= shards * 0x5bd1e995u;

  rtw::svc::SessionId next_id = 1;
  const auto result = rtw::proptest::run_property(
      "cer_shard_differential", cfg,
      [&](rtw::sim::Xoshiro256ss& rng,
          std::size_t size) -> std::optional<std::string> {
        const cer::Query query =
            random_query(rng, 2 + rng.uniform(std::uint64_t{8}));
        if (!cer::compile(query).ok()) return std::nullopt;
        const auto word = random_mutated_word(rng, size, query);

        const rtw::svc::SessionId id = next_id++;
        rtw::svc::WireEvent open;
        open.kind = rtw::svc::WireEvent::Kind::SubmitQuery;
        open.session = id;
        open.profile = query.to_string();
        if (manager.apply(open, {}).admit != rtw::svc::Admit::Accepted)
          return "SubmitQuery refused for " + query.to_string();
        if (!word.empty() &&
            manager.feed_batch(id, word).admit != rtw::svc::Admit::Accepted)
          return "run unexpectedly shed";
        manager.close(id, StreamEnd::EndOfWord);
        manager.drain();

        std::optional<Verdict> verdict;
        for (const auto& report : manager.collect())
          if (report.id == id) verdict = report.verdict;
        if (!verdict) return "no session report collected";
        const bool acc = *verdict == Verdict::Accepting;
        const bool ref = cer::eval_reference(query, word);
        if (acc != ref)
          return "session=" + std::to_string(acc) +
                 " reference=" + std::to_string(ref) + " for query " +
                 query.to_string() + " at " + std::to_string(shards) +
                 " shards";
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok()) << rtw::proptest::describe("cer_shard_differential",
                                                      cfg, *result.failure);
  const auto stats = manager.stats();
  EXPECT_GT(stats.query_compiled, 0u);
  EXPECT_EQ(stats.query_rejected, 0u);
}

}  // namespace

TEST(CerShardDifferential, OneShard) { run_shard_differential(1); }
TEST(CerShardDifferential, EightShards) { run_shard_differential(8); }

// ============================================= 6. service-layer bookkeeping

TEST(CerService, CompileLimitRejectionIsARefusedOpenNotACrash) {
  rtw::svc::SessionManager manager(rtw::svc::ShardConfig{},
                                   rtw::svc::IngressConfig{});
  std::string nested;
  for (int i = 0; i < 33; ++i) nested += "within(1){ ";
  nested += "a";
  for (int i = 0; i < 33; ++i) nested += " }";

  rtw::svc::WireEvent open;
  open.kind = rtw::svc::WireEvent::Kind::SubmitQuery;
  open.session = 7;
  open.profile = nested;
  const auto admitted = manager.apply(open, {});
  EXPECT_EQ(admitted.admit, rtw::svc::Admit::Shed);

  const auto stats = manager.stats();
  EXPECT_EQ(stats.query_rejected, 1u);
  EXPECT_EQ(stats.query_compiled, 0u);
  EXPECT_EQ(stats.opened, 0u);
  manager.drain();
}
