// Tests for the word transformations (shift / filter / take_until /
// map_symbols) and the Buchi closure constructions (union, intersection).

#include <gtest/gtest.h>

#include "rtw/automata/operations.hpp"
#include "rtw/core/concat.hpp"
#include "rtw/core/error.hpp"
#include "rtw/core/serialize.hpp"
#include "rtw/core/transform.hpp"
#include "rtw/deadline/word.hpp"

namespace {

using namespace rtw::core;

// ------------------------------------------------------------- transform

TEST(ShiftTest, FiniteWordTranslates) {
  auto w = TimedWord::finite(symbols_of("ab"), {1, 3});
  auto s = shift(w, 10);
  EXPECT_EQ(s.times(2), (std::vector<Tick>{11, 13}));
  EXPECT_EQ(s.symbols(2), w.symbols(2));
}

TEST(ShiftTest, LassoStaysLasso) {
  auto w = TimedWord::lasso({{Symbol::chr('p'), 0}},
                            {{Symbol::chr('c'), 2}}, 3);
  auto s = shift(w, 5);
  EXPECT_TRUE(s.is_lasso_rep());
  EXPECT_EQ(s.at(0).time, 5u);
  EXPECT_EQ(s.at(1).time, 7u);
  EXPECT_EQ(s.at(2).time, 10u);
  EXPECT_EQ(s.well_behaved(), Certificate::Proven);
}

TEST(ShiftTest, GeneratorPreservesTraits) {
  GeneratorTraits traits;
  traits.monotone_proven = true;
  traits.progress_proven = true;
  auto w = TimedWord::generator(
      [](std::uint64_t i) { return TimedSymbol{Symbol::nat(i), i}; }, traits);
  auto s = shift(w, 100);
  EXPECT_EQ(s.at(3).time, 103u);
  EXPECT_EQ(s.well_behaved(), Certificate::Proven);
}

TEST(FilterTest, KeepsMatchingSymbols) {
  auto w = TimedWord::finite(
      {{Symbol::chr('a'), 0}, {Symbol::nat(1), 1}, {Symbol::chr('b'), 2}});
  auto f = filter(w, [](const TimedSymbol& ts) { return ts.sym.is_char(); });
  EXPECT_EQ(f.length(), std::uint64_t{2});
  EXPECT_EQ(f.at(1).sym, Symbol::chr('b'));
  EXPECT_EQ(f.at(1).time, 2u);
}

TEST(FilterTest, InfiniteInputThrows) {
  auto w = TimedWord::lasso({}, {{Symbol::chr('a'), 1}}, 1);
  EXPECT_THROW(filter(w, [](const TimedSymbol&) { return true; }),
               ModelError);
}

TEST(TakeUntilTest, CutsAtCutoff) {
  auto w = TimedWord::lasso({}, {{Symbol::chr('a'), 2}}, 2);
  auto head = take_until(w, 7);
  // Times 2, 4, 6 are <= 7; 8 is not.
  EXPECT_EQ(head.length(), std::uint64_t{3});
  EXPECT_EQ(head.at(2).time, 6u);
}

TEST(TakeUntilTest, FiniteWordRespected) {
  auto w = TimedWord::finite(symbols_of("xyz"), {0, 5, 9});
  EXPECT_EQ(*take_until(w, 5).length(), 2u);
  EXPECT_EQ(*take_until(w, 100).length(), 3u);
}

TEST(MapSymbolsTest, RelabelsEveryRepresentation) {
  auto upper = [](Symbol s) {
    return s.is_char() ? Symbol::chr(static_cast<char>(s.as_char() - 32)) : s;
  };
  auto fin = map_symbols(TimedWord::text_at("ab", 3), upper);
  EXPECT_EQ(fin.symbols(2), symbols_of("AB"));
  auto las = map_symbols(TimedWord::lasso({}, {{Symbol::chr('a'), 1}}, 1),
                         upper);
  EXPECT_EQ(las.at(5).sym, Symbol::chr('A'));
  EXPECT_TRUE(las.is_lasso_rep());
}

TEST(TransformTest, ShiftCommutesWithConcat) {
  // shift(concat(a, b), d) == concat(shift(a, d), shift(b, d)) on finite
  // words -- a Definition 3.5 compatibility property.
  auto a = TimedWord::finite(symbols_of("ac"), {1, 5});
  auto b = TimedWord::finite(symbols_of("bd"), {2, 6});
  auto lhs = shift(concat(a, b), 7);
  auto rhs = concat(shift(a, 7), shift(b, 7));
  EXPECT_EQ(lhs.prefix(4), rhs.prefix(4));
}

// ---------------------------------------------------- Buchi constructions

using namespace rtw::automata;

BuchiAutomaton inf_many(char c) {
  // Accepts omega-words over {a,b} with infinitely many `c`s.
  FiniteAutomaton fa(2, 0);
  for (char x : {'a', 'b'}) {
    fa.add_transition(0, x == c ? 1 : 0, Symbol::chr(x));
    fa.add_transition(1, x == c ? 1 : 0, Symbol::chr(x));
  }
  fa.add_final(1);
  return BuchiAutomaton(std::move(fa));
}

TEST(BuchiUnionTest, AcceptsEitherLanguage) {
  const auto u = buchi_union(inf_many('a'), inf_many('b'));
  EXPECT_TRUE(u.accepts(omega_word("", "a")));
  EXPECT_TRUE(u.accepts(omega_word("", "b")));
  EXPECT_TRUE(u.accepts(omega_word("", "ab")));
}

TEST(BuchiUnionTest, RejectsNeither) {
  // Over {a,b} every infinite word has infinitely many a's or b's; use a
  // third letter to fall outside both.
  const auto u = buchi_union(inf_many('a'), inf_many('b'));
  EXPECT_FALSE(u.accepts(omega_word("", "c")));
}

TEST(BuchiIntersectionTest, RequiresBoth) {
  const auto i = buchi_intersection(inf_many('a'), inf_many('b'));
  EXPECT_TRUE(i.accepts(omega_word("", "ab")));
  EXPECT_TRUE(i.accepts(omega_word("bbb", "ba")));
  EXPECT_FALSE(i.accepts(omega_word("", "a")));   // no b's
  EXPECT_FALSE(i.accepts(omega_word("ab", "b"))); // finitely many a's
}

TEST(BuchiIntersectionTest, AgreesWithFactorsOnSamples) {
  const auto fa = inf_many('a');
  const auto fb = inf_many('b');
  const auto i = buchi_intersection(fa, fb);
  const auto u = buchi_union(fa, fb);
  for (const char* cycle : {"a", "b", "ab", "aab", "abb", "ba"}) {
    const auto w = omega_word("ab", cycle);
    EXPECT_EQ(i.accepts(w), fa.accepts(w) && fb.accepts(w)) << cycle;
    EXPECT_EQ(u.accepts(w), fa.accepts(w) || fb.accepts(w)) << cycle;
  }
}

}  // namespace

// ----------------------------------------------------------- serialization

namespace serialization {

using namespace rtw::core;

TEST(SerializeTest, FiniteRoundTrip) {
  auto w = TimedWord::finite({{Symbol::chr('a'), 0},
                              {Symbol::nat(42), 3},
                              {marks::waiting(), 5},
                              {Symbol::chr('7'), 5}});
  const auto text = serialize(w);
  EXPECT_EQ(text, "finite: a@0 42@3 <w>@5 '7'@5");
  const auto back = parse_word(text);
  ASSERT_EQ(back.length(), w.length());
  for (std::uint64_t i = 0; i < *w.length(); ++i)
    EXPECT_EQ(back.at(i), w.at(i)) << "i=" << i;
}

TEST(SerializeTest, LassoRoundTripPreservesStructure) {
  auto w = TimedWord::lasso({{Symbol::chr('p'), 0}},
                            {{Symbol::chr('x'), 2}, {marks::accept(), 3}}, 4);
  const auto text = serialize(w);
  EXPECT_EQ(text, "lasso(period=4): p@0 | x@2 <f>@3");
  const auto back = parse_word(text);
  ASSERT_TRUE(back.is_lasso_rep());
  EXPECT_EQ(back.lasso_period(), 4u);
  EXPECT_EQ(back.lasso_prefix(), w.lasso_prefix());
  EXPECT_EQ(back.lasso_cycle(), w.lasso_cycle());
  for (std::uint64_t i = 0; i < 32; ++i) EXPECT_EQ(back.at(i), w.at(i));
}

TEST(SerializeTest, EmptyFiniteWord) {
  const auto text = serialize(TimedWord());
  EXPECT_EQ(text, "finite:");
  EXPECT_TRUE(parse_word(text).empty());
}

TEST(SerializeTest, EscapedCharacters) {
  auto w = TimedWord::finite({{Symbol::chr('<'), 1},
                              {Symbol::chr('@'), 2},
                              {Symbol::chr(' '), 3},
                              {Symbol::chr('\''), 4}});
  const auto back = parse_word(serialize(w));
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(back.at(i), w.at(i));
}

TEST(SerializeTest, GeneratorWordsRejected) {
  auto w = TimedWord::generator(
      [](std::uint64_t i) { return TimedSymbol{Symbol::nat(i), i}; });
  EXPECT_THROW(serialize(w), ModelError);
  // The documented escape hatch: snapshot first.
  EXPECT_NO_THROW(serialize(take_until(w, 10)));
}

TEST(SerializeTest, MalformedInputsThrow) {
  EXPECT_THROW(parse_word("garbage"), ModelError);
  EXPECT_THROW(parse_word("finite: a"), ModelError);          // missing @t
  EXPECT_THROW(parse_word("finite: a@x"), ModelError);        // bad time
  EXPECT_THROW(parse_word("lasso(period=2): a@0"), ModelError);  // no bar
  EXPECT_THROW(parse_word("finite: <oops@3"), ModelError);    // open marker
  EXPECT_THROW(parse_word("finite: 'ab'@1"), ModelError);     // bad quote
  // Numbers past 2^64 - 1 throw instead of wrapping.
  EXPECT_THROW(parse_word("finite: a@18446744073709551617"), ModelError);
  EXPECT_THROW(parse_word("finite: 18446744073709551621@20"), ModelError);
  EXPECT_THROW(parse_word("lasso(period=18446744073709551616): a@0 | b@1"),
               ModelError);
  const auto max = parse_word(
      "finite: 18446744073709551615@18446744073709551615");
  EXPECT_EQ(max.at(0), (TimedSymbol{Symbol::nat(~std::uint64_t{0}),
                                    ~std::uint64_t{0}}));
}

TEST(SerializeTest, ApplicationWordsSerialize) {
  // A section 4.1 word (lasso) survives the round trip.
  using namespace rtw::deadline;
  DeadlineInstance inst;
  inst.input = {Symbol::nat(3)};
  inst.proposed_output = {Symbol::nat(3)};
  inst.usefulness = Usefulness::firm(6, 5);
  inst.min_acceptable = 1;
  const auto word = build_deadline_word(inst);
  const auto back = parse_word(serialize(word));
  for (std::uint64_t i = 0; i < 40; ++i) EXPECT_EQ(back.at(i), word.at(i));
  EXPECT_EQ(back.well_behaved(), Certificate::Proven);
}

}  // namespace serialization
