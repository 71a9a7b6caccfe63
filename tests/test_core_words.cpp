// Tests for symbols, time sequences and timed omega-words
// (Definitions 3.1 / 3.2, and the section 3.2 classical-word embedding).

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "rtw/core/error.hpp"
#include "rtw/core/symbol.hpp"
#include "rtw/core/timed_word.hpp"

namespace {

using namespace rtw::core;

// ---------------------------------------------------------------- Symbol

TEST(SymbolTest, KindsAreDisjoint) {
  // The paper assumes Sigma, Omega and N are disjoint; Symbol encodes that.
  EXPECT_NE(Symbol::chr('a'), Symbol::nat('a'));
  EXPECT_NE(Symbol::chr('w'), Symbol::marker("w"));
  EXPECT_NE(Symbol::nat(0), Symbol::marker("0"));
}

TEST(SymbolTest, MarkerInterningGivesEquality) {
  EXPECT_EQ(Symbol::marker("deadline"), Symbol::marker("deadline"));
  EXPECT_NE(Symbol::marker("deadline"), Symbol::marker("waiting"));
}

TEST(SymbolTest, AccessorsRoundTrip) {
  EXPECT_EQ(Symbol::chr('z').as_char(), 'z');
  EXPECT_EQ(Symbol::nat(41).as_nat(), 41u);
  EXPECT_EQ(Symbol::marker("hello").name(), "hello");
}

TEST(SymbolTest, MarkerNameViewOutlivesLaterInterning) {
  // name() returns a view into the intern table.  Short names live inside
  // their std::string (SSO), so the table must never relocate its strings
  // when it grows; under ASan a relocating table is a heap-use-after-free.
  const std::string_view name = Symbol::marker("w_probe").name();
  for (int i = 0; i < 5000; ++i) {
    std::string grow = "grow_";
    grow += std::to_string(i);
    Symbol::marker(grow);
  }
  EXPECT_EQ(name, "w_probe");
  EXPECT_EQ(Symbol::marker("w_probe").name().data(), name.data());
}

TEST(SymbolTest, WrongAccessorThrows) {
  EXPECT_THROW(Symbol::chr('a').as_nat(), ModelError);
  EXPECT_THROW(Symbol::nat(1).as_char(), ModelError);
  EXPECT_THROW(Symbol::chr('a').name(), ModelError);
}

TEST(SymbolTest, ToStringFormats) {
  EXPECT_EQ(Symbol::chr('q').to_string(), "q");
  EXPECT_EQ(Symbol::nat(12).to_string(), "12");
  EXPECT_EQ(Symbol::marker("f").to_string(), "<f>");
}

TEST(SymbolTest, OrderingIsTotal) {
  EXPECT_LT(Symbol::chr('a'), Symbol::chr('b'));
  // Kind-major order: all chars before all nats before all markers.
  EXPECT_LT(Symbol::chr('z'), Symbol::nat(0));
  EXPECT_LT(Symbol::nat(999), Symbol::marker("a"));
}

TEST(SymbolTest, DesignatedMarksAreStable) {
  EXPECT_EQ(marks::accept(), Symbol::marker("f"));
  EXPECT_EQ(marks::waiting(), Symbol::marker("w"));
  EXPECT_EQ(marks::deadline(), Symbol::marker("d"));
  EXPECT_EQ(marks::dollar(), Symbol::marker("$"));
}

TEST(SymbolTest, SymbolsOfRoundTrips) {
  const auto syms = symbols_of("abc");
  ASSERT_EQ(syms.size(), 3u);
  EXPECT_EQ(to_string(syms), "abc");
}

// ------------------------------------------------------------- TimedWord

TEST(TimedWordTest, EmptyWord) {
  TimedWord w;
  EXPECT_EQ(w.length(), std::uint64_t{0});
  EXPECT_TRUE(w.empty());
  EXPECT_FALSE(w.infinite());
  EXPECT_THROW(w.at(0), ModelError);
}

TEST(TimedWordTest, FiniteConstructionAndAccess) {
  auto w = TimedWord::finite({{Symbol::chr('a'), 1}, {Symbol::chr('b'), 3}});
  EXPECT_EQ(w.length(), std::uint64_t{2});
  EXPECT_EQ(w.at(0).sym, Symbol::chr('a'));
  EXPECT_EQ(w.at(1).time, 3u);
  EXPECT_THROW(w.at(2), ModelError);
}

TEST(TimedWordTest, NonMonotoneFiniteThrows) {
  EXPECT_THROW(
      TimedWord::finite({{Symbol::chr('a'), 5}, {Symbol::chr('b'), 3}}),
      ModelError);
}

TEST(TimedWordTest, EqualTimesAreAllowed) {
  // Definition 3.1 requires tau_i <= tau_{i+1}, not strict growth.
  auto w = TimedWord::finite({{Symbol::chr('a'), 2}, {Symbol::chr('b'), 2}});
  EXPECT_EQ(w.monotone(), Certificate::Proven);
}

TEST(TimedWordTest, ParallelVectorsConstructor) {
  auto w = TimedWord::finite(symbols_of("xy"), {0, 4});
  EXPECT_EQ(w.at(1).sym, Symbol::chr('y'));
  EXPECT_EQ(w.at(1).time, 4u);
  EXPECT_THROW(TimedWord::finite(symbols_of("xy"), {0}), ModelError);
}

TEST(TimedWordTest, FiniteWordsAreNeverWellBehaved) {
  // Section 3.2: classical words (all timestamps zero, finite) are timed
  // words but never well-behaved -- the crisp delimitation.
  auto w = classical("hello");
  EXPECT_EQ(w.monotone(), Certificate::Proven);
  EXPECT_EQ(w.well_behaved(), Certificate::Refuted);
}

TEST(TimedWordTest, LassoIndexing) {
  auto w = TimedWord::lasso({{Symbol::chr('p'), 0}},
                            {{Symbol::chr('x'), 2}, {Symbol::chr('y'), 3}}, 5);
  EXPECT_TRUE(w.infinite());
  EXPECT_EQ(w.at(0).sym, Symbol::chr('p'));
  EXPECT_EQ(w.at(1).sym, Symbol::chr('x'));
  EXPECT_EQ(w.at(1).time, 2u);
  EXPECT_EQ(w.at(2).time, 3u);
  EXPECT_EQ(w.at(3).sym, Symbol::chr('x'));
  EXPECT_EQ(w.at(3).time, 7u);  // 2 + 1*5
  EXPECT_EQ(w.at(6).time, 13u); // y + 2 laps: 3 + 2*5
}

TEST(TimedWordTest, LassoWellBehavedIffPositivePeriod) {
  auto good = TimedWord::lasso({}, {{Symbol::chr('a'), 0}}, 1);
  EXPECT_EQ(good.well_behaved(), Certificate::Proven);
  auto stalled = TimedWord::lasso({}, {{Symbol::chr('a'), 0}}, 0);
  EXPECT_EQ(stalled.well_behaved(), Certificate::Refuted);
  EXPECT_EQ(stalled.monotone(), Certificate::Proven);
}

TEST(TimedWordTest, LassoValidation) {
  EXPECT_THROW(TimedWord::lasso({}, {}, 1), ModelError);  // empty cycle
  EXPECT_THROW(TimedWord::lasso({{Symbol::chr('a'), 9}},
                                {{Symbol::chr('b'), 2}}, 5),
               ModelError);  // junction breaks monotonicity
  EXPECT_THROW(TimedWord::lasso({},
                                {{Symbol::chr('a'), 0}, {Symbol::chr('b'), 9}},
                                3),
               ModelError);  // wraparound: 0 + 3 < 9
}

TEST(TimedWordTest, GeneratorWordsMemoize) {
  int calls = 0;
  auto w = TimedWord::generator([&calls](std::uint64_t i) {
    ++calls;
    return TimedSymbol{Symbol::nat(i), i};
  });
  EXPECT_EQ(w.at(5).time, 5u);
  EXPECT_EQ(w.at(5).time, 5u);
  EXPECT_EQ(calls, 6);  // 0..5 computed once, second access cached
}

TEST(TimedWordTest, GeneratorMonotoneRefutation) {
  auto w = TimedWord::generator([](std::uint64_t i) {
    return TimedSymbol{Symbol::chr('a'), i == 3 ? 0u : i};
  });
  EXPECT_EQ(w.monotone(100), Certificate::Refuted);
  EXPECT_EQ(w.well_behaved(100), Certificate::Refuted);
}

TEST(TimedWordTest, GeneratorProofFlagsRespected) {
  GeneratorTraits traits;
  traits.monotone_proven = true;
  traits.progress_proven = true;
  auto w = TimedWord::generator(
      [](std::uint64_t i) { return TimedSymbol{Symbol::chr('a'), i}; },
      traits);
  EXPECT_EQ(w.monotone(), Certificate::Proven);
  EXPECT_EQ(w.well_behaved(), Certificate::Proven);
}

TEST(TimedWordTest, GeneratorUnprovenReportsHorizon) {
  auto w = TimedWord::generator(
      [](std::uint64_t i) { return TimedSymbol{Symbol::chr('a'), i}; });
  EXPECT_EQ(w.monotone(64), Certificate::HoldsToHorizon);
  EXPECT_EQ(w.well_behaved(64), Certificate::HoldsToHorizon);
}

TEST(TimedWordTest, FirstAfterScans) {
  auto w = TimedWord::finite(symbols_of("abc"), {1, 5, 9});
  EXPECT_EQ(w.first_after(0, 10), std::uint64_t{0});
  EXPECT_EQ(w.first_after(1, 10), std::uint64_t{1});
  EXPECT_EQ(w.first_after(5, 10), std::uint64_t{2});
  EXPECT_EQ(w.first_after(9, 10), std::nullopt);
}

TEST(TimedWordTest, FirstAfterLassoAnalytic) {
  // cycle of 2 symbols at offsets {10, 11}, period 4.
  auto w = TimedWord::lasso(
      {}, {{Symbol::chr('a'), 10}, {Symbol::chr('b'), 11}}, 4);
  // Progress: for every t there is an index beyond it.
  for (Tick t : {0u, 10u, 11u, 100u, 1000u}) {
    const auto idx = w.first_after(t, 1u << 20);
    ASSERT_TRUE(idx.has_value()) << "t=" << t;
    EXPECT_GT(w.at(*idx).time, t);
    if (*idx > 0) {
      EXPECT_LE(w.at(*idx - 1).time, t);
    }
  }
}

TEST(TimedWordTest, FirstAfterStalledLassoIsNull) {
  auto w = TimedWord::lasso({}, {{Symbol::chr('a'), 7}}, 0);
  EXPECT_EQ(w.first_after(7, 1u << 20), std::nullopt);
  EXPECT_EQ(w.first_after(6, 1u << 20), std::uint64_t{0});
}

TEST(TimedWordTest, PrefixAndProjections) {
  auto w = TimedWord::lasso({}, {{Symbol::chr('a'), 1}}, 2);
  const auto head = w.prefix(3);
  ASSERT_EQ(head.size(), 3u);
  EXPECT_EQ(head[2].time, 5u);
  EXPECT_EQ(w.symbols(2), symbols_of("aa"));
  EXPECT_EQ(w.times(3), (std::vector<Tick>{1, 3, 5}));
}

TEST(TimedWordTest, TextAtPlacesAllSymbolsAtOneTick) {
  auto w = TimedWord::text_at("hi", 42);
  EXPECT_EQ(w.times(2), (std::vector<Tick>{42, 42}));
}

TEST(TimedWordTest, LassoAccessorsContract) {
  auto fin = TimedWord::text_at("a", 0);
  EXPECT_FALSE(fin.is_lasso_rep());
  EXPECT_TRUE(fin.is_finite_rep());
  EXPECT_THROW(fin.lasso_cycle(), ModelError);
  auto las = TimedWord::lasso({}, {{Symbol::chr('a'), 0}}, 1);
  EXPECT_TRUE(las.is_lasso_rep());
  EXPECT_EQ(las.lasso_period(), 1u);
  EXPECT_EQ(las.lasso_cycle().size(), 1u);
}

TEST(TimedWordTest, ToStringTruncates) {
  auto w = TimedWord::lasso({}, {{Symbol::chr('a'), 1}}, 1);
  const auto text = w.to_string(2);
  EXPECT_NE(text.find("..."), std::string::npos);
}

TEST(SubsequenceTest, MatchesDefinition) {
  // sigma' is a subsequence of sigma: order-preserving embedding.
  auto w = TimedWord::finite(symbols_of("abcd"), {0, 1, 2, 3});
  EXPECT_TRUE(is_subsequence({{Symbol::chr('a'), 0}, {Symbol::chr('c'), 2}},
                             w, 10));
  EXPECT_FALSE(is_subsequence({{Symbol::chr('c'), 2}, {Symbol::chr('a'), 0}},
                              w, 10));
  EXPECT_TRUE(is_subsequence({}, w, 10));
  EXPECT_FALSE(is_subsequence({{Symbol::chr('a'), 9}}, w, 10));
}

// Property sweep: lasso words satisfy monotonicity for many shapes.
class LassoPeriodProperty : public ::testing::TestWithParam<Tick> {};

TEST_P(LassoPeriodProperty, MonotoneAcrossManyIndices) {
  const Tick period = GetParam();
  auto w = TimedWord::lasso({{Symbol::chr('p'), 0}, {Symbol::chr('q'), 1}},
                            {{Symbol::chr('x'), 1},
                             {Symbol::chr('y'), 1 + period / 2},
                             {Symbol::chr('z'), 1 + period}},
                            period);
  Tick prev = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto ts = w.at(i);
    EXPECT_GE(ts.time, prev) << "index " << i;
    prev = ts.time;
  }
  EXPECT_EQ(w.well_behaved(), period > 0 ? Certificate::Proven
                                         : Certificate::Refuted);
}

INSTANTIATE_TEST_SUITE_P(Periods, LassoPeriodProperty,
                         ::testing::Values<Tick>(0, 1, 2, 3, 5, 8, 13, 21, 64,
                                                 1000));

}  // namespace
