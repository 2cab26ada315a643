#include <gtest/gtest.h>

#include <random>

#include "automata/dfa.h"
#include "automata/lazy.h"
#include "automata/nfa.h"
#include "automata/ops.h"
#include "automata/random.h"
#include "automata/state_elim.h"
#include "regex/parser.h"
#include "rpq/alphabet.h"
#include "rpq/compile.h"

namespace rpqi {
namespace {

/// Compiles an inverse-free regex over relations {a, b} into an NFA whose
/// symbols are the *forward* Σ± ids — convenient for generic automata tests.
Nfa FromRegex(const std::string& text) {
  SignedAlphabet alphabet;
  alphabet.AddRelation("a");
  alphabet.AddRelation("b");
  return MustCompileRegex(MustParseRegex(text), alphabet);
}

const int kA = 0;  // symbol id of atom a
const int kB = 2;  // symbol id of atom b

std::vector<std::vector<int>> AllWords(int num_symbols, int max_length,
                                       const std::vector<int>& symbols) {
  std::vector<std::vector<int>> words = {{}};
  std::vector<std::vector<int>> frontier = {{}};
  for (int len = 1; len <= max_length; ++len) {
    std::vector<std::vector<int>> next;
    for (const auto& word : frontier) {
      for (int s : symbols) {
        std::vector<int> extended = word;
        extended.push_back(s);
        next.push_back(extended);
        words.push_back(extended);
      }
    }
    frontier = std::move(next);
  }
  (void)num_symbols;
  return words;
}

TEST(NfaTest, AcceptsMatchesRegexSemantics) {
  Nfa nfa = FromRegex("a (b a)* ");
  EXPECT_TRUE(Accepts(nfa, {kA}));
  EXPECT_TRUE(Accepts(nfa, {kA, kB, kA}));
  EXPECT_TRUE(Accepts(nfa, {kA, kB, kA, kB, kA}));
  EXPECT_FALSE(Accepts(nfa, {}));
  EXPECT_FALSE(Accepts(nfa, {kB}));
  EXPECT_FALSE(Accepts(nfa, {kA, kB}));
}

TEST(OpsTest, DeterminizeAgreesWithNfaOnAllShortWords) {
  Nfa nfa = FromRegex("(a | a b)* b");
  Dfa dfa = Determinize(nfa);
  for (const auto& word : AllWords(4, 6, {kA, kB})) {
    EXPECT_EQ(Accepts(nfa, word), dfa.Accepts(word));
  }
}

TEST(OpsTest, ComplementFlipsMembership) {
  Nfa nfa = FromRegex("a* b");
  Dfa complement = ComplementDfa(Determinize(nfa));
  for (const auto& word : AllWords(4, 5, {kA, kB})) {
    EXPECT_NE(Accepts(nfa, word), complement.Accepts(word));
  }
}

TEST(OpsTest, IntersectIsConjunction) {
  Nfa lhs = FromRegex("a (a | b)*");   // starts with a
  Nfa rhs = FromRegex("(a | b)* b");   // ends with b
  Nfa both = Intersect(lhs, rhs);
  for (const auto& word : AllWords(4, 5, {kA, kB})) {
    EXPECT_EQ(Accepts(both, word), Accepts(lhs, word) && Accepts(rhs, word));
  }
}

TEST(OpsTest, UnionConcatStarSemantics) {
  Nfa a = FromRegex("a");
  Nfa b = FromRegex("b");
  Nfa u = UnionNfa(a, b);
  EXPECT_TRUE(Accepts(u, {kA}));
  EXPECT_TRUE(Accepts(u, {kB}));
  EXPECT_FALSE(Accepts(u, {kA, kB}));

  Nfa ab = Concat(a, b);
  EXPECT_TRUE(Accepts(ab, {kA, kB}));
  EXPECT_FALSE(Accepts(ab, {kA}));

  Nfa star = Star(ab);
  EXPECT_TRUE(Accepts(star, {}));
  EXPECT_TRUE(Accepts(star, {kA, kB, kA, kB}));
  EXPECT_FALSE(Accepts(star, {kA, kB, kA}));
}

TEST(OpsTest, ReverseReversesWords) {
  Nfa nfa = FromRegex("a a b");
  Nfa reversed = ReverseNfa(nfa);
  EXPECT_TRUE(Accepts(reversed, {kB, kA, kA}));
  EXPECT_FALSE(Accepts(reversed, {kA, kA, kB}));
}

TEST(OpsTest, ProjectErasesAndRenames) {
  Nfa nfa = FromRegex("a b a");
  // Erase b, rename a -> 0 over a 1-symbol alphabet.
  std::vector<int> mapping(nfa.num_symbols(), kEpsilon);
  mapping[kA] = 0;
  Nfa image = Project(nfa, mapping, 1);
  EXPECT_TRUE(Accepts(image, {0, 0}));
  EXPECT_FALSE(Accepts(image, {0}));
}

TEST(OpsTest, EmptinessAndShortestWord) {
  EXPECT_TRUE(IsEmpty(FromRegex("%empty")));
  EXPECT_TRUE(IsEmpty(FromRegex("%empty a")));
  Nfa nfa = FromRegex("a a (b | a)");
  auto word = ShortestAcceptedWord(nfa);
  ASSERT_TRUE(word.has_value());
  EXPECT_EQ(word->size(), 3u);
  EXPECT_TRUE(Accepts(nfa, *word));
}

TEST(OpsTest, ContainmentAndEquivalence) {
  EXPECT_TRUE(IsContained(FromRegex("a a"), FromRegex("a*")));
  EXPECT_FALSE(IsContained(FromRegex("a*"), FromRegex("a a")));
  EXPECT_TRUE(AreEquivalent(FromRegex("(a b)* a | %eps a"),
                            FromRegex("a (b a)*")));
  EXPECT_FALSE(AreEquivalent(FromRegex("a* b*"), FromRegex("(a | b)*")));
}

TEST(OpsTest, TrimPreservesLanguage) {
  Nfa nfa = FromRegex("a | %empty b");
  Nfa trimmed = Trim(nfa);
  EXPECT_LE(trimmed.NumStates(), nfa.NumStates());
  for (const auto& word : AllWords(4, 4, {kA, kB})) {
    EXPECT_EQ(Accepts(nfa, word), Accepts(trimmed, word));
  }
}

TEST(MinimizeTest, ProducesCanonicalSizes) {
  // (a|b)* a (a|b)^k needs exactly 2^(k+1) live states in the minimal
  // complete DFA: every subset of the last k+1 positions is distinguishable.
  // Our Σ± alphabet also carries the (unused) inverse symbols a⁻/b⁻, which
  // force one extra rejecting sink.
  for (int k = 0; k <= 3; ++k) {
    std::string text = "(a | b)* a";
    for (int i = 0; i < k; ++i) text += " (a | b)";
    Dfa minimal = Minimize(Determinize(FromRegex(text)));
    EXPECT_EQ(minimal.NumStates(), (1 << (k + 1)) + 1) << "k=" << k;
  }
}

TEST(MinimizeTest, PreservesLanguage) {
  std::mt19937_64 rng(7);
  RandomAutomatonOptions options;
  options.num_states = 6;
  options.num_symbols = 2;
  for (int trial = 0; trial < 50; ++trial) {
    Nfa nfa = RandomNfa(rng, options);
    Dfa dfa = Determinize(nfa);
    Dfa minimal = Minimize(dfa);
    EXPECT_LE(minimal.NumStates(), dfa.NumStates() + 1);
    for (int i = 0; i < 40; ++i) {
      std::vector<int> word = RandomWord(rng, 2, i % 8);
      EXPECT_EQ(dfa.Accepts(word), minimal.Accepts(word));
    }
  }
}

TEST(LazySubsetDfaTest, MatchesEagerDeterminization) {
  std::mt19937_64 rng(21);
  RandomAutomatonOptions options;
  options.num_states = 5;
  options.num_symbols = 3;
  for (int trial = 0; trial < 30; ++trial) {
    Nfa nfa = RandomNfa(rng, options);
    Dfa dfa = Determinize(nfa);
    LazySubsetDfa lazy(nfa);
    for (int i = 0; i < 30; ++i) {
      std::vector<int> word = RandomWord(rng, 3, i % 7);
      int state = lazy.StartState();
      for (int symbol : word) state = lazy.Step(state, symbol);
      EXPECT_EQ(lazy.IsAccepting(state), dfa.Accepts(word));
    }
  }
}

/// Random NFA with ε-transitions and repeated transitions, which RandomNfa
/// never draws. With no symbols every transition is an ε-transition.
Nfa RandomNfaWithEpsilons(std::mt19937_64& rng, int num_states,
                          int num_symbols) {
  Nfa nfa(num_symbols);
  for (int s = 0; s < num_states; ++s) nfa.AddState();
  nfa.SetInitial(0);
  nfa.SetInitial(static_cast<int>(rng() % num_states));
  for (int s = 0; s < num_states; ++s) {
    if (rng() % 3 == 0) nfa.SetAccepting(s);
    for (int i = static_cast<int>(rng() % 4); i > 0; --i) {
      int symbol = num_symbols == 0 || rng() % 4 == 0
                       ? kEpsilon
                       : static_cast<int>(rng() % num_symbols);
      int to = static_cast<int>(rng() % num_states);
      nfa.AddTransition(s, symbol, to);
      if (rng() % 4 == 0) nfa.AddTransition(s, symbol, to);
    }
  }
  return nfa;
}

// The eager and the lazy subset construction intern successors in the same
// order — breadth-first, symbol by symbol — so they build the same DFA state
// for state, and a breadth-first walk of LazySubsetDfa sees the same ids.
// Every state id downstream depends on that order, so a subset step that
// changes it fails here.
TEST(LazySubsetDfaTest, BuildsTheSameDfaAsDeterminizeStateForState) {
  std::mt19937_64 rng(18);
  for (int trial = 0; trial < 300; ++trial) {
    const int num_symbols = trial % 5;
    Nfa nfa = RandomNfaWithEpsilons(rng, 1 + trial % 8, num_symbols);
    StatusOr<Dfa> eager = DeterminizeWithLimit(nfa, 1 << 16);
    LazySubsetDfa lazy(nfa);
    StatusOr<Dfa> materialized = MaterializeLazyDfa(&lazy, 1 << 16);
    ASSERT_TRUE(eager.ok() && materialized.ok()) << "trial " << trial;
    ASSERT_EQ(eager->NumStates(), materialized->NumStates())
        << "trial " << trial;
    EXPECT_EQ(lazy.NumDiscoveredStates(), eager->NumStates());
    EXPECT_EQ(eager->initial(), materialized->initial());
    EXPECT_EQ(lazy.StartState(), eager->initial());
    for (int q = 0; q < eager->NumStates(); ++q) {
      EXPECT_EQ(eager->IsAccepting(q), materialized->IsAccepting(q))
          << "trial " << trial << " state " << q;
      EXPECT_EQ(eager->IsAccepting(q), lazy.IsAccepting(q));
      for (int a = 0; a < num_symbols; ++a) {
        EXPECT_EQ(eager->Next(q, a), materialized->Next(q, a))
            << "trial " << trial << " state " << q << " symbol " << a;
        EXPECT_EQ(eager->Next(q, a), lazy.Step(q, a));
      }
    }
  }
}

TEST(LazyProductDfaTest, ConjunctionOfParts) {
  Nfa lhs = FromRegex("a (a | b)*");
  Nfa rhs = FromRegex("(a | b)* b");
  LazySubsetDfa lazy_lhs(lhs), lazy_rhs(rhs);
  LazyProductDfa product({&lazy_lhs, &lazy_rhs});
  for (const auto& word : AllWords(4, 5, {kA, kB})) {
    int state = product.StartState();
    for (int symbol : word) state = product.Step(state, symbol);
    EXPECT_EQ(product.IsAccepting(state),
              Accepts(lhs, word) && Accepts(rhs, word));
  }
}

TEST(FindAcceptedWordTest, FindsShortestWitness) {
  Nfa nfa = FromRegex("a a a | a b");
  LazySubsetDfa lazy(nfa);
  EmptinessResult result = FindAcceptedWord(&lazy, 1000);
  ASSERT_EQ(result.outcome, EmptinessResult::Outcome::kFoundWord);
  EXPECT_EQ(result.witness.size(), 2u);
  EXPECT_TRUE(Accepts(nfa, result.witness));
}

TEST(FindAcceptedWordTest, ReportsEmpty) {
  Nfa nfa = FromRegex("%empty");
  LazySubsetDfa lazy(nfa);
  EXPECT_EQ(FindAcceptedWord(&lazy, 1000).outcome,
            EmptinessResult::Outcome::kEmpty);
}

TEST(MaterializeLazyDfaTest, RoundTripsLanguage) {
  Nfa nfa = FromRegex("(a b | b)* a");
  LazySubsetDfa lazy(nfa);
  StatusOr<Dfa> dfa = MaterializeLazyDfa(&lazy, 1 << 12);
  ASSERT_TRUE(dfa.ok());
  for (const auto& word : AllWords(4, 6, {kA, kB})) {
    EXPECT_EQ(dfa->Accepts(word), Accepts(nfa, word));
  }
}

TEST(MaterializeLazyDfaTest, HonorsLimit) {
  Nfa nfa = FromRegex("(a | b)* a (a | b) (a | b) (a | b) (a | b)");
  LazySubsetDfa lazy(nfa);
  StatusOr<Dfa> dfa = MaterializeLazyDfa(&lazy, 4);
  EXPECT_FALSE(dfa.ok());
  EXPECT_EQ(dfa.status().code(), Status::Code::kResourceExhausted);
}

TEST(StateElimTest, ReproducesLanguage) {
  std::mt19937_64 rng(99);
  RandomAutomatonOptions options;
  options.num_states = 4;
  options.num_symbols = 2;
  SignedAlphabet alphabet;
  alphabet.AddRelation("a");
  for (int trial = 0; trial < 20; ++trial) {
    Nfa nfa = RandomNfa(rng, options);
    std::vector<RegexPtr> atoms = {RAtom("a"), RAtom("a", true)};
    RegexPtr regex = NfaToRegex(nfa, atoms);
    Nfa back = MustCompileRegex(regex, alphabet);
    EXPECT_TRUE(AreEquivalent(nfa, back)) << "trial " << trial;
  }
}

TEST(DeterminizeWithLimitTest, FailsGracefully) {
  Nfa nfa = FromRegex("(a | b)* a (a | b) (a | b) (a | b) (a | b) (a | b)");
  StatusOr<Dfa> dfa = DeterminizeWithLimit(nfa, 8);
  EXPECT_FALSE(dfa.ok());
  EXPECT_EQ(dfa.status().code(), Status::Code::kResourceExhausted);
}

TEST(WidenAlphabetTest, PreservesWordsAndShiftsSymbols) {
  Nfa nfa = FromRegex("a b");
  Nfa widened = WidenAlphabet(nfa, 10, 3);
  EXPECT_EQ(widened.num_symbols(), 10);
  EXPECT_TRUE(Accepts(widened, {kA + 3, kB + 3}));
  EXPECT_FALSE(Accepts(widened, {kA, kB}));
}

TEST(UniversalAndSingleWordTest, Basics) {
  Nfa universal = UniversalNfa(2);
  EXPECT_TRUE(Accepts(universal, {}));
  EXPECT_TRUE(Accepts(universal, {0, 1, 1, 0}));
  Nfa single = SingleWordNfa(3, {2, 0, 1});
  EXPECT_TRUE(Accepts(single, {2, 0, 1}));
  EXPECT_FALSE(Accepts(single, {2, 0}));
  EXPECT_FALSE(Accepts(single, {}));
}

}  // namespace
}  // namespace rpqi
