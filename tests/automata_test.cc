#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <string>
#include <utility>

#include "automata/dfa.h"
#include "automata/lazy.h"
#include "automata/nfa.h"
#include "automata/ops.h"
#include "automata/random.h"
#include "automata/state_elim.h"
#include "base/budget.h"
#include "fault/fault.h"
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
  Dfa dfa = Determinize(FromRegex("a b a"));
  // Erase b, rename a -> 0 over a 1-symbol alphabet.
  std::vector<int> mapping(dfa.num_symbols(), kEpsilon);
  mapping[kA] = 0;
  StatusOr<Dfa> image =
      DeterminizeWithLimit(DfaProjection(dfa, mapping, 1), 1 << 10);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_TRUE(image->Accepts({0, 0}));
  EXPECT_FALSE(image->Accepts({0}));
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
  EmptinessResult result = FindAcceptedWord({&lazy}, 1000);
  ASSERT_EQ(result.outcome, EmptinessResult::Outcome::kFoundWord);
  EXPECT_EQ(result.witness.size(), 2u);
  EXPECT_TRUE(Accepts(nfa, result.witness));
}

TEST(FindAcceptedWordTest, ReportsEmpty) {
  Nfa nfa = FromRegex("%empty");
  LazySubsetDfa lazy(nfa);
  EXPECT_EQ(FindAcceptedWord({&lazy}, 1000).outcome,
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

// ---------------------------------------------------------------------------
// DfaProjection against the composition it replaced:
// DeterminizeWithLimit(Trim(Project(DfaToNfa(dfa)))).

/// The image of L(a) under a letter-to-letter map (`mapping[s]` is the image
/// of s, or kEpsilon to erase it) as an NFA with ε-edges. The rewriting
/// pipeline built A4 this way before DfaProjection; it stays here as the
/// reference.
Nfa Project(const Nfa& a, const std::vector<int>& mapping,
            int new_num_symbols) {
  Nfa result(new_num_symbols);
  for (int s = 0; s < a.NumStates(); ++s) result.AddState();
  for (int s = 0; s < a.NumStates(); ++s) {
    result.SetInitial(s, a.IsInitial(s));
    result.SetAccepting(s, a.IsAccepting(s));
    for (const Nfa::Transition& t : a.TransitionsFrom(s)) {
      int image = t.symbol == kEpsilon ? kEpsilon : mapping[t.symbol];
      result.AddTransition(s, image, t.to);
    }
  }
  return result;
}

StatusOr<Dfa> ReferenceDeterminize(const Dfa& dfa,
                                   const std::vector<int>& mapping,
                                   int num_symbols, int64_t max_states,
                                   Budget* budget = nullptr) {
  return DeterminizeWithLimit(
      Trim(Project(DfaToNfa(dfa), mapping, num_symbols)), max_states, budget);
}

/// Every field of a DFA, state by state, so two DFAs compare as strings.
std::string DfaText(const Dfa& dfa) {
  std::string text = "symbols " + std::to_string(dfa.num_symbols()) +
                     " states " + std::to_string(dfa.NumStates()) +
                     " initial " + std::to_string(dfa.initial()) + "\n";
  for (int s = 0; s < dfa.NumStates(); ++s) {
    text += std::to_string(s) + (dfa.IsAccepting(s) ? " accepting:" : ":");
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      text += " " + std::to_string(dfa.Next(s, a));
    }
    text += "\n";
  }
  return text;
}

/// A random DFA; with `total` false, about a tenth of the edges are missing.
Dfa RandomDfa(std::mt19937_64& rng, int num_states, int num_symbols,
              double accepting_probability, bool total = true) {
  Dfa dfa(num_symbols, num_states);
  std::uniform_int_distribution<int> state(0, num_states - 1);
  std::bernoulli_distribution accepting(accepting_probability);
  std::bernoulli_distribution missing(total ? 0.0 : 0.1);
  dfa.SetInitial(state(rng));
  for (int s = 0; s < num_states; ++s) {
    dfa.SetAccepting(s, accepting(rng));
    for (int a = 0; a < num_symbols; ++a) {
      const int to = state(rng);
      if (!missing(rng)) dfa.SetNext(s, a, to);
    }
  }
  return dfa;
}

/// Checks that both constructions agree: the same trimmed state count, and
/// the same DFA or the same failure. Returns whether the DFA was built.
bool ExpectProjectionMatchesReference(const Dfa& dfa,
                                      const std::vector<int>& mapping,
                                      int num_symbols, int64_t max_states) {
  DfaProjection projection(dfa, mapping, num_symbols);
  EXPECT_EQ(projection.NumStates(),
            Trim(Project(DfaToNfa(dfa), mapping, num_symbols)).NumStates());
  StatusOr<Dfa> got = DeterminizeWithLimit(projection, max_states);
  StatusOr<Dfa> want =
      ReferenceDeterminize(dfa, mapping, num_symbols, max_states);
  EXPECT_EQ(got.ok(), want.ok());
  if (!got.ok() || !want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return false;
  }
  EXPECT_EQ(DfaText(*got), DfaText(*want));
  return true;
}

TEST(DfaProjectionDifferentialTest, RandomTotalDfasMatchTheReference) {
  // Sizes put the useful states in one, two and five bitset words.
  const std::vector<int> sizes = {1,  2,  3,   7,   30,  63,  64,  65,
                                  90, 128, 129, 200, 257, 280, 300};
  const int kSymbols = 4;
  std::mt19937_64 rng(22);
  int built = 0;
  int cases = 0;
  for (int n : sizes) {
    for (int trial = 0; trial < 3; ++trial) {
      Dfa dfa = RandomDfa(rng, n, kSymbols, /*accepting_probability=*/0.05);
      // Erase none (renaming, or merging two letters so that the image is
      // nondeterministic), some, and all of the symbols.
      const std::vector<std::pair<std::vector<int>, int>> mappings = {
          {{3, 2, 1, 0}, 4},
          {{0, 1, 2, 0}, 3},
          {{kEpsilon, 0, 1, kEpsilon}, 2},
          {{1, kEpsilon, 0, 1}, 2},
          {{kEpsilon, kEpsilon, kEpsilon, kEpsilon}, 2},
          {{kEpsilon, kEpsilon, kEpsilon, kEpsilon}, 0},
      };
      for (const auto& [mapping, num_symbols] : mappings) {
        SCOPED_TRACE("n=" + std::to_string(n) + " trial=" +
                     std::to_string(trial) + " symbols=" +
                     std::to_string(num_symbols));
        ++cases;
        if (ExpectProjectionMatchesReference(dfa, mapping, num_symbols,
                                             /*max_states=*/1 << 12)) {
          ++built;
        }
      }
    }
  }
  // The comparison is only worth something if most constructions finish;
  // merged letters on large DFAs may reach the limit (in both).
  EXPECT_GE(built * 5, cases * 4) << built << " of " << cases;
}

TEST(DfaProjectionDifferentialTest, PartialDfasMatchTheReference) {
  std::mt19937_64 rng(23);
  for (int n : {1, 5, 40, 70, 150}) {
    Dfa dfa = RandomDfa(rng, n, 3, /*accepting_probability=*/0.1,
                        /*total=*/false);
    SCOPED_TRACE("n=" + std::to_string(n));
    ExpectProjectionMatchesReference(dfa, {0, kEpsilon, 1}, 2, 1 << 12);
  }
}

TEST(DfaProjectionDifferentialTest, EmptyLanguagesKeepOneState) {
  // No accepting state at all.
  std::mt19937_64 rng(24);
  Dfa rejecting = RandomDfa(rng, 50, 3, /*accepting_probability=*/0.0);
  EXPECT_EQ(DfaProjection(rejecting, {0, kEpsilon, 1}, 2).NumStates(), 1);
  ExpectProjectionMatchesReference(rejecting, {0, kEpsilon, 1}, 2, 1 << 12);

  // Accepting states exist, but the initial state cannot reach them.
  Dfa stuck(2, 3);
  stuck.SetInitial(0);
  stuck.SetNext(0, 0, 0);
  stuck.SetNext(0, 1, 0);
  stuck.SetNext(1, 0, 2);
  stuck.SetNext(1, 1, 1);
  stuck.SetNext(2, 0, 2);
  stuck.SetNext(2, 1, 1);
  stuck.SetAccepting(2);
  DfaProjection projection(stuck, {0, kEpsilon}, 1);
  EXPECT_EQ(projection.NumUseful(), 0);
  EXPECT_EQ(projection.NumStates(), 1);
  ExpectProjectionMatchesReference(stuck, {0, kEpsilon}, 1, 1 << 12);
}

/// A DFA whose projection onto its own alphabet determinizes to more than 8
/// states.
Dfa HardFamilyDfa() {
  return Determinize(FromRegex("(a | b)* a (a | b) (a | b) (a | b)"));
}

std::vector<int> IdentityMapping(int num_symbols) {
  std::vector<int> mapping(num_symbols);
  for (int a = 0; a < num_symbols; ++a) mapping[a] = a;
  return mapping;
}

TEST(DfaProjectionDifferentialTest, StateLimitFailsWithTheSameMessage) {
  Dfa dfa = HardFamilyDfa();
  std::vector<int> mapping = IdentityMapping(dfa.num_symbols());
  StatusOr<Dfa> got = DeterminizeWithLimit(
      DfaProjection(dfa, mapping, dfa.num_symbols()), 8);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), Status::Code::kResourceExhausted);
  EXPECT_EQ(got.status().ToString(),
            ReferenceDeterminize(dfa, mapping, dfa.num_symbols(), 8)
                .status()
                .ToString());
}

TEST(DfaProjectionDifferentialTest, ExpiredBudgetIsDeadlineExceeded) {
  Dfa dfa = HardFamilyDfa();
  std::vector<int> mapping = IdentityMapping(dfa.num_symbols());
  for (bool reference : {false, true}) {
    Budget budget;
    budget.set_deadline(Budget::Clock::now() - std::chrono::seconds(1));
    StatusOr<Dfa> result =
        reference
            ? ReferenceDeterminize(dfa, mapping, dfa.num_symbols(), 1 << 12,
                                   &budget)
            : DeterminizeWithLimit(
                  DfaProjection(dfa, mapping, dfa.num_symbols()), 1 << 12,
                  &budget);
    ASSERT_FALSE(result.ok()) << "reference=" << reference;
    EXPECT_EQ(result.status().code(), Status::Code::kDeadlineExceeded)
        << "reference=" << reference;
  }
}

TEST(DfaProjectionDifferentialTest, FaultSiteFiresOnTheFirstNewSubset) {
  Dfa dfa = HardFamilyDfa();
  std::vector<int> mapping = IdentityMapping(dfa.num_symbols());
  std::string messages[2];
  for (bool reference : {false, true}) {
    fault::DisarmAll();
    ASSERT_TRUE(fault::Configure("automata.determinize_state=once").ok());
    const int64_t hits_before = fault::HitCount("automata.determinize_state");
    StatusOr<Dfa> result =
        reference ? ReferenceDeterminize(dfa, mapping, dfa.num_symbols(),
                                         1 << 12)
                  : DeterminizeWithLimit(
                        DfaProjection(dfa, mapping, dfa.num_symbols()),
                        1 << 12);
    EXPECT_EQ(fault::HitCount("automata.determinize_state") - hits_before, 1)
        << "reference=" << reference;
    ASSERT_FALSE(result.ok()) << "reference=" << reference;
    EXPECT_EQ(result.status().code(), Status::Code::kResourceExhausted);
    messages[reference] = result.status().ToString();
  }
  fault::DisarmAll();
  EXPECT_EQ(messages[0], messages[1]);
}

// ---------------------------------------------------------------------------
// Minimize against the per-block member lists it replaced.

/// Hopcroft minimization as Minimize ran it before its flat arrays: a
/// preimage vector per (symbol, state) and a member vector per block. Kept
/// as the reference for state numbering.
Dfa ReferenceMinimize(const Dfa& input) {
  const Dfa completed = Complete(input);
  std::vector<int> order = {completed.initial()};
  std::vector<int> new_id(completed.NumStates(), -1);
  new_id[completed.initial()] = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    for (int a = 0; a < completed.num_symbols(); ++a) {
      int to = completed.Next(order[i], a);
      if (new_id[to] < 0) {
        new_id[to] = static_cast<int>(order.size());
        order.push_back(to);
      }
    }
  }
  const int n = static_cast<int>(order.size());
  const int k = completed.num_symbols();
  Dfa dfa(k, n);
  for (int i = 0; i < n; ++i) {
    dfa.SetAccepting(i, completed.IsAccepting(order[i]));
    for (int a = 0; a < k; ++a) {
      dfa.SetNext(i, a, new_id[completed.Next(order[i], a)]);
    }
  }

  std::vector<std::vector<std::vector<int>>> preimage(
      k, std::vector<std::vector<int>>(n));
  for (int s = 0; s < n; ++s) {
    for (int a = 0; a < k; ++a) preimage[a][dfa.Next(s, a)].push_back(s);
  }
  std::vector<int> block_of(n);
  std::vector<std::vector<int>> blocks;
  {
    std::vector<int> accepting_states, rejecting_states;
    for (int s = 0; s < n; ++s) {
      (dfa.IsAccepting(s) ? accepting_states : rejecting_states).push_back(s);
    }
    if (!accepting_states.empty()) blocks.push_back(accepting_states);
    if (!rejecting_states.empty()) blocks.push_back(rejecting_states);
    for (size_t b = 0; b < blocks.size(); ++b)
      for (int s : blocks[b]) block_of[s] = static_cast<int>(b);
  }
  std::vector<std::pair<int, int>> worklist;
  for (size_t b = 0; b < blocks.size(); ++b)
    for (int a = 0; a < k; ++a) worklist.push_back({static_cast<int>(b), a});
  std::vector<char> state_in_x(n, 0);
  while (!worklist.empty()) {
    auto [splitter_block, a] = worklist.back();
    worklist.pop_back();
    std::vector<int> x;
    for (int s : blocks[splitter_block]) {
      for (int q : preimage[a][s]) {
        if (!state_in_x[q]) {
          state_in_x[q] = 1;
          x.push_back(q);
        }
      }
    }
    if (x.empty()) continue;
    std::vector<int> touched_count(blocks.size(), 0);
    std::vector<int> touched_blocks;
    for (int q : x) {
      if (touched_count[block_of[q]]++ == 0) {
        touched_blocks.push_back(block_of[q]);
      }
    }
    for (int b : touched_blocks) {
      if (touched_count[b] == static_cast<int>(blocks[b].size())) continue;
      std::vector<int> inside, outside;
      for (int s : blocks[b]) (state_in_x[s] ? inside : outside).push_back(s);
      int new_block = static_cast<int>(blocks.size());
      if (inside.size() <= outside.size()) {
        blocks[b] = std::move(outside);
        blocks.push_back(std::move(inside));
      } else {
        blocks[b] = std::move(inside);
        blocks.push_back(std::move(outside));
      }
      for (int s : blocks[new_block]) block_of[s] = new_block;
      for (int sym = 0; sym < k; ++sym) worklist.push_back({new_block, sym});
    }
    for (int q : x) state_in_x[q] = 0;
  }
  Dfa result(k, static_cast<int>(blocks.size()));
  result.SetInitial(block_of[0]);
  for (size_t b = 0; b < blocks.size(); ++b) {
    int representative = blocks[b][0];
    result.SetAccepting(static_cast<int>(b), dfa.IsAccepting(representative));
    for (int a = 0; a < k; ++a) {
      result.SetNext(static_cast<int>(b), a,
                     block_of[dfa.Next(representative, a)]);
    }
  }
  return result;
}

TEST(MinimizeTest, NumbersStatesAsTheReference) {
  std::mt19937_64 rng(25);
  for (int n : {1, 2, 6, 20, 64, 130, 300}) {
    for (bool total : {true, false}) {
      for (double accepting : {0.0, 0.2, 0.6}) {
        Dfa dfa = RandomDfa(rng, n, 3, accepting, total);
        EXPECT_EQ(DfaText(Minimize(dfa)), DfaText(ReferenceMinimize(dfa)))
            << "n=" << n << " total=" << total << " accepting=" << accepting;
      }
    }
  }
  Dfa hard = HardFamilyDfa();
  EXPECT_EQ(DfaText(Minimize(hard)), DfaText(ReferenceMinimize(hard)));
}

TEST(DfaEmptinessTest, AgreesWithShortestAcceptedWord) {
  std::mt19937_64 rng(26);
  for (int n : {1, 3, 10, 50}) {
    for (double accepting : {0.0, 0.02, 0.3}) {
      for (bool total : {true, false}) {
        Dfa dfa = RandomDfa(rng, n, 2, accepting, total);
        EXPECT_EQ(IsEmpty(dfa),
                  !ShortestAcceptedWord(DfaToNfa(dfa)).has_value())
            << "n=" << n << " accepting=" << accepting;
      }
    }
  }
}

}  // namespace
}  // namespace rpqi
