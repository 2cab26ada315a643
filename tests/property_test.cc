// Property-based sweeps over seeded random inputs: every test in this file is
// parameterized by an RNG seed (INSTANTIATE_TEST_SUITE_P below) and checks an
// algebraic invariant that must hold for all inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <utility>

#include "answer/cda.h"
#include "automata/dfa.h"
#include "automata/ops.h"
#include "automata/random.h"
#include "graphdb/eval.h"
#include "regex/parser.h"
#include "regex/printer.h"
#include "rewrite/exactness.h"
#include "rewrite/rewriter.h"
#include "rpq/alphabet.h"
#include "rpq/compile.h"
#include "rpq/containment.h"
#include "rpq/satisfaction.h"
#include "workload/graph_gen.h"
#include "workload/regex_gen.h"

namespace rpqi {
namespace {

class SeededProperty : public testing::TestWithParam<int> {
 protected:
  std::mt19937_64 rng_{static_cast<uint64_t>(GetParam())};

  SignedAlphabet MakeAlphabet() {
    SignedAlphabet alphabet;
    alphabet.AddRelation("p");
    alphabet.AddRelation("q");
    return alphabet;
  }

  RegexPtr MakeRegex(int size, double inverse_probability = 0.3) {
    RandomRegexOptions options;
    options.relation_names = {"p", "q"};
    options.target_size = size;
    options.inverse_probability = inverse_probability;
    return RandomRegex(rng_, options);
  }
};

// --- automata algebra -------------------------------------------------------

TEST_P(SeededProperty, DeMorganComplementOfUnion) {
  RandomAutomatonOptions options;
  options.num_states = 4;
  options.num_symbols = 2;
  Nfa a = RandomNfa(rng_, options);
  Nfa b = RandomNfa(rng_, options);
  Dfa complement_union = ComplementDfa(Determinize(UnionNfa(a, b)));
  Nfa intersection_of_complements =
      Intersect(DfaToNfa(ComplementDfa(Determinize(a))),
                DfaToNfa(ComplementDfa(Determinize(b))));
  EXPECT_TRUE(
      AreEquivalent(DfaToNfa(complement_union), intersection_of_complements));
}

TEST_P(SeededProperty, ReverseIsAnInvolution) {
  RandomAutomatonOptions options;
  options.num_states = 5;
  options.num_symbols = 2;
  Nfa a = RandomNfa(rng_, options);
  EXPECT_TRUE(AreEquivalent(a, ReverseNfa(ReverseNfa(a))));
}

TEST_P(SeededProperty, MinimizeIsIdempotentAndMinimal) {
  RandomAutomatonOptions options;
  options.num_states = 5;
  options.num_symbols = 2;
  Dfa minimal = Minimize(Determinize(RandomNfa(rng_, options)));
  Dfa again = Minimize(minimal);
  EXPECT_EQ(minimal.NumStates(), again.NumStates());
  EXPECT_TRUE(AreEquivalent(DfaToNfa(minimal), DfaToNfa(again)));
}

TEST_P(SeededProperty, StarIsIdempotent) {
  RandomAutomatonOptions options;
  options.num_states = 4;
  options.num_symbols = 2;
  Nfa a = RandomNfa(rng_, options);
  EXPECT_TRUE(AreEquivalent(Star(a), Star(Star(a))));
}

TEST_P(SeededProperty, ContainmentIsReflexiveAndRespectUnion) {
  RandomAutomatonOptions options;
  options.num_states = 4;
  options.num_symbols = 2;
  Nfa a = RandomNfa(rng_, options);
  Nfa b = RandomNfa(rng_, options);
  EXPECT_TRUE(IsContained(a, a));
  EXPECT_TRUE(IsContained(a, UnionNfa(a, b)));
  EXPECT_TRUE(IsContained(Intersect(a, b), a));
}

// --- regex layer -------------------------------------------------------------

TEST_P(SeededProperty, ParsePrintRoundTrip) {
  SignedAlphabet alphabet = MakeAlphabet();
  RegexPtr e = MakeRegex(8);
  RegexPtr reparsed = MustParseRegex(RegexToString(e));
  EXPECT_TRUE(AreEquivalent(MustCompileRegex(e, alphabet),
                            MustCompileRegex(reparsed, alphabet)));
}

TEST_P(SeededProperty, InvCommutesWithCompilation) {
  // Compiling inv(e) and inverting the automaton of e give the same language.
  SignedAlphabet alphabet = MakeAlphabet();
  RegexPtr e = MakeRegex(7);
  Nfa via_ast = MustCompileRegex(Inv(e), alphabet);
  Nfa via_automaton = InverseAutomaton(MustCompileRegex(e, alphabet));
  EXPECT_TRUE(AreEquivalent(via_ast, via_automaton)) << RegexToString(e);
}

// --- satisfaction / containment ---------------------------------------------

TEST_P(SeededProperty, LanguageMembershipImpliesSatisfaction) {
  SignedAlphabet alphabet = MakeAlphabet();
  Nfa query = MustCompileRegex(MakeRegex(6), alphabet);
  auto word = ShortestAcceptedWord(query);
  if (word.has_value()) {
    EXPECT_TRUE(WordSatisfies(query, *word));
  }
}

TEST_P(SeededProperty, SatisfactionIsInverseSymmetric) {
  // w satisfies E ⟺ inv(w) satisfies inv(E): the line database of inv(w) is
  // the mirror image, and inv(E) navigates it mirrored.
  SignedAlphabet alphabet = MakeAlphabet();
  RegexPtr e = MakeRegex(6);
  Nfa query = MustCompileRegex(e, alphabet);
  Nfa inverse_query = MustCompileRegex(Inv(e), alphabet);
  for (int i = 0; i < 10; ++i) {
    std::vector<int> word = RandomWord(rng_, alphabet.NumSymbols(), i % 5);
    EXPECT_EQ(WordSatisfies(query, word),
              WordSatisfies(inverse_query, InverseWord(word)))
        << RegexToString(e);
  }
}

TEST_P(SeededProperty, SatisfactionIsMonotoneInContainment) {
  SignedAlphabet alphabet = MakeAlphabet();
  Nfa small = MustCompileRegex(MakeRegex(4), alphabet);
  Nfa big = UnionNfa(small, MustCompileRegex(MakeRegex(4), alphabet));
  ASSERT_TRUE(RpqiContained(small, big));
  for (int i = 0; i < 10; ++i) {
    std::vector<int> word = RandomWord(rng_, alphabet.NumSymbols(), i % 5);
    if (WordSatisfies(small, word)) {
      EXPECT_TRUE(WordSatisfies(big, word));
    }
  }
}

// --- graph evaluation ---------------------------------------------------------

TEST_P(SeededProperty, EvaluationIsMonotoneInEdges) {
  SignedAlphabet alphabet = MakeAlphabet();
  Nfa query = MustCompileRegex(MakeRegex(5), alphabet);
  RandomGraphOptions options;
  options.num_nodes = 6;
  options.num_relations = 2;
  GraphBuilder builder = RandomGraph(rng_, options);
  auto before =
      EvalRpqiAllPairs(GraphBuilder(builder).Build(), CompileEvalPlan(query));
  std::uniform_int_distribution<int> pick(0, builder.NumNodes() - 1);
  builder.AddEdge(pick(rng_), 0, pick(rng_));
  auto after =
      EvalRpqiAllPairs(std::move(builder).Build(), CompileEvalPlan(query));
  for (const auto& pair : before) {
    EXPECT_TRUE(std::find(after.begin(), after.end(), pair) != after.end());
  }
}

TEST_P(SeededProperty, EvaluationDistributesOverUnion) {
  SignedAlphabet alphabet = MakeAlphabet();
  Nfa e1 = MustCompileRegex(MakeRegex(4), alphabet);
  Nfa e2 = MustCompileRegex(MakeRegex(4), alphabet);
  RandomGraphOptions options;
  options.num_nodes = 5;
  options.num_relations = 2;
  GraphDb db = RandomGraph(rng_, options).Build();
  auto union_answers = EvalRpqiAllPairs(db, CompileEvalPlan(UnionNfa(e1, e2)));
  auto a1 = EvalRpqiAllPairs(db, CompileEvalPlan(e1));
  auto a2 = EvalRpqiAllPairs(db, CompileEvalPlan(e2));
  std::vector<std::pair<int, int>> merged;
  std::set_union(a1.begin(), a1.end(), a2.begin(), a2.end(),
                 std::back_inserter(merged));
  EXPECT_EQ(union_answers, merged);
}

TEST_P(SeededProperty, EvaluationComposesOverConcat) {
  SignedAlphabet alphabet = MakeAlphabet();
  Nfa e1 = MustCompileRegex(MakeRegex(3), alphabet);
  Nfa e2 = MustCompileRegex(MakeRegex(3), alphabet);
  RandomGraphOptions options;
  options.num_nodes = 5;
  options.num_relations = 2;
  GraphDb db = RandomGraph(rng_, options).Build();
  auto concat_answers = EvalRpqiAllPairs(db, CompileEvalPlan(Concat(e1, e2)));
  auto a1 = EvalRpqiAllPairs(db, CompileEvalPlan(e1));
  auto a2 = EvalRpqiAllPairs(db, CompileEvalPlan(e2));
  std::vector<std::pair<int, int>> composed;
  for (const auto& [x, z1] : a1) {
    for (const auto& [z2, y] : a2) {
      if (z1 == z2) composed.push_back({x, y});
    }
  }
  std::sort(composed.begin(), composed.end());
  composed.erase(std::unique(composed.begin(), composed.end()),
                 composed.end());
  EXPECT_EQ(concat_answers, composed);
}

// --- rewriting ----------------------------------------------------------------

TEST_P(SeededProperty, RewritingWithQueryAsViewIsExact) {
  SignedAlphabet alphabet = MakeAlphabet();
  Nfa query = MustCompileRegex(MakeRegex(4), alphabet);
  if (IsEmpty(query)) return;  // empty query: rewriting trivially exact-empty
  std::vector<Nfa> views = {query};
  StatusOr<MaximalRewriting> rewriting = ComputeMaximalRewriting(query, views);
  ASSERT_TRUE(rewriting.ok());
  EXPECT_FALSE(rewriting->empty);
  EXPECT_TRUE(rewriting->dfa.Accepts({0}));  // the view itself
  EXPECT_TRUE(IsExactRewriting(query, views, rewriting->dfa, nullptr).value());
}

TEST_P(SeededProperty, RewritingShrinksWhenViewsShrink) {
  // Dropping a view can only shrink the rewriting language (restricted to
  // the remaining view symbols).
  SignedAlphabet alphabet = MakeAlphabet();
  Nfa query = MustCompileRegex(MakeRegex(4), alphabet);
  Nfa view0 = MustCompileRegex(MakeRegex(3), alphabet);
  Nfa view1 = MustCompileRegex(MakeRegex(3), alphabet);
  StatusOr<MaximalRewriting> both =
      ComputeMaximalRewriting(query, {view0, view1});
  StatusOr<MaximalRewriting> only =
      ComputeMaximalRewriting(query, {view0});
  ASSERT_TRUE(both.ok());
  ASSERT_TRUE(only.ok());
  // Words over view0's symbols accepted with one view are accepted with both.
  for (int i = 0; i < 20; ++i) {
    std::vector<int> word = RandomWord(rng_, 2, i % 4);
    if (only->dfa.Accepts(word)) {
      // Same word over the 4-symbol alphabet (ids 0,1 coincide).
      EXPECT_TRUE(both->dfa.Accepts(word));
    }
  }
}

// --- answering -----------------------------------------------------------------

TEST_P(SeededProperty, CertainImpliesPossibleUnderCda) {
  SignedAlphabet alphabet;
  alphabet.AddRelation("p");
  RandomRegexOptions options;
  options.relation_names = {"p"};
  options.target_size = 3;
  options.inverse_probability = 0.3;
  AnsweringInstance instance;
  instance.num_objects = 2;
  instance.query = MustCompileRegex(RandomRegex(rng_, options), alphabet);
  View view;
  view.definition = MustCompileRegex(RandomRegex(rng_, options), alphabet);
  view.extension = {{0, 1}};
  view.assumption = ViewAssumption::kSound;
  instance.views.push_back(std::move(view));

  // Consistency probe: with an ε-accepting query, (0,0) is possible iff some
  // database is consistent with the views at all.
  Nfa real_query = instance.query;
  instance.query = MustCompileRegex(MustParseRegex("%eps"), alphabet);
  StatusOr<CdaResult> consistency = PossibleAnswerCda(instance, 0, 0);
  ASSERT_TRUE(consistency.ok());
  instance.query = real_query;

  for (int c = 0; c < 2; ++c) {
    for (int d = 0; d < 2; ++d) {
      StatusOr<CdaResult> certain = CertainAnswerCda(instance, c, d);
      StatusOr<CdaResult> possible = PossibleAnswerCda(instance, c, d);
      ASSERT_TRUE(certain.ok());
      ASSERT_TRUE(possible.ok());
      // Certain ∧ consistent ⇒ possible (certainty is vacuous otherwise).
      if (certain->certain && consistency->certain) {
        EXPECT_TRUE(possible->certain);
      }
    }
  }
}

TEST_P(SeededProperty, CertainAnswersAreMonotoneInTheQuery) {
  SignedAlphabet alphabet;
  alphabet.AddRelation("p");
  RandomRegexOptions options;
  options.relation_names = {"p"};
  options.target_size = 3;
  options.inverse_probability = 0.3;
  Nfa small = MustCompileRegex(RandomRegex(rng_, options), alphabet);
  Nfa big = UnionNfa(small, MustCompileRegex(RandomRegex(rng_, options),
                                             alphabet));
  AnsweringInstance instance;
  instance.num_objects = 2;
  View view;
  view.definition = MustCompileRegex(RandomRegex(rng_, options), alphabet);
  view.extension = {{0, 1}};
  view.assumption = ViewAssumption::kSound;
  instance.views.push_back(std::move(view));

  for (int c = 0; c < 2; ++c) {
    for (int d = 0; d < 2; ++d) {
      instance.query = small;
      StatusOr<CdaResult> with_small = CertainAnswerCda(instance, c, d);
      instance.query = big;
      StatusOr<CdaResult> with_big = CertainAnswerCda(instance, c, d);
      ASSERT_TRUE(with_small.ok());
      ASSERT_TRUE(with_big.ok());
      if (with_small->certain) {
        EXPECT_TRUE(with_big->certain);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty, testing::Range(1, 21));

}  // namespace
}  // namespace rpqi
