// End-to-end integration across modules: text database → evaluation → view
// materialization → rewriting → view-based answering → certain answers, with
// the semantic relationships between the pipelines checked on each instance.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "answer/cda.h"
#include "answer/oda.h"
#include "graphdb/eval.h"
#include "graphdb/io.h"
#include "graphdb/views.h"
#include "regex/parser.h"
#include "rewrite/eval.h"
#include "rewrite/exactness.h"
#include "rewrite/rewriter.h"
#include "rpq/compile.h"
#include "workload/scenario.h"

namespace rpqi {
namespace {

TEST(IntegrationTest, TextToRewritingRoundTrip) {
  // Load a database from text, define query and views, rewrite, evaluate the
  // rewriting over materialized views, and compare with direct evaluation.
  SignedAlphabet alphabet;
  StatusOr<GraphDb> db = LoadGraphText(
      "a manages b\n"
      "a manages c\n"
      "b manages d\n"
      "b mentors e\n"
      "c mentors e\n"
      "d mentors a\n",
      &alphabet);
  ASSERT_TRUE(db.ok());

  // "Colleagues under a common manager, transitively mentored":
  Nfa query = MustCompileRegex(
      MustParseRegex("manages^-* manages mentors"), alphabet);
  std::vector<Nfa> views = {
      MustCompileRegex(MustParseRegex("manages"), alphabet),
      MustCompileRegex(MustParseRegex("mentors"), alphabet),
  };
  StatusOr<MaximalRewriting> rewriting = ComputeMaximalRewriting(query, views);
  ASSERT_TRUE(rewriting.ok());
  ASSERT_FALSE(rewriting->empty);
  ASSERT_TRUE(IsExactRewriting(query, views, rewriting->dfa, nullptr).value());

  std::vector<std::vector<std::pair<int, int>>> extensions;
  for (const Nfa& view : views) {
    extensions.push_back(MaterializeView(*db, view));
  }
  EXPECT_EQ(EvaluateRewriting(rewriting->dfa, db->NumNodes(), extensions),
            EvalRpqiAllPairs(*db, CompileEvalPlan(query)));
}

TEST(IntegrationTest, RealDatabaseIsNeverAcounterexampleToCertainAnswers) {
  // Materialize exact extensions from a real database; every certain answer
  // (CDA) must hold in that database, because the database itself is
  // consistent with the views.
  std::mt19937_64 rng(211);
  SoftwareModulesScenario scenario = MakeSoftwareModulesScenario(rng, 4, 1);
  Nfa query = MustCompileRegex(scenario.visibility_query, scenario.alphabet);

  AnsweringInstance instance;
  instance.num_objects = scenario.db.NumNodes();
  instance.query = query;
  for (const RegexPtr& def : scenario.view_definitions) {
    View view;
    view.definition = MustCompileRegex(def, scenario.alphabet);
    view.extension = MaterializeView(scenario.db, view.definition);
    view.assumption = ViewAssumption::kExact;
    instance.views.push_back(std::move(view));
  }

  auto direct = EvalRpqiAllPairs(scenario.db, CompileEvalPlan(query));
  int certain_count = 0;
  for (int c = 0; c < instance.num_objects; ++c) {
    for (int d = 0; d < instance.num_objects; ++d) {
      StatusOr<CdaResult> result = CertainAnswerCda(instance, c, d);
      ASSERT_TRUE(result.ok());
      if (result->certain) {
        ++certain_count;
        EXPECT_TRUE(std::find(direct.begin(), direct.end(),
                              std::make_pair(c, d)) != direct.end())
            << "(" << c << "," << d << ") certain but false in the real DB";
      }
    }
  }
  EXPECT_GT(certain_count, 0);
}

TEST(IntegrationTest, RewritingAnswersAreCertainUnderSoundViews) {
  // The classic connection between the two halves of the paper: evaluating
  // the maximal rewriting over sound view extensions yields only certain
  // answers (each rewriting path witnesses the query in every consistent DB).
  SignedAlphabet alphabet;
  alphabet.AddRelation("p");
  Nfa query = MustCompileRegex(MustParseRegex("p p"), alphabet);
  std::vector<Nfa> views = {MustCompileRegex(MustParseRegex("p"), alphabet)};

  StatusOr<MaximalRewriting> rewriting = ComputeMaximalRewriting(query, views);
  ASSERT_TRUE(rewriting.ok());

  AnsweringInstance instance;
  instance.num_objects = 3;
  instance.query = query;
  View view;
  view.definition = views[0];
  view.extension = {{0, 1}, {1, 2}, {2, 2}};
  view.assumption = ViewAssumption::kSound;
  instance.views.push_back(view);

  auto from_rewriting = EvaluateRewriting(rewriting->dfa, instance.num_objects,
                                          {view.extension});
  EXPECT_FALSE(from_rewriting.empty());
  for (const auto& [c, d] : from_rewriting) {
    StatusOr<CdaResult> cda = CertainAnswerCda(instance, c, d);
    ASSERT_TRUE(cda.ok());
    EXPECT_TRUE(cda->certain) << "(" << c << "," << d << ")";
    StatusOr<OdaResult> oda = CertainAnswerOda(instance, c, d);
    ASSERT_TRUE(oda.ok());
    EXPECT_TRUE(oda->certain) << "(" << c << "," << d << ")";
  }
}

TEST(IntegrationTest, ExactViewsRecoverDatabaseUpToQueryEquivalence) {
  // With exact single-relation views covering every relation, the certain
  // answers of any query coincide with its evaluation on the database the
  // extensions came from (the extensions pin the database exactly, under
  // both domain assumptions for CDA; ODA may add anonymous nodes but exact
  // single-relation views forbid extra edges entirely).
  SignedAlphabet alphabet;
  StatusOr<GraphDb> db = LoadGraphText(
      "x r y\n"
      "y r z\n"
      "z s x\n",
      &alphabet);
  ASSERT_TRUE(db.ok());
  Nfa query = MustCompileRegex(MustParseRegex("r r s"), alphabet);

  AnsweringInstance instance;
  instance.num_objects = db->NumNodes();
  instance.query = query;
  for (int relation = 0; relation < alphabet.NumRelations(); ++relation) {
    View view;
    Nfa single(alphabet.NumSymbols());
    int s0 = single.AddState();
    int s1 = single.AddState();
    single.SetInitial(s0);
    single.SetAccepting(s1);
    single.AddTransition(s0, 2 * relation, s1);
    view.definition = single;
    view.extension = MaterializeView(*db, single);
    view.assumption = ViewAssumption::kExact;
    instance.views.push_back(std::move(view));
  }

  auto direct = EvalRpqiAllPairs(*db, CompileEvalPlan(query));
  for (int c = 0; c < instance.num_objects; ++c) {
    for (int d = 0; d < instance.num_objects; ++d) {
      bool in_direct = std::find(direct.begin(), direct.end(),
                                 std::make_pair(c, d)) != direct.end();
      StatusOr<CdaResult> cda = CertainAnswerCda(instance, c, d);
      ASSERT_TRUE(cda.ok());
      EXPECT_EQ(cda->certain, in_direct) << "(" << c << "," << d << ")";
    }
  }
}

TEST(IntegrationTest, EmptyRewritingStillLeavesAnsweringAvailable) {
  // Views that cannot express the query give an empty rewriting, yet
  // view-based *answering* may still derive certain answers — the two
  // mechanisms are genuinely different (rewriting evaluates over Σ_E words;
  // answering reasons about all consistent databases).
  SignedAlphabet alphabet;
  alphabet.AddRelation("p");
  // Query p; only view is p p (cannot be composed into exactly p).
  Nfa query = MustCompileRegex(MustParseRegex("p"), alphabet);
  std::vector<Nfa> views = {MustCompileRegex(MustParseRegex("p p"), alphabet)};
  StatusOr<MaximalRewriting> rewriting = ComputeMaximalRewriting(query, views);
  ASSERT_TRUE(rewriting.ok());
  EXPECT_TRUE(rewriting->empty);

  // Under CDA with two objects, the p p promise forces the edge 0→1 (the
  // midpoint is 0 or 1, and both cases contain 0→1): answering wins.
  AnsweringInstance instance;
  instance.num_objects = 2;
  instance.query = query;
  View view;
  view.definition = views[0];
  view.extension = {{0, 1}};
  view.assumption = ViewAssumption::kSound;
  instance.views.push_back(view);
  StatusOr<CdaResult> cda = CertainAnswerCda(instance, 0, 1);
  ASSERT_TRUE(cda.ok());
  EXPECT_TRUE(cda->certain);
}

}  // namespace
}  // namespace rpqi
