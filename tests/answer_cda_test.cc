#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "answer/cda.h"
#include "answer/views.h"
#include "graphdb/eval.h"
#include "regex/parser.h"
#include "rpq/alphabet.h"
#include "rpq/compile.h"
#include "workload/regex_gen.h"

namespace rpqi {
namespace {

struct Builder {
  SignedAlphabet alphabet;
  AnsweringInstance instance;

  explicit Builder(int num_objects, const std::string& query_text,
                   const std::vector<std::string>& relations = {"p"}) {
    for (const std::string& r : relations) alphabet.AddRelation(r);
    instance.num_objects = num_objects;
    instance.query = MustCompileRegex(MustParseRegex(query_text), alphabet);
  }

  void AddView(const std::string& definition_text,
               std::vector<std::pair<int, int>> extension,
               ViewAssumption assumption) {
    View view;
    view.definition =
        MustCompileRegex(MustParseRegex(definition_text), alphabet);
    view.extension = std::move(extension);
    view.assumption = assumption;
    instance.views.push_back(std::move(view));
  }
};

bool Certain(const AnsweringInstance& instance, int c, int d) {
  StatusOr<CdaResult> result = CertainAnswerCda(instance, c, d);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->certain;
}

bool Possible(const AnsweringInstance& instance, int c, int d) {
  StatusOr<CdaResult> result = PossibleAnswerCda(instance, c, d);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->certain;
}

TEST(CdaTest, SoundSingleEdgeViewsForceAnswers) {
  Builder b(3, "p p");
  b.AddView("p", {{0, 1}, {1, 2}}, ViewAssumption::kSound);
  // Every consistent database contains the edges 0→1 and 1→2.
  EXPECT_TRUE(Certain(b.instance, 0, 2));
  EXPECT_FALSE(Certain(b.instance, 0, 1));
  EXPECT_FALSE(Certain(b.instance, 2, 0));
}

TEST(CdaTest, SoundViewsNeverForceAbsence) {
  Builder b(2, "p");
  b.AddView("p", {{0, 1}}, ViewAssumption::kSound);
  EXPECT_TRUE(Certain(b.instance, 0, 1));
  // (1,0) holds in some consistent databases but not all.
  EXPECT_FALSE(Certain(b.instance, 1, 0));
  EXPECT_TRUE(Possible(b.instance, 1, 0));
}

TEST(CdaTest, ExactViewPinsTheRelation) {
  Builder b(3, "p");
  b.AddView("p", {{0, 1}}, ViewAssumption::kExact);
  // def(V) = p and the view is exact, so the p-edges are exactly {0→1}.
  EXPECT_TRUE(Certain(b.instance, 0, 1));
  EXPECT_FALSE(Certain(b.instance, 1, 2));
  EXPECT_FALSE(Possible(b.instance, 1, 2));
}

TEST(CdaTest, ExactViewWithInverseQuery) {
  Builder b(2, "p p^-");
  b.AddView("p", {{0, 1}}, ViewAssumption::kExact);
  EXPECT_TRUE(Certain(b.instance, 0, 0));
  EXPECT_FALSE(Certain(b.instance, 0, 1));
}

TEST(CdaTest, CompleteViewAllowsEmptyDatabase) {
  Builder b(2, "p");
  b.AddView("p", {{0, 1}}, ViewAssumption::kComplete);
  EXPECT_FALSE(Certain(b.instance, 0, 1));
  EXPECT_TRUE(Possible(b.instance, 0, 1));
  EXPECT_FALSE(Possible(b.instance, 1, 0));
}

TEST(CdaTest, InconsistentViewsMakeEverythingCertain) {
  Builder b(2, "p");
  // ans(p) = {(0,1)} and ans(p) = {} cannot both hold.
  b.AddView("p", {{0, 1}}, ViewAssumption::kExact);
  b.AddView("p", {}, ViewAssumption::kExact);
  EXPECT_TRUE(Certain(b.instance, 1, 0));
  EXPECT_FALSE(Possible(b.instance, 0, 1));
}

TEST(CdaTest, ClosedDomainRoutesPathsThroughNamedObjects) {
  // Sound view: a p p path from 0 to 1. Under CDA the midpoint must be one
  // of the two objects, and either choice creates a p-edge leaving 0 and a
  // p-edge entering 1… but which single p-edge is certain? None — yet the
  // query p p itself is certain by the view, and p p p p is certain too
  // (any midpoint choice yields a cycle-free or cyclic route of length ≥ 2
  // from 0 — e.g. midpoint 0 gives 0→0→1, so 0→0→0→1 works; midpoint 1
  // gives 0→1→1, so 0→1→1→1 works).
  Builder b(2, "p p p");
  b.AddView("p p", {{0, 1}}, ViewAssumption::kSound);
  EXPECT_TRUE(Certain(b.instance, 0, 1));

  Builder direct(2, "p p");
  direct.AddView("p p", {{0, 1}}, ViewAssumption::kSound);
  EXPECT_TRUE(Certain(direct.instance, 0, 1));
}

TEST(CdaTest, ClosedDomainCertainButOpenWouldNot) {
  // The CDA-only consequence: a p p path from 0 to 1 with both objects in
  // D_V = {0,1} forces SOME p-edge 0→x with x ∈ {0,1} and some p-edge y→1;
  // in both midpoint cases the edge 0→1… no: midpoint 0 means edges 0→0 and
  // 0→1; midpoint 1 means edges 0→1 and 1→1. Either way 0→1 is present!
  Builder b(2, "p");
  b.AddView("p p", {{0, 1}}, ViewAssumption::kSound);
  EXPECT_TRUE(Certain(b.instance, 0, 1));
}

/// A random instance over `relations` with 1–2 views of random assumptions.
AnsweringInstance RandomInstance(std::mt19937_64& rng,
                                 const std::vector<std::string>& relations,
                                 int num_objects) {
  RandomRegexOptions regex_options;
  regex_options.relation_names = relations;
  regex_options.target_size = 4;
  regex_options.inverse_probability = 0.3;
  SignedAlphabet alphabet;
  for (const std::string& relation : relations) alphabet.AddRelation(relation);

  AnsweringInstance instance;
  instance.num_objects = num_objects;
  instance.query = MustCompileRegex(RandomRegex(rng, regex_options), alphabet);
  int num_views = 1 + static_cast<int>(rng() % 2);
  for (int v = 0; v < num_views; ++v) {
    View view;
    RandomRegexOptions view_options = regex_options;
    view_options.target_size = 2;
    view.definition =
        MustCompileRegex(RandomRegex(rng, view_options), alphabet);
    int num_pairs = static_cast<int>(rng() % 3);
    for (int i = 0; i < num_pairs; ++i) {
      view.extension.push_back({static_cast<int>(rng() % num_objects),
                                static_cast<int>(rng() % num_objects)});
    }
    switch (rng() % 3) {
      case 0: view.assumption = ViewAssumption::kSound; break;
      case 1: view.assumption = ViewAssumption::kComplete; break;
      default: view.assumption = ViewAssumption::kExact; break;
    }
    instance.views.push_back(std::move(view));
  }
  return instance;
}

/// Is `db` consistent with every view of `instance`? Evaluated on the
/// GraphDb eval kernel, independently of the solver's masks.
bool ConsistentOnGraphDb(const AnsweringInstance& instance,
                         const GraphDb& db) {
  for (const View& view : instance.views) {
    std::vector<std::pair<int, int>> listed =
        EvalRpqiAllPairs(db, CompileEvalPlan(view.definition));
    std::set<std::pair<int, int>> answers(listed.begin(), listed.end());
    std::set<std::pair<int, int>> extension(view.extension.begin(),
                                            view.extension.end());
    bool sound = std::includes(answers.begin(), answers.end(),
                               extension.begin(), extension.end());
    bool complete = std::includes(extension.begin(), extension.end(),
                                  answers.begin(), answers.end());
    switch (view.assumption) {
      case ViewAssumption::kSound:
        if (!sound) return false;
        break;
      case ViewAssumption::kComplete:
        if (!complete) return false;
        break;
      case ViewAssumption::kExact:
        if (!sound || !complete) return false;
        break;
    }
  }
  return true;
}

/// Checks a probe's witness on the GraphDb kernel: its nodes are the
/// objects, it is consistent with the views, and it answers (c,d) exactly
/// when the probe wants the pair (a possible answer's witness) rather than
/// refutes it (a certain answer's counterexample).
void ExpectValidWitness(const AnsweringInstance& instance, int c, int d,
                        const GraphDb& witness, bool want_query_pair) {
  EXPECT_EQ(witness.NumNodes(), instance.num_objects);
  EXPECT_TRUE(ConsistentOnGraphDb(instance, witness));
  EXPECT_EQ(EvalRpqiPair(witness, CompileEvalPlan(instance.query), c, d),
            want_query_pair);
}

TEST(CdaTest, AgreesWithBruteForceOnRandomInstances) {
  std::mt19937_64 rng(79);
  for (int trial = 0; trial < 40; ++trial) {
    // One relation at 2..3 objects, or two at 2 objects: at most 9 or 8
    // candidate edges keep the brute force at a few hundred databases.
    const bool two_relations = trial % 2 == 1;
    AnsweringInstance instance =
        two_relations
            ? RandomInstance(rng, {"p", "q"}, 2)
            : RandomInstance(rng, {"p"}, 2 + static_cast<int>(rng() % 2));
    for (int c = 0; c < instance.num_objects; ++c) {
      for (int d = 0; d < instance.num_objects; ++d) {
        SCOPED_TRACE("trial " + std::to_string(trial) + " pair (" +
                     std::to_string(c) + "," + std::to_string(d) + ")");
        StatusOr<CdaResult> certain = CertainAnswerCda(instance, c, d);
        ASSERT_TRUE(certain.ok());
        EXPECT_EQ(certain->certain, CertainAnswerCdaBruteForce(instance, c, d));
        EXPECT_EQ(certain->witness.has_value(), !certain->certain);
        if (certain->witness.has_value()) {
          ExpectValidWitness(instance, c, d, *certain->witness,
                             /*want_query_pair=*/false);
        }
        StatusOr<CdaResult> possible = PossibleAnswerCda(instance, c, d);
        ASSERT_TRUE(possible.ok());
        EXPECT_EQ(possible->certain,
                  PossibleAnswerCdaBruteForce(instance, c, d));
        EXPECT_EQ(possible->witness.has_value(), possible->certain);
        if (possible->witness.has_value()) {
          ExpectValidWitness(instance, c, d, *possible->witness,
                             /*want_query_pair=*/true);
        }
      }
    }
  }
}

/// Same nodes (by name) and the same out-span for every (node, relation).
bool SameDatabase(const GraphDb& a, const GraphDb& b) {
  if (a.NumNodes() != b.NumNodes()) return false;
  const int num_relations =
      std::max(a.label_csr().num_relations, b.label_csr().num_relations);
  for (int node = 0; node < a.NumNodes(); ++node) {
    if (a.NodeName(node) != b.NodeName(node)) return false;
    for (int r = 0; r < num_relations; ++r) {
      if (!std::ranges::equal(a.OutTargets(node, r), b.OutTargets(node, r))) {
        return false;
      }
    }
  }
  return true;
}

void ExpectSameResult(const CdaResult& reused, const CdaResult& fresh) {
  EXPECT_EQ(reused.certain, fresh.certain);
  EXPECT_EQ(reused.nodes_visited, fresh.nodes_visited);
  ASSERT_EQ(reused.witness.has_value(), fresh.witness.has_value());
  if (reused.witness.has_value()) {
    EXPECT_TRUE(SameDatabase(*reused.witness, *fresh.witness));
  }
}

// A solver serves a whole request: probing every pair, certain and possible
// probes interleaved, must leave no trace of one probe in the next.
TEST(CdaSolverTest, OneSolverMatchesAFreshSolverPerPair) {
  std::mt19937_64 rng(97);
  for (int trial = 0; trial < 20; ++trial) {
    AnsweringInstance instance =
        trial % 2 == 1
            ? RandomInstance(rng, {"p", "q"}, 2 + static_cast<int>(rng() % 2))
            : RandomInstance(rng, {"p"}, 2 + static_cast<int>(rng() % 3));
    CdaSolver solver(instance);
    for (int c = 0; c < instance.num_objects; ++c) {
      for (int d = 0; d < instance.num_objects; ++d) {
        SCOPED_TRACE("trial " + std::to_string(trial) + " pair (" +
                     std::to_string(c) + "," + std::to_string(d) + ")");
        StatusOr<CdaResult> certain = solver.CertainAnswer(c, d);
        StatusOr<CdaResult> fresh_certain = CertainAnswerCda(instance, c, d);
        ASSERT_TRUE(certain.ok() && fresh_certain.ok());
        ExpectSameResult(*certain, *fresh_certain);
        StatusOr<CdaResult> possible = solver.PossibleAnswer(c, d);
        StatusOr<CdaResult> fresh_possible = PossibleAnswerCda(instance, c, d);
        ASSERT_TRUE(possible.ok() && fresh_possible.ok());
        ExpectSameResult(*possible, *fresh_possible);
      }
    }
  }
}

// `max_nodes` bounds each probe, not the solver's lifetime.
TEST(CdaSolverTest, NodeBudgetIsPerProbe) {
  Builder b(4, "p p p");
  b.AddView("p", {{0, 1}, {1, 2}, {2, 3}}, ViewAssumption::kSound);
  StatusOr<CdaResult> first = CertainAnswerCda(b.instance, 0, 3);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->certain);

  CdaOptions exact_fit;
  exact_fit.max_nodes = first->nodes_visited;
  CdaSolver solver(b.instance, exact_fit);
  for (int round = 0; round < 3; ++round) {
    StatusOr<CdaResult> again = solver.CertainAnswer(0, 3);
    ASSERT_TRUE(again.ok()) << "round " << round;
    EXPECT_EQ(again->nodes_visited, first->nodes_visited);
  }

  CdaOptions one_short;
  one_short.max_nodes = first->nodes_visited - 1;
  StatusOr<CdaResult> exhausted =
      CdaSolver(b.instance, one_short).CertainAnswer(0, 3);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), Status::Code::kResourceExhausted);
}

TEST(CdaTest, CounterexampleIsConsistentAndExcludesPair) {
  Builder b(3, "p p", {"p", "q"});
  b.AddView("p", {{0, 1}}, ViewAssumption::kSound);
  b.AddView("q", {{1, 2}}, ViewAssumption::kSound);
  StatusOr<CdaResult> result = CertainAnswerCda(b.instance, 0, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->certain);
  ASSERT_TRUE(result->witness.has_value());
  // The witness contains the forced edges but no p-path 0→2.
  EXPECT_TRUE(result->witness->HasEdge(0, 0, 1));
  EXPECT_TRUE(result->witness->HasEdge(1, 1, 2));
}

TEST(CdaTest, NormalizeCompleteViewsPreservesAnswers) {
  std::mt19937_64 rng(83);
  SignedAlphabet alphabet;
  alphabet.AddRelation("p");
  RandomRegexOptions regex_options;
  regex_options.relation_names = {"p"};
  regex_options.target_size = 3;
  regex_options.inverse_probability = 0.25;
  for (int trial = 0; trial < 10; ++trial) {
    AnsweringInstance instance;
    instance.num_objects = 2;
    instance.query =
        MustCompileRegex(RandomRegex(rng, regex_options), alphabet);
    View view;
    view.definition =
        MustCompileRegex(RandomRegex(rng, regex_options), alphabet);
    if (rng() % 2) view.extension.push_back({0, 1});
    view.assumption = ViewAssumption::kComplete;
    instance.views.push_back(std::move(view));

    AnsweringInstance normalized = NormalizeCompleteViews(instance);
    ASSERT_EQ(normalized.views[0].assumption, ViewAssumption::kExact);
    for (int c = 0; c < 2; ++c) {
      for (int d = 0; d < 2; ++d) {
        StatusOr<CdaResult> original = CertainAnswerCda(instance, c, d);
        StatusOr<CdaResult> converted = CertainAnswerCda(normalized, c, d);
        ASSERT_TRUE(original.ok());
        ASSERT_TRUE(converted.ok());
        EXPECT_EQ(original->certain, converted->certain) << "trial " << trial;
      }
    }
  }
}

}  // namespace
}  // namespace rpqi
