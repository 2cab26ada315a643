#include <gtest/gtest.h>

#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "answer/cda.h"
#include "answer/linearize.h"
#include "answer/oda.h"
#include "answer/views.h"
#include "automata/ops.h"
#include "automata/random.h"
#include "base/budget.h"
#include "graphdb/eval.h"
#include "obs/metrics.h"
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
  StatusOr<OdaResult> result = CertainAnswerOda(instance, c, d);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->certain;
}

bool Possible(const AnsweringInstance& instance, int c, int d) {
  StatusOr<OdaResult> result = PossibleAnswerOda(instance, c, d);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->certain;
}

// ---------------------------------------------------------------------------
// Linearization plumbing

TEST(LinearizeTest, WordRoundTrip) {
  LinearAlphabet alphabet{/*sigma_symbols=*/4, /*num_objects=*/3};
  std::vector<CanonicalBlock> blocks = {
      {0, {0, 2}, 1},   // obj0 --p--> anon --q--> obj1
      {1, {1}, 2},      // obj2 --p--> obj1 written backwards (p⁻)
      {2, {}, 2},       // mention block
  };
  std::vector<int> word = CanonicalDbToWord(blocks, alphabet);
  StatusOr<GraphDb> db = WordToCanonicalDb(word, alphabet);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->NumNodes(), 4);  // 3 objects + 1 anonymous
  EXPECT_EQ(db->NumEdges(), 3);
  EXPECT_TRUE(db->HasEdge(0, 0, 3));  // obj0 --p--> anon
  EXPECT_TRUE(db->HasEdge(3, 1, 1));  // anon --q--> obj1
  EXPECT_TRUE(db->HasEdge(2, 0, 1));  // obj2 --p--> obj1 (from the p⁻ label)
}

TEST(LinearizeTest, RejectsMalformedWords) {
  LinearAlphabet alphabet{2, 2};
  int dollar = alphabet.DollarSymbol();
  int obj0 = alphabet.ObjectSymbol(0);
  int obj1 = alphabet.ObjectSymbol(1);
  EXPECT_FALSE(WordToCanonicalDb({}, alphabet).ok());
  EXPECT_FALSE(WordToCanonicalDb({obj0}, alphabet).ok());
  EXPECT_FALSE(WordToCanonicalDb({dollar, obj0, obj1, dollar}, alphabet).ok())
      << "empty block may not identify two objects";
  EXPECT_FALSE(WordToCanonicalDb({dollar, obj0, 0}, alphabet).ok());
  EXPECT_TRUE(WordToCanonicalDb({dollar}, alphabet).ok());
  EXPECT_TRUE(
      WordToCanonicalDb({dollar, obj0, 0, obj1, dollar}, alphabet).ok());
}

TEST(LinearizeTest, StructureAutomatonMatchesDecoder) {
  LinearAlphabet alphabet{2, 2};
  Nfa structure = BuildStructureAutomaton(alphabet);
  std::mt19937_64 rng(89);
  int accepted = 0;
  for (int i = 0; i < 400; ++i) {
    std::vector<int> word =
        RandomWord(rng, alphabet.TotalSymbols(), 1 + i % 7);
    bool structurally_ok = Accepts(structure, word);
    bool decodable = WordToCanonicalDb(word, alphabet).ok();
    EXPECT_EQ(structurally_ok, decodable) << "word " << i;
    if (structurally_ok) ++accepted;
  }
  EXPECT_GT(accepted, 0);
}

// ---------------------------------------------------------------------------
// Theorem 14: the linearized evaluation automaton against the graph evaluator

TEST(LinearizedEvalTest, MatchesGraphEvaluationOnRandomCanonicalDbs) {
  std::mt19937_64 rng(97);
  SignedAlphabet sigma;
  sigma.AddRelation("p");
  sigma.AddRelation("q");
  LinearAlphabet alphabet{sigma.NumSymbols(), 3};

  RandomRegexOptions regex_options;
  regex_options.relation_names = {"p", "q"};
  regex_options.target_size = 4;
  regex_options.inverse_probability = 0.35;

  for (int trial = 0; trial < 25; ++trial) {
    // Random canonical database with 2–4 blocks over 3 objects.
    std::vector<CanonicalBlock> blocks;
    // Mention blocks guarantee every object occurs.
    for (int object = 0; object < alphabet.num_objects; ++object) {
      blocks.push_back({object, {}, object});
    }
    int extra = 2 + static_cast<int>(rng() % 3);
    for (int i = 0; i < extra; ++i) {
      CanonicalBlock block;
      block.from = static_cast<int>(rng() % alphabet.num_objects);
      block.to = static_cast<int>(rng() % alphabet.num_objects);
      int len = 1 + static_cast<int>(rng() % 3);
      for (int j = 0; j < len; ++j) {
        block.labels.push_back(
            static_cast<int>(rng() % alphabet.sigma_symbols));
      }
      blocks.push_back(block);
    }
    std::vector<int> word = CanonicalDbToWord(blocks, alphabet);
    GraphDb db = BlocksToDb(blocks, alphabet);

    Nfa definition = MustCompileRegex(RandomRegex(rng, regex_options), sigma);
    for (int a = 0; a < alphabet.num_objects; ++a) {
      for (int b = 0; b < alphabet.num_objects; ++b) {
        LinearEvalSpec spec;
        spec.start = LinearEvalSpec::Start::kAtConstant;
        spec.start_constant = a;
        spec.end = LinearEvalSpec::End::kAtConstant;
        spec.end_constant = b;
        TwoWayNfa automaton =
            BuildLinearizedEvalAutomaton(definition, alphabet, spec);
        EXPECT_EQ(SimulateTwoWay(automaton, word),
                  EvalRpqiPair(db, CompileEvalPlan(definition), a, b))
            << "trial " << trial << " pair (" << a << "," << b << ")";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Certain answers under ODA

TEST(OdaTest, SoundSingleEdgeViewsForceAnswers) {
  Builder b(3, "p p");
  b.AddView("p", {{0, 1}, {1, 2}}, ViewAssumption::kSound);
  EXPECT_TRUE(Certain(b.instance, 0, 2));
  EXPECT_FALSE(Certain(b.instance, 2, 0));
  EXPECT_FALSE(Certain(b.instance, 0, 1));
}

TEST(OdaTest, AnonymousMidpointsBreakCdaOnlyConsequences) {
  // Sound view with def p p and ext {(0,1)}: under CDA the midpoint of the
  // path must be 0 or 1, forcing the edge 0→1 in every consistent database;
  // under ODA the midpoint may be anonymous, so p is NOT certain — the
  // classical CDA/ODA separation.
  Builder cda_and_oda(2, "p");
  cda_and_oda.AddView("p p", {{0, 1}}, ViewAssumption::kSound);

  StatusOr<CdaResult> cda = CertainAnswerCda(cda_and_oda.instance, 0, 1);
  ASSERT_TRUE(cda.ok());
  EXPECT_TRUE(cda->certain);

  StatusOr<OdaResult> oda = CertainAnswerOda(cda_and_oda.instance, 0, 1);
  ASSERT_TRUE(oda.ok());
  EXPECT_FALSE(oda->certain);
  ASSERT_TRUE(oda->counterexample.has_value());
  // The counterexample routes the p p path through an anonymous node.
  EXPECT_TRUE(VerifyOdaCounterexample(cda_and_oda.instance, 0, 1,
                                      *oda->counterexample));
  EXPECT_GT(oda->counterexample->NumNodes(), 2);
}

TEST(OdaTest, QueryStillCertainThroughAnonymousMidpoint) {
  Builder b(2, "p p");
  b.AddView("p p", {{0, 1}}, ViewAssumption::kSound);
  EXPECT_TRUE(Certain(b.instance, 0, 1));
}

TEST(OdaTest, InverseQueryOverSoundViews) {
  Builder b(2, "p^-");
  b.AddView("p", {{0, 1}}, ViewAssumption::kSound);
  EXPECT_TRUE(Certain(b.instance, 1, 0));
  EXPECT_FALSE(Certain(b.instance, 0, 1));
}

TEST(OdaTest, RoundTripQueryIsCertain) {
  Builder b(2, "p p^-");
  b.AddView("p", {{0, 1}}, ViewAssumption::kSound);
  EXPECT_TRUE(Certain(b.instance, 0, 0));
  EXPECT_FALSE(Certain(b.instance, 1, 1));  // no forced edge out of 1
}

TEST(OdaTest, ExactViewPinsTheRelation) {
  Builder b(3, "p");
  b.AddView("p", {{0, 1}}, ViewAssumption::kExact);
  EXPECT_TRUE(Certain(b.instance, 0, 1));
  EXPECT_FALSE(Certain(b.instance, 1, 2));
  EXPECT_FALSE(Possible(b.instance, 1, 2));
  // With the only p-edge pinned to 0→1, p p has no answers at all.
  Builder two(3, "p p");
  two.AddView("p", {{0, 1}}, ViewAssumption::kExact);
  EXPECT_FALSE(Possible(two.instance, 0, 2));
}

TEST(OdaTest, ExactViewForbidsAnonymousWitnesses) {
  // def p, exact ext {(0,1)}: the database may not contain any other p-edge,
  // not even touching anonymous nodes; so a sound view requiring a p p path
  // from 0 is inconsistent and everything becomes certain.
  Builder b(2, "p");
  b.AddView("p", {{0, 1}}, ViewAssumption::kExact);
  b.AddView("p p", {{0, 0}}, ViewAssumption::kSound);
  EXPECT_TRUE(Certain(b.instance, 1, 0));  // vacuously: no consistent DB
  EXPECT_FALSE(Possible(b.instance, 0, 1));
}

TEST(OdaTest, CompleteViewAllowsEmptyDatabase) {
  Builder b(2, "p");
  b.AddView("p", {{0, 1}}, ViewAssumption::kComplete);
  EXPECT_FALSE(Certain(b.instance, 0, 1));
  EXPECT_TRUE(Possible(b.instance, 0, 1));
  EXPECT_FALSE(Possible(b.instance, 1, 0));
}

TEST(OdaTest, EpsilonQueryIsCertainOnDiagonalOnly) {
  Builder b(2, "p*");
  b.AddView("p", {}, ViewAssumption::kSound);
  EXPECT_TRUE(Certain(b.instance, 0, 0));
  EXPECT_TRUE(Certain(b.instance, 1, 1));
  EXPECT_FALSE(Certain(b.instance, 0, 1));
}

TEST(OdaTest, CounterexamplesVerifyIndependently) {
  std::mt19937_64 rng(101);
  SignedAlphabet sigma;
  sigma.AddRelation("p");
  RandomRegexOptions regex_options;
  regex_options.relation_names = {"p"};
  regex_options.target_size = 3;
  regex_options.inverse_probability = 0.3;
  int not_certain_seen = 0;
  for (int trial = 0; trial < 15; ++trial) {
    AnsweringInstance instance;
    instance.num_objects = 2;
    instance.query = MustCompileRegex(RandomRegex(rng, regex_options), sigma);
    View view;
    view.definition = MustCompileRegex(RandomRegex(rng, regex_options), sigma);
    view.extension = {{0, 1}};
    view.assumption =
        (rng() % 2) ? ViewAssumption::kSound : ViewAssumption::kExact;
    instance.views.push_back(std::move(view));

    StatusOr<OdaResult> result = CertainAnswerOda(instance, 0, 1);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (!result->certain) {
      ++not_certain_seen;
      ASSERT_TRUE(result->counterexample.has_value());
      // CertainAnswerOda already verifies every counterexample internally;
      // re-verify here explicitly against the normalized instance.
      EXPECT_TRUE(
          VerifyOdaCounterexample(instance, 0, 1, *result->counterexample));
    }
  }
  EXPECT_GT(not_certain_seen, 0);
}

TEST(OdaTest, CertainImpliesCdaCertain) {
  // Every CDA-consistent database is also ODA-consistent (ODA only enlarges
  // the space of candidate databases), so ODA-certain ⊆ CDA-certain… in fact
  // ODA-certain ⇒ CDA-certain. Cross-check on random sound-view instances.
  std::mt19937_64 rng(103);
  SignedAlphabet sigma;
  sigma.AddRelation("p");
  RandomRegexOptions regex_options;
  regex_options.relation_names = {"p"};
  regex_options.target_size = 3;
  regex_options.inverse_probability = 0.3;
  for (int trial = 0; trial < 12; ++trial) {
    AnsweringInstance instance;
    instance.num_objects = 2;
    instance.query = MustCompileRegex(RandomRegex(rng, regex_options), sigma);
    View view;
    RandomRegexOptions view_options = regex_options;
    view_options.target_size = 2;
    view.definition =
        MustCompileRegex(RandomRegex(rng, view_options), sigma);
    view.extension = {{0, 1}};
    view.assumption = ViewAssumption::kSound;
    instance.views.push_back(std::move(view));

    for (int c = 0; c < 2; ++c) {
      for (int d = 0; d < 2; ++d) {
        StatusOr<OdaResult> oda = CertainAnswerOda(instance, c, d);
        ASSERT_TRUE(oda.ok());
        if (oda->certain) {
          StatusOr<CdaResult> cda = CertainAnswerCda(instance, c, d);
          ASSERT_TRUE(cda.ok());
          EXPECT_TRUE(cda->certain)
              << "trial " << trial << " pair (" << c << "," << d << ")";
        }
      }
    }
  }
}

TEST(OdaSolverTest, RepeatedProbesReportIdenticalCounters) {
  // Regression test for the accounting sweep: the solver amortizes the view
  // context across probes, and a repeated probe must report the same
  // exploration counters every time — earlier probes must not leak carried
  // or cached work into later ones.
  Builder builder(2, "p p p");
  builder.AddView("p p p", {{0, 1}}, ViewAssumption::kExact);
  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  OdaSolver solver(builder.instance);
  StatusOr<OdaResult> first = solver.CertainAnswer(0, 1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  StatusOr<OdaResult> second = solver.CertainAnswer(0, 1);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  StatusOr<OdaResult> third = solver.CertainAnswer(0, 1);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_TRUE(first->certain);
  EXPECT_EQ(first->certain, second->certain);
  EXPECT_EQ(second->certain, third->certain);
  // The first probe may pay one-time context construction, but probes two
  // and three take the identical path and must agree exactly.
  EXPECT_EQ(second->states_explored, third->states_explored);
  EXPECT_EQ(second->states_pruned, third->states_pruned);
  EXPECT_EQ(second->antichain_size, third->antichain_size);
  obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("oda.probes"), 3);
}

TEST(OdaSolverTest, OverflowingQuickSearchStillCountsItsWork) {
  // Regression test: when the bounded phase-1 witness search overflows its
  // state cap and the probe is decided by the exact phase 2, the quick
  // search's explored/pruned counters used to be dropped on the floor. The
  // final accounting must include them: with a cap of kCap, an overflowing
  // probe must report strictly more than kCap explored states even though
  // the phase-2 decision automaton alone is far smaller.
  Builder builder(2, "p p p");
  builder.AddView("p p p", {{0, 1}}, ViewAssumption::kExact);
  constexpr int64_t kCap = 4096;
  OdaOptions options;
  options.max_states = kCap;
  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  StatusOr<OdaResult> result = CertainAnswerOda(builder.instance, 0, 1,
                                                options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->certain);
  obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  ASSERT_EQ(delta.CounterValue("oda.phase1_overflows"), 1)
      << "instance no longer overflows phase 1; pick a harder one";
  EXPECT_GT(result->states_explored, kCap);
}

TEST(OdaSolverTest, ViewContextIsChargedToTheRequestBudget) {
  // With a 4,096-state cap phase 1 overflows, so the probe builds the view
  // context: every materialization and fold on that path is charged to the
  // request budget, like phase 1's queued states. Phase 1 charges its 4,096
  // states and the query's materialization about 9,000 more; the view side
  // materializes over 100,000.
  Builder builder(2, "p p p");
  builder.AddView("p p p", {{0, 1}}, ViewAssumption::kExact);
  OdaOptions options;
  options.max_states = 4096;
  Budget unlimited;
  options.budget = &unlimited;
  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  StatusOr<OdaResult> result =
      CertainAnswerOda(builder.instance, 0, 1, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->certain);
  obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  ASSERT_EQ(delta.CounterValue("oda.phase1_overflows"), 1);
  // Each search and each materialization charges every state past its
  // start.
  EXPECT_EQ(unlimited.states_charged(),
            delta.CounterValue("emptiness.states_queued") -
                delta.CounterValue("emptiness.searches") +
                delta.CounterValue("materialize.states") -
                delta.CounterValue("materialize.runs"));

  // A quota that covers phase 1 and the query but not the view side ends
  // the probe with the budget's own status.
  Budget quota;
  quota.set_max_states(20000);
  options.budget = &quota;
  OdaSolver solver(builder.instance, options);
  StatusOr<OdaResult> over = solver.CertainAnswer(0, 1);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), Status::Code::kResourceExhausted);
  EXPECT_NE(over.status().message().find("state quota of 20000"),
            std::string::npos)
      << over.status().ToString();
  // The budget is sticky, so the solver's next probe fails the same way.
  StatusOr<OdaResult> again = solver.CertainAnswer(0, 1);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), Status::Code::kResourceExhausted);
}

TEST(OdaSolverTest, FoldedPhaseTwoSearchIsChargedToTheRequestBudget) {
  // With a 64-state cap, phase 1 overflows on the possible answer (1,0),
  // and phase 2 folds the view context and the query into one DFA. The
  // emptiness search decides that DFA like any other part list, so its
  // queued states are charged to the request budget as well.
  Builder builder(2, "p");
  builder.AddView("p", {{0, 1}}, ViewAssumption::kSound);
  OdaOptions options;
  options.max_states = 64;
  Budget unlimited;
  options.budget = &unlimited;
  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  StatusOr<OdaResult> result =
      PossibleAnswerOda(builder.instance, 1, 0, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->certain);
  obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  ASSERT_EQ(delta.CounterValue("oda.phase1_overflows"), 1);
  ASSERT_EQ(delta.CounterValue("emptiness.searches"), 2);
  const int64_t materializations = delta.CounterValue("materialize.runs");

  // A quota one state short of the probe's total covers phase 1, every
  // materialization and fold, and all but the last state of the final
  // search, which then ends the probe with the budget's own status.
  const int64_t quota_states = unlimited.states_charged() - 1;
  Budget quota;
  quota.set_max_states(quota_states);
  options.budget = &quota;
  before = obs::TakeMetricsSnapshot();
  StatusOr<OdaResult> over = PossibleAnswerOda(builder.instance, 1, 0, options);
  delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), Status::Code::kResourceExhausted);
  EXPECT_NE(over.status().message().find("state quota of " +
                                         std::to_string(quota_states)),
            std::string::npos)
      << over.status().ToString();
  EXPECT_EQ(delta.CounterValue("materialize.runs"), materializations);
  EXPECT_EQ(delta.CounterValue("emptiness.searches"), 2);
}

TEST(OdaSolverTest, Table1ChainProbesCutDeadParts) {
  // The 2-object rows of Table 1 (bench_table1_data): one view p over the
  // chain 0 -> 1, sound, exact, or sound beside a complete view p p with an
  // empty extension; query p. (0,1) is certain and (1,0) is not. Phase 1
  // decides each probe, dropping successors whose structure, occurrence or
  // positive table part can no longer accept.
  const std::vector<std::pair<ViewAssumption, bool>> rows = {
      {ViewAssumption::kSound, false},
      {ViewAssumption::kExact, false},
      {ViewAssumption::kSound, true}};
  for (const auto& [assumption, with_complete] : rows) {
    Builder builder(2, "p");
    if (with_complete) builder.AddView("p p", {}, ViewAssumption::kComplete);
    builder.AddView("p", {{0, 1}}, assumption);
    for (const auto& [c, d, certain] :
         {std::tuple{0, 1, true}, std::tuple{1, 0, false}}) {
      SCOPED_TRACE(::testing::Message()
                   << "assumption " << static_cast<int>(assumption)
                   << (with_complete ? " + complete" : "") << " pair (" << c
                   << "," << d << ")");
      obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
      StatusOr<OdaResult> result = CertainAnswerOda(builder.instance, c, d);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->certain, certain);
      obs::MetricsSnapshot delta =
          obs::TakeMetricsSnapshot().DeltaSince(before);
      EXPECT_GT(delta.CounterValue("emptiness.dead_cuts"), 0);
      EXPECT_EQ(delta.CounterValue("oda.phase1_overflows"), 0);
    }
  }
}

}  // namespace
}  // namespace rpqi
