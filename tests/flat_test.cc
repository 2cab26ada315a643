// Flat compiled-plan automata (automata/flat.h, DESIGN.md §16): CompileFlat
// structure, the RPQIPLAN1 wire format (round-trip, corrupt-every-byte
// rejection, version/magic skew), ValidateFlatNfa as the deserialization
// admission gate, and the differential guarantee the eval rewire rests on —
// flat-plan evaluation is bit-identical to a direct Nfa product BFS — plus
// the eval kernel's contracts: a reused EvalScratch evaluates exactly like a
// fresh one, and callers compile each plan once.
#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "analysis/validate.h"
#include "answer/cda.h"
#include "answer/oda.h"
#include "answer/views.h"
#include "automata/flat.h"
#include "automata/nfa.h"
#include "automata/ops.h"
#include "automata/random.h"
#include "base/budget.h"
#include "crpq/crpq.h"
#include "graphdb/eval.h"
#include "graphdb/graph.h"
#include "graphdb/views.h"
#include "obs/metrics.h"
#include "rpq/alphabet.h"
#include "rpq/compile.h"
#include "workload/graph_gen.h"

namespace rpqi {
namespace {

/// Independent reference: product BFS straight over the Nfa's per-state
/// transition vectors (ε removed up front), scanning the (from, relation, to)
/// list the graph is built from rather than its label index. The fuzz tests
/// below hold the kernel — FlatNfa spans against CSR spans — to
/// byte-for-byte agreement with it.
std::vector<std::pair<int, int>> ReferenceAllPairs(const GraphBuilder& graph,
                                                   const Nfa& input) {
  const Nfa nfa =
      input.HasEpsilonTransitions() ? RemoveEpsilon(input) : input;
  const int num_states = nfa.NumStates();
  const int num_nodes = graph.NumNodes();
  std::vector<std::pair<int, int>> answer;
  for (int start = 0; start < num_nodes; ++start) {
    std::vector<char> visited(static_cast<size_t>(num_nodes) * num_states, 0);
    std::vector<std::pair<int, int>> stack;
    auto visit = [&](int state, int node) {
      size_t index = static_cast<size_t>(node) * num_states + state;
      if (!visited[index]) {
        visited[index] = 1;
        stack.push_back({state, node});
      }
    };
    for (int s = 0; s < num_states; ++s) {
      if (nfa.IsInitial(s)) visit(s, start);
    }
    while (!stack.empty()) {
      auto [state, node] = stack.back();
      stack.pop_back();
      for (const Nfa::Transition& t : nfa.TransitionsFrom(state)) {
        int relation = SignedAlphabet::RelationOfSymbol(t.symbol);
        bool inverse = SignedAlphabet::IsInverseSymbol(t.symbol);
        for (const GraphBuilder::Edge& e : graph.edges()) {
          if (e.relation != relation) continue;
          if (!inverse && e.from == node) visit(t.to, e.to);
          if (inverse && e.to == node) visit(t.to, e.from);
        }
      }
    }
    for (int node = 0; node < num_nodes; ++node) {
      for (int s = 0; s < num_states; ++s) {
        if (nfa.IsAccepting(s) &&
            visited[static_cast<size_t>(node) * num_states + s]) {
          answer.push_back({start, node});
          break;
        }
      }
    }
  }
  std::sort(answer.begin(), answer.end());
  return answer;
}

TEST(FlatNfaTest, CompileSortsDeduplicatesAndIndexes) {
  Nfa nfa(3);
  int a = nfa.AddState(), b = nfa.AddState(), c = nfa.AddState();
  nfa.SetInitial(a);
  nfa.SetAccepting(c);
  // Deliberately unsorted with a duplicate.
  nfa.AddTransition(a, 2, c);
  nfa.AddTransition(a, 0, b);
  nfa.AddTransition(a, 2, b);
  nfa.AddTransition(a, 0, b);  // duplicate
  nfa.AddTransition(b, 1, c);

  FlatNfa flat = CompileFlat(nfa);
  EXPECT_EQ(flat.NumStates(), 3);
  EXPECT_EQ(flat.num_symbols(), 3);
  EXPECT_EQ(flat.NumEdges(), 4);  // duplicate collapsed
  ASSERT_EQ(flat.Edges(a).size(), 3u);
  EXPECT_TRUE(std::is_sorted(flat.Edges(a).begin(), flat.Edges(a).end()));
  EXPECT_EQ(flat.Edges(c).size(), 0u);

  // Spans are ordered by (symbol, target).
  EXPECT_EQ(flat.Edges(a)[0], (FlatNfa::Edge{0, b}));
  EXPECT_EQ(flat.Edges(a)[1], (FlatNfa::Edge{2, b}));
  EXPECT_EQ(flat.Edges(a)[2], (FlatNfa::Edge{2, c}));
  ASSERT_EQ(flat.Edges(b).size(), 1u);
  EXPECT_EQ(flat.Edges(b)[0], (FlatNfa::Edge{1, c}));

  ASSERT_EQ(flat.InitialStates().size(), 1u);
  EXPECT_EQ(flat.InitialStates()[0], a);
  EXPECT_TRUE(flat.IsInitial(a));
  EXPECT_FALSE(flat.IsInitial(b));
  EXPECT_TRUE(flat.IsAccepting(c));
  EXPECT_FALSE(flat.IsAccepting(a));
}

TEST(FlatNfaTest, CompilePreAppliesEpsilonClosure) {
  Nfa nfa(2);
  int a = nfa.AddState(), b = nfa.AddState(), c = nfa.AddState();
  nfa.SetInitial(a);
  nfa.SetAccepting(c);
  nfa.AddTransition(a, kEpsilon, b);
  nfa.AddTransition(b, 1, c);

  FlatNfa flat = CompileFlat(nfa);
  // No ε edges survive, and a's span reaches c through the folded closure.
  for (int s = 0; s < flat.NumStates(); ++s) {
    for (const FlatNfa::Edge& e : flat.Edges(s)) EXPECT_GE(e.symbol, 0);
  }
  bool a_reaches_c_on_1 = false;
  for (const FlatNfa::Edge& e : flat.Edges(0)) {
    if (e.symbol == 1 && flat.IsAccepting(e.to)) a_reaches_c_on_1 = true;
  }
  EXPECT_TRUE(a_reaches_c_on_1);
}

TEST(FlatNfaTest, SubsetStepAllMatchesAPerSymbolScan) {
  std::mt19937_64 rng(7);
  RandomAutomatonOptions options;
  options.num_states = 9;
  options.num_symbols = 4;
  options.transition_density = 1.5;
  for (int trial = 0; trial < 50; ++trial) {
    Nfa nfa = RandomNfa(rng, options);
    FlatNfa flat = CompileFlat(nfa);
    Bitset subset(nfa.NumStates());
    for (int s = 0; s < nfa.NumStates(); ++s) {
      if (rng() % 2) subset.Set(s);
    }
    std::vector<Bitset> next(flat.num_symbols(), Bitset(flat.NumStates()));
    next[0].Set(0);  // stale scratch must be cleared
    SubsetStepAll(flat, subset.words(), &next);
    for (int a = 0; a < nfa.num_symbols(); ++a) {
      Bitset expected(nfa.NumStates());
      for (int s = subset.NextSetBit(0); s >= 0; s = subset.NextSetBit(s + 1)) {
        for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
          if (t.symbol == a) expected.Set(t.to);
        }
      }
      EXPECT_EQ(next[a], expected) << "trial " << trial << " symbol " << a;
    }
    bool accepts = false;
    for (int s = subset.NextSetBit(0); s >= 0; s = subset.NextSetBit(s + 1)) {
      accepts = accepts || nfa.IsAccepting(s);
    }
    EXPECT_EQ(SubsetAccepts(flat, subset.words()), accepts);
  }
}

TEST(FlatNfaTest, EmptyAutomatonCompiles) {
  Nfa nfa(2);
  FlatNfa flat = CompileFlat(nfa);
  EXPECT_EQ(flat.NumStates(), 0);
  EXPECT_EQ(flat.NumEdges(), 0);
  EXPECT_EQ(flat.InitialStates().size(), 0u);
  EXPECT_FALSE(flat.HasAcceptingState());
  EXPECT_TRUE(ValidateFlatNfa(flat).ok());
}

TEST(FlatNfaTest, CompiledPlansAlwaysValidate) {
  std::mt19937_64 rng(401);
  RandomAutomatonOptions options;
  for (int round = 0; round < 50; ++round) {
    options.num_states = 1 + static_cast<int>(rng() % 12);
    options.num_symbols = 1 + static_cast<int>(rng() % 6);
    options.transition_density = 0.2 + (rng() % 20) / 10.0;
    Nfa nfa = RandomNfa(rng, options);
    // Half the rounds get extra ε transitions so both CompileFlat branches
    // (with and without RemoveEpsilon) are exercised.
    if (round % 2 == 0 && nfa.NumStates() >= 2) {
      for (int i = 0; i < 3; ++i) {
        nfa.AddTransition(
            static_cast<int>(rng() % nfa.NumStates()), kEpsilon,
            static_cast<int>(rng() % nfa.NumStates()));
      }
    }
    FlatNfa flat = CompileFlat(nfa);
    EXPECT_TRUE(ValidateFlatNfa(flat).ok()) << "round " << round;
    EXPECT_TRUE(ValidateFlatNfa(flat, flat.num_symbols()).ok());
    EXPECT_FALSE(ValidateFlatNfa(flat, flat.num_symbols() + 1).ok());
  }
}

// The differential fuzz the eval kernel rests on: flat-plan evaluation over
// the built label index must agree bit-for-bit with the direct-Nfa reference
// over the builder's edge list.
TEST(FlatEvalDifferentialTest, FlatMatchesNfaReferenceOnRandomInputs) {
  std::mt19937_64 rng(977);
  for (int round = 0; round < 40; ++round) {
    RandomGraphOptions graph_options;
    graph_options.num_nodes = 2 + static_cast<int>(rng() % 14);
    graph_options.num_relations = 1 + static_cast<int>(rng() % 3);
    graph_options.average_out_degree = 0.5 + (rng() % 30) / 10.0;
    GraphBuilder builder = RandomGraph(rng, graph_options);

    RandomAutomatonOptions nfa_options;
    nfa_options.num_states = 1 + static_cast<int>(rng() % 8);
    // Signed alphabet: two symbols (forward/inverse) per relation.
    nfa_options.num_symbols = 2 * graph_options.num_relations;
    nfa_options.transition_density = 0.3 + (rng() % 15) / 10.0;
    Nfa query = RandomNfa(rng, nfa_options);
    if (round % 3 == 0 && query.NumStates() >= 2) {
      query.AddTransition(0, kEpsilon, query.NumStates() - 1);
    }

    std::vector<std::pair<int, int>> expected =
        ReferenceAllPairs(builder, query);
    const FlatNfa plan = CompileFlat(query);
    const GraphDb db = std::move(builder).Build();
    StatusOr<std::vector<std::pair<int, int>>> got =
        EvalRpqiAllPairsWithBudget(db, plan, nullptr);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, expected) << "round " << round;

    // And the unbudgeted form agrees.
    EXPECT_EQ(EvalRpqiAllPairs(db, CompileEvalPlan(query)), expected);
  }
}

// A decoded plan evaluates identically to the plan that was encoded: the
// serialize → deserialize → eval loop (the persistent plan cache's warm
// path) introduces no drift.
TEST(FlatEvalDifferentialTest, DecodedPlanEvaluatesIdentically) {
  std::mt19937_64 rng(31337);
  for (int round = 0; round < 20; ++round) {
    RandomGraphOptions graph_options;
    graph_options.num_nodes = 2 + static_cast<int>(rng() % 10);
    graph_options.num_relations = 1 + static_cast<int>(rng() % 2);
    GraphDb db = RandomGraph(rng, graph_options).Build();
    RandomAutomatonOptions nfa_options;
    nfa_options.num_states = 1 + static_cast<int>(rng() % 6);
    nfa_options.num_symbols = 2 * graph_options.num_relations;
    Nfa query = RandomNfa(rng, nfa_options);

    FlatPlan plan;
    plan.nfa = CompileFlat(query);
    plan.tag = "round-" + std::to_string(round);
    StatusOr<FlatPlan> decoded = DecodeFlatPlan(EncodeFlatPlan(plan), "test");
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded->tag, plan.tag);

    StatusOr<std::vector<std::pair<int, int>>> before =
        EvalRpqiAllPairsWithBudget(db, plan.nfa, nullptr);
    StatusOr<std::vector<std::pair<int, int>>> after =
        EvalRpqiAllPairsWithBudget(db, decoded->nfa, nullptr);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*before, *after) << "round " << round;
  }
}

// Pins the satellite bugfix: per-query setup (ε-closure + flat compile) runs
// once per query, never once per source node. The counter is the tripwire —
// if the all-pairs sweep ever regresses to compiling inside the per-source
// loop, the delta scales with the node count and this fails.
TEST(FlatEvalDifferentialTest, AllPairsCompilesOncePerQuery) {
  std::mt19937_64 rng(55);
  RandomAutomatonOptions nfa_options;
  nfa_options.num_states = 5;
  nfa_options.num_symbols = 2;
  Nfa query = RandomNfa(rng, nfa_options);
  for (int num_nodes : {4, 40}) {
    RandomGraphOptions graph_options;
    graph_options.num_nodes = num_nodes;
    graph_options.num_relations = 1;
    GraphDb db = RandomGraph(rng, graph_options).Build();
    obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
    StatusOr<std::vector<std::pair<int, int>>> result =
        EvalRpqiAllPairsWithBudget(db, CompileEvalPlan(query), nullptr);
    ASSERT_TRUE(result.ok());
    obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
    EXPECT_EQ(delta.CounterValue("eval.plan_compiles"), 1)
        << "plan compiles must not scale with the " << num_nodes
        << "-node sweep";
    EXPECT_EQ(delta.CounterValue("eval.bfs_runs"), num_nodes);
  }
}

// Each caller compiles its plans once and holds them, however many
// evaluations it makes. A CDA solver compiles the query and each view on
// construction and evaluates them on its bitmask databases at every search
// node of every probe.
TEST(EvalPlanCompileTest, CdaProbeCompilesQueryAndEachViewOnce) {
  SignedAlphabet alphabet;
  alphabet.AddRelation("p");
  AnsweringInstance instance;
  instance.num_objects = 3;
  instance.query = MustCompileRegex("p p", &alphabet);
  View sound;
  sound.definition = MustCompileRegex("p", &alphabet);
  sound.extension = {{0, 1}, {1, 2}};
  sound.assumption = ViewAssumption::kSound;
  View exact;
  exact.definition = MustCompileRegex("p p", &alphabet);
  exact.extension = {{0, 2}};
  exact.assumption = ViewAssumption::kExact;
  instance.views = {sound, exact};
  const int64_t plans = 1 + static_cast<int64_t>(instance.views.size());

  for (bool certain_probe : {true, false}) {
    obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
    StatusOr<CdaResult> result = certain_probe
                                     ? CertainAnswerCda(instance, 0, 2)
                                     : PossibleAnswerCda(instance, 2, 0);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
    EXPECT_EQ(delta.CounterValue("eval.plan_compiles"), plans);
    // The search really evaluates repeatedly, so the invariant is not
    // trivially met by a one-node search. It evaluates on masks, never on
    // the GraphDb kernel.
    EXPECT_GT(delta.CounterValue("cda.evals"), 2 * plans);
    EXPECT_EQ(delta.CounterValue("eval.bfs_runs"), 0);
  }

  // One solver probing both pairs compiles once for both.
  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  CdaSolver solver(instance);
  ASSERT_TRUE(solver.CertainAnswer(0, 2).ok());
  ASSERT_TRUE(solver.PossibleAnswer(2, 0).ok());
  obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("eval.plan_compiles"), plans);
  EXPECT_EQ(delta.CounterValue("cda.probes"), 2);
}

TEST(EvalPlanCompileTest, MaterializersCompileEachDefinitionOnce) {
  SignedAlphabet alphabet;
  alphabet.AddRelation("p");
  alphabet.AddRelation("q");
  std::mt19937_64 rng(12);
  RandomGraphOptions graph_options;
  graph_options.num_nodes = 12;
  GraphBuilder builder = RandomGraph(rng, graph_options);
  const GraphDb db = GraphBuilder(builder).Build();

  AnsweringInstance instance;
  instance.num_objects = 2;
  instance.query = MustCompileRegex("p q^-", &alphabet);
  for (const char* text : {"p", "q", "p* q"}) {
    View view;
    view.definition = MustCompileRegex(text, &alphabet);
    view.extension = {};
    view.assumption = ViewAssumption::kSound;
    instance.views.push_back(std::move(view));
  }
  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  (void)VerifyOdaCounterexample(instance, 0, 1, db);
  obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("eval.plan_compiles"), 1 + 3);

  before = obs::TakeMetricsSnapshot();
  std::vector<std::pair<int, int>> extension =
      MaterializeView(db, instance.views[2].definition);
  delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("eval.plan_compiles"), 1);
  EXPECT_EQ(delta.CounterValue("eval.bfs_runs"), db.NumNodes());
  EXPECT_EQ(extension,
            ReferenceAllPairs(builder, instance.views[2].definition));

  ConjunctiveRpqi crpq;
  crpq.num_variables = 3;
  crpq.atoms.push_back({0, MustCompileRegex("p", &alphabet), 1});
  crpq.atoms.push_back({1, MustCompileRegex("q*", &alphabet), 2});
  crpq.distinguished = {0, 2};
  before = obs::TakeMetricsSnapshot();
  (void)EvalCrpq(db, crpq);
  delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("eval.plan_compiles"), 2);
}

/// Answers and eval.configurations of one all-pairs sweep.
struct SweepResult {
  std::vector<std::pair<int, int>> answers;
  int64_t configurations = 0;
};

SweepResult Sweep(const GraphDb& db, const FlatNfa& plan,
                  EvalScratch* scratch) {
  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  StatusOr<std::vector<std::pair<int, int>>> answers =
      EvalRpqiAllPairsWithBudget(db, plan, nullptr, scratch);
  EXPECT_TRUE(answers.ok());
  obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  return {answers.ok() ? *answers : std::vector<std::pair<int, int>>{},
          delta.CounterValue("eval.configurations")};
}

/// Reachable set and eval.configurations of one single-source run.
struct SourceResult {
  Bitset reachable;
  int64_t configurations = 0;
};

SourceResult FromSource(const GraphDb& db, const FlatNfa& plan, int start,
                        EvalScratch* scratch) {
  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  StatusOr<Bitset> reachable =
      EvalRpqiFromWithBudget(db, plan, start, nullptr, scratch);
  EXPECT_TRUE(reachable.ok());
  obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  return {reachable.ok() ? *reachable : Bitset(),
          delta.CounterValue("eval.configurations")};
}

Nfa RandomQuery(std::mt19937_64& rng, int num_states, int num_relations) {
  RandomAutomatonOptions options;
  options.num_states = num_states;
  options.num_symbols = 2 * num_relations;
  options.transition_density = 0.3 + (rng() % 15) / 10.0;
  return RandomNfa(rng, options);
}

// One scratch reused across plans of different state counts on one graph:
// the visited table's row stride changes from run to run.
TEST(EvalScratchTest, ReuseAcrossPlansWithDifferentStateCounts) {
  std::mt19937_64 rng(2024);
  RandomGraphOptions graph_options;
  graph_options.num_nodes = 14;
  graph_options.num_relations = 2;
  graph_options.average_out_degree = 2.0;
  GraphBuilder builder = RandomGraph(rng, graph_options);
  const GraphDb db = GraphBuilder(builder).Build();
  EvalScratch shared;
  for (int num_states : {6, 1, 9, 3, 8, 2, 7}) {
    Nfa query = RandomQuery(rng, num_states, graph_options.num_relations);
    const FlatNfa plan = CompileFlat(query);
    SweepResult reused = Sweep(db, plan, &shared);
    SweepResult fresh = Sweep(db, plan, nullptr);
    EXPECT_EQ(reused.answers, ReferenceAllPairs(builder, query))
        << num_states << " states";
    EXPECT_EQ(reused.answers, fresh.answers) << num_states << " states";
    EXPECT_EQ(reused.configurations, fresh.configurations)
        << num_states << " states";
  }
}

// One scratch reused across graphs that grow and shrink, and across every
// start node of each.
TEST(EvalScratchTest, ReuseAcrossGraphsAndStartNodes) {
  std::mt19937_64 rng(77);
  EvalScratch shared;
  for (int num_nodes : {5, 30, 2, 17, 40, 9}) {
    RandomGraphOptions graph_options;
    graph_options.num_nodes = num_nodes;
    graph_options.num_relations = 2;
    graph_options.average_out_degree = 1.5;
    GraphBuilder builder = RandomGraph(rng, graph_options);
    Nfa query = RandomQuery(rng, 1 + static_cast<int>(rng() % 6),
                            graph_options.num_relations);
    const FlatNfa plan = CompileFlat(query);
    std::vector<std::pair<int, int>> expected =
        ReferenceAllPairs(builder, query);
    const GraphDb db = std::move(builder).Build();
    SweepResult reused = Sweep(db, plan, &shared);
    EXPECT_EQ(reused.answers, expected) << num_nodes << " nodes";
    EXPECT_EQ(reused.configurations, Sweep(db, plan, nullptr).configurations);
    // Single-source runs in a scrambled start order, each followed by a pair
    // query, which leaves its answer marks for the next run to clear.
    for (int i = 0; i < num_nodes; ++i) {
      int start = static_cast<int>((i * 7 + 3) % num_nodes);
      SourceResult got = FromSource(db, plan, start, &shared);
      SourceResult want = FromSource(db, plan, start, nullptr);
      EXPECT_TRUE(got.reachable == want.reachable)
          << num_nodes << " nodes, start " << start;
      EXPECT_EQ(got.configurations, want.configurations)
          << num_nodes << " nodes, start " << start;
      int target = (start + 1) % num_nodes;
      EXPECT_EQ(EvalRpqiPair(db, plan, start, target, &shared),
                want.reachable.Test(target))
          << num_nodes << " nodes, pair " << start << "," << target;
    }
  }
}

// The visited table is re-zeroed only when the 16-bit epoch wraps, once
// per 65,535 runs. The first runs stamp every start's cells; the runs after
// them touch only an isolated node until the epoch has gone round; then the
// first runs repeat under the same epochs. Without the re-zeroing, their
// old stamps would read as "seen".
TEST(EvalScratchTest, ReuseAcrossAnEpochWrap) {
  std::mt19937_64 rng(5);
  RandomGraphOptions graph_options;
  graph_options.num_nodes = 6;
  graph_options.num_relations = 1;
  graph_options.average_out_degree = 2.0;
  GraphBuilder builder = RandomGraph(rng, graph_options);
  const int isolated = builder.AddNode("isolated");
  const GraphDb db = std::move(builder).Build();
  SignedAlphabet alphabet;
  alphabet.AddRelation("r");
  const FlatNfa plan = CompileFlat(MustCompileRegex("(r | r^-)*", &alphabet));
  std::vector<SourceResult> want;
  for (int start = 0; start < db.NumNodes(); ++start) {
    want.push_back(FromSource(db, plan, start, nullptr));
  }
  constexpr int kEpochs = 65535;
  const int n = db.NumNodes();
  EvalScratch shared;
  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  int64_t want_configurations = 0;
  int mismatches = 0;
  for (int run = 0; run < kEpochs + 2 * n; ++run) {
    const int start =
        run < n ? run : (run >= kEpochs ? (run - kEpochs) % n : isolated);
    StatusOr<Bitset> got =
        EvalRpqiFromWithBudget(db, plan, start, nullptr, &shared);
    ASSERT_TRUE(got.ok());
    if (!(*got == want[start].reachable)) ++mismatches;
    want_configurations += want[start].configurations;
  }
  obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(delta.CounterValue("eval.configurations"), want_configurations);
}

// A run that exhausts its budget mid-BFS leaves a half-expanded stack and a
// partly stamped table behind; the next run on the same scratch must not see
// either.
TEST(EvalScratchTest, ReuseAfterABudgetFailureMidBfs) {
  std::mt19937_64 rng(91);
  RandomGraphOptions graph_options;
  graph_options.num_nodes = 20;
  graph_options.num_relations = 2;
  graph_options.average_out_degree = 2.5;
  GraphBuilder builder = RandomGraph(rng, graph_options);
  SignedAlphabet alphabet;
  alphabet.AddRelation("r0");
  alphabet.AddRelation("r1");
  Nfa query = MustCompileRegex("(r0 | r1^- | r1)*", &alphabet);
  const FlatNfa plan = CompileFlat(query);
  const int isolated = builder.AddNode("isolated");
  std::vector<std::pair<int, int>> expected = ReferenceAllPairs(builder, query);
  const GraphDb db = std::move(builder).Build();
  SweepResult fresh = Sweep(db, plan, nullptr);
  ASSERT_EQ(fresh.answers, expected);
  SourceResult alone = FromSource(db, plan, isolated, nullptr);

  // The source that discovers the most configurations; quotas below its
  // count fail at different depths of its BFS.
  int start = 0;
  int64_t most = 0;
  for (int node = 0; node < db.NumNodes(); ++node) {
    SourceResult run = FromSource(db, plan, node, nullptr);
    if (run.configurations > most) {
      start = node;
      most = run.configurations;
    }
  }
  ASSERT_GE(most, 8);

  EvalScratch shared;
  for (int64_t quota : {int64_t{1}, most / 3, 2 * most / 3, most - 1}) {
    Budget tiny;
    tiny.set_max_states(quota);
    StatusOr<Bitset> failed =
        EvalRpqiFromWithBudget(db, plan, start, &tiny, &shared);
    ASSERT_FALSE(failed.ok()) << "quota " << quota;
    EXPECT_EQ(failed.status().code(), Status::Code::kResourceExhausted);

    // A node that reaches nothing: any configuration of the failed run still
    // on the stack would show up here.
    SourceResult after = FromSource(db, plan, isolated, &shared);
    EXPECT_TRUE(after.reachable == alone.reachable) << "after quota " << quota;
    EXPECT_EQ(after.configurations, alone.configurations)
        << "after quota " << quota;

    SweepResult reused = Sweep(db, plan, &shared);
    EXPECT_EQ(reused.answers, expected) << "after quota " << quota;
    EXPECT_EQ(reused.configurations, fresh.configurations)
        << "after quota " << quota;
  }
}

FlatPlan SamplePlan() {
  Nfa nfa(4);
  int a = nfa.AddState(), b = nfa.AddState(), c = nfa.AddState();
  nfa.SetInitial(a);
  nfa.SetAccepting(b);
  nfa.SetAccepting(c);
  nfa.AddTransition(a, 0, b);
  nfa.AddTransition(a, 3, c);
  nfa.AddTransition(b, 1, c);
  nfa.AddTransition(c, 2, a);
  FlatPlan plan;
  plan.nfa = CompileFlat(nfa);
  plan.tag = "eval|0123456789abcdef|(a b)*";
  plan.has_answers = true;
  plan.answers = {{0, 1}, {0, 2}, {2, 2}};
  return plan;
}

TEST(FlatPlanFormatTest, RoundTripPreservesEveryPart) {
  FlatPlan plan = SamplePlan();
  std::string encoded = EncodeFlatPlan(plan);
  EXPECT_TRUE(IsFlatPlan(encoded));
  EXPECT_EQ(static_cast<int64_t>(encoded.size()), EncodedFlatPlanBytes(plan));

  StatusOr<FlatPlan> decoded = DecodeFlatPlan(encoded, "roundtrip");
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->tag, plan.tag);
  EXPECT_TRUE(decoded->has_answers);
  EXPECT_EQ(decoded->answers, plan.answers);
  EXPECT_EQ(decoded->nfa.num_symbols(), plan.nfa.num_symbols());
  EXPECT_EQ(decoded->nfa.offsets(), plan.nfa.offsets());
  EXPECT_EQ(decoded->nfa.edges(), plan.nfa.edges());
  EXPECT_EQ(decoded->nfa.initial_words(), plan.nfa.initial_words());
  EXPECT_EQ(decoded->nfa.accepting_words(), plan.nfa.accepting_words());
  EXPECT_EQ(decoded->nfa.initial_list(), plan.nfa.initial_list());

  // Deterministic bytes: encoding the decoded plan reproduces the file.
  EXPECT_EQ(EncodeFlatPlan(*decoded), encoded);
}

TEST(FlatPlanFormatTest, AnswerlessPlanRoundTrips) {
  FlatPlan plan = SamplePlan();
  plan.has_answers = false;
  plan.answers.clear();
  plan.tag.clear();
  StatusOr<FlatPlan> decoded = DecodeFlatPlan(EncodeFlatPlan(plan), "bare");
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_FALSE(decoded->has_answers);
  EXPECT_TRUE(decoded->answers.empty());
  EXPECT_TRUE(decoded->tag.empty());
}

// The exhaustive corruption sweep the persistent cache's torn/corrupt-file
// guarantee rests on: flipping any single byte of a valid plan file — header,
// payload, or padding — must be rejected (checksum flips surface as a
// stored/computed mismatch; everything else as a checksum or structure
// failure). No flip may decode successfully.
TEST(FlatPlanFormatTest, EveryByteFlipIsRejected) {
  std::string encoded = EncodeFlatPlan(SamplePlan());
  for (size_t at = 0; at < encoded.size(); ++at) {
    std::string corrupt = encoded;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x10);
    StatusOr<FlatPlan> decoded = DecodeFlatPlan(corrupt, "flip");
    EXPECT_FALSE(decoded.ok()) << "flip at byte " << at << " went undetected";
  }
}

TEST(FlatPlanFormatTest, EveryTruncationIsRejected) {
  std::string encoded = EncodeFlatPlan(SamplePlan());
  for (size_t keep = 0; keep < encoded.size(); ++keep) {
    StatusOr<FlatPlan> decoded =
        DecodeFlatPlan(encoded.substr(0, keep), "truncated");
    EXPECT_FALSE(decoded.ok()) << "truncation to " << keep
                               << " bytes went undetected";
  }
}

TEST(FlatPlanFormatTest, ForeignMagicAndVersionAreRejectedWithDiagnostics) {
  std::string encoded = EncodeFlatPlan(SamplePlan());

  std::string wrong_magic = encoded;
  wrong_magic[0] = 'X';
  StatusOr<FlatPlan> bad = DecodeFlatPlan(wrong_magic, "magic");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("magic"), std::string::npos);

  // A future version bump must be refused by this build, with the version
  // named, even though only the version field differs.
  std::string future = encoded;
  future[12] = 2;  // version field follows the 12-byte magic
  bad = DecodeFlatPlan(future, "future");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("version"), std::string::npos);
}

TEST(ValidateFlatNfaTest, RejectsBrokenInvariants) {
  FlatNfa good = SamplePlan().nfa;
  auto rebuild = [&](auto mutate) {
    std::vector<uint32_t> offsets = good.offsets();
    std::vector<FlatNfa::Edge> edges = good.edges();
    std::vector<uint64_t> initial_words = good.initial_words();
    std::vector<uint64_t> accepting_words = good.accepting_words();
    std::vector<int32_t> initial_list = good.initial_list();
    int num_symbols = good.num_symbols();
    mutate(&num_symbols, &offsets, &edges, &initial_words, &accepting_words,
           &initial_list);
    return FlatNfa::FromPartsUnchecked(
        num_symbols, std::move(offsets), std::move(edges),
        std::move(initial_words), std::move(accepting_words),
        std::move(initial_list));
  };
  ASSERT_TRUE(ValidateFlatNfa(good).ok());

  // Non-monotone offsets.
  EXPECT_FALSE(ValidateFlatNfa(rebuild([](int*, auto* offsets, auto*, auto*,
                                          auto*, auto*) {
                 (*offsets)[1] = (*offsets)[2] + 1;
               })).ok());
  // offsets.back() disagrees with the edge count.
  EXPECT_FALSE(ValidateFlatNfa(rebuild([](int*, auto* offsets, auto*, auto*,
                                          auto*, auto*) {
                 offsets->back() += 1;
               })).ok());
  // Out-of-alphabet symbol.
  EXPECT_FALSE(ValidateFlatNfa(rebuild([](int* num_symbols, auto*, auto* edges,
                                          auto*, auto*, auto*) {
                 (*edges)[0].symbol = *num_symbols;
               })).ok());
  // ε is banned in the flat form.
  EXPECT_FALSE(ValidateFlatNfa(rebuild([](int*, auto*, auto* edges, auto*,
                                          auto*, auto*) {
                 (*edges)[0].symbol = -1;
               })).ok());
  // Edge target outside the state space.
  EXPECT_FALSE(ValidateFlatNfa(rebuild([](int*, auto*, auto* edges, auto*,
                                          auto*, auto*) {
                 edges->front().to = 99;
               })).ok());
  // Unsorted span (swap two edges of the same state).
  EXPECT_FALSE(ValidateFlatNfa(rebuild([](int*, auto*, auto* edges, auto*,
                                          auto*, auto*) {
                 std::swap((*edges)[0], (*edges)[1]);
               })).ok());
  // Stray bit beyond the last state in the accepting bitset.
  EXPECT_FALSE(ValidateFlatNfa(rebuild([](int*, auto*, auto*, auto*,
                                          auto* accepting, auto*) {
                 accepting->back() |= uint64_t{1} << 63;
               })).ok());
  // Initial list disagrees with the initial bitset.
  EXPECT_FALSE(ValidateFlatNfa(rebuild([](int*, auto*, auto*, auto*, auto*,
                                          auto* initial_list) {
                 initial_list->push_back(2);
               })).ok());
  // Wrong bitset word count.
  EXPECT_FALSE(ValidateFlatNfa(rebuild([](int*, auto*, auto*,
                                          auto* initial_words, auto*, auto*) {
                 initial_words->push_back(0);
               })).ok());
}

}  // namespace
}  // namespace rpqi
