#include <gtest/gtest.h>

#include <random>
#include <utility>

#include "crpq/crpq.h"
#include "graphdb/eval.h"
#include "regex/parser.h"
#include "rpq/alphabet.h"
#include "rpq/compile.h"
#include "workload/graph_gen.h"
#include "workload/regex_gen.h"

namespace rpqi {
namespace {

struct Fixture {
  SignedAlphabet alphabet;
  Fixture() {
    alphabet.AddRelation("p");
    alphabet.AddRelation("q");
  }
  Nfa Compile(const std::string& text) {
    return MustCompileRegex(MustParseRegex(text), alphabet);
  }
};

/// Brute-force oracle: enumerate all variable assignments.
std::vector<std::vector<int>> BruteForceEval(const GraphDb& db,
                                             const ConjunctiveRpqi& query) {
  std::vector<std::vector<int>> results;
  std::vector<int> assignment(query.num_variables, 0);
  while (true) {
    bool all_atoms_hold = true;
    for (const CrpqAtom& atom : query.atoms) {
      if (!EvalRpqiPair(db, CompileEvalPlan(atom.automaton),
                        assignment[atom.from_variable],
                        assignment[atom.to_variable])) {
        all_atoms_hold = false;
        break;
      }
    }
    if (all_atoms_hold) {
      std::vector<int> tuple;
      for (int v : query.distinguished) tuple.push_back(assignment[v]);
      results.push_back(tuple);
    }
    // Odometer.
    size_t i = 0;
    while (i < assignment.size() && ++assignment[i] == db.NumNodes()) {
      assignment[i] = 0;
      ++i;
    }
    if (i == assignment.size()) break;
  }
  std::sort(results.begin(), results.end());
  results.erase(std::unique(results.begin(), results.end()), results.end());
  return results;
}

TEST(CrpqTest, SingleAtomReducesToRpqi) {
  Fixture f;
  GraphBuilder builder;
  int x = builder.AddNode("x"), y = builder.AddNode("y"),
      z = builder.AddNode("z");
  builder.AddEdge(x, 0, y);
  builder.AddEdge(y, 1, z);
  GraphDb db = std::move(builder).Build();

  ConjunctiveRpqi query;
  query.num_variables = 2;
  query.atoms = {{0, f.Compile("p q"), 1}};
  query.distinguished = {0, 1};
  auto results = EvalCrpq(db, query);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], (std::vector<int>{x, z}));
}

TEST(CrpqTest, TriangleJoinWithInverse) {
  // q(x, z) ← p(x, y), p(y, z), p⁻*(z, x): a p-path of length 2 that can
  // walk back to its start.
  Fixture f;
  GraphBuilder builder;
  int a = builder.AddNode("a"), b = builder.AddNode("b"),
      c = builder.AddNode("c"), d = builder.AddNode("d");
  builder.AddEdge(a, 0, b);
  builder.AddEdge(b, 0, c);
  builder.AddEdge(b, 0, d);
  GraphDb db = std::move(builder).Build();

  ConjunctiveRpqi query;
  query.num_variables = 3;
  query.atoms = {
      {0, f.Compile("p"), 1},
      {1, f.Compile("p"), 2},
      {2, f.Compile("(p^-)*"), 0},
  };
  query.distinguished = {0, 2};
  auto results = EvalCrpq(db, query);
  EXPECT_EQ(results, BruteForceEval(db, query));
  // (a,c) and (a,d) are the two-step endpoints; p⁻* from them reaches a.
  EXPECT_EQ(results.size(), 2u);
}

TEST(CrpqTest, SharedVariableConstrainsBothAtoms) {
  // q(y) ← p(x, y), q(x, y): y reachable from a common x by both relations.
  Fixture f;
  GraphBuilder builder;
  int n0 = builder.AddNode("n0"), n1 = builder.AddNode("n1"),
      n2 = builder.AddNode("n2");
  builder.AddEdge(n0, 0, n1);  // p
  builder.AddEdge(n0, 1, n1);  // q
  builder.AddEdge(n0, 0, n2);  // p only
  GraphDb db = std::move(builder).Build();
  ConjunctiveRpqi query;
  query.num_variables = 2;
  query.atoms = {{0, f.Compile("p"), 1}, {0, f.Compile("q"), 1}};
  query.distinguished = {1};
  auto results = EvalCrpq(db, query);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0][0], n1);
}

TEST(CrpqTest, SelfLoopAtom) {
  Fixture f;
  GraphBuilder builder;
  int a = builder.AddNode("a"), b = builder.AddNode("b");
  builder.AddEdge(a, 0, a);
  builder.AddEdge(a, 0, b);
  GraphDb db = std::move(builder).Build();
  ConjunctiveRpqi query;
  query.num_variables = 1;
  query.atoms = {{0, f.Compile("p"), 0}};
  query.distinguished = {0};
  auto results = EvalCrpq(db, query);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0][0], a);
}

TEST(CrpqTest, BooleanQueries) {
  Fixture f;
  GraphBuilder builder;
  int a = builder.AddNode("a"), b = builder.AddNode("b");
  builder.AddEdge(a, 0, b);
  GraphDb db = GraphBuilder(builder).Build();
  ConjunctiveRpqi query;
  query.num_variables = 2;
  query.atoms = {{0, f.Compile("p p"), 1}};
  EXPECT_FALSE(CrpqSatisfiable(db, query));
  builder.AddEdge(b, 0, a);
  db = std::move(builder).Build();
  EXPECT_TRUE(CrpqSatisfiable(db, query));
  // Boolean evaluation yields the empty tuple once satisfiable.
  auto results = EvalCrpq(db, query);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].empty());
}

TEST(CrpqTest, MatchesBruteForceOnRandomInstances) {
  std::mt19937_64 rng(401);
  Fixture f;
  RandomRegexOptions regex_options;
  regex_options.relation_names = {"p", "q"};
  regex_options.target_size = 3;
  regex_options.inverse_probability = 0.3;
  for (int trial = 0; trial < 25; ++trial) {
    RandomGraphOptions graph_options;
    graph_options.num_nodes = 4;
    graph_options.num_relations = 2;
    GraphDb db = RandomGraph(rng, graph_options).Build();

    ConjunctiveRpqi query;
    query.num_variables = 2 + static_cast<int>(rng() % 2);
    int num_atoms = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < num_atoms; ++i) {
      CrpqAtom atom;
      atom.from_variable = static_cast<int>(rng() % query.num_variables);
      atom.to_variable = static_cast<int>(rng() % query.num_variables);
      atom.automaton =
          MustCompileRegex(RandomRegex(rng, regex_options), f.alphabet);
      query.atoms.push_back(std::move(atom));
    }
    // Cover all variables with atoms to keep the oracle comparison simple.
    for (int v = 0; v < query.num_variables; ++v) {
      query.distinguished.push_back(v);
    }
    bool covered = true;
    std::vector<bool> seen(query.num_variables, false);
    for (const CrpqAtom& atom : query.atoms) {
      seen[atom.from_variable] = seen[atom.to_variable] = true;
    }
    for (bool s : seen) covered = covered && s;
    if (!covered) continue;

    EXPECT_EQ(EvalCrpq(db, query), BruteForceEval(db, query))
        << "trial " << trial;
  }
}

TEST(CrpqTest, FreeDistinguishedVariablesRangeOverAllNodes) {
  Fixture f;
  GraphBuilder builder;
  int a = builder.AddNode("a"), b = builder.AddNode("b");
  builder.AddEdge(a, 0, b);
  GraphDb db = std::move(builder).Build();
  ConjunctiveRpqi query;
  query.num_variables = 2;  // variable 1 appears in no atom
  query.atoms = {{0, f.Compile("p"), 0}};  // unsatisfiable self-loop...
  query.atoms[0] = {0, f.Compile("p p^-"), 0};  // satisfiable round trip
  query.distinguished = {0, 1};
  auto results = EvalCrpq(db, query);
  // Variable 0 = a (round trip); variable 1 free over {a, b}.
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], (std::vector<int>{a, a}));
  EXPECT_EQ(results[1], (std::vector<int>{a, b}));
}

}  // namespace
}  // namespace rpqi
