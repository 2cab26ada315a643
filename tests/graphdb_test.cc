#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "automata/random.h"
#include "fault/fault.h"
#include "graphdb/eval.h"
#include "graphdb/graph.h"
#include "graphdb/io.h"
#include "graphdb/mask_db.h"
#include "graphdb/views.h"
#include "regex/parser.h"
#include "rpq/compile.h"
#include "rpq/satisfaction.h"
#include "workload/graph_gen.h"
#include "workload/scenario.h"

namespace rpqi {
namespace {

TEST(GraphDbTest, NodesAndEdges) {
  GraphBuilder builder;
  int x = builder.AddNode("x");
  int y = builder.AddNode("y");
  EXPECT_EQ(builder.AddNode("x"), x);  // interning
  builder.AddEdge(x, 0, y);
  GraphDb db = std::move(builder).Build();
  EXPECT_TRUE(db.HasEdge(x, 0, y));
  EXPECT_FALSE(db.HasEdge(y, 0, x));
  EXPECT_EQ(db.NumNodes(), 2);
  EXPECT_EQ(db.NumEdges(), 1);
  EXPECT_EQ(db.OutTargets(x, 0).size(), 1u);
  EXPECT_EQ(db.InTargets(y, 0).size(), 1u);
  EXPECT_EQ(db.NodeName(y), "y");
  EXPECT_EQ(db.NodeId("z"), -1);
}

// Build() files every edge of the builder's list under its (node, relation)
// span in both directions, duplicates included, and nothing else.
TEST(GraphBuilderTest, BuildIndexesEveryEdgeInBothDirections) {
  std::mt19937_64 rng(19);
  for (int trial = 0; trial < 20; ++trial) {
    RandomGraphOptions options;
    options.num_nodes = 1 + static_cast<int>(rng() % 12);
    options.num_relations = 1 + static_cast<int>(rng() % 4);
    options.average_out_degree = (rng() % 40) / 10.0;
    GraphBuilder builder = RandomGraph(rng, options);
    if (trial % 4 == 0) builder.AddEdge(0, 0, builder.NumNodes() - 1);
    const std::vector<GraphBuilder::Edge> edges = builder.edges();
    const GraphDb db = std::move(builder).Build();
    ASSERT_EQ(db.NumNodes(), options.num_nodes);
    ASSERT_EQ(db.NumEdges(), static_cast<int64_t>(edges.size()));
    int relations = 0;
    for (const GraphBuilder::Edge& e : edges) {
      relations = std::max(relations, e.relation + 1);
      EXPECT_TRUE(db.HasEdge(e.from, e.relation, e.to));
    }
    EXPECT_EQ(db.label_csr().num_relations, relations);
    for (int node = 0; node < db.NumNodes(); ++node) {
      for (int r = 0; r <= relations; ++r) {
        std::vector<uint32_t> out, in;
        for (const GraphBuilder::Edge& e : edges) {
          if (e.relation != r) continue;
          if (e.from == node) out.push_back(static_cast<uint32_t>(e.to));
          if (e.to == node) in.push_back(static_cast<uint32_t>(e.from));
        }
        std::sort(out.begin(), out.end());
        std::sort(in.begin(), in.end());
        EXPECT_TRUE(std::ranges::equal(db.OutTargets(node, r), out))
            << "trial " << trial << " node " << node << " relation " << r;
        EXPECT_TRUE(std::ranges::equal(db.InTargets(node, r), in))
            << "trial " << trial << " node " << node << " relation " << r;
      }
    }
  }
}

TEST(EvalTest, ForwardAndInverseTraversal) {
  SignedAlphabet alphabet;
  alphabet.AddRelation("p");
  GraphBuilder builder;
  int x = builder.AddNode("x"), y = builder.AddNode("y"),
      z = builder.AddNode("z");
  builder.AddEdge(x, 0, y);
  builder.AddEdge(z, 0, y);
  GraphDb db = std::move(builder).Build();

  Nfa forward = MustCompileRegex(MustParseRegex("p"), alphabet);
  EXPECT_TRUE(EvalRpqiPair(db, CompileEvalPlan(forward), x, y));
  EXPECT_FALSE(EvalRpqiPair(db, CompileEvalPlan(forward), y, x));

  // x --p--> y <--p-- z : the RPQI p p⁻ connects x to z.
  Nfa around = MustCompileRegex(MustParseRegex("p p^-"), alphabet);
  EXPECT_TRUE(EvalRpqiPair(db, CompileEvalPlan(around), x, z));
  EXPECT_TRUE(EvalRpqiPair(db, CompileEvalPlan(around), x, x));
  EXPECT_FALSE(EvalRpqiPair(db, CompileEvalPlan(around), x, y));
}

TEST(EvalTest, Example1VisibilitySemantics) {
  // The paper's Example 1: x is visible in m if x is reachable by
  // (hasSubmodule⁻)* (containsVar ∪ hasSubmodule).
  SignedAlphabet alphabet;
  GraphBuilder builder;
  int root = builder.AddNode("root");
  int child = builder.AddNode("child");
  int grandchild = builder.AddNode("grandchild");
  int v_root = builder.AddNode("v_root");
  int v_child = builder.AddNode("v_child");
  int has_submodule = alphabet.AddRelation("hasSubmodule");
  int contains_var = alphabet.AddRelation("containsVar");
  builder.AddEdge(root, has_submodule, child);
  builder.AddEdge(child, has_submodule, grandchild);
  builder.AddEdge(root, contains_var, v_root);
  builder.AddEdge(child, contains_var, v_child);
  GraphDb db = std::move(builder).Build();

  Nfa query = MustCompileRegex(
      MustParseRegex("(hasSubmodule^-)* (containsVar | hasSubmodule)"),
      alphabet);
  // Visible in grandchild: everything up the chain.
  Bitset visible = EvalRpqiFrom(db, CompileEvalPlan(query), grandchild);
  EXPECT_TRUE(visible.Test(v_child));
  EXPECT_TRUE(visible.Test(v_root));
  EXPECT_TRUE(visible.Test(child));       // sibling-submodule visibility
  EXPECT_TRUE(visible.Test(grandchild));  // child of child
  // Visible in root: only its own variable and child module.
  Bitset visible_root = EvalRpqiFrom(db, CompileEvalPlan(query), root);
  EXPECT_TRUE(visible_root.Test(v_root));
  EXPECT_TRUE(visible_root.Test(child));
  EXPECT_FALSE(visible_root.Test(v_child));
}

TEST(EvalTest, AllPairsConsistentWithPerPair) {
  std::mt19937_64 rng(3);
  RandomGraphOptions options;
  options.num_nodes = 8;
  options.num_relations = 2;
  GraphDb db = RandomGraph(rng, options).Build();
  SignedAlphabet alphabet;
  alphabet.AddRelation("r0");
  alphabet.AddRelation("r1");
  Nfa query = MustCompileRegex(MustParseRegex("r0 (r1^- | r0)*"), alphabet);
  auto pairs = EvalRpqiAllPairs(db, CompileEvalPlan(query));
  for (int x = 0; x < db.NumNodes(); ++x) {
    for (int y = 0; y < db.NumNodes(); ++y) {
      bool in_pairs = std::find(pairs.begin(), pairs.end(),
                                std::make_pair(x, y)) != pairs.end();
      EXPECT_EQ(in_pairs, EvalRpqiPair(db, CompileEvalPlan(query), x, y));
    }
  }
}

TEST(EvalTest, LineDbAgreesWithWordSatisfaction) {
  // Evaluating a query over an explicit line database must agree with the
  // two-way-automaton word-satisfaction semantics (Theorem 2 both ways).
  SignedAlphabet alphabet;
  alphabet.AddRelation("p");
  alphabet.AddRelation("q");
  std::mt19937_64 rng(43);
  Nfa query = MustCompileRegex(MustParseRegex("p (q^- p)* | q"), alphabet);
  for (int len = 0; len <= 5; ++len) {
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<int> word = RandomWord(rng, 4, len);
      // Build the line database of the word.
      GraphBuilder builder;
      int first = builder.AddNode("n0");
      int prev = first;
      for (size_t i = 0; i < word.size(); ++i) {
        int next = builder.AddNode("n" + std::to_string(i + 1));
        int relation = SignedAlphabet::RelationOfSymbol(word[i]);
        if (SignedAlphabet::IsInverseSymbol(word[i])) {
          builder.AddEdge(next, relation, prev);
        } else {
          builder.AddEdge(prev, relation, next);
        }
        prev = next;
      }
      GraphDb db = std::move(builder).Build();
      EXPECT_EQ(EvalRpqiPair(db, CompileEvalPlan(query), first, prev),
                WordSatisfies(query, word));
    }
  }
}

TEST(IoTest, LoadSaveRoundTrip) {
  SignedAlphabet alphabet;
  StatusOr<GraphDb> db = LoadGraphText(
      "# software modules\n"
      "root hasSubmodule child\n"
      "root containsVar v1\n"
      "\n"
      "child hasSubmodule leaf\n",
      &alphabet);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->NumNodes(), 4);  // root, child, v1, leaf
  EXPECT_EQ(db->NumEdges(), 3);
  EXPECT_EQ(alphabet.NumRelations(), 2);

  SignedAlphabet alphabet2;
  StatusOr<GraphDb> reloaded =
      LoadGraphText(SaveGraphText(*db, alphabet), &alphabet2);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->NumEdges(), db->NumEdges());
  EXPECT_EQ(SaveGraphText(*reloaded, alphabet2), SaveGraphText(*db, alphabet));
}

TEST(IoTest, RejectsMalformedLines) {
  SignedAlphabet alphabet;
  EXPECT_FALSE(LoadGraphText("a b\n", &alphabet).ok());
  EXPECT_FALSE(LoadGraphText("a b c d\n", &alphabet).ok());
}

TEST(IoTest, ErrorsCarryLineAndByteOffsetContext) {
  // The message shape is a contract: "<source>: line N (byte B): <what>",
  // with N 1-based (counting blank/comment lines) and B the 0-based byte
  // offset of the offending line's start — what an operator pastes into
  // `tail -c +B` to see the bad spot in a multi-gigabyte graph file.
  SignedAlphabet alphabet;
  GraphTextLimits limits;
  limits.source_name = "g.txt";
  Status bad = LoadGraphText("a r b\n# ok\nbroken line here x\n", &alphabet,
                             limits)
                   .status();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.message().rfind("g.txt: line 3 (byte 11): ", 0), 0u)
      << bad.message();

  // Without a source name the prefix is dropped, not left dangling.
  SignedAlphabet alphabet2;
  Status anonymous = LoadGraphText("a r\n", &alphabet2).status();
  ASSERT_FALSE(anonymous.ok());
  EXPECT_EQ(anonymous.message().rfind("line 1 (byte 0): ", 0), 0u)
      << anonymous.message();
}

TEST(IoTest, InjectedParseIoFaultCarriesTheSameContext) {
  fault::DisarmAll();
  ASSERT_TRUE(fault::Configure("graphdb.parse_io=once:2").ok());
  SignedAlphabet alphabet;
  GraphTextLimits limits;
  limits.source_name = "g.txt";
  Status injected =
      LoadGraphText("a r b\nb r c\nc r d\n", &alphabet, limits).status();
  fault::DisarmAll();
  ASSERT_FALSE(injected.ok());
  // Fired on the second parsed line: same context shape as a real error.
  EXPECT_EQ(injected.message(),
            "g.txt: line 2 (byte 6): injected I/O error while parsing");
}

TEST(ViewsTest, MaterializedViewsAreExactByConstruction) {
  std::mt19937_64 rng(47);
  SoftwareModulesScenario scenario = MakeSoftwareModulesScenario(rng, 6, 4);
  Nfa definition =
      MustCompileRegex(scenario.view_definitions[0], scenario.alphabet);
  auto extension = MaterializeView(scenario.db, definition);
  for (const auto& [a, b] : extension) {
    EXPECT_TRUE(EvalRpqiPair(scenario.db, CompileEvalPlan(definition), a, b));
  }
}

TEST(ViewsTest, ViewGraphEvaluation) {
  // Two views as edges; a rewriting over them is just an RPQI over the view
  // graph.
  std::vector<std::vector<std::pair<int, int>>> extensions = {
      {{0, 1}, {1, 2}},  // view 0
      {{2, 3}},          // view 1
  };
  GraphDb graph = BuildViewGraph(4, extensions);
  EXPECT_EQ(graph.NumEdges(), 3);
  SignedAlphabet view_alphabet;
  view_alphabet.AddRelation("v0");
  view_alphabet.AddRelation("v1");
  Nfa path =
      MustCompileRegex(MustParseRegex("v0 v0 v1"), view_alphabet);
  EXPECT_TRUE(EvalRpqiPair(graph, CompileEvalPlan(path), 0, 3));
  Nfa back = MustCompileRegex(MustParseRegex("v1^- v0^-"), view_alphabet);
  EXPECT_TRUE(EvalRpqiPair(graph, CompileEvalPlan(back), 3, 1));
}

TEST(GeneratorsTest, ShapesAreAsAdvertised) {
  std::mt19937_64 rng(53);
  GraphDb chain = ChainGraph(rng, 5, 2).Build();
  EXPECT_EQ(chain.NumNodes(), 5);
  EXPECT_EQ(chain.NumEdges(), 4);
  GraphDb tree = RandomTree(rng, 10, 1).Build();
  EXPECT_EQ(tree.NumEdges(), 9);
  for (int node = 1; node < 10; ++node) {
    EXPECT_EQ(tree.InTargets(node, 0).size(), 1u);  // single parent
  }
}

TEST(MaskDbTest, FlipsBothRowsAndKeepsTailBitsClear) {
  for (int n : {1, 63, 64, 65, 130}) {
    MaskDb db(n, 2);
    ASSERT_EQ(db.words(), (n + 63) / 64);
    db.Fill();
    for (int symbol = 0; symbol < 4; ++symbol) {
      for (int object = 0; object < n; ++object) {
        const uint64_t* row = db.Row(symbol, object);
        for (int bit = 0; bit < db.words() * 64; ++bit) {
          EXPECT_EQ((row[bit >> 6] >> (bit & 63)) & 1, bit < n ? 1u : 0u)
              << "n=" << n << " symbol " << symbol << " bit " << bit;
        }
      }
    }
    // An edge lives in its forward row and its inverse row.
    const int last = n - 1;
    const size_t words = db.words();
    db.RemoveEdge(0, 1, last);
    EXPECT_FALSE(db.HasEdge(0, 1, last));
    EXPECT_FALSE(MaskEvaluator::Contains({db.Row(3, last), words}, 0));
    EXPECT_TRUE(db.HasEdge(0, 0, last));
    db.Clear();
    db.AddEdge(last, 0, 0);
    EXPECT_TRUE(db.HasEdge(last, 0, 0));
    EXPECT_TRUE(MaskEvaluator::Contains({db.Row(1, 0), words}, last));
    EXPECT_FALSE(db.HasEdge(last, 1, 0));
  }
}

// The CDA solver's bit-parallel evaluator against the GraphDb kernel on the
// same edges, at the 64-object word boundaries of the masks.
TEST(MaskDbTest, EvaluatorMatchesGraphDbKernel) {
  std::mt19937_64 rng(61);
  constexpr int kRelations = 2;
  for (int n : {1, 63, 64, 65, 130}) {
    GraphBuilder builder;
    MaskDb masks(n, kRelations);
    for (int i = 0; i < n; ++i) builder.AddNode(std::to_string(i));
    for (int e = 0; e < 2 * n; ++e) {
      int from = static_cast<int>(rng() % n);
      int relation = static_cast<int>(rng() % kRelations);
      int to = static_cast<int>(rng() % n);
      builder.AddEdge(from, relation, to);
      masks.AddEdge(from, relation, to);
    }
    const GraphDb graph = std::move(builder).Build();

    // Random plans over three relations: symbols 4 and 5 name a relation
    // past the masks' two, which has no edges on either side.
    std::vector<Nfa> nfas;
    RandomAutomatonOptions options;
    options.num_symbols = 2 * (kRelations + 1);
    options.transition_density = 0.5;
    for (int states : {2, 4, 6}) {
      options.num_states = states;
      nfas.push_back(RandomNfa(rng, options));
    }
    Nfa initial_accepts = RandomNfa(rng, options);
    for (int s : initial_accepts.InitialStates()) {
      initial_accepts.SetAccepting(s);
    }
    nfas.push_back(initial_accepts);
    Nfa no_accepting = RandomNfa(rng, options);
    for (int s = 0; s < no_accepting.NumStates(); ++s) {
      no_accepting.SetAccepting(s, false);
    }
    nfas.push_back(no_accepting);

    std::vector<FlatNfa> plans;
    int max_states = 0;
    for (const Nfa& nfa : nfas) {
      plans.push_back(CompileEvalPlan(nfa));
      max_states = std::max(max_states, plans.back().NumStates());
    }
    MaskEvaluator evaluator(max_states, n);
    for (size_t p = 0; p < plans.size(); ++p) {
      for (int source = 0; source < n; ++source) {
        Bitset expected = EvalRpqiFrom(graph, plans[p], source);
        std::span<const uint64_t> got =
            evaluator.Run(masks, plans[p], source);
        ASSERT_EQ(got.size(), static_cast<size_t>(masks.words()));
        for (int object = 0; object < masks.words() * 64; ++object) {
          EXPECT_EQ(MaskEvaluator::Contains(got, object),
                    object < n && expected.Test(object))
              << "n=" << n << " plan " << p << " source " << source
              << " object " << object;
        }
      }
    }
    // The marked plans hit their cases: the source is its own answer, and
    // nothing is.
    EXPECT_TRUE(MaskEvaluator::Contains(evaluator.Run(masks, plans[3], 0), 0));
    for (uint64_t word : evaluator.Run(masks, plans[4], 0)) EXPECT_EQ(word, 0u);
  }
}

}  // namespace
}  // namespace rpqi
