// View-based query optimization: when materialized views are cheaper to scan
// than the raw graph, an exact rewriting lets the optimizer answer the query
// without touching base data at all; a maximal (non-exact) rewriting still
// yields a sound partial answer. This example contrasts the two situations
// and reports simple cost counters (edges scanned).
//
// Run: ./query_optimizer [num_nodes] [seed]

#include <cstdio>
#include <cstdlib>
#include <random>

#include "graphdb/eval.h"
#include "regex/parser.h"
#include "regex/printer.h"
#include "rewrite/eval.h"
#include "rewrite/exactness.h"
#include "rewrite/rewriter.h"
#include "rpq/alphabet.h"
#include "rpq/compile.h"
#include "workload/graph_gen.h"

int main(int argc, char** argv) {
  using namespace rpqi;
  int num_nodes = argc > 1 ? std::atoi(argv[1]) : 30;
  unsigned seed = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 7;

  std::mt19937_64 rng(seed);
  RandomGraphOptions graph_options;
  graph_options.num_nodes = num_nodes;
  graph_options.num_relations = 2;  // cites (0), sameVenue (1)
  graph_options.average_out_degree = 2.5;
  GraphDb db = RandomGraph(rng, graph_options).Build();

  SignedAlphabet alphabet;
  alphabet.AddRelation("cites");
  alphabet.AddRelation("sameVenue");

  // Query: co-citation closure — papers reachable by alternating a citation
  // with a backwards citation (papers citing a common source), any depth.
  RegexPtr query_expr = MustParseRegex("(cites cites^-)+");
  Nfa query = MustCompileRegex(query_expr, alphabet);

  struct Plan {
    const char* name;
    std::vector<std::string> view_names;
    std::vector<RegexPtr> view_exprs;
  };
  Plan plans[] = {
      {"materialized co-citation step",
       {"coCited"},
       {MustParseRegex("cites cites^-")}},
      {"citation lists only",
       {"out", "venue"},
       {MustParseRegex("cites"), MustParseRegex("sameVenue")}},
      {"venue view only (cannot express the query)",
       {"venue"},
       {MustParseRegex("sameVenue")}},
  };

  auto direct = EvalRpqiAllPairs(db, CompileEvalPlan(query));
  std::printf(
      "query: %s  — direct evaluation: %zu answers, %lld edges scanned\n",
      RegexToString(query_expr).c_str(), direct.size(),
      static_cast<long long>(db.NumEdges()));

  for (const Plan& plan : plans) {
    std::vector<Nfa> views;
    for (const RegexPtr& expr : plan.view_exprs) {
      views.push_back(MustCompileRegex(expr, alphabet));
    }
    StatusOr<MaximalRewriting> rewriting =
        ComputeMaximalRewriting(query, views);
    if (!rewriting.ok()) {
      std::fprintf(stderr, "%s\n", rewriting.status().ToString().c_str());
      return 1;
    }
    std::vector<std::vector<std::pair<int, int>>> extensions;
    int view_edges = 0;
    for (const Nfa& view : views) {
      extensions.push_back(EvalRpqiAllPairs(db, CompileEvalPlan(view)));
      view_edges += static_cast<int>(extensions.back().size());
    }
    bool exact = false;
    if (!rewriting->empty) {
      StatusOr<bool> checked =
          IsExactRewriting(query, views, rewriting->dfa, /*budget=*/nullptr);
      if (!checked.ok()) {
        std::fprintf(stderr, "%s\n", checked.status().ToString().c_str());
        return 1;
      }
      exact = *checked;
    }
    auto from_views =
        EvaluateRewriting(rewriting->dfa, db.NumNodes(), extensions);

    std::printf("plan '%s':\n", plan.name);
    if (rewriting->empty) {
      std::printf("  rewriting: EMPTY — optimizer must fall back to base data\n");
      continue;
    }
    std::printf("  rewriting: %s\n",
                RewritingToString(rewriting->dfa, plan.view_names).c_str());
    std::printf("  %s; answers from views: %zu/%zu, view edges scanned: %d\n",
                exact ? "EXACT — base data not needed"
                      : "maximal only — sound partial answer",
                from_views.size(), direct.size(), view_edges);
  }
  return 0;
}
