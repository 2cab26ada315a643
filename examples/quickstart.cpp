// Quickstart for the rpqi library: parse a regular path query with inverse,
// compute its maximal rewriting over a set of views (Section 4 of Calvanese,
// De Giacomo, Lenzerini, Vardi, PODS 2000), check exactness, and answer the
// query from materialized view extensions only.
//
// Run: ./quickstart

#include <cstdio>
#include <string>
#include <vector>

#include "graphdb/eval.h"
#include "graphdb/graph.h"
#include "graphdb/io.h"
#include "regex/parser.h"
#include "regex/printer.h"
#include "rewrite/eval.h"
#include "rewrite/exactness.h"
#include "rewrite/rewriter.h"
#include "rpq/alphabet.h"
#include "rpq/compile.h"

int main() {
  using namespace rpqi;

  // --- 1. A small graph database (edge-per-line text format).
  SignedAlphabet alphabet;
  StatusOr<GraphDb> db = LoadGraphText(
      "alice worksFor acme\n"
      "bob worksFor acme\n"
      "carol worksFor initech\n"
      "acme partnerOf initech\n"
      "initech partnerOf globex\n",
      &alphabet);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }

  // --- 2. The query: colleagues-or-partners reachable from a person, using
  // the inverse operator to go from a company back to its employees.
  //   colleagues(x,y): x worksFor c, y worksFor c  ⇒  worksFor worksFor⁻
  RegexPtr query_expr = MustParseRegex("worksFor partnerOf* worksFor^-");
  Nfa query = MustCompileRegex(query_expr, alphabet);
  std::printf("query: %s\n", RegexToString(query_expr).c_str());

  // --- 3. Views available as materialized data.
  std::vector<std::string> view_names = {"employer", "partner"};
  std::vector<RegexPtr> view_exprs = {MustParseRegex("worksFor"),
                                      MustParseRegex("partnerOf")};
  std::vector<Nfa> views;
  for (const RegexPtr& expr : view_exprs) {
    views.push_back(MustCompileRegex(expr, alphabet));
  }

  // --- 4. The maximal rewriting over the view alphabet (with inverse!).
  StatusOr<MaximalRewriting> rewriting = ComputeMaximalRewriting(query, views);
  if (!rewriting.ok()) {
    std::fprintf(stderr, "%s\n", rewriting.status().ToString().c_str());
    return 1;
  }
  std::printf("maximal rewriting: %s\n",
              RewritingToString(rewriting->dfa, view_names).c_str());
  StatusOr<bool> exact =
      IsExactRewriting(query, views, rewriting->dfa, /*budget=*/nullptr);
  if (!exact.ok()) {
    std::fprintf(stderr, "%s\n", exact.status().ToString().c_str());
    return 1;
  }
  std::printf("rewriting is %s\n",
              *exact ? "EXACT (equivalent to the query on every database)"
                     : "maximal but not exact");
  std::printf("pipeline sizes: |A1|=%d two-way states, %lld lazy A2 states, "
              "|A2∩A3|=%d, |A4|=%d, |R|=%d\n",
              rewriting->stats.a1_states,
              static_cast<long long>(rewriting->stats.a2_states_discovered),
              rewriting->stats.product_states, rewriting->stats.a4_states,
              rewriting->stats.rewriting_states);

  // --- 5. Materialize the views and answer the query from them alone.
  std::vector<std::vector<std::pair<int, int>>> extensions;
  for (const Nfa& view : views) {
    extensions.push_back(EvalRpqiAllPairs(*db, CompileEvalPlan(view)));
  }
  auto answers = EvaluateRewriting(rewriting->dfa, db->NumNodes(), extensions);
  std::printf("answers computed from the views:\n");
  for (const auto& [x, y] : answers) {
    std::string from(db->NodeName(x)), to(db->NodeName(y));
    std::printf("  (%s, %s)\n", from.c_str(), to.c_str());
  }

  // --- 6. Sanity: compare with direct evaluation on the raw database.
  auto direct = EvalRpqiAllPairs(*db, CompileEvalPlan(query));
  std::printf("direct evaluation agrees: %s\n",
              answers == direct ? "yes" : "NO (rewriting not exact here)");
  return 0;
}
