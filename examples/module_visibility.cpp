// The paper's Example 1: a database of software modules where
//   hasSubmodule(m1, m2) — m2 is a module defined inside m1,
//   containsVar(m, v)    — v is a variable defined in module m,
// and the RPQI
//   (hasSubmodule^-)* (containsVar | hasSubmodule)
// computes the pairs (m, x) such that x is visible inside m under Algol-like
// scoping rules. We generate a random module tree, answer the visibility
// query directly, rewrite it over navigation views, and show both agree.
//
// Run: ./module_visibility [num_modules] [num_variables] [seed]

#include <cstdio>
#include <cstdlib>
#include <random>

#include "graphdb/eval.h"
#include "regex/printer.h"
#include "rewrite/eval.h"
#include "rewrite/exactness.h"
#include "rewrite/rewriter.h"
#include "rpq/compile.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace rpqi;
  int num_modules = argc > 1 ? std::atoi(argv[1]) : 8;
  int num_variables = argc > 2 ? std::atoi(argv[2]) : 5;
  unsigned seed = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 2026;

  std::mt19937_64 rng(seed);
  SoftwareModulesScenario scenario =
      MakeSoftwareModulesScenario(rng, num_modules, num_variables);
  std::printf("modules: %d, variables: %d, edges: %lld\n", num_modules,
              num_variables, static_cast<long long>(scenario.db.NumEdges()));
  std::printf("query: %s\n",
              RegexToString(scenario.visibility_query).c_str());

  Nfa query = MustCompileRegex(scenario.visibility_query, scenario.alphabet);
  const FlatNfa plan = CompileEvalPlan(query);

  // Direct evaluation: visibility sets per module, one plan and one scratch
  // for every run.
  EvalScratch scratch;
  for (int m = 0; m < num_modules; ++m) {
    Bitset visible = EvalRpqiFrom(scenario.db, plan, m, &scratch);
    std::printf("  visible in %-9s:", std::string(scenario.db.NodeName(m)).c_str());
    for (int x = visible.NextSetBit(0); x >= 0; x = visible.NextSetBit(x + 1)) {
      std::printf(" %s", std::string(scenario.db.NodeName(x)).c_str());
    }
    std::printf("\n");
  }

  // View-based processing with the navigation views
  //   up        = hasSubmodule^-
  //   downOrVar = containsVar | hasSubmodule
  std::vector<Nfa> views;
  for (const RegexPtr& def : scenario.view_definitions) {
    views.push_back(MustCompileRegex(def, scenario.alphabet));
  }
  StatusOr<MaximalRewriting> rewriting = ComputeMaximalRewriting(query, views);
  if (!rewriting.ok()) {
    std::fprintf(stderr, "%s\n", rewriting.status().ToString().c_str());
    return 1;
  }
  StatusOr<bool> exact =
      IsExactRewriting(query, views, rewriting->dfa, /*budget=*/nullptr);
  if (!exact.ok()) {
    std::fprintf(stderr, "%s\n", exact.status().ToString().c_str());
    return 1;
  }
  std::printf("rewriting over views {up, downOrVar}: %s (%s)\n",
              RewritingToString(rewriting->dfa, scenario.view_names).c_str(),
              *exact ? "exact" : "maximal");

  std::vector<std::vector<std::pair<int, int>>> extensions;
  for (const Nfa& view : views) {
    extensions.push_back(EvalRpqiAllPairs(scenario.db, CompileEvalPlan(view)));
  }
  auto from_views =
      EvaluateRewriting(rewriting->dfa, scenario.db.NumNodes(), extensions);
  auto direct = EvalRpqiAllPairs(scenario.db, plan, &scratch);
  std::printf("view-based answers: %zu pairs; direct answers: %zu pairs; %s\n",
              from_views.size(), direct.size(),
              from_views == direct ? "identical" : "DIFFER");
  return from_views == direct ? 0 : 1;
}
