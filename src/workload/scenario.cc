#include "workload/scenario.h"

#include <utility>

#include "regex/parser.h"

namespace rpqi {

SoftwareModulesScenario MakeSoftwareModulesScenario(std::mt19937_64& rng,
                                                    int num_modules,
                                                    int num_variables) {
  SoftwareModulesScenario scenario;
  int has_submodule = scenario.alphabet.AddRelation("hasSubmodule");
  int contains_var = scenario.alphabet.AddRelation("containsVar");

  GraphBuilder db;
  for (int i = 0; i < num_modules; ++i) {
    db.AddNode("module" + std::to_string(i));
  }
  for (int i = 1; i < num_modules; ++i) {
    std::uniform_int_distribution<int> pick_parent(0, i - 1);
    db.AddEdge(pick_parent(rng), has_submodule, i);
  }
  std::uniform_int_distribution<int> pick_module(0, num_modules - 1);
  for (int i = 0; i < num_variables; ++i) {
    int variable = db.AddNode("var" + std::to_string(i));
    db.AddEdge(pick_module(rng), contains_var, variable);
  }
  scenario.db = std::move(db).Build();

  scenario.visibility_query =
      MustParseRegex("(hasSubmodule^-)* (containsVar | hasSubmodule)");
  scenario.view_definitions = {
      MustParseRegex("hasSubmodule^-"),
      MustParseRegex("containsVar | hasSubmodule"),
  };
  scenario.view_names = {"up", "downOrVar"};
  return scenario;
}

HardRewritingInstance MakeHardRewritingInstance(int k) {
  HardRewritingInstance instance;
  instance.alphabet.AddRelation("a");
  instance.alphabet.AddRelation("b");

  // (a|b)* a (a|b)^k : membership depends on the k-th letter before the end,
  // forcing exponentially many distinguishable prefixes.
  std::string text = "(a | b)* a";
  for (int i = 0; i < k; ++i) text += " (a | b)";
  instance.query = MustParseRegex(text);

  instance.view_definitions = {MustParseRegex("a"), MustParseRegex("b")};
  instance.view_names = {"va", "vb"};
  return instance;
}

}  // namespace rpqi
