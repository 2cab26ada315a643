#include "crpq/crpq.h"

#include <algorithm>
#include <map>
#include <set>

#include "graphdb/eval.h"

namespace rpqi {

void CheckCrpq(const ConjunctiveRpqi& query) {
  RPQI_CHECK_GE(query.num_variables, 1);
  RPQI_CHECK(!query.atoms.empty());
  int num_symbols = query.atoms[0].automaton.num_symbols();
  for (const CrpqAtom& atom : query.atoms) {
    RPQI_CHECK(0 <= atom.from_variable &&
               atom.from_variable < query.num_variables);
    RPQI_CHECK(0 <= atom.to_variable &&
               atom.to_variable < query.num_variables);
    RPQI_CHECK_EQ(atom.automaton.num_symbols(), num_symbols)
        << "atoms must share the signed alphabet";
  }
  for (int v : query.distinguished) {
    RPQI_CHECK(0 <= v && v < query.num_variables);
  }
}

namespace {

/// Materialized atom relation with both access paths.
struct AtomRelation {
  int from_variable;
  int to_variable;
  std::vector<std::pair<int, int>> pairs;             // sorted
  std::map<int, std::vector<int>> by_from, by_to;     // indexes
};

/// Backtracking join over the atom relations. Variables are assigned in the
/// order induced by processing atoms smallest-first; each atom either checks
/// (both endpoints bound), extends through an index (one endpoint bound), or
/// enumerates its pairs (neither bound).
class JoinSolver {
 public:
  JoinSolver(const ConjunctiveRpqi& query, std::vector<AtomRelation> relations)
      : query_(query), relations_(std::move(relations)) {
    // Smallest relations first: cheap failure, strong pruning.
    std::sort(relations_.begin(), relations_.end(),
              [](const AtomRelation& a, const AtomRelation& b) {
                return a.pairs.size() < b.pairs.size();
              });
    assignment_.assign(query.num_variables, -1);
  }

  std::vector<std::vector<int>> Solve(bool stop_at_first) {
    stop_at_first_ = stop_at_first;
    Recurse(0);
    std::sort(results_.begin(), results_.end());
    results_.erase(std::unique(results_.begin(), results_.end()),
                   results_.end());
    return std::move(results_);
  }

 private:
  void Emit() {
    std::vector<int> tuple;
    tuple.reserve(query_.distinguished.size());
    for (int v : query_.distinguished) tuple.push_back(assignment_[v]);
    results_.push_back(std::move(tuple));
  }

  bool Done() const { return stop_at_first_ && !results_.empty(); }

  void Recurse(size_t atom_index) {
    if (Done()) return;
    if (atom_index == relations_.size()) {
      // All atoms satisfied; unconstrained variables (possible when the
      // distinguished tuple mentions variables not in any atom) are invalid
      // by construction — CheckCrpq requires atoms to cover usage, and any
      // remaining -1 assignment means the variable is free over all nodes.
      Emit();
      return;
    }
    const AtomRelation& relation = relations_[atom_index];
    int from = assignment_[relation.from_variable];
    int to = assignment_[relation.to_variable];

    auto with_binding = [&](int variable, int value, auto&& continuation) {
      int saved = assignment_[variable];
      assignment_[variable] = value;
      continuation();
      assignment_[variable] = saved;
    };

    if (from >= 0 && to >= 0) {
      if (std::binary_search(relation.pairs.begin(), relation.pairs.end(),
                             std::make_pair(from, to))) {
        Recurse(atom_index + 1);
      }
      return;
    }
    if (from >= 0) {
      auto it = relation.by_from.find(from);
      if (it == relation.by_from.end()) return;
      for (int value : it->second) {
        if (Done()) return;
        with_binding(relation.to_variable, value,
                     [&] { Recurse(atom_index + 1); });
      }
      return;
    }
    if (to >= 0) {
      auto it = relation.by_to.find(to);
      if (it == relation.by_to.end()) return;
      for (int value : it->second) {
        if (Done()) return;
        with_binding(relation.from_variable, value,
                     [&] { Recurse(atom_index + 1); });
      }
      return;
    }
    for (const auto& [x, y] : relation.pairs) {
      if (Done()) return;
      with_binding(relation.from_variable, x, [&] {
        // Self-loop atoms (from == to variable) must bind consistently.
        if (relation.from_variable == relation.to_variable) {
          if (x == y) Recurse(atom_index + 1);
        } else {
          with_binding(relation.to_variable, y,
                       [&] { Recurse(atom_index + 1); });
        }
      });
    }
  }

  const ConjunctiveRpqi& query_;
  std::vector<AtomRelation> relations_;
  std::vector<int> assignment_;
  std::vector<std::vector<int>> results_;
  bool stop_at_first_ = false;
};

std::vector<AtomRelation> MaterializeAtoms(const GraphDb& db,
                                           const ConjunctiveRpqi& query) {
  std::vector<AtomRelation> relations;
  relations.reserve(query.atoms.size());
  EvalScratch scratch;
  for (const CrpqAtom& atom : query.atoms) {
    AtomRelation relation;
    relation.from_variable = atom.from_variable;
    relation.to_variable = atom.to_variable;
    relation.pairs =
        EvalRpqiAllPairs(db, CompileEvalPlan(atom.automaton), &scratch);
    for (const auto& [x, y] : relation.pairs) {
      relation.by_from[x].push_back(y);
      relation.by_to[y].push_back(x);
    }
    relations.push_back(std::move(relation));
  }
  return relations;
}

/// Variables mentioned by no atom range freely over all nodes; expand them in
/// the output (only distinguished ones matter).
std::vector<std::vector<int>> ExpandFreeVariables(
    const GraphDb& db, const ConjunctiveRpqi& query,
    std::vector<std::vector<int>> tuples) {
  std::vector<bool> covered(query.num_variables, false);
  for (const CrpqAtom& atom : query.atoms) {
    covered[atom.from_variable] = true;
    covered[atom.to_variable] = true;
  }
  std::vector<int> free_positions;
  for (size_t i = 0; i < query.distinguished.size(); ++i) {
    if (!covered[query.distinguished[i]]) {
      free_positions.push_back(static_cast<int>(i));
    }
  }
  if (free_positions.empty()) return tuples;

  // Free distinguished variables take every node value. (Repeated free
  // variables in the tuple must agree; track by variable id.)
  std::vector<std::vector<int>> expanded;
  for (const auto& base : tuples) {
    std::map<int, int> variable_value;  // free variable -> chosen node
    // Enumerate assignments for the distinct free variables.
    std::vector<int> free_variables;
    for (int position : free_positions) {
      int variable = query.distinguished[position];
      if (variable_value.emplace(variable, 0).second) {
        free_variables.push_back(variable);
      }
    }
    std::vector<int> choice(free_variables.size(), 0);
    while (true) {
      std::vector<int> tuple = base;
      for (size_t i = 0; i < free_variables.size(); ++i) {
        variable_value[free_variables[i]] = choice[i];
      }
      for (int position : free_positions) {
        tuple[position] = variable_value[query.distinguished[position]];
      }
      expanded.push_back(std::move(tuple));
      // Odometer increment over the free-variable choices.
      size_t i = 0;
      while (i < choice.size() && ++choice[i] == db.NumNodes()) {
        choice[i] = 0;
        ++i;
      }
      if (i == choice.size()) break;
    }
  }
  std::sort(expanded.begin(), expanded.end());
  expanded.erase(std::unique(expanded.begin(), expanded.end()),
                 expanded.end());
  return expanded;
}

}  // namespace

std::vector<std::vector<int>> EvalCrpq(const GraphDb& db,
                                       const ConjunctiveRpqi& query) {
  CheckCrpq(query);
  JoinSolver solver(query, MaterializeAtoms(db, query));
  return ExpandFreeVariables(db, query,
                             solver.Solve(/*stop_at_first=*/false));
}

bool CrpqSatisfiable(const GraphDb& db, const ConjunctiveRpqi& query) {
  CheckCrpq(query);
  JoinSolver solver(query, MaterializeAtoms(db, query));
  return !solver.Solve(/*stop_at_first=*/true).empty();
}

}  // namespace rpqi
