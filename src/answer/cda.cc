#include "answer/cda.h"

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "analysis/validate.h"
#include "graphdb/eval.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rpqi {

namespace {

/// Candidate edge (from, relation, to) in the dense enumeration order.
struct CandidateEdges {
  int num_objects;
  int num_relations;

  int Count() const { return num_objects * num_objects * num_relations; }
  void Decode(int index, int* from, int* relation, int* to) const {
    *relation = index % num_relations;
    index /= num_relations;
    *to = index % num_objects;
    *from = index / num_objects;
  }
};

/// The candidate space of `instance`: |D_V|² · |Σ| edges, computed in 64
/// bits. The solver indexes edges with int and sizes its edge-state array by
/// the count, so a space past the int range is rejected here, before
/// anything is allocated: a wrapped count would make the search silently
/// wrong or abort the process.
StatusOr<CandidateEdges> CandidateSpace(const AnsweringInstance& instance) {
  CandidateEdges space{instance.num_objects, instance.query.num_symbols() / 2};
  const int64_t count = int64_t{space.num_objects} * space.num_objects *
                        space.num_relations;
  if (count > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(
        "CDA candidate space of " + std::to_string(space.num_objects) +
        " objects x " + std::to_string(space.num_objects) + " objects x " +
        std::to_string(space.num_relations) + " relations = " +
        std::to_string(count) + " edges exceeds " +
        std::to_string(std::numeric_limits<int>::max()));
  }
  return space;
}

enum EdgeState : char { kUnknown = 0, kIn = 1, kOut = 2 };

GraphDb BuildGraph(const CandidateEdges& space,
                   const std::vector<char>& edge_state, bool include_unknown) {
  GraphDb db;
  for (int i = 0; i < space.num_objects; ++i) {
    db.AddNode("obj" + std::to_string(i));
  }
  for (int index = 0; index < space.Count(); ++index) {
    if (edge_state[index] == kIn ||
        (include_unknown && edge_state[index] == kUnknown)) {
      int from, relation, to;
      space.Decode(index, &from, &relation, &to);
      db.AddEdge(from, relation, to);
    }
  }
  return db;
}

bool PairsSubset(const std::vector<std::pair<int, int>>& pairs,
                 const GraphDb& db, const FlatNfa& plan,
                 EvalScratch* scratch) {
  for (const auto& [a, b] : pairs) {
    if (!EvalRpqiPair(db, plan, a, b, scratch)) return false;
  }
  return true;
}

bool AnswersWithin(const GraphDb& db, const FlatNfa& plan,
                   const std::vector<std::pair<int, int>>& allowed,
                   EvalScratch* scratch) {
  std::set<std::pair<int, int>> allowed_set(allowed.begin(), allowed.end());
  for (const auto& pair : EvalRpqiAllPairs(db, plan, scratch)) {
    if (allowed_set.find(pair) == allowed_set.end()) return false;
  }
  return true;
}

/// Is `db` consistent with every view of the instance? `view_plans[i]` is
/// the compiled definition of view i.
bool ConsistentWithViews(const AnsweringInstance& instance,
                         const std::vector<FlatNfa>& view_plans,
                         const GraphDb& db, EvalScratch* scratch) {
  for (size_t i = 0; i < instance.views.size(); ++i) {
    const View& view = instance.views[i];
    const FlatNfa& plan = view_plans[i];
    switch (view.assumption) {
      case ViewAssumption::kSound:
        if (!PairsSubset(view.extension, db, plan, scratch)) return false;
        break;
      case ViewAssumption::kComplete:
        if (!AnswersWithin(db, plan, view.extension, scratch)) return false;
        break;
      case ViewAssumption::kExact:
        if (!PairsSubset(view.extension, db, plan, scratch)) return false;
        if (!AnswersWithin(db, plan, view.extension, scratch)) return false;
        break;
    }
  }
  return true;
}

/// Backtracking search for a consistent database where the query pair (c,d)
/// is absent (`want_query_pair == false`, certain-answer refutation) or
/// present (`want_query_pair == true`, possible-answer witness).
class CdaSolver {
 public:
  /// Compiles the query and every view definition once: every evaluation
  /// of the search runs on these plans and on one scratch.
  CdaSolver(const AnsweringInstance& instance, const CandidateEdges& space,
            int c, int d, bool want_query_pair, int64_t max_nodes,
            Budget* budget)
      : instance_(instance),
        space_(space),
        c_(c),
        d_(d),
        want_query_pair_(want_query_pair),
        max_nodes_(max_nodes),
        budget_(budget),
        query_plan_(CompileEvalPlan(instance.query)) {
    view_plans_.reserve(instance.views.size());
    for (const View& view : instance.views) {
      view_plans_.push_back(CompileEvalPlan(view.definition));
    }
  }

  /// Returns the witness database, nullopt if none exists, or a status on
  /// budget exhaustion.
  StatusOr<CdaResult> Solve() {
    static const obs::Counter probes("cda.probes");
    static const obs::Counter visited_counter("cda.nodes_visited");
    obs::Span span("answer.CDA.probe");
    probes.Increment();
    std::vector<char> edge_state(space_.Count(), kUnknown);
    CdaResult result;
    Status status = Search(edge_state, &result);
    visited_counter.Add(nodes_visited_);  // flush even on budget exhaustion
    span.Note("nodes_visited", nodes_visited_);
    if (!status.ok()) return status;
    result.nodes_visited = nodes_visited_;
    if (result.witness.has_value()) {
      // A witness database leaves the solver and is re-evaluated by callers:
      // its edges must stay within the instance's relation alphabet.
      RPQI_VALIDATE_STAGE(
          ValidateGraphDb(*result.witness, space_.num_relations));
    }
    return result;
  }

 private:
  /// Pruning bounds. Monotonicity of RPQIs (more edges ⇒ more answers) gives:
  ///  * lower graph L (kIn edges only): any completion has ans ⊇ ans(·, L);
  ///  * upper graph U (kIn + kUnknown): any completion has ans ⊆ ans(·, U).
  Status Search(std::vector<char>& edge_state, CdaResult* result) {
    if (++nodes_visited_ > max_nodes_) {
      return Status::ResourceExhausted("CDA search exceeded node budget");
    }
    RPQI_RETURN_IF_ERROR(BudgetCharge(budget_, 1));
    GraphDb lower = BuildGraph(space_, edge_state, /*include_unknown=*/false);
    GraphDb upper = BuildGraph(space_, edge_state, /*include_unknown=*/true);

    // --- Pruning (conditions that no completion of this assignment can fix).
    for (size_t i = 0; i < instance_.views.size(); ++i) {
      const View& view = instance_.views[i];
      bool needs_lower_bound = view.assumption != ViewAssumption::kComplete;
      bool needs_upper_bound = view.assumption != ViewAssumption::kSound;
      // ext ⊆ ans must be achievable: ans over U is the best case.
      if (needs_lower_bound &&
          !PairsSubset(view.extension, upper, view_plans_[i], &scratch_)) {
        return Status::Ok();
      }
      // ans ⊆ ext must be achievable: ans over L is the least case.
      if (needs_upper_bound &&
          !AnswersWithin(lower, view_plans_[i], view.extension, &scratch_)) {
        return Status::Ok();
      }
    }
    if (!want_query_pair_ &&
        EvalRpqiPair(lower, query_plan_, c_, d_, &scratch_)) {
      return Status::Ok();  // (c,d) already forced into the answer
    }
    if (want_query_pair_ &&
        !EvalRpqiPair(upper, query_plan_, c_, d_, &scratch_)) {
      return Status::Ok();  // (c,d) can no longer be answered
    }

    // --- Early acceptance: L itself may already witness the goal.
    if (LowerGraphWorks(lower)) {
      result->witness = lower;
      return Status::Ok();
    }

    // --- Complete assignment?
    int branch_edge = -1;
    for (int index = 0; index < space_.Count(); ++index) {
      if (edge_state[index] == kUnknown) {
        branch_edge = index;
        break;
      }
    }
    if (branch_edge < 0) {
      // L == U; all pruning checks above imply full consistency.
      if (QueryGoalMet(lower)) result->witness = lower;
      return Status::Ok();
    }

    // --- Branch: try excluding the edge first (biases the search toward
    // sparse witnesses, which are the interesting ones for certain answers),
    // then including it.
    for (char value : {kOut, kIn}) {
      edge_state[branch_edge] = value;
      Status status = Search(edge_state, result);
      if (!status.ok()) return status;
      if (result->witness.has_value()) return Status::Ok();
    }
    edge_state[branch_edge] = kUnknown;
    return Status::Ok();
  }

  bool QueryGoalMet(const GraphDb& db) {
    return EvalRpqiPair(db, query_plan_, c_, d_, &scratch_) ==
           want_query_pair_;
  }

  /// True if the lower graph L is consistent and meets the query goal — an
  /// early accept that skips the remaining branching.
  bool LowerGraphWorks(const GraphDb& lower) {
    if (!QueryGoalMet(lower)) return false;
    for (size_t i = 0; i < instance_.views.size(); ++i) {
      const View& view = instance_.views[i];
      bool needs_lower_bound = view.assumption != ViewAssumption::kComplete;
      bool needs_upper_bound = view.assumption != ViewAssumption::kSound;
      if (needs_lower_bound &&
          !PairsSubset(view.extension, lower, view_plans_[i], &scratch_)) {
        return false;
      }
      if (needs_upper_bound &&
          !AnswersWithin(lower, view_plans_[i], view.extension, &scratch_)) {
        return false;
      }
    }
    return true;
  }

  const AnsweringInstance& instance_;
  CandidateEdges space_;
  int c_;
  int d_;
  bool want_query_pair_;
  int64_t max_nodes_;
  Budget* budget_;
  FlatNfa query_plan_;
  std::vector<FlatNfa> view_plans_;
  EvalScratch scratch_;
  int64_t nodes_visited_ = 0;
};

}  // namespace

StatusOr<CdaResult> CertainAnswerCda(const AnsweringInstance& instance, int c,
                                     int d, const CdaOptions& options) {
  CheckInstance(instance);
  RPQI_ASSIGN_OR_RETURN(CandidateEdges space, CandidateSpace(instance));
  CdaSolver solver(instance, space, c, d, /*want_query_pair=*/false,
                   options.max_nodes, options.budget);
  StatusOr<CdaResult> result = solver.Solve();
  if (!result.ok()) return result;
  // (c,d) is certain iff no consistent counterexample database exists.
  result->certain = !result->witness.has_value();
  return result;
}

StatusOr<CdaResult> PossibleAnswerCda(const AnsweringInstance& instance, int c,
                                      int d, const CdaOptions& options) {
  CheckInstance(instance);
  RPQI_ASSIGN_OR_RETURN(CandidateEdges space, CandidateSpace(instance));
  CdaSolver solver(instance, space, c, d, /*want_query_pair=*/true,
                   options.max_nodes, options.budget);
  StatusOr<CdaResult> result = solver.Solve();
  if (!result.ok()) return result;
  result->certain = result->witness.has_value();  // here: "possible"
  return result;
}

bool CertainAnswerCdaBruteForce(const AnsweringInstance& instance, int c,
                                int d) {
  CheckInstance(instance);
  StatusOr<CandidateEdges> candidates = CandidateSpace(instance);
  RPQI_CHECK(candidates.ok() && candidates->Count() <= 24)
      << "brute force oracle limited to 2^24 DBs";
  const CandidateEdges& space = *candidates;
  const FlatNfa query = CompileEvalPlan(instance.query);
  std::vector<FlatNfa> view_plans;
  for (const View& view : instance.views) {
    view_plans.push_back(CompileEvalPlan(view.definition));
  }
  EvalScratch scratch;

  for (uint32_t mask = 0; mask < (uint32_t{1} << space.Count()); ++mask) {
    std::vector<char> edge_state(space.Count(), kOut);
    for (int index = 0; index < space.Count(); ++index) {
      if ((mask >> index) & 1) edge_state[index] = kIn;
    }
    GraphDb db = BuildGraph(space, edge_state, /*include_unknown=*/false);
    if (!ConsistentWithViews(instance, view_plans, db, &scratch)) continue;
    // A consistent database without (c,d): a counterexample.
    if (!EvalRpqiPair(db, query, c, d, &scratch)) return false;
  }
  return true;
}

}  // namespace rpqi
