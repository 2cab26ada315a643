#include "answer/cda.h"

#include <algorithm>
#include <limits>
#include <new>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/validate.h"
#include "fault/fault.h"
#include "graphdb/eval.h"
#include "graphdb/mask_db.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rpqi {

namespace {

/// Candidate edge (from, relation, to) in the dense enumeration order:
/// index = (from · objects + to) · relations + relation.
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
/// bits. The solver indexes edges with int, so a space past the int range is
/// rejected here, before anything is allocated: a wrapped count would make
/// the search silently wrong or abort the process.
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

/// A builder with the nodes "obj0".."obj<n-1>" and no edges.
GraphBuilder ObjectNodes(int num_objects) {
  GraphBuilder db;
  for (int i = 0; i < num_objects; ++i) db.AddNode("obj" + std::to_string(i));
  return db;
}

/// The database of the edges set in `edges`, added in candidate index order.
GraphDb BuildGraph(const MaskDb& edges) {
  GraphBuilder db = ObjectNodes(edges.num_objects());
  for (int from = 0; from < edges.num_objects(); ++from) {
    for (int to = 0; to < edges.num_objects(); ++to) {
      for (int relation = 0; relation < edges.num_relations(); ++relation) {
        if (edges.HasEdge(from, relation, to)) db.AddEdge(from, relation, to);
      }
    }
  }
  return std::move(db).Build();
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

/// The brute-force oracles' enumeration: is there a database consistent with
/// the views whose answer to the query contains (c,d) exactly when
/// `want_query_pair`?
bool SomeConsistentDatabase(const AnsweringInstance& instance, int c, int d,
                            bool want_query_pair) {
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
    GraphBuilder builder = ObjectNodes(space.num_objects);
    for (int index = 0; index < space.Count(); ++index) {
      if ((mask >> index) & 1) {
        int from, relation, to;
        space.Decode(index, &from, &relation, &to);
        builder.AddEdge(from, relation, to);
      }
    }
    const GraphDb db = std::move(builder).Build();
    if (!ConsistentWithViews(instance, view_plans, db, &scratch)) continue;
    if (EvalRpqiPair(db, query, c, d, &scratch) == want_query_pair) {
      return true;
    }
  }
  return false;
}

}  // namespace

struct CdaSolver::Impl {
  /// One view's compiled definition, with its extension as one mask row per
  /// first component: row a holds every b with (a, b) in ext(V).
  struct ViewCheck {
    FlatNfa plan;
    bool needs_lower_bound;  // sound or exact: ext ⊆ ans
    bool needs_upper_bound;  // complete or exact: ans ⊆ ext
    std::vector<uint64_t> extension;  // [object][word]
  };

  /// Which of the two graphs a branch changed: excluding an edge shrinks
  /// the upper graph, including one grows the lower graph.
  enum class Changed { kBoth, kLower, kUpper };

  CandidateEdges space;
  int64_t max_nodes;
  Budget* budget;
  FlatNfa query_plan;
  std::vector<ViewCheck> views;
  MaskDb lower;
  MaskDb upper;
  MaskEvaluator evaluator;

  // The probe in progress.
  int c = 0;
  int d = 0;
  bool want_query_pair = false;
  int64_t nodes_visited = 0;
  int64_t evals = 0;
  std::optional<GraphDb> witness;

  Impl(const AnsweringInstance& instance, const CandidateEdges& space_in,
       const CdaOptions& options)
      : space(space_in),
        max_nodes(options.max_nodes),
        budget(options.budget),
        query_plan(CompileEvalPlan(instance.query)),
        views(CompileViews(instance)),
        lower(space.num_objects, space.num_relations),
        upper(space.num_objects, space.num_relations),
        evaluator(MaxStates(query_plan, views), space.num_objects) {}

  static std::vector<ViewCheck> CompileViews(
      const AnsweringInstance& instance) {
    const int words = (instance.num_objects + 63) / 64;
    std::vector<ViewCheck> checks;
    checks.reserve(instance.views.size());
    for (const View& view : instance.views) {
      ViewCheck check{CompileEvalPlan(view.definition),
                      view.assumption != ViewAssumption::kComplete,
                      view.assumption != ViewAssumption::kSound,
                      std::vector<uint64_t>(
                          static_cast<size_t>(instance.num_objects) * words)};
      for (const auto& [a, b] : view.extension) {
        check.extension[static_cast<size_t>(a) * words + (b >> 6)] |=
            uint64_t{1} << (b & 63);
      }
      checks.push_back(std::move(check));
    }
    return checks;
  }

  static int MaxStates(const FlatNfa& query,
                       const std::vector<ViewCheck>& views) {
    int states = query.NumStates();
    for (const ViewCheck& view : views) {
      states = std::max(states, view.plan.NumStates());
    }
    return states;
  }

  StatusOr<CdaResult> Probe(int c_in, int d_in, bool want_query_pair_in) {
    static const obs::Counter probes("cda.probes");
    static const obs::Counter visited_counter("cda.nodes_visited");
    static const obs::Counter evals_counter("cda.evals");
    RPQI_CHECK(0 <= c_in && c_in < space.num_objects && 0 <= d_in &&
               d_in < space.num_objects)
        << "probe (" << c_in << "," << d_in << ") outside "
        << space.num_objects << " objects";
    obs::Span span("answer.CDA.probe");
    probes.Increment();
    c = c_in;
    d = d_in;
    want_query_pair = want_query_pair_in;
    nodes_visited = 0;
    evals = 0;
    witness.reset();
    // Every candidate edge starts undecided: in U, not in L.
    lower.Clear();
    upper.Fill();
    Status status = Search(0, Changed::kBoth);
    // Flushed once per probe, even on budget exhaustion.
    visited_counter.Add(nodes_visited);
    evals_counter.Add(evals);
    span.Note("nodes_visited", nodes_visited);
    span.Note("evals", evals);
    if (!status.ok()) return status;
    CdaResult result;
    result.nodes_visited = nodes_visited;
    result.witness = std::move(witness);
    if (result.witness.has_value()) {
      // A witness database leaves the solver and is re-evaluated by callers:
      // its edges must stay within the instance's relation alphabet.
      RPQI_VALIDATE_STAGE(
          ValidateGraphDb(*result.witness, space.num_relations));
    }
    return result;
  }

  /// Backtracking search below the node whose undecided edges are
  /// [next_edge, Count()). Only branching decides edges, always the first
  /// undecided one in index order, so the decided edges are the prefix.
  ///
  /// Pruning bounds. Monotonicity of RPQIs (more edges ⇒ more answers) gives:
  ///  * lower graph L (edges in): any completion has ans ⊇ ans(·, L);
  ///  * upper graph U (edges not out): any completion has ans ⊆ ans(·, U).
  /// A check on a graph the branch left unchanged passed at the parent, so
  /// it is not run again.
  Status Search(int next_edge, Changed changed) {
    if (++nodes_visited > max_nodes) {
      return Status::ResourceExhausted("CDA search exceeded node budget");
    }
    RPQI_RETURN_IF_ERROR(BudgetCharge(budget, 1));
    const bool lower_changed = changed != Changed::kUpper;
    const bool upper_changed = changed != Changed::kLower;

    // --- Pruning (conditions that no completion of this assignment can fix).
    for (const ViewCheck& view : views) {
      // ext ⊆ ans must be achievable: ans over U is the best case.
      if (upper_changed && view.needs_lower_bound && !Covers(upper, view)) {
        return Status::Ok();
      }
      // ans ⊆ ext must be achievable: ans over L is the least case.
      if (lower_changed && view.needs_upper_bound && !Within(lower, view)) {
        return Status::Ok();
      }
    }
    if (!want_query_pair && lower_changed && QueryAnswers(lower)) {
      return Status::Ok();  // (c,d) already forced into the answer
    }
    if (want_query_pair && upper_changed && !QueryAnswers(upper)) {
      return Status::Ok();  // (c,d) can no longer be answered
    }

    // --- Early acceptance: L itself may already witness the goal. This
    // depends on L alone, and a branch that kept L knows the parent's failed.
    if (lower_changed && LowerGraphWorks()) {
      witness = BuildGraph(lower);
      return Status::Ok();
    }

    // --- Complete assignment: L == U, so the pruning checks above make L
    // consistent, and L does not meet the query goal.
    if (next_edge == space.Count()) return Status::Ok();

    // --- Branch: try excluding the edge first (biases the search toward
    // sparse witnesses, which are the interesting ones for certain answers),
    // then including it.
    int from, relation, to;
    space.Decode(next_edge, &from, &relation, &to);
    upper.RemoveEdge(from, relation, to);
    RPQI_RETURN_IF_ERROR(Search(next_edge + 1, Changed::kUpper));
    if (witness.has_value()) return Status::Ok();
    upper.AddEdge(from, relation, to);
    lower.AddEdge(from, relation, to);
    RPQI_RETURN_IF_ERROR(Search(next_edge + 1, Changed::kLower));
    if (witness.has_value()) return Status::Ok();
    lower.RemoveEdge(from, relation, to);
    return Status::Ok();
  }

  std::span<const uint64_t> Eval(const MaskDb& db, const FlatNfa& plan,
                                 int source) {
    ++evals;
    return evaluator.Run(db, plan, source);
  }

  bool QueryAnswers(const MaskDb& db) {
    return MaskEvaluator::Contains(Eval(db, query_plan, c), d);
  }

  /// ext(V) ⊆ ans(def(V), db): one evaluation per object with a nonempty
  /// extension row.
  bool Covers(const MaskDb& db, const ViewCheck& view) {
    const int words = db.words();
    for (int a = 0; a < db.num_objects(); ++a) {
      const uint64_t* required =
          view.extension.data() + static_cast<size_t>(a) * words;
      if (std::all_of(required, required + words,
                      [](uint64_t word) { return word == 0; })) {
        continue;
      }
      std::span<const uint64_t> answers = Eval(db, view.plan, a);
      for (int k = 0; k < words; ++k) {
        if ((required[k] & ~answers[k]) != 0) return false;
      }
    }
    return true;
  }

  /// ans(def(V), db) ⊆ ext(V).
  bool Within(const MaskDb& db, const ViewCheck& view) {
    const int words = db.words();
    for (int a = 0; a < db.num_objects(); ++a) {
      std::span<const uint64_t> answers = Eval(db, view.plan, a);
      const uint64_t* allowed =
          view.extension.data() + static_cast<size_t>(a) * words;
      for (int k = 0; k < words; ++k) {
        if ((answers[k] & ~allowed[k]) != 0) return false;
      }
    }
    return true;
  }

  /// True if the lower graph L is consistent and meets the query goal — an
  /// early accept that skips the remaining branching. Called after the
  /// pruning checks passed on L: ans ⊆ ext already holds for every view,
  /// and a certain-answer probe already knows (c,d) ∉ ans(Q, L).
  bool LowerGraphWorks() {
    if (want_query_pair && !QueryAnswers(lower)) return false;
    for (const ViewCheck& view : views) {
      if (view.needs_lower_bound && !Covers(lower, view)) return false;
    }
    return true;
  }
};

CdaSolver::CdaSolver(const AnsweringInstance& instance,
                     const CdaOptions& options) {
  CheckInstance(instance);
  StatusOr<CandidateEdges> space = CandidateSpace(instance);
  if (!space.ok()) {
    space_status_ = space.status();
    return;
  }
  if (RPQI_FAULT_FIRED("cda.mask_alloc")) throw std::bad_alloc();
  impl_ = std::make_unique<Impl>(instance, *space, options);
}

CdaSolver::~CdaSolver() = default;

StatusOr<CdaResult> CdaSolver::CertainAnswer(int c, int d) {
  RPQI_RETURN_IF_ERROR(space_status_);
  StatusOr<CdaResult> result = impl_->Probe(c, d, /*want_query_pair=*/false);
  if (!result.ok()) return result;
  // (c,d) is certain iff no consistent counterexample database exists.
  result->certain = !result->witness.has_value();
  return result;
}

StatusOr<CdaResult> CdaSolver::PossibleAnswer(int c, int d) {
  RPQI_RETURN_IF_ERROR(space_status_);
  StatusOr<CdaResult> result = impl_->Probe(c, d, /*want_query_pair=*/true);
  if (!result.ok()) return result;
  result->certain = result->witness.has_value();  // here: "possible"
  return result;
}

StatusOr<CdaResult> CertainAnswerCda(const AnsweringInstance& instance, int c,
                                     int d, const CdaOptions& options) {
  return CdaSolver(instance, options).CertainAnswer(c, d);
}

StatusOr<CdaResult> PossibleAnswerCda(const AnsweringInstance& instance, int c,
                                      int d, const CdaOptions& options) {
  return CdaSolver(instance, options).PossibleAnswer(c, d);
}

bool CertainAnswerCdaBruteForce(const AnsweringInstance& instance, int c,
                                int d) {
  // Certain iff no consistent database leaves (c,d) out.
  return !SomeConsistentDatabase(instance, c, d, /*want_query_pair=*/false);
}

bool PossibleAnswerCdaBruteForce(const AnsweringInstance& instance, int c,
                                 int d) {
  return SomeConsistentDatabase(instance, c, d, /*want_query_pair=*/true);
}

}  // namespace rpqi
