#include "answer/oda.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "analysis/validate.h"
#include "answer/linearize.h"
#include "automata/lazy.h"
#include "automata/ops.h"
#include "automata/table_dfa.h"
#include "graphdb/eval.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rpqi {

namespace {

/// Before the view context is folded, each view-side part whose reachable
/// translation fits this many states is materialized and Hopcroft-minimized
/// (and so is the query part in phase 2); parts beyond it stay lazy.
/// Minimized parts shrink the product space by orders of magnitude.
constexpr int64_t kPartMaterializeBudget = int64_t{1} << 22;

/// Disjoint union of two-way automata over the same alphabet (language
/// union; multi-initial two-way automata are handled by every consumer).
TwoWayNfa UnionTwoWay(const std::vector<TwoWayNfa>& parts) {
  RPQI_CHECK(!parts.empty());
  TwoWayNfa result(parts[0].num_symbols());
  // lint: allow-unbudgeted linear copy of the input parts
  for (const TwoWayNfa& part : parts) {
    RPQI_CHECK_EQ(part.num_symbols(), result.num_symbols());
    int offset = result.NumStates();
    for (int s = 0; s < part.NumStates(); ++s) result.AddState();
    for (int s = 0; s < part.NumStates(); ++s) {
      result.SetInitial(offset + s, part.IsInitial(s));
      result.SetAccepting(offset + s, part.IsAccepting(s));
      for (int symbol = 0; symbol < part.num_symbols(); ++symbol) {
        for (const TwoWayNfa::Transition& t : part.TransitionsOn(s, symbol)) {
          result.AddTransition(offset + s, symbol, offset + t.to, t.move);
        }
      }
    }
  }
  RPQI_VALIDATE_STAGE(ValidateTwoWay(result));
  return result;
}

/// The exact-view excess automaton A_Vi: accepts linearized words whose
/// database has an ans(def(Vi)) pair outside ext(Vi).
TwoWayNfa BuildExcessAutomaton(const View& view,
                               const LinearAlphabet& alphabet) {
  std::vector<TwoWayNfa> parts;

  std::vector<bool> is_first(alphabet.num_objects, false);
  for (const auto& pair : view.extension) is_first[pair.first] = true;

  // A_(Vi,a) per distinct first component: evaluate def from a; a violation is
  // an end at a constant b with (a,b) ∉ ext, or at an anonymous node.
  for (int a = 0; a < alphabet.num_objects; ++a) {
    if (!is_first[a]) continue;
    LinearEvalSpec spec;
    spec.start = LinearEvalSpec::Start::kAtConstant;
    spec.start_constant = a;
    spec.end = LinearEvalSpec::End::kNotInAllowed;
    spec.allowed_ends.assign(alphabet.num_objects, false);
    for (const auto& [from, to] : view.extension) {
      if (from == a) spec.allowed_ends[to] = true;
    }
    parts.push_back(
        BuildLinearizedEvalAutomaton(view.definition, alphabet, spec));
  }

  // A_(Vi,other): any successful evaluation anchored outside the first
  // components (constant not in firsts, or anonymous node) is a violation.
  LinearEvalSpec other;
  other.start = LinearEvalSpec::Start::kAnywhereExcept;
  other.excluded_starts = is_first;
  other.end = LinearEvalSpec::End::kAnywhere;
  parts.push_back(
      BuildLinearizedEvalAutomaton(view.definition, alphabet, other));

  return UnionTwoWay(parts);
}

/// Pairwise intersection with intermediate minimization: keeps every
/// intermediate automaton near its minimal size, which beats a flat BFS over
/// the k-way product by orders of magnitude when the intersection is empty.
/// Each pairwise product is capped at `max_states` and charged to `budget`.
StatusOr<Dfa> FoldIntersection(const Dfa& first,
                               const std::vector<const Dfa*>& rest,
                               int64_t max_states, Budget* budget) {
  Dfa accumulated = first;
  for (const Dfa* part : rest) {
    if (IsEmpty(accumulated)) break;  // intersection already empty
    LazyDfaFromDfa lhs(accumulated);
    LazyDfaFromDfa rhs(*part);
    LazyProductDfa product({&lhs, &rhs});
    StatusOr<Dfa> merged = MaterializeLazyDfa(&product, max_states, budget);
    if (!merged.ok()) return merged.status();
    accumulated = Minimize(*merged);
  }
  return accumulated;
}

}  // namespace

// ---------------------------------------------------------------------------
// OdaSolver

struct OdaSolver::Impl {
  AnsweringInstance instance;  // normalized: no complete views
  OdaOptions options;
  LinearAlphabet alphabet;

  // View-side automata, owned for the lifetime of the solver.
  std::vector<Nfa> one_way;
  std::vector<TwoWayNfa> positive_two_way;
  std::vector<TwoWayNfa> complemented_two_way;
  std::vector<std::unique_ptr<LazyDfa>> lazies;
  // Components that fit the materialization budget are folded into
  // `view_context`; the rest stay lazy in `leftovers`. Built on demand by
  // EnsureViewContext: probes decided by the antichain-pruned lazy search
  // never pay for materializing the view side at all.
  bool context_attempted = false;
  std::optional<Dfa> view_context;
  std::vector<LazyDfa*> leftovers;

  Impl(const AnsweringInstance& raw, const OdaOptions& options_in)
      : instance(NormalizeCompleteViews(raw)), options(options_in) {
    alphabet.sigma_symbols = instance.query.num_symbols();
    alphabet.num_objects = instance.num_objects;
    BuildViewSide();
  }

  void BuildViewSide() {
    one_way.push_back(BuildStructureAutomaton(alphabet));
    for (int object = 0; object < alphabet.num_objects; ++object) {
      one_way.push_back(BuildOccurrenceAutomaton(alphabet, object));
    }
    for (const View& view : instance.views) {
      RPQI_CHECK(view.assumption != ViewAssumption::kComplete)
          << "NormalizeCompleteViews left a complete view behind";
      for (const auto& [a, b] : view.extension) {
        LinearEvalSpec spec;
        spec.start = LinearEvalSpec::Start::kAtConstant;
        spec.start_constant = a;
        spec.end = LinearEvalSpec::End::kAtConstant;
        spec.end_constant = b;
        positive_two_way.push_back(
            BuildLinearizedEvalAutomaton(view.definition, alphabet, spec));
      }
      if (view.assumption == ViewAssumption::kExact) {
        complemented_two_way.push_back(BuildExcessAutomaton(view, alphabet));
      }
    }

    for (const Nfa& nfa : one_way) {
      lazies.push_back(std::make_unique<LazySubsetDfa>(nfa));
    }
    for (const TwoWayNfa& automaton : positive_two_way) {
      lazies.push_back(
          std::make_unique<LazyTableDfa>(automaton, /*complement=*/false));
    }
    for (const TwoWayNfa& automaton : complemented_two_way) {
      lazies.push_back(
          std::make_unique<LazyTableDfa>(automaton, /*complement=*/true));
    }
  }

  /// Materializes + minimizes the view parts that fit the budget and folds
  /// them into one context DFA. Runs at most once; the result is shared by
  /// every later probe, so the cost amortizes exactly as before — it is just
  /// no longer paid by solvers whose probes all resolve in the lazy phase.
  /// Every materialization and fold is charged to options.budget. A part
  /// over kPartMaterializeBudget stays lazy and a fold over max_states
  /// leaves no context, but a budget failure is returned, and the next
  /// probe tries again (and fails at once: budgets are sticky).
  Status EnsureViewContext() {
    if (context_attempted) return Status::Ok();
    std::vector<Dfa> minimized;
    std::vector<LazyDfa*> lazy_parts;
    for (auto& lazy : lazies) {
      StatusOr<Dfa> dfa = MaterializeLazyDfa(
          lazy.get(), kPartMaterializeBudget, options.budget);
      if (dfa.ok()) {
        minimized.push_back(Minimize(*dfa));
        continue;
      }
      RPQI_RETURN_IF_ERROR(BudgetCheck(options.budget));
      lazy_parts.push_back(lazy.get());
    }
    if (!minimized.empty()) {
      std::vector<const Dfa*> rest;
      for (size_t i = 1; i < minimized.size(); ++i) {
        rest.push_back(&minimized[i]);
      }
      StatusOr<Dfa> folded = FoldIntersection(
          minimized[0], rest, options.max_states, options.budget);
      if (folded.ok()) {
        view_context = std::move(folded).value();
      } else {
        RPQI_RETURN_IF_ERROR(BudgetCheck(options.budget));
      }
    }
    leftovers = std::move(lazy_parts);
    context_attempted = true;
    return Status::Ok();
  }

  /// Runs one probe. `complement_query` selects certain-answer search
  /// (counterexamples exclude the pair) vs possible-answer search.
  StatusOr<OdaResult> Probe(int c, int d, bool complement_query) {
    RPQI_CHECK(0 <= c && c < instance.num_objects);
    RPQI_CHECK(0 <= d && d < instance.num_objects);
    static const obs::Counter probes("oda.probes");
    static const obs::Counter overflows("oda.phase1_overflows");
    obs::Span probe_span("answer.ODA.probe");
    probes.Increment();

    LinearEvalSpec spec;
    spec.start = LinearEvalSpec::Start::kAtConstant;
    spec.start_constant = c;
    spec.end = LinearEvalSpec::End::kAtConstant;
    spec.end_constant = d;
    TwoWayNfa query_automaton =
        BuildLinearizedEvalAutomaton(instance.query, alphabet, spec);
    LazyTableDfa query_lazy(query_automaton, complement_query);

    // Phase 1: bounded witness search on the flat lazy product. Most
    // non-certain pairs have shallow counterexamples that surface within a
    // small state budget, long before the query component is materialized —
    // and with antichain pruning the search often decides the certain
    // direction outright. Before the view context exists, overflowing this
    // phase triggers the expensive materialization, so the cap is more
    // generous there; once the context is built, re-probing past a small cap
    // is cheap and phase 2 is the better tool.
    // Work done by an overflowing phase 1 must still show up in the final
    // result's accounting: the old code dropped the quick-search counters on
    // the floor, so a probe decided in phase 2 under-reported its
    // exploration.
    int64_t carried_explored = 0;
    int64_t carried_pruned = 0;
    {
      obs::Span phase_span("answer.ODA.phase1");
      std::vector<LazyDfa*> quick_parts;
      std::unique_ptr<LazyDfaFromDfa> quick_context;
      if (view_context.has_value()) {
        quick_context = std::make_unique<LazyDfaFromDfa>(*view_context);
        quick_parts.push_back(quick_context.get());
      } else {
        for (const auto& lazy : lazies) quick_parts.push_back(lazy.get());
      }
      for (LazyDfa* leftover : leftovers) quick_parts.push_back(leftover);
      quick_parts.push_back(&query_lazy);
      int64_t quick_budget = std::min<int64_t>(
          options.max_states, view_context.has_value() ? 50000 : 200000);
      EmptinessResult quick =
          FindAcceptedWord(quick_parts, quick_budget, options.budget);
      if (quick.outcome != EmptinessResult::Outcome::kLimitExceeded) {
        return Finish(c, d, complement_query, std::move(quick));
      }
      // A budget failure (deadline, cancellation, quota) is terminal, and
      // sticky; only an overflow of the phase's own cap falls through to the
      // exact phase.
      RPQI_RETURN_IF_ERROR(BudgetCheck(options.budget));
      overflows.Increment();
      carried_explored = quick.states_explored;
      carried_pruned = quick.states_pruned;
    }

    // Phase 2: fold the query component into the view context and decide
    // exactly (required for the certain/exhaustion direction).
    obs::Span phase_span("answer.ODA.phase2");
    RPQI_RETURN_IF_ERROR(EnsureViewContext());
    std::optional<Dfa> final_dfa;
    if (view_context.has_value()) {
      StatusOr<Dfa> query_dfa = MaterializeLazyDfa(
          &query_lazy, kPartMaterializeBudget, options.budget);
      if (query_dfa.ok()) {
        Dfa minimized = Minimize(*query_dfa);
        StatusOr<Dfa> folded = FoldIntersection(
            *view_context, {&minimized}, options.max_states, options.budget);
        if (folded.ok()) final_dfa = std::move(folded).value();
      }
      // Past a budget failure only an overflow falls through to the
      // unfolded parts below.
      if (!final_dfa.has_value()) {
        RPQI_RETURN_IF_ERROR(BudgetCheck(options.budget));
      }
    }

    // One search over whatever is left: the folded DFA, or the view context
    // and the query, or every part, each beside the leftovers.
    std::vector<LazyDfa*> product_parts;
    std::unique_ptr<LazyDfaFromDfa> context_lazy;
    if (final_dfa.has_value()) {
      context_lazy = std::make_unique<LazyDfaFromDfa>(std::move(*final_dfa));
      product_parts.push_back(context_lazy.get());
    } else if (view_context.has_value()) {
      context_lazy = std::make_unique<LazyDfaFromDfa>(*view_context);
      product_parts.push_back(context_lazy.get());
      product_parts.push_back(&query_lazy);
    } else {
      for (const auto& lazy : lazies) product_parts.push_back(lazy.get());
      product_parts.push_back(&query_lazy);
    }
    for (LazyDfa* leftover : leftovers) product_parts.push_back(leftover);
    EmptinessResult emptiness =
        FindAcceptedWord(product_parts, options.max_states, options.budget);
    if (emptiness.outcome == EmptinessResult::Outcome::kLimitExceeded) {
      RPQI_RETURN_IF_ERROR(BudgetCheck(options.budget));
      return Status::ResourceExhausted("A_ODA emptiness exceeded " +
                                       std::to_string(options.max_states) +
                                       " states");
    }

    emptiness.states_explored += carried_explored;
    emptiness.states_pruned += carried_pruned;
    return Finish(c, d, complement_query, std::move(emptiness));
  }

  /// Decodes and validates the outcome of an emptiness check.
  StatusOr<OdaResult> Finish(int c, int d, bool complement_query,
                             EmptinessResult emptiness) {
    OdaResult result;
    result.states_explored = emptiness.states_explored;
    result.states_pruned = emptiness.states_pruned;
    result.antichain_size = emptiness.antichain_size;
    if (emptiness.outcome == EmptinessResult::Outcome::kEmpty) {
      result.certain = complement_query;  // no witness against the claim
      return result;
    }
    StatusOr<GraphDb> witness_db =
        WordToCanonicalDb(emptiness.witness, alphabet);
    if (!witness_db.ok()) return witness_db.status();
    // Every counterexample is re-verified against the independent graphdb
    // evaluator (defense in depth; cheap relative to the search).
    if (complement_query) {
      RPQI_CHECK(VerifyOdaCounterexample(instance, c, d, *witness_db))
          << "A_ODA produced a witness the independent evaluator rejects";
    }
    result.certain = !complement_query;  // possible-answer witness found
    result.counterexample = std::move(witness_db).value();
    result.counterexample_word = std::move(emptiness.witness);
    return result;
  }
};

OdaSolver::OdaSolver(const AnsweringInstance& instance,
                     const OdaOptions& options)
    : impl_(std::make_unique<Impl>(instance, options)) {
  CheckInstance(instance);
}

OdaSolver::~OdaSolver() = default;

StatusOr<OdaResult> OdaSolver::CertainAnswer(int c, int d) {
  StatusOr<OdaResult> result = impl_->Probe(c, d, /*complement_query=*/true);
  if (!result.ok()) return result;
  result->certain = !result->counterexample.has_value();
  return result;
}

StatusOr<OdaResult> OdaSolver::PossibleAnswer(int c, int d) {
  StatusOr<OdaResult> result = impl_->Probe(c, d, /*complement_query=*/false);
  if (!result.ok()) return result;
  result->certain = result->counterexample.has_value();
  return result;
}

StatusOr<OdaResult> CertainAnswerOda(const AnsweringInstance& instance, int c,
                                     int d, const OdaOptions& options) {
  return OdaSolver(instance, options).CertainAnswer(c, d);
}

StatusOr<OdaResult> PossibleAnswerOda(const AnsweringInstance& instance, int c,
                                      int d, const OdaOptions& options) {
  return OdaSolver(instance, options).PossibleAnswer(c, d);
}

bool VerifyOdaCounterexample(const AnsweringInstance& instance, int c, int d,
                             const GraphDb& db) {
  EvalScratch scratch;
  for (const View& view : instance.views) {
    std::set<std::pair<int, int>> answers;
    for (const auto& pair :
         EvalRpqiAllPairs(db, CompileEvalPlan(view.definition), &scratch)) {
      answers.insert(pair);
    }
    std::set<std::pair<int, int>> extension(view.extension.begin(),
                                            view.extension.end());
    switch (view.assumption) {
      case ViewAssumption::kSound:
        for (const auto& pair : extension) {
          if (answers.find(pair) == answers.end()) return false;
        }
        break;
      case ViewAssumption::kComplete:
        for (const auto& pair : answers) {
          if (extension.find(pair) == extension.end()) return false;
        }
        break;
      case ViewAssumption::kExact:
        if (answers != extension) return false;
        break;
    }
  }
  return !EvalRpqiPair(db, CompileEvalPlan(instance.query), c, d, &scratch);
}

}  // namespace rpqi
