#include "graphdb/eval.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpq/alphabet.h"

namespace rpqi {

/// The one product BFS every eval entry point runs on (DESIGN.md §16).
class EvalKernel {
 public:
  /// Discovers the (state, node) configurations reachable from `start_node`
  /// in every initial state and marks in `scratch.answers_` the nodes reached
  /// in an accepting state. Charges one budget unit per discovered
  /// configuration and checks the budget on every expansion.
  ///
  /// The inner loop walks the plan's contiguous edge span for the expanded
  /// state against the graph's per-(relation, direction) CSR span — two flat
  /// arrays, no per-state pointer chasing on either side.
  static Status Run(const GraphDb& db, const FlatNfa& plan, int start_node,
                    Budget* budget, EvalScratch& scratch) {
    // Counters are accumulated in locals and flushed once per BFS: the
    // all-pairs sweep runs this once per source node, so per-config atomic
    // traffic would dominate the loop.
    static const obs::Counter bfs_runs("eval.bfs_runs");
    static const obs::Counter configurations("eval.configurations");
    RPQI_CHECK(0 <= start_node && start_node < db.NumNodes());
    const int num_states = plan.NumStates();

    // Every stamp is at most epoch_, so the next epoch marks nothing as seen:
    // growing zero-extends, and a wrap re-zeroes the table once.
    std::vector<uint16_t>& stamps = scratch.stamps_;
    const size_t cells = static_cast<size_t>(db.NumNodes()) * num_states;
    if (stamps.size() < cells) stamps.resize(cells, 0);
    if (scratch.epoch_ == std::numeric_limits<uint16_t>::max()) {
      std::fill(stamps.begin(), stamps.end(), 0);
      scratch.epoch_ = 0;
    }
    const uint16_t epoch = ++scratch.epoch_;
    // A pair query or a failed run leaves its answers marked, and a failed
    // run leaves its stack.
    ClearAnswers(scratch);
    const size_t words = (static_cast<size_t>(db.NumNodes()) + 63) / 64;
    if (scratch.answers_.size() < words) scratch.answers_.resize(words, 0);
    std::vector<std::pair<int, int>>& stack = scratch.stack_;
    stack.clear();

    // Raw pointers: the stack's push_back may reallocate, and the compiler
    // would otherwise reload these through `scratch` after every push.
    uint16_t* const seen = stamps.data();
    uint64_t* const answers = scratch.answers_.data();
    int lo = db.NumNodes();
    int hi = -1;
    int64_t discovered = 0;
    Status charge_status = Status::Ok();
    auto visit = [&](int state, int node) {
      uint16_t& stamp = seen[static_cast<size_t>(node) * num_states + state];
      if (stamp != epoch) {
        stamp = epoch;
        ++discovered;
        if (charge_status.ok()) charge_status = BudgetCharge(budget, 1);
        stack.push_back({state, node});
        if (plan.IsAccepting(state)) {
          answers[node >> 6] |= uint64_t{1} << (node & 63);
          lo = std::min(lo, node);
          hi = std::max(hi, node);
        }
      }
    };
    for (int32_t s : plan.InitialStates()) visit(s, start_node);

    auto flush = [&] {
      scratch.answers_lo_ = lo;
      scratch.answers_hi_ = hi;
      bfs_runs.Increment();
      configurations.Add(discovered);
    };
    while (!stack.empty()) {
      if (!charge_status.ok()) {
        flush();
        return charge_status;
      }
      if (Status check = BudgetCheck(budget); !check.ok()) {
        flush();
        return check;
      }
      auto [state, node] = stack.back();
      stack.pop_back();
      for (const FlatNfa::Edge& t : plan.Edges(state)) {
        int relation = SignedAlphabet::RelationOfSymbol(t.symbol);
        // Contiguous span of exactly the edges carrying this label — the
        // whole point of the CSR-by-(relation, direction) layout.
        std::span<const uint32_t> targets =
            SignedAlphabet::IsInverseSymbol(t.symbol)
                ? db.InTargets(node, relation)
                : db.OutTargets(node, relation);
        for (uint32_t other : targets) visit(t.to, static_cast<int>(other));
      }
    }
    flush();
    return charge_status;
  }

  /// Whether the last run reached `node` in an accepting state.
  static bool Answered(const EvalScratch& scratch, int node) {
    return (scratch.answers_[node >> 6] >> (node & 63)) & 1;
  }

  /// Calls `emit(node)` for every answer of the last run in ascending node
  /// order, clearing the marks as it goes.
  template <typename Emit>
  static void DrainAnswers(EvalScratch& scratch, Emit emit) {
    for (int w = scratch.answers_lo_ >> 6; w <= scratch.answers_hi_ >> 6;
         ++w) {
      for (uint64_t bits = std::exchange(scratch.answers_[w], 0); bits != 0;
           bits &= bits - 1) {
        emit((w << 6) + std::countr_zero(bits));
      }
    }
    scratch.answers_hi_ = -1;
  }

 private:
  static void ClearAnswers(EvalScratch& scratch) {
    DrainAnswers(scratch, [](int) {});
  }
};

FlatNfa CompileEvalPlan(const Nfa& query) {
  static const obs::Counter plan_compiles("eval.plan_compiles");
  plan_compiles.Increment();
  return CompileFlat(query);
}

StatusOr<Bitset> EvalRpqiFromWithBudget(const GraphDb& db, const FlatNfa& plan,
                                        int start_node, Budget* budget,
                                        EvalScratch* scratch) {
  EvalScratch local;
  EvalScratch& s = scratch != nullptr ? *scratch : local;
  RPQI_RETURN_IF_ERROR(EvalKernel::Run(db, plan, start_node, budget, s));
  Bitset answer(db.NumNodes());
  EvalKernel::DrainAnswers(s, [&](int node) { answer.Set(node); });
  return answer;
}

StatusOr<std::vector<std::pair<int, int>>> EvalRpqiAllPairsWithBudget(
    const GraphDb& db, const FlatNfa& plan, Budget* budget,
    EvalScratch* scratch) {
  // Per-pair/per-start spans would flood the trace (a sweep runs the
  // single-source kernel once per node); only the all-pairs sweep is coarse
  // enough to be worth a span.
  obs::Span span("eval.all_pairs");
  EvalScratch local;
  EvalScratch& s = scratch != nullptr ? *scratch : local;
  std::vector<std::pair<int, int>> answer;
  // Each source's answers drain in node order and sources ascend, so the
  // list comes out sorted.
  for (int x = 0; x < db.NumNodes(); ++x) {
    RPQI_RETURN_IF_ERROR(EvalKernel::Run(db, plan, x, budget, s));
    EvalKernel::DrainAnswers(s, [&](int y) { answer.push_back({x, y}); });
  }
  return answer;
}

StatusOr<bool> EvalRpqiPairWithBudget(const GraphDb& db, const FlatNfa& plan,
                                      int from, int to, Budget* budget,
                                      EvalScratch* scratch) {
  RPQI_CHECK(0 <= to && to < db.NumNodes());
  EvalScratch local;
  EvalScratch& s = scratch != nullptr ? *scratch : local;
  RPQI_RETURN_IF_ERROR(EvalKernel::Run(db, plan, from, budget, s));
  return EvalKernel::Answered(s, to);
}

Bitset EvalRpqiFrom(const GraphDb& db, const FlatNfa& plan, int start_node,
                    EvalScratch* scratch) {
  StatusOr<Bitset> result =
      EvalRpqiFromWithBudget(db, plan, start_node, nullptr, scratch);
  RPQI_CHECK(result.ok());
  return std::move(result).value();
}

std::vector<std::pair<int, int>> EvalRpqiAllPairs(const GraphDb& db,
                                                  const FlatNfa& plan,
                                                  EvalScratch* scratch) {
  StatusOr<std::vector<std::pair<int, int>>> result =
      EvalRpqiAllPairsWithBudget(db, plan, nullptr, scratch);
  RPQI_CHECK(result.ok());
  return std::move(result).value();
}

bool EvalRpqiPair(const GraphDb& db, const FlatNfa& plan, int from, int to,
                  EvalScratch* scratch) {
  StatusOr<bool> result =
      EvalRpqiPairWithBudget(db, plan, from, to, nullptr, scratch);
  RPQI_CHECK(result.ok());
  return *result;
}

}  // namespace rpqi
