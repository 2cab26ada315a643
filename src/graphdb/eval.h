#ifndef RPQI_GRAPHDB_EVAL_H_
#define RPQI_GRAPHDB_EVAL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "automata/flat.h"
#include "automata/nfa.h"
#include "base/bitset.h"
#include "base/budget.h"
#include "base/status.h"
#include "graphdb/graph.h"

namespace rpqi {

/// Compiles a query to its eval plan: CompileFlat plus the
/// `eval.plan_compiles` counter. Eval takes only compiled plans, so every
/// caller compiles once and holds the plan for as many runs as it needs (the
/// all-pairs sweep, a serve request, a CDA solver); the counter is how
/// tests pin that compiles never scale with the number of BFS runs.
FlatNfa CompileEvalPlan(const Nfa& query);

/// Caller-owned working memory of the eval kernel, reused across runs
/// (DESIGN.md §16). A run costs O(configurations discovered) plus one word
/// per 64 nodes between its lowest and highest answer, not O(N×S): the
/// (node, state) visited table is epoch-stamped, so starting a run bumps one
/// counter instead of zero-filling N×S cells, and answers are marked in a
/// node bitmap as configurations are discovered instead of found by
/// scanning the table. The table grows to the largest N×S seen and is
/// re-zeroed only when the 16-bit epoch wraps (once per 65,535 runs). A
/// scratch may be reused across plans, graphs and start nodes, and after a
/// run that failed mid-BFS. It is not thread-safe: one scratch per thread.
class EvalScratch {
 public:
  EvalScratch() = default;
  EvalScratch(const EvalScratch&) = delete;
  EvalScratch& operator=(const EvalScratch&) = delete;

 private:
  friend class EvalKernel;

  std::vector<uint16_t> stamps_;  // [node * states + state] == epoch_: seen
  uint16_t epoch_ = 0;
  std::vector<std::pair<int, int>> stack_;  // (state, node) to expand
  // Bit per node reached in an accepting state by the last run; every set
  // bit lies in nodes [answers_lo_, answers_hi_] (empty when hi < lo).
  std::vector<uint64_t> answers_;
  int answers_lo_ = 0;
  int answers_hi_ = -1;
};

/// Evaluates an RPQI over a database: the set of nodes y such that some
/// semipath from x to y conforms to the query (Section 2 semantics — forward
/// symbols 2k follow edges of relation k, inverse symbols 2k+1 traverse them
/// backwards). Product-graph BFS over (query state, node), walking the plan's
/// edge spans against the graph's LabelCsr spans.
///
/// The budget is charged one unit per discovered (state, node) configuration
/// and checked on every expansion; a null budget is unlimited. A null
/// `scratch` runs on a call-local one. `plan` must satisfy the FlatNfa
/// invariants (CompileEvalPlan output, or a deserialized plan that passed
/// ValidateFlatNfa).
StatusOr<Bitset> EvalRpqiFromWithBudget(const GraphDb& db, const FlatNfa& plan,
                                        int start_node, Budget* budget,
                                        EvalScratch* scratch = nullptr);

/// ans(query, db) as a sorted list of node pairs: one run per source node,
/// all on the same scratch, each source's answers emitted in order.
StatusOr<std::vector<std::pair<int, int>>> EvalRpqiAllPairsWithBudget(
    const GraphDb& db, const FlatNfa& plan, Budget* budget,
    EvalScratch* scratch = nullptr);

/// Membership of one pair in ans(query, db). Runs the whole BFS from `from`
/// (no early exit), so its counters equal EvalRpqiFromWithBudget's.
StatusOr<bool> EvalRpqiPairWithBudget(const GraphDb& db, const FlatNfa& plan,
                                      int from, int to, Budget* budget,
                                      EvalScratch* scratch = nullptr);

/// Unbudgeted forms of the three entry points above.
Bitset EvalRpqiFrom(const GraphDb& db, const FlatNfa& plan, int start_node,
                    EvalScratch* scratch = nullptr);
std::vector<std::pair<int, int>> EvalRpqiAllPairs(
    const GraphDb& db, const FlatNfa& plan, EvalScratch* scratch = nullptr);
bool EvalRpqiPair(const GraphDb& db, const FlatNfa& plan, int from, int to,
                  EvalScratch* scratch = nullptr);

}  // namespace rpqi

#endif  // RPQI_GRAPHDB_EVAL_H_
