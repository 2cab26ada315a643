#ifndef RPQI_ANSWER_ODA_H_
#define RPQI_ANSWER_ODA_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "answer/views.h"
#include "base/budget.h"
#include "base/status.h"
#include "graphdb/graph.h"

namespace rpqi {

/// Options for the on-the-fly A_ODA emptiness check (the problem is
/// PSPACE-complete in the expressions, Theorem 16; the lazily discovered
/// state space is capped).
struct OdaOptions {
  int64_t max_states = int64_t{1} << 22;
  /// Optional execution budget (borrowed): deadline / cancellation / state
  /// quota, enforced during both context construction and every probe.
  Budget* budget = nullptr;
};

struct OdaResult {
  bool certain = false;  // or `possible` for the possible-answer check
  /// When a witness exists: a canonical counterexample (or possibility
  /// witness) database and its linearization (Theorem 15's witness).
  std::optional<GraphDb> counterexample;
  std::optional<std::vector<int>> counterexample_word;
  int64_t states_explored = 0;
  /// Antichain accounting from the deciding emptiness search (zero when the
  /// probe was decided on a materialized DFA): frontier states discarded
  /// because a queued state subsumed them, and live antichain members when
  /// the search stopped.
  int64_t states_pruned = 0;
  int64_t antichain_size = 0;
};

/// Theorems 15/16 decision procedure, amortized over many probe pairs: the
/// solver builds the view-side automata of Section 5.2 once —
///   * the structure automaton A0 plus per-object occurrence automata,
///   * a two-way automaton A_(def(Vi),a,b) per extension pair of every view
///     (sound and exact), intersected positively,
///   * a two-way automaton A_Vi per exact view (union of A_(Vi,a) over first
///     components and A_(Vi,other)), intersected complemented —
/// materializes/minimizes/folds them within the budget, and reuses that
/// context for every (c,d) probe; only the query automaton A_(Q,c,d) is built
/// per probe. Complete views are normalized to exact views on construction.
class OdaSolver {
 public:
  explicit OdaSolver(const AnsweringInstance& instance,
                     const OdaOptions& options = {});
  ~OdaSolver();

  OdaSolver(const OdaSolver&) = delete;
  OdaSolver& operator=(const OdaSolver&) = delete;

  /// Is (c,d) in ans(Q,B) for every consistent B (certain answer)?
  StatusOr<OdaResult> CertainAnswer(int c, int d);
  /// Is (c,d) in ans(Q,B) for some consistent B (possible answer)? The
  /// result's `certain` field then means "possible".
  StatusOr<OdaResult> PossibleAnswer(int c, int d);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot conveniences (construct a solver, run one probe).
StatusOr<OdaResult> CertainAnswerOda(const AnsweringInstance& instance, int c,
                                     int d, const OdaOptions& options = {});
StatusOr<OdaResult> PossibleAnswerOda(const AnsweringInstance& instance, int c,
                                      int d, const OdaOptions& options = {});

/// Independent validation of a counterexample: `db`'s first
/// `instance.num_objects` nodes are the objects; checks view consistency and
/// (c,d) ∉ ans(Q, db) with the graphdb evaluator only.
bool VerifyOdaCounterexample(const AnsweringInstance& instance, int c, int d,
                             const GraphDb& db);

}  // namespace rpqi

#endif  // RPQI_ANSWER_ODA_H_
