#ifndef RPQI_ANSWER_CDA_H_
#define RPQI_ANSWER_CDA_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "answer/views.h"
#include "base/budget.h"
#include "base/status.h"
#include "graphdb/graph.h"

namespace rpqi {

/// Options for the CDA solver. The search is worst-case exponential in the
/// number of candidate edges (the problem is co-NP-complete, Theorem 11);
/// `max_nodes` bounds the number of search nodes each probe visits, and
/// `budget` (optional, borrowed) adds wall-clock deadline / cancellation
/// enforcement checked at every search node.
struct CdaOptions {
  int64_t max_nodes = int64_t{1} << 22;
  Budget* budget = nullptr;
};

/// Result of a certain/possible-answer check, with the witnessing database
/// when the answer is "not certain" (resp. "possible").
struct CdaResult {
  bool certain = false;              // or `possible` for PossibleAnswer
  std::optional<GraphDb> witness;    // counterexample / possibility witness
  int64_t nodes_visited = 0;
};

/// Theorem 11 decision procedure, amortized over many probe pairs. Under the
/// Closed Domain Assumption the nodes of a consistent database are exactly
/// the objects of D_V, so a probe searches the space of edge sets over
/// D_V × Σ × D_V by backtracking with monotonicity-based pruning: RPQI
/// answers grow with the edge set, so the forced-in lower graph bounds ans
/// from below and the not-yet-excluded upper graph bounds it from above.
/// Both graphs are bitmask databases (graphdb/mask_db.h) and are the whole
/// search state: an edge is in when its lower bit is set and out when its
/// upper bit is clear, and a branch flips one bit in place.
///
/// The solver compiles the query and every view definition and allocates its
/// masks once, on construction; every probe reuses them. `max_nodes` and the
/// result's `nodes_visited` are per probe. A candidate space |D_V|² · |Σ|
/// past the int range allocates nothing and makes every probe
/// InvalidArgument. The solver keeps no reference to `instance`.
class CdaSolver {
 public:
  explicit CdaSolver(const AnsweringInstance& instance,
                     const CdaOptions& options = {});
  ~CdaSolver();

  CdaSolver(const CdaSolver&) = delete;
  CdaSolver& operator=(const CdaSolver&) = delete;

  /// Is (c,d) in ans(Q,B) for every consistent B (certain answer)? When it
  /// is not, the witness is a consistent database without (c,d).
  StatusOr<CdaResult> CertainAnswer(int c, int d);
  /// Is (c,d) in ans(Q,B) for some consistent B (possible answer)? The
  /// result's `certain` field then means "possible", and the witness is
  /// such a B.
  StatusOr<CdaResult> PossibleAnswer(int c, int d);

 private:
  struct Impl;
  Status space_status_;
  std::unique_ptr<Impl> impl_;
};

/// One-shot conveniences (construct a solver, run one probe).
StatusOr<CdaResult> CertainAnswerCda(const AnsweringInstance& instance, int c,
                                     int d, const CdaOptions& options = {});
StatusOr<CdaResult> PossibleAnswerCda(const AnsweringInstance& instance, int c,
                                      int d, const CdaOptions& options = {});

/// Exhaustive oracles for tests: enumerate all 2^(|D_V|²·|Σ|) candidate
/// databases and evaluate each on the GraphDb eval kernel, independently of
/// the solver's masks. (c,d) is certain when every consistent database
/// answers it, and possible when some consistent database does. Abort if
/// more than 24 candidate edges exist.
bool CertainAnswerCdaBruteForce(const AnsweringInstance& instance, int c,
                                int d);
bool PossibleAnswerCdaBruteForce(const AnsweringInstance& instance, int c,
                                 int d);

}  // namespace rpqi

#endif  // RPQI_ANSWER_CDA_H_
