#ifndef RPQI_ANSWER_CDA_H_
#define RPQI_ANSWER_CDA_H_

#include <cstdint>
#include <optional>

#include "answer/views.h"
#include "base/budget.h"
#include "base/status.h"
#include "graphdb/graph.h"

namespace rpqi {

/// Options for the CDA solver. The search is worst-case exponential in the
/// number of candidate edges (the problem is co-NP-complete, Theorem 11);
/// `max_nodes` bounds the number of visited search nodes, and `budget`
/// (optional, borrowed) adds wall-clock deadline / cancellation enforcement
/// checked at every search node.
struct CdaOptions {
  int64_t max_nodes = int64_t{1} << 22;
  Budget* budget = nullptr;
};

/// Result of a certain/possible-answer check, with the witnessing database
/// when the answer is "not certain" (resp. "possible").
struct CdaResult {
  bool certain = false;              // or `possible` for PossibleAnswerCda
  std::optional<GraphDb> witness;    // counterexample / possibility witness
  int64_t nodes_visited = 0;
};

/// Theorem 11 decision procedure: is (c,d) a certain answer under the Closed
/// Domain Assumption? Under CDA the nodes of a consistent database are exactly
/// the objects of D_V, so the solver searches the space of edge sets over
/// D_V × Σ' × D_V by backtracking with three-valued edge states and
/// monotonicity-based pruning: RPQI answers grow with the edge set, so the
/// forced-in lower graph bounds ans from below and the not-yet-excluded upper
/// graph bounds it from above. The query and each view definition are
/// compiled to eval plans once per call. A candidate space |D_V|² · |Σ| past
/// the int range is InvalidArgument.
StatusOr<CdaResult> CertainAnswerCda(const AnsweringInstance& instance, int c,
                                     int d, const CdaOptions& options = {});

/// Dual check: is (c,d) in ans(Q, B) for *some* consistent B (a possible
/// answer)? Same solver with the query-side conditions flipped.
StatusOr<CdaResult> PossibleAnswerCda(const AnsweringInstance& instance, int c,
                                      int d, const CdaOptions& options = {});

/// Exhaustive oracle for tests: enumerates all 2^(|D_V|²·|Σ'|) candidate
/// databases. Aborts if more than 24 candidate edges exist.
bool CertainAnswerCdaBruteForce(const AnsweringInstance& instance, int c,
                                int d);

}  // namespace rpqi

#endif  // RPQI_ANSWER_CDA_H_
