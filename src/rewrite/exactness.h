#ifndef RPQI_REWRITE_EXACTNESS_H_
#define RPQI_REWRITE_EXACTNESS_H_

#include <vector>

#include "automata/dfa.h"
#include "automata/nfa.h"
#include "base/budget.h"
#include "base/status.h"

namespace rpqi {

/// Soundness check (Definition 3, for testing the pipeline): is `rewriting`
/// (over Σ_E±) actually a rewriting of `query` w.r.t. `views`, i.e. does
/// ans(expand(R), B) ⊆ ans(query, B) hold on every database? By Theorem 4
/// this reduces to RPQI containment of the expansion in the query. The
/// (borrowed, nullable) budget bounds the containment search; its deadline,
/// cancellation or state quota ends the check with that status.
StatusOr<bool> IsSoundRewriting(const Nfa& query, const std::vector<Nfa>& views,
                                const Dfa& rewriting, Budget* budget);

/// Exactness check (Theorem 9): does ans(expand(R), B) = ans(query, B) hold
/// on every database? Given a maximal rewriting only the ⊇ direction is open,
/// which is RPQI containment of the query in the expansion. Budgeted like
/// IsSoundRewriting.
StatusOr<bool> IsExactRewriting(const Nfa& query, const std::vector<Nfa>& views,
                                const Dfa& rewriting, Budget* budget);

}  // namespace rpqi

#endif  // RPQI_REWRITE_EXACTNESS_H_
