#include "rewrite/exactness.h"

#include "rewrite/expansion.h"
#include "rpq/containment.h"

namespace rpqi {

StatusOr<bool> IsSoundRewriting(const Nfa& query, const std::vector<Nfa>& views,
                                const Dfa& rewriting, Budget* budget) {
  Nfa expansion = ExpandRewriting(rewriting, views);
  return RpqiContainedWithBudget(expansion, query, budget);
}

StatusOr<bool> IsExactRewriting(const Nfa& query, const std::vector<Nfa>& views,
                                const Dfa& rewriting, Budget* budget) {
  Nfa expansion = ExpandRewriting(rewriting, views);
  return RpqiContainedWithBudget(query, expansion, budget);
}

}  // namespace rpqi
