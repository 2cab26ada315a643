#include "rpq/containment.h"

#include "automata/lazy.h"
#include "automata/ops.h"
#include "automata/table_dfa.h"
#include "rpq/satisfaction.h"

namespace rpqi {

StatusOr<bool> RpqiContainedWithBudget(const Nfa& q1, const Nfa& q2,
                                       Budget* budget) {
  RPQI_CHECK_EQ(q1.num_symbols(), q2.num_symbols());
  const int total_symbols = q1.num_symbols() + 1;
  const int dollar = q1.num_symbols();

  // L(q1) · $ over the extended alphabet.
  Nfa left = Concat(WidenAlphabet(q1, total_symbols),
                    SingleWordNfa(total_symbols, {dollar}));

  SatisfactionOptions options;
  options.total_symbols = total_symbols;
  options.dollar_symbol = dollar;
  TwoWayNfa satisfies_q2 = BuildSatisfactionAutomaton(q2, options);

  LazySubsetDfa left_dfa(left);
  LazyTableDfa not_satisfies(satisfies_q2, /*complement=*/true);

  EmptinessResult result = FindAcceptedWord(
      {&left_dfa, &not_satisfies}, /*max_states=*/int64_t{1} << 24, budget);
  if (result.outcome == EmptinessResult::Outcome::kLimitExceeded) {
    if (!result.status.ok()) return result.status;
    return Status::ResourceExhausted("containment check exceeded its state budget");
  }
  return result.outcome == EmptinessResult::Outcome::kEmpty;
}

bool RpqiContained(const Nfa& q1, const Nfa& q2) {
  StatusOr<bool> result = RpqiContainedWithBudget(q1, q2, nullptr);
  RPQI_CHECK(result.ok()) << result.status().ToString();
  return *result;
}

bool RpqiEquivalent(const Nfa& q1, const Nfa& q2) {
  return RpqiContained(q1, q2) && RpqiContained(q2, q1);
}

}  // namespace rpqi
