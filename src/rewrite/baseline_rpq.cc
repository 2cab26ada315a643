#include "rewrite/baseline_rpq.h"

#include <utility>

#include "automata/ops.h"

namespace rpqi {

bool IsInverseFree(const Nfa& automaton) {
  for (int s = 0; s < automaton.NumStates(); ++s) {
    for (const Nfa::Transition& t : automaton.TransitionsFrom(s)) {
      if (t.symbol != kEpsilon && (t.symbol % 2) != 0) return false;
    }
  }
  return true;
}

namespace {

/// States of `complement_dfa` reachable from `from` by some word of
/// L(definition) — one product BFS per source state.
std::vector<int> ReachableByDefinition(const Dfa& complement_dfa, int from,
                                       const Nfa& definition) {
  const int def_states = definition.NumStates();
  std::vector<char> visited(
      static_cast<size_t>(complement_dfa.NumStates()) * def_states, 0);
  std::vector<std::pair<int, int>> stack;
  auto visit = [&](int dfa_state, int def_state) {
    size_t index = static_cast<size_t>(dfa_state) * def_states + def_state;
    if (!visited[index]) {
      visited[index] = 1;
      stack.push_back({dfa_state, def_state});
    }
  };
  for (int s : definition.InitialStates()) visit(from, s);

  std::vector<char> result_set(complement_dfa.NumStates(), 0);
  while (!stack.empty()) {
    auto [dfa_state, def_state] = stack.back();
    stack.pop_back();
    if (definition.IsAccepting(def_state)) result_set[dfa_state] = 1;
    for (const Nfa::Transition& t : definition.TransitionsFrom(def_state)) {
      int next = complement_dfa.Next(dfa_state, t.symbol);
      if (next >= 0) visit(next, t.to);
    }
  }
  std::vector<int> result;
  for (int s = 0; s < complement_dfa.NumStates(); ++s) {
    if (result_set[s]) result.push_back(s);
  }
  return result;
}

}  // namespace

StatusOr<MaximalRewriting> ComputeBaselineRpqRewriting(
    const Nfa& query, const std::vector<Nfa>& views,
    const RewritingOptions& options) {
  RPQI_CHECK(IsInverseFree(query)) << "baseline requires an inverse-free query";
  for (const Nfa& view : views) {
    RPQI_CHECK(IsInverseFree(view)) << "baseline requires inverse-free views";
    RPQI_CHECK_EQ(view.num_symbols(), query.num_symbols());
  }
  const int k = static_cast<int>(views.size());
  RewritingStats stats;

  StatusOr<Dfa> determinized =
      DeterminizeWithLimit(query, options.max_subset_states);
  if (!determinized.ok()) return determinized.status();
  Dfa complement = ComplementDfa(*determinized);
  stats.a1_states = complement.NumStates();

  // A4' over Σ_E (k symbols): bad view words — some expansion lands in an
  // accepting state of the complement.
  std::vector<Nfa> eps_free_views;
  eps_free_views.reserve(views.size());
  for (const Nfa& view : views) eps_free_views.push_back(RemoveEpsilon(view));

  Nfa a4(k);
  // lint: allow-unbudgeted same state count as the complement
  for (int s = 0; s < complement.NumStates(); ++s) a4.AddState();
  a4.SetInitial(complement.initial());
  for (int s = 0; s < complement.NumStates(); ++s) {
    a4.SetAccepting(s, complement.IsAccepting(s));
    for (int view = 0; view < k; ++view) {
      for (int to : ReachableByDefinition(complement, s, eps_free_views[view])) {
        a4.AddTransition(s, view, to);
      }
    }
  }
  a4 = Trim(a4);
  stats.a4_states = a4.NumStates();

  StatusOr<Dfa> a4_dfa = DeterminizeWithLimit(a4, options.max_subset_states);
  if (!a4_dfa.ok()) return a4_dfa.status();
  Dfa rewriting_forward = Minimize(ComplementDfa(*a4_dfa));

  // Re-host on Σ_E± (2k symbols) with inverse view symbols leading to a sink,
  // so the result type matches the RPQI rewriter's.
  Dfa rewriting(2 * k, rewriting_forward.NumStates() + 1);
  int sink = rewriting_forward.NumStates();
  rewriting.SetInitial(rewriting_forward.initial());
  for (int s = 0; s < rewriting_forward.NumStates(); ++s) {
    rewriting.SetAccepting(s, rewriting_forward.IsAccepting(s));
    for (int view = 0; view < k; ++view) {
      int to = rewriting_forward.Next(s, view);
      rewriting.SetNext(s, 2 * view, to < 0 ? sink : to);
      rewriting.SetNext(s, 2 * view + 1, sink);
    }
  }
  for (int symbol = 0; symbol < 2 * k; ++symbol) {
    rewriting.SetNext(sink, symbol, sink);
  }
  stats.rewriting_states = rewriting.NumStates();

  MaximalRewriting result;
  result.dfa = std::move(rewriting);
  result.stats = stats;
  result.empty = IsEmpty(result.dfa);
  return result;
}

}  // namespace rpqi
