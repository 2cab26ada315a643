#include "automata/ops.h"

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
#include <queue>
#include <unordered_map>

#include "analysis/validate.h"
#include "automata/flat.h"
#include "automata/lazy.h"
#include "base/bitset.h"
#include "base/hash.h"
#include "base/interner.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rpqi {

namespace {

/// ε-closure of `states` (as a bitset over nfa states).
Bitset EpsilonClosure(const Nfa& nfa, const Bitset& states) {
  Bitset closure = states;
  std::vector<int> stack;
  for (int s = closure.NextSetBit(0); s >= 0; s = closure.NextSetBit(s + 1)) {
    stack.push_back(s);
  }
  while (!stack.empty()) {
    int s = stack.back();
    stack.pop_back();
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      if (t.symbol == kEpsilon && !closure.Test(t.to)) {
        closure.Set(t.to);
        stack.push_back(t.to);
      }
    }
  }
  return closure;
}

Bitset InitialClosure(const Nfa& nfa) {
  Bitset init(nfa.NumStates());
  for (int s : nfa.InitialStates()) init.Set(s);
  return EpsilonClosure(nfa, init);
}

/// One symbol step of the subset construction, including ε-closure.
Bitset SubsetStep(const Nfa& nfa, const Bitset& states, int symbol) {
  Bitset next(nfa.NumStates());
  for (int s = states.NextSetBit(0); s >= 0; s = states.NextSetBit(s + 1)) {
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      if (t.symbol == symbol) next.Set(t.to);
    }
  }
  if (!nfa.HasEpsilonTransitions()) return next;
  return EpsilonClosure(nfa, next);
}

bool SubsetAccepts(const Nfa& nfa, const Bitset& states) {
  for (int s = states.NextSetBit(0); s >= 0; s = states.NextSetBit(s + 1)) {
    if (nfa.IsAccepting(s)) return true;
  }
  return false;
}

}  // namespace

Nfa RemoveEpsilon(const Nfa& nfa) {
  if (!nfa.HasEpsilonTransitions()) return nfa;
  // lint: allow-unbudgeted same state count as the input
  Nfa result(nfa.num_symbols());
  for (int s = 0; s < nfa.NumStates(); ++s) result.AddState();

  for (int s = 0; s < nfa.NumStates(); ++s) {
    Bitset single(nfa.NumStates());
    single.Set(s);
    Bitset closure = EpsilonClosure(nfa, single);
    bool accepting = false;
    for (int q = closure.NextSetBit(0); q >= 0; q = closure.NextSetBit(q + 1)) {
      if (nfa.IsAccepting(q)) accepting = true;
      for (const Nfa::Transition& t : nfa.TransitionsFrom(q)) {
        if (t.symbol != kEpsilon) result.AddTransition(s, t.symbol, t.to);
      }
    }
    result.SetAccepting(s, accepting);
    result.SetInitial(s, nfa.IsInitial(s));
  }
  {
    NfaValidateOptions options;
    options.require_epsilon_free = true;
    options.expected_num_symbols = nfa.num_symbols();
    RPQI_VALIDATE_STAGE(ValidateNfa(result, options));
  }
  return result;
}

Nfa Trim(const Nfa& nfa) {
  const int n = nfa.NumStates();
  // Forward reachability.
  std::vector<char> reachable(n, 0);
  std::vector<int> stack;
  for (int s : nfa.InitialStates()) {
    reachable[s] = 1;
    stack.push_back(s);
  }
  while (!stack.empty()) {
    int s = stack.back();
    stack.pop_back();
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      if (!reachable[t.to]) {
        reachable[t.to] = 1;
        stack.push_back(t.to);
      }
    }
  }
  // Backward reachability over reversed edges.
  std::vector<std::vector<int>> reverse_edges(n);
  for (int s = 0; s < n; ++s) {
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      reverse_edges[t.to].push_back(s);
    }
  }
  std::vector<char> useful(n, 0);
  for (int s = 0; s < n; ++s) {
    if (nfa.IsAccepting(s) && reachable[s]) {
      useful[s] = 1;
      stack.push_back(s);
    }
  }
  while (!stack.empty()) {
    int s = stack.back();
    stack.pop_back();
    for (int q : reverse_edges[s]) {
      if (reachable[q] && !useful[q]) {
        useful[q] = 1;
        stack.push_back(q);
      }
    }
  }

  Nfa result(nfa.num_symbols());
  // lint: allow-unbudgeted keeps a subset of the input's states
  std::vector<int> new_id(n, -1);
  for (int s = 0; s < n; ++s) {
    if (useful[s]) new_id[s] = result.AddState();
  }
  if (result.NumStates() == 0) {
    // Empty language: keep one non-accepting initial state for well-formedness.
    int s = result.AddState();
    result.SetInitial(s);
    return result;
  }
  for (int s = 0; s < n; ++s) {
    if (!useful[s]) continue;
    result.SetInitial(new_id[s], nfa.IsInitial(s));
    result.SetAccepting(new_id[s], nfa.IsAccepting(s));
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      if (useful[t.to]) result.AddTransition(new_id[s], t.symbol, new_id[t.to]);
    }
  }
  return result;
}

namespace {

/// The breadth-first subset construction both DeterminizeWithLimit overloads
/// run. It owns what they share: interning (subsets get ids in discovery
/// order, successors in symbol order), the `max_states` limit, the budget
/// check per expansion and charge per new subset, the
/// automata.determinize_state fault site, the span and counters, and the
/// totality check on the result. `expand(subset, &successors)` sets
/// successors[a] to the a-successor of `subset` for every symbol a (the
/// bitsets arrive cleared) and returns whether `subset` accepts; `subset` is
/// the interner's key, the words of the state set, which is the one copy
/// of each subset kept.
template <typename Expand>
StatusOr<Dfa> BuildSubsetDfa(int num_symbols, int num_states,
                             const Bitset& start, int64_t max_states,
                             Budget* budget, Expand expand) {
  static const obs::Counter runs_counter("determinize.runs");
  static const obs::Counter states_counter("determinize.states");
  obs::Span span("automata.determinize");
  WordVectorInterner interner;
  interner.InternHashed(start.words(), start.Hash());

  std::vector<int> next;  // row-major transition table
  std::vector<bool> accepting;
  std::vector<Bitset> successors(num_symbols, Bitset(num_states));
  for (int id = 0; id < interner.size(); ++id) {
    RPQI_RETURN_IF_ERROR(BudgetCheck(budget));
    for (Bitset& successor : successors) successor.Clear();
    accepting.push_back(expand(interner.KeyOf(id), &successors));
    for (int a = 0; a < num_symbols; ++a) {
      const Bitset& successor = successors[a];
      const int fresh_id = interner.size();
      int next_id = interner.InternHashed(successor.words(), successor.Hash());
      if (next_id == fresh_id) {
        if (interner.size() > max_states) {
          return Status::ResourceExhausted("subset construction exceeded " +
                                           std::to_string(max_states) +
                                           " states");
        }
        // Models allocation failure while growing the subset table; surfaces
        // through the same kResourceExhausted path as a real quota hit.
        RPQI_FAULT_POINT("automata.determinize_state",
                         Status::ResourceExhausted(
                             "injected state-allocation failure in subset "
                             "construction"));
        RPQI_RETURN_IF_ERROR(BudgetCharge(budget, 1));
      }
      next.push_back(next_id);
    }
  }

  runs_counter.Increment();
  states_counter.Add(interner.size());
  span.Note("states", interner.size());
  Dfa dfa(num_symbols, std::move(next), std::move(accepting), /*initial=*/0);
  {
    // The subset construction is total by construction (the empty subset is a
    // sink); a missing edge here would corrupt every complement downstream.
    DfaValidateOptions options;
    options.require_total = true;
    options.expected_num_symbols = num_symbols;
    RPQI_VALIDATE_STAGE(ValidateDfa(dfa, options));
  }
  return dfa;
}

}  // namespace

StatusOr<Dfa> DeterminizeWithLimit(const Nfa& input, int64_t max_states,
                                   Budget* budget) {
  const FlatNfa flat = CompileFlat(input);
  Bitset start(flat.NumStates());
  for (int s : flat.InitialStates()) start.Set(s);
  return BuildSubsetDfa(
      flat.num_symbols(), flat.NumStates(), start, max_states, budget,
      [&flat](const std::vector<uint64_t>& subset,
              std::vector<Bitset>* successors) {
        SubsetStepAll(flat, subset, successors);
        return SubsetAccepts(flat, subset);
      });
}

DfaProjection::DfaProjection(const Dfa& dfa, const std::vector<int>& mapping,
                             int num_symbols)
    : num_symbols_(num_symbols) {
  RPQI_CHECK_EQ(static_cast<int>(mapping.size()), dfa.num_symbols());
  for (int image : mapping) {
    RPQI_CHECK(image == kEpsilon || (0 <= image && image < num_symbols));
  }
  const int n = dfa.NumStates();
  const int k = dfa.num_symbols();
  // Forward reachability from the initial state, then co-reachability over
  // the reversed edges of reachable states (a CSR of predecessors).
  std::vector<int> stack = {dfa.initial()};
  std::vector<char> reachable(n, 0);
  reachable[dfa.initial()] = 1;
  std::vector<int> predecessor_begin(static_cast<size_t>(n) + 1, 0);
  while (!stack.empty()) {
    const int s = stack.back();
    stack.pop_back();
    for (int a = 0; a < k; ++a) {
      const int to = dfa.Next(s, a);
      if (to < 0) continue;
      ++predecessor_begin[to + 1];
      if (!reachable[to]) {
        reachable[to] = 1;
        stack.push_back(to);
      }
    }
  }
  for (int s = 0; s < n; ++s) predecessor_begin[s + 1] += predecessor_begin[s];
  std::vector<int> predecessors(predecessor_begin[n]);
  std::vector<int> fill(predecessor_begin.begin(), predecessor_begin.end() - 1);
  for (int s = 0; s < n; ++s) {
    if (!reachable[s]) continue;
    for (int a = 0; a < k; ++a) {
      const int to = dfa.Next(s, a);
      if (to >= 0) predecessors[fill[to]++] = s;
    }
  }
  // useful_id[s] is -1 until s is known to be useful (co-reachable).
  std::vector<int> useful_id(n, -1);
  for (int s = 0; s < n; ++s) {
    if (reachable[s] && dfa.IsAccepting(s)) {
      useful_id[s] = 0;
      stack.push_back(s);
    }
  }
  while (!stack.empty()) {
    const int s = stack.back();
    stack.pop_back();
    for (int i = predecessor_begin[s]; i < predecessor_begin[s + 1]; ++i) {
      const int q = predecessors[i];
      if (useful_id[q] < 0) {
        useful_id[q] = 0;
        stack.push_back(q);
      }
    }
  }
  std::vector<int> useful;  // useful id -> DFA state
  for (int s = 0; s < n; ++s) {
    if (useful_id[s] < 0) continue;
    useful_id[s] = static_cast<int>(useful.size());
    useful.push_back(s);
  }

  num_useful_ = static_cast<int>(useful.size());
  // Every useful state is reachable, so the initial state is useful unless
  // none is.
  initial_ = num_useful_ == 0 ? 0 : useful_id[dfa.initial()];
  accepting_.assign(std::max(1, num_useful_), false);
  edge_begin_.assign(accepting_.size() + 1, 0);
  for (int id = 0; id < num_useful_; ++id) {
    const int s = useful[id];
    accepting_[id] = dfa.IsAccepting(s);
    for (int a = 0; a < k; ++a) {
      const int to = dfa.Next(s, a);
      if (to >= 0 && useful_id[to] >= 0) {
        edges_.push_back({mapping[a], useful_id[to]});
      }
    }
    edge_begin_[id + 1] = static_cast<int>(edges_.size());
  }
}

StatusOr<Dfa> DeterminizeWithLimit(const DfaProjection& projection,
                                   int64_t max_states, Budget* budget) {
  const int n = projection.NumStates();
  Bitset start(n);
  start.Set(projection.initial());
  // Expansion scratch: the erased-symbol closure and its work stack.
  Bitset closure(n);
  std::vector<int> stack;
  return BuildSubsetDfa(
      projection.num_symbols(), n, start, max_states, budget,
      [&](const std::vector<uint64_t>& subset,
          std::vector<Bitset>* successors) {
        closure.Clear();
        ForEachSetBit(subset.data(), subset.size(), [&](int q) {
          closure.Set(q);
          stack.push_back(q);
        });
        bool accepts = false;
        while (!stack.empty()) {
          const int q = stack.back();
          stack.pop_back();
          accepts = accepts || projection.IsAccepting(q);
          for (const Nfa::Transition& t : projection.Edges(q)) {
            if (t.symbol != kEpsilon) {
              (*successors)[t.symbol].Set(t.to);
            } else if (!closure.Test(t.to)) {
              closure.Set(t.to);
              stack.push_back(t.to);
            }
          }
        }
        return accepts;
      });
}

Dfa Determinize(const Nfa& nfa) {
  StatusOr<Dfa> result = DeterminizeWithLimit(nfa, int64_t{1} << 22);
  RPQI_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

Nfa Intersect(const Nfa& a_input, const Nfa& b_input) {
  obs::Span span("automata.intersect");
  const Nfa a = RemoveEpsilon(a_input);
  const Nfa b = RemoveEpsilon(b_input);
  RPQI_CHECK_EQ(a.num_symbols(), b.num_symbols());
  Nfa result(a.num_symbols());

  // Lazily discover reachable product states.
  std::unordered_map<uint64_t, int> ids;
  std::vector<std::pair<int, int>> pairs;
  auto intern = [&](int sa, int sb) {
    uint64_t key = PairKey(sa, sb);
    auto [it, inserted] = ids.try_emplace(key, result.NumStates());
    if (inserted) {
      int state = result.AddState();
      RPQI_CHECK_EQ(state, it->second);
      pairs.push_back({sa, sb});
      result.SetAccepting(state, a.IsAccepting(sa) && b.IsAccepting(sb));
    }
    return it->second;
  };

  for (int sa : a.InitialStates()) {
    for (int sb : b.InitialStates()) {
      result.SetInitial(intern(sa, sb));
    }
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    auto [sa, sb] = pairs[i];
    int from = static_cast<int>(i);
    for (const Nfa::Transition& ta : a.TransitionsFrom(sa)) {
      for (const Nfa::Transition& tb : b.TransitionsFrom(sb)) {
        if (ta.symbol == tb.symbol) {
          result.AddTransition(from, ta.symbol, intern(ta.to, tb.to));
        }
      }
    }
  }
  return result;
}

Nfa UnionNfa(const Nfa& a, const Nfa& b) {
  RPQI_CHECK_EQ(a.num_symbols(), b.num_symbols());
  // lint: allow-unbudgeted disjoint copy of the two inputs
  Nfa result(a.num_symbols());
  for (int s = 0; s < a.NumStates(); ++s) result.AddState();
  for (int s = 0; s < b.NumStates(); ++s) result.AddState();
  int offset = a.NumStates();
  for (int s = 0; s < a.NumStates(); ++s) {
    result.SetInitial(s, a.IsInitial(s));
    result.SetAccepting(s, a.IsAccepting(s));
    for (const Nfa::Transition& t : a.TransitionsFrom(s)) {
      result.AddTransition(s, t.symbol, t.to);
    }
  }
  for (int s = 0; s < b.NumStates(); ++s) {
    result.SetInitial(offset + s, b.IsInitial(s));
    result.SetAccepting(offset + s, b.IsAccepting(s));
    for (const Nfa::Transition& t : b.TransitionsFrom(s)) {
      result.AddTransition(offset + s, t.symbol, offset + t.to);
    }
  }
  return result;
}

Nfa Concat(const Nfa& a, const Nfa& b) {
  RPQI_CHECK_EQ(a.num_symbols(), b.num_symbols());
  // lint: allow-unbudgeted disjoint copy of the two inputs
  Nfa result(a.num_symbols());
  for (int s = 0; s < a.NumStates(); ++s) result.AddState();
  for (int s = 0; s < b.NumStates(); ++s) result.AddState();
  int offset = a.NumStates();
  for (int s = 0; s < a.NumStates(); ++s) {
    result.SetInitial(s, a.IsInitial(s));
    for (const Nfa::Transition& t : a.TransitionsFrom(s)) {
      result.AddTransition(s, t.symbol, t.to);
    }
  }
  for (int s = 0; s < b.NumStates(); ++s) {
    result.SetAccepting(offset + s, b.IsAccepting(s));
    for (const Nfa::Transition& t : b.TransitionsFrom(s)) {
      result.AddTransition(offset + s, t.symbol, offset + t.to);
    }
  }
  for (int sa = 0; sa < a.NumStates(); ++sa) {
    if (!a.IsAccepting(sa)) continue;
    for (int sb = 0; sb < b.NumStates(); ++sb) {
      if (b.IsInitial(sb)) result.AddTransition(sa, kEpsilon, offset + sb);
    }
  }
  return result;
}

Nfa Star(const Nfa& a) {
  Nfa result(a.num_symbols());
  int hub = result.AddState();  // new initial+accepting hub state
  // lint: allow-unbudgeted copy of the input plus one hub state
  result.SetInitial(hub);
  result.SetAccepting(hub);
  int offset = 1;
  for (int s = 0; s < a.NumStates(); ++s) result.AddState();
  for (int s = 0; s < a.NumStates(); ++s) {
    for (const Nfa::Transition& t : a.TransitionsFrom(s)) {
      result.AddTransition(offset + s, t.symbol, offset + t.to);
    }
    if (a.IsInitial(s)) result.AddTransition(hub, kEpsilon, offset + s);
    if (a.IsAccepting(s)) result.AddTransition(offset + s, kEpsilon, hub);
  }
  return result;
}

Nfa ReverseNfa(const Nfa& a) {
  // lint: allow-unbudgeted same state count as the input
  Nfa result(a.num_symbols());
  for (int s = 0; s < a.NumStates(); ++s) result.AddState();
  for (int s = 0; s < a.NumStates(); ++s) {
    result.SetInitial(s, a.IsAccepting(s));
    result.SetAccepting(s, a.IsInitial(s));
    for (const Nfa::Transition& t : a.TransitionsFrom(s)) {
      result.AddTransition(t.to, t.symbol, s);
    }
  }
  return result;
}

bool Accepts(const Nfa& nfa, const std::vector<int>& word) {
  Bitset current = InitialClosure(nfa);
  for (int symbol : word) {
    if (current.None()) return false;
    current = SubsetStep(nfa, current, symbol);
  }
  return SubsetAccepts(nfa, current);
}

bool IsEmpty(const Nfa& nfa) { return !ShortestAcceptedWord(nfa).has_value(); }

std::optional<std::vector<int>> ShortestAcceptedWord(const Nfa& nfa) {
  // BFS over states; ε-transitions contribute no letters.
  const int n = nfa.NumStates();
  std::vector<int> parent(n, -2);       // -2 unvisited, -1 root
  std::vector<int> parent_symbol(n, kEpsilon);
  std::deque<int> queue;                // 0-1 BFS: ε edges go to the front
  for (int s : nfa.InitialStates()) {
    parent[s] = -1;
    queue.push_back(s);
  }
  int goal = -1;
  // Plain BFS is not length-optimal with ε edges; use 0-1 BFS (deque).
  std::vector<int> dist(n, -1);
  for (int s : nfa.InitialStates()) dist[s] = 0;
  while (!queue.empty()) {
    int s = queue.front();
    queue.pop_front();
    if (nfa.IsAccepting(s)) {
      goal = s;
      break;
    }
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      int weight = t.symbol == kEpsilon ? 0 : 1;
      if (dist[t.to] == -1 || dist[s] + weight < dist[t.to]) {
        dist[t.to] = dist[s] + weight;
        parent[t.to] = s;
        parent_symbol[t.to] = t.symbol;
        if (weight == 0) {
          queue.push_front(t.to);
        } else {
          queue.push_back(t.to);
        }
      }
    }
  }
  if (goal < 0) return std::nullopt;
  std::vector<int> word;
  for (int s = goal; parent[s] != -1; s = parent[s]) {
    if (parent_symbol[s] != kEpsilon) word.push_back(parent_symbol[s]);
  }
  std::reverse(word.begin(), word.end());
  return word;
}

bool IsContained(const Nfa& a, const Nfa& b) {
  // L(a) ⊆ L(b) iff L(a) ∩ complement(L(b)) = ∅: the product of `a` with the
  // lazily determinized complement of `b`. The search keeps, per a-state,
  // the ⊆-minimal b-subsets (a complemented subset automaton's antichain),
  // so the subset DFA of `b` is never materialized.
  RPQI_CHECK_EQ(a.num_symbols(), b.num_symbols());
  LazySubsetDfa not_b(b, /*complement=*/true);
  EmptinessResult result = FindAcceptedWordWithNfa(
      Trim(a), {&not_b}, std::numeric_limits<int64_t>::max());
  RPQI_CHECK(result.outcome != EmptinessResult::Outcome::kLimitExceeded)
      << result.status.ToString();
  return result.outcome == EmptinessResult::Outcome::kEmpty;
}

bool AreEquivalent(const Nfa& a, const Nfa& b) {
  return IsContained(a, b) && IsContained(b, a);
}

Nfa SingleWordNfa(int num_symbols, const std::vector<int>& word) {
  // lint: allow-unbudgeted one state per word position
  Nfa nfa(num_symbols);
  int state = nfa.AddState();
  nfa.SetInitial(state);
  for (int symbol : word) {
    int next = nfa.AddState();
    nfa.AddTransition(state, symbol, next);
    state = next;
  }
  nfa.SetAccepting(state);
  return nfa;
}

Nfa UniversalNfa(int num_symbols) {
  Nfa nfa(num_symbols);
  int state = nfa.AddState();
  nfa.SetInitial(state);
  nfa.SetAccepting(state);
  for (int a = 0; a < num_symbols; ++a) nfa.AddTransition(state, a, state);
  return nfa;
}

Nfa WidenAlphabet(const Nfa& a, int new_num_symbols, int offset) {
  RPQI_CHECK_GE(new_num_symbols, a.num_symbols() + offset);
  // lint: allow-unbudgeted same state count as the input
  Nfa result(new_num_symbols);
  for (int s = 0; s < a.NumStates(); ++s) result.AddState();
  for (int s = 0; s < a.NumStates(); ++s) {
    result.SetInitial(s, a.IsInitial(s));
    result.SetAccepting(s, a.IsAccepting(s));
    for (const Nfa::Transition& t : a.TransitionsFrom(s)) {
      int symbol = t.symbol == kEpsilon ? kEpsilon : t.symbol + offset;
      result.AddTransition(s, symbol, t.to);
    }
  }
  return result;
}

}  // namespace rpqi
