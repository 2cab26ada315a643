#ifndef RPQI_AUTOMATA_OPS_H_
#define RPQI_AUTOMATA_OPS_H_

#include <functional>
#include <optional>
#include <vector>

#include "automata/dfa.h"
#include "automata/nfa.h"
#include "base/budget.h"
#include "base/status.h"

namespace rpqi {

/// Returns an ε-free NFA with the same language (forward ε-closure folding).
Nfa RemoveEpsilon(const Nfa& nfa);

/// Drops states that are not both reachable from an initial state and
/// co-reachable to an accepting state.
Nfa Trim(const Nfa& nfa);

/// Subset construction. Fails with ResourceExhausted if more than `max_states`
/// subset states are discovered; `budget` (optional) additionally enforces a
/// wall-clock deadline and cooperative cancellation.
StatusOr<Dfa> DeterminizeWithLimit(const Nfa& nfa, int64_t max_states,
                                   Budget* budget = nullptr);

/// Subset construction with a generous default limit; aborts on blowup beyond
/// it (use DeterminizeWithLimit when the input is adversarial).
Dfa Determinize(const Nfa& nfa);

/// L(a) ∩ L(b) via the product construction (inputs may have ε-transitions).
Nfa Intersect(const Nfa& a, const Nfa& b);

/// L(a) ∪ L(b) by disjoint union of the automata.
Nfa UnionNfa(const Nfa& a, const Nfa& b);

/// L(a) · L(b) with ε-transitions from a's accepting states into b.
Nfa Concat(const Nfa& a, const Nfa& b);

/// L(a)*.
Nfa Star(const Nfa& a);

/// {reverse(w) : w ∈ L(a)} — flips transitions and swaps initial/accepting.
Nfa ReverseNfa(const Nfa& a);

/// Image of L(a) under a symbol-to-symbol homomorphism. `mapping[s]` is the
/// image symbol of s, or kEpsilon to erase s. The result is over
/// `new_num_symbols` symbols.
Nfa Project(const Nfa& a, const std::vector<int>& mapping, int new_num_symbols);

/// Membership test (handles ε-transitions).
bool Accepts(const Nfa& nfa, const std::vector<int>& word);

/// True if the automaton accepts no word.
bool IsEmpty(const Nfa& nfa);

/// A shortest accepted word, or nullopt if the language is empty.
std::optional<std::vector<int>> ShortestAcceptedWord(const Nfa& nfa);

/// True if L(a) ⊆ L(b). Runs an on-the-fly product of `a` with the lazily
/// determinized complement of `b`, pruned by a per-a-state antichain of
/// ⊆-minimal b-subsets; never materializes the full subset DFA.
bool IsContained(const Nfa& a, const Nfa& b);

/// True if L(a) = L(b).
bool AreEquivalent(const Nfa& a, const Nfa& b);

/// NFA accepting exactly the single word `word`.
Nfa SingleWordNfa(int num_symbols, const std::vector<int>& word);

/// NFA accepting Σ* over `num_symbols` symbols.
Nfa UniversalNfa(int num_symbols);

/// Re-hosts an automaton into a larger alphabet (language unchanged; the new
/// symbols simply never occur). `offset` shifts every existing symbol id.
Nfa WidenAlphabet(const Nfa& a, int new_num_symbols, int offset = 0);

}  // namespace rpqi

#endif  // RPQI_AUTOMATA_OPS_H_
