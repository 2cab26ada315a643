#ifndef RPQI_AUTOMATA_OPS_H_
#define RPQI_AUTOMATA_OPS_H_

#include <functional>
#include <optional>
#include <span>
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

/// The image of a DFA's language under a letter-to-letter map that erases
/// some symbols, read straight off the DFA's table (A4 of the rewriting
/// pipeline is the projection of the A2 ∩ A3 table onto the view symbols).
/// As an automaton it is Trim of the NFA that relabels every table edge by
/// the map, with an ε-edge for an erased symbol, but no Nfa is built: a
/// forward and a reverse pass over the table mark the states Trim keeps
/// (reachable and co-reachable, the "useful" ones), their edges between
/// useful states are packed into one array, and DeterminizeWithLimit
/// expands subsets of them.
class DfaProjection {
 public:
  /// `mapping[a]` is the image of symbol a in [0, num_symbols), or kEpsilon
  /// to erase it.
  DfaProjection(const Dfa& dfa, const std::vector<int>& mapping,
                int num_symbols);

  int num_symbols() const { return num_symbols_; }

  /// States of the trimmed projection: the useful states, numbered in
  /// increasing DFA order as Trim numbers them, or one state when none is
  /// useful (Trim keeps a non-accepting, edge-free initial state for the
  /// empty language).
  int NumStates() const { return static_cast<int>(accepting_.size()); }
  int NumUseful() const { return num_useful_; }
  int initial() const { return initial_; }
  bool IsAccepting(int state) const { return accepting_[state]; }
  /// Edges of `state` to useful states, in the DFA's symbol order: the
  /// image symbol, or kEpsilon for an erased one.
  std::span<const Nfa::Transition> Edges(int state) const {
    return {edges_.data() + edge_begin_[state],
            edges_.data() + edge_begin_[state + 1]};
  }

 private:
  int num_symbols_;
  int num_useful_ = 0;
  int initial_ = 0;
  std::vector<bool> accepting_;
  std::vector<int> edge_begin_;  // NumStates() + 1 offsets into edges_
  std::vector<Nfa::Transition> edges_;
};

/// Subset construction of a DfaProjection: the same DFA, state for state, as
/// the Nfa overload gives for that trimmed NFA (DfaProjectionDifferentialTest
/// builds it explicitly), with the same limit, budget and fault behaviour.
/// Subsets are sets of useful states: the initial state's, and those entered
/// by a kept symbol. Expanding one takes its erased-symbol closure over
/// useful states (its acceptance) and reads each closure state's kept
/// symbols (its successors), in O(n + num_symbols·⌈n/64⌉) words of scratch
/// for n useful states; no per-state closure is stored.
StatusOr<Dfa> DeterminizeWithLimit(const DfaProjection& projection,
                                   int64_t max_states,
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
