#ifndef RPQI_AUTOMATA_TABLE_DFA_H_
#define RPQI_AUTOMATA_TABLE_DFA_H_

#include <cstdint>
#include <vector>

#include "automata/lazy.h"
#include "automata/two_way.h"
#include "base/interner.h"

namespace rpqi {

/// Shepherdson/Vardi table translation of a two-way automaton into a lazy
/// *deterministic* one-way automaton.
///
/// After consuming a prefix u of the input, the automaton's state is the pair
///   R(u) = { t : some run from an initial configuration, confined to u,
///                exits u to the right in state t }
///   B(u) = { (s,t) : a run entering u from the right in state s, confined to
///                    u, exits u to the right in state t }
/// Both components update deterministically per input letter: left excursions
/// into the already-consumed prefix are summarized by B, stay-moves by a
/// transitive closure within the current cell. The word is accepted iff
/// R(word) contains an accepting state — i.e. the two-way automaton can reach
/// the past-the-end position in an accepting state.
///
/// With `complement = true` the acceptance condition is flipped; since the
/// automaton is deterministic this yields the complement language for free,
/// which is how the constructions of Sections 4 and 5 obtain the complements
/// A2 and the complements of A_Vi / A_(Q,c,d) without an extra subset
/// construction.
///
/// Worst-case state count is 2^(n²+n) for n two-way states; states are
/// discovered lazily and interned, so only the reachable fragment is paid for.
/// The stay closure of every (state, symbol) is taken once, in the
/// constructor; a step then solves a fixpoint over the live B rows only, with
/// one code path for every word count (DESIGN.md §10).
class LazyTableDfa : public LazyDfa {
 public:
  explicit LazyTableDfa(const TwoWayNfa& two_way, bool complement = false);

  int NumSymbols() const override { return num_symbols_; }
  int StartState() override;
  int Step(int state, int symbol) override;
  bool IsAccepting(int state) override;
  int64_t NumDiscoveredStates() const override { return interner_.size(); }
  /// Without complement a state whose reach set R is empty is dead: R' is
  /// built from the closure rows of R's members, so it stays empty on every
  /// letter.
  bool IsDead(int state) override;

  /// Antichain support: the per-letter table update is monotone in the whole
  /// (R, B) encoding and acceptance is R ∩ F ≠ ∅ (monotone in R), so
  /// componentwise inclusion of the full key orders the languages — flipped
  /// when the acceptance condition is complemented. States are partitioned
  /// by B part to keep the searches' antichain buckets small; within a
  /// bucket the order reduces to R-inclusion.
  bool HasSubsumption() const override { return true; }
  uint64_t SubsumptionPartition(int state) override;
  bool Subsumes(int state, int other) override;
  SubsumptionSig SubsumptionSignature(int state) override;

 private:
  // State encoding: [R words | live B row words]. A B row t is live iff t is
  // the target of some left move: only a left move ever consults a row, so
  // dead rows are omitted, which merges otherwise-distinct table states.
  //
  // A step on letter a from (R, B) first solves, for the live rows t only,
  //   exit[t] = ⋃_{u ∈ B[t]} stay_right[u]
  //             ∪ ⋃ { exit[t'] : t' ∈ ⋃_{u ∈ B[t]} stay_left[u] },
  // the states in which a run that went left into row t leaves the new cell
  // to the right (it comes back in some u ∈ B[t], takes stay moves, and
  // either leaves or goes left again). Then
  //   R'    = stay_right(R) ∪ ⋃_{t ∈ stay_left(R)} exit[t]
  //   B'[t] = stay_right[t] ∪ ⋃_{t' ∈ stay_left[t]} exit[t'].
  // Nothing depends on a (B, symbol) pair recurring, so nothing is cached
  // but the per-(state, symbol) transitions.
  int ComputeStep(int state, int symbol);

  int num_symbols_;
  bool complement_;
  int n_;                  // number of two-way states
  int words_;              // ⌈n/64⌉: one state set (R, a B row, exit[t])
  int num_live_rows_ = 0;
  int live_words_;         // ⌈live rows/64⌉: one set of live rows
  std::vector<int> live_states_;      // live row -> two-way state
  std::vector<uint64_t> start_key_;   // R = initial states, B rows empty
  std::vector<uint64_t> accepting_;   // words_ words: accepting states
  // Per (symbol, state), symbol-major: the right-move targets (a state set,
  // words_ words) and the left-move targets (a live-row set, live_words_
  // words) of the states in the state's reflexive-transitive stay closure.
  std::vector<uint64_t> stay_right_;
  std::vector<uint64_t> stay_left_;
  WordVectorInterner interner_;
  // Memoized transitions, indexed state * num_symbols + symbol (-1 = not yet
  // computed). Lazy product states share component states heavily, so this
  // converts the table update into a per-(state, symbol) one-time cost.
  std::vector<int> step_cache_;
  // Step scratch (this class is not thread-safe, like every lazy automaton).
  std::vector<uint64_t> exit_;    // live row -> state set
  // Live row -> the live rows it goes left into again; one spare row for
  // the live rows R goes left into.
  std::vector<uint64_t> nested_;
  std::vector<uint64_t> key_;     // successor key under construction
};

}  // namespace rpqi

#endif  // RPQI_AUTOMATA_TABLE_DFA_H_
