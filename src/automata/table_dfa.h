#ifndef RPQI_AUTOMATA_TABLE_DFA_H_
#define RPQI_AUTOMATA_TABLE_DFA_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "automata/lazy.h"
#include "automata/two_way.h"
#include "base/bitset.h"
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
/// The per-letter update works directly on the interned key words and is
/// restricted to the states reachable (via stay/left excursions) from the
/// rows it must output, which is what makes materializing these automata the
/// dominant-but-affordable cost of the Theorem 6/7 pipeline.
class LazyTableDfa : public LazyDfa {
 public:
  explicit LazyTableDfa(const TwoWayNfa& two_way, bool complement = false);

  int NumSymbols() const override { return two_way_.num_symbols(); }
  int StartState() override;
  int Step(int state, int symbol) override;
  bool IsAccepting(int state) override;
  int64_t NumDiscoveredStates() const override { return interner_.size(); }
  /// Without complement a state whose reach set R is empty is dead: R' is
  /// the union of closure rows over R, so it stays empty on every letter.
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
  // State encoding: [R words | live B row words], where a B row s is live iff
  // s is the target of some left move (dead rows are never consulted and are
  // omitted, which merges otherwise-distinct table states).
  //
  // The per-letter update factors through the behavior part: the stay/left
  // closure — and hence both the successor B part and the per-state result
  // rows that R is pushed through — depends only on (B, symbol), never on R.
  // Those closures are computed once per distinct (B part, symbol) and
  // cached (`BStep`); a step then reduces to OR-ing cached rows over R and
  // splicing in the cached successor B words.
  //
  // The cache only amortizes when B parts repeat across states. Some
  // automata (notably the complemented excess automata of the Theorem 6
  // pipeline) mint an essentially fresh B part per state, so the full-n
  // closure a cache fill pays is pure overhead there; once the observed hit
  // rate shows the cache is not amortizing, ComputeStep switches to a
  // per-call closure restricted to the rows the step actually needs
  // (ComputeStepDirect).
  int ComputeStep(int state, int symbol);

  /// Closure summary for one (B part, symbol) pair.
  struct BStep {
    std::vector<uint64_t> rows;  // n_ × W: result row of each two-way state
    std::vector<uint64_t> new_b_words;  // num_live_rows_ × W successor B part
    int new_b_id;                       // interned id of the successor B part
  };
  /// Computes and caches the BStep for (b_id, symbol): one_step[s] = stay
  /// targets ∪ B rows of left targets, then the least fixpoint
  /// result[s] = right[s] ∪ ⋃_{t ∈ one_step[s]} result[t] over all states
  /// (Gauss-Seidel; a dense transitive closure is never materialized).
  const BStep& ComputeBStep(uint64_t cache_key, int b_id, int symbol);
  /// Builds the successor state of `state` from a cached/fresh BStep.
  int ApplyBStep(int state, const BStep& bs);
  /// Cache-free step: closure computed per call, restricted to the states
  /// reachable (via stay/left excursions) from the rows the step must output.
  int ComputeStepDirect(int state, int symbol);
  /// W == 1 specialization: with ≤ 64 two-way states every row is one word,
  /// so discovery, the fixpoint, and assembly run on plain word ops with no
  /// visited array or per-bit callbacks.
  int ComputeStepDirect1(int state, int symbol);
  /// Interned B-part id of `state`, resolving the -1 sentinel lazily —
  /// states minted by ComputeStepDirect never pay for B interning unless the
  /// cached path later asks for them.
  int BPartOf(int state);
  void BuildMasks();

  /// Per-symbol transition masks, row-major: words_per_set_ words per source
  /// state, one row per two-way state.
  struct SymbolMasks {
    std::vector<uint64_t> stay, left, right;
  };

  TwoWayNfa two_way_;
  bool complement_;
  int n_;                    // number of two-way states
  int words_per_set_;        // ceil(n/64)
  Bitset accepting_states_;  // of the two-way automaton
  Bitset left_targets_;      // states reachable by a left move (live B rows)
  std::vector<int> row_index_;  // state -> compact key row slot, -1 if dead
  int num_live_rows_ = 0;
  WordVectorInterner interner_;
  // Memoized transitions, indexed state * num_symbols + symbol (-1 = not yet
  // computed). Lazy product states share component states heavily, so this
  // converts the (expensive) table update into a per-(state, symbol) one-time
  // cost.
  std::vector<int> step_cache_;
  std::vector<SymbolMasks> masks_;  // per symbol; built on first step
  // Behavior-part bookkeeping: B parts are interned separately so the
  // closure cache and subsumption partitions key on a dense int id.
  WordVectorInterner b_interner_;
  std::vector<int> b_of_;  // state id -> B part id, -1 = not interned yet
  std::unordered_map<uint64_t, int> b_step_index_;  // PairKey(b, sym) -> idx
  std::vector<BStep> b_steps_;
  int64_t b_step_hits_ = 0;
  int64_t b_step_misses_ = 0;
  // Scratch buffers reused across step calls (this class is not thread-safe,
  // like every lazy automaton).
  std::vector<uint64_t> scratch_one_step_;  // n_ rows × words_per_set_
  std::vector<uint64_t> scratch_rows_;      // n_ rows × words_per_set_
  std::vector<uint64_t> scratch_key_;
  std::vector<int> scratch_order_;   // closure discovery order
  std::vector<char> scratch_visited_;  // per two-way state
};

}  // namespace rpqi

#endif  // RPQI_AUTOMATA_TABLE_DFA_H_
