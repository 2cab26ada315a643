#ifndef RPQI_AUTOMATA_LAZY_H_
#define RPQI_AUTOMATA_LAZY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "automata/dfa.h"
#include "automata/flat.h"
#include "automata/nfa.h"
#include "base/bitset.h"
#include "base/budget.h"
#include "base/interner.h"
#include "base/status.h"

namespace rpqi {

/// 128-bit-per-side Bloom-style summaries used by the emptiness searches to
/// pre-filter Subsumes calls. Whenever Subsumes(a, b) holds, the signatures
/// must satisfy grow(b) ⊆ grow(a) (monotone) and shrink(a) ⊆ shrink(b)
/// (antitone), lanewise, where x ⊆ y means (x & ~y) == 0 per lane word.
/// Both conditions compose under bitwise OR, and any fixed bit permutation
/// (rotation, lane swap) preserves them — which is how the emptiness search
/// combines its parts' signatures without piling every part onto the same
/// bits. Inclusion-ordered automata spread an OR-fold of their state words
/// across the grow lanes (or the shrink lanes when complemented, where the
/// subsumption direction flips); per-word rotations keep distinct key words
/// from aliasing. The zero signature is trivially valid.
struct SubsumptionSig {
  uint64_t grow[2] = {0, 0};
  uint64_t shrink[2] = {0, 0};
};

/// A deterministic automaton whose states are discovered on demand. This is
/// the realization of Section 5.2's remark that A_ODA need not be constructed
/// explicitly: "we can construct it on the fly while checking for
/// nonemptiness". States are dense ids interned by each implementation; Step
/// is total (implementations model missing transitions with a rejecting sink).
class LazyDfa {
 public:
  virtual ~LazyDfa() = default;

  virtual int NumSymbols() const = 0;
  /// Interned id of the start state.
  virtual int StartState() = 0;
  /// Interned id of the successor of `state` on `symbol`.
  virtual int Step(int state, int symbol) = 0;
  virtual bool IsAccepting(int state) = 0;
  /// Number of states discovered so far (for stats/ablation benches).
  virtual int64_t NumDiscoveredStates() const = 0;

  /// Dead-part cut support for the emptiness search. IsDead(state) may be
  /// true only if `state` accepts no word, so that every successor of a dead
  /// state is dead too; the default, false, is always sound. The search
  /// steps its parts in order and stops at the first part whose successor
  /// is dead, so a dead tuple is never interned.
  virtual bool IsDead(int /*state*/) { return false; }

  /// Antichain ("subsumption") support for the emptiness search. When
  /// HasSubsumption() is true, Subsumes(state, other) must imply
  /// L(other) ⊆ L(state) — L(q) being the language accepted when starting
  /// from q — and must be sound for ANY pair of discovered states.
  /// SubsumptionPartition() is a performance hint: states likely to dominate
  /// each other should share a partition, and the search scans a state's
  /// own partition exhaustively while comparing across partitions only
  /// opportunistically — but it is free to call Subsumes on any pair.
  /// The search may then discard a newly discovered tuple as soon as an
  /// already-queued tuple subsumes it part by part: the dominator accepts
  /// every word the discarded tuple would, and was discovered no later
  /// (BFS), so the verdict and the shortest-witness length are both
  /// preserved. The defaults (each state alone in its partition, reflexive
  /// subsumption) leave the search exhaustive in that part.
  virtual bool HasSubsumption() const { return false; }
  virtual uint64_t SubsumptionPartition(int state) {
    return static_cast<uint64_t>(state);
  }
  virtual bool Subsumes(int state, int other) { return state == other; }
  /// See SubsumptionSig for the contract; the default is trivially valid.
  virtual SubsumptionSig SubsumptionSignature(int /*state*/) { return {}; }
};

/// Wraps an explicit DFA (completing it on the fly with a sink id).
class LazyDfaFromDfa : public LazyDfa {
 public:
  explicit LazyDfaFromDfa(Dfa dfa);

  int NumSymbols() const override { return dfa_.num_symbols(); }
  int StartState() override { return dfa_.initial(); }
  int Step(int state, int symbol) override;
  bool IsAccepting(int state) override;
  int64_t NumDiscoveredStates() const override { return dfa_.NumStates() + 1; }
  /// The completing sink is dead.
  bool IsDead(int state) override { return state == sink_; }

 private:
  Dfa dfa_;
  int sink_;
};

/// On-the-fly subset construction of an NFA. `complement` flips acceptance,
/// yielding the lazily determinized complement. The first Step out of a
/// state computes that state's successors on every symbol (SubsetStepAll)
/// and interns them in symbol order, so a breadth-first caller discovers
/// states in the same order as DeterminizeWithLimit.
class LazySubsetDfa : public LazyDfa {
 public:
  explicit LazySubsetDfa(const Nfa& nfa, bool complement = false);

  int NumSymbols() const override { return flat_.num_symbols(); }
  int StartState() override;
  int Step(int state, int symbol) override;
  bool IsAccepting(int state) override;
  int64_t NumDiscoveredStates() const override { return interner_.size(); }
  /// Without complement the empty subset is dead.
  bool IsDead(int state) override;

  /// Subset languages are monotone in the subset, so all states are mutually
  /// comparable: without complement bigger subsets accept more (keep
  /// ⊆-maximal subsets), with complement smaller ones do (keep ⊆-minimal).
  bool HasSubsumption() const override { return true; }
  uint64_t SubsumptionPartition(int /*state*/) override { return 0; }
  bool Subsumes(int state, int other) override;
  SubsumptionSig SubsumptionSignature(int state) override;

 private:
  int Intern(const Bitset& subset);

  FlatNfa flat_;
  bool complement_;
  WordVectorInterner interner_;  // id -> subset words, the one copy kept
  std::vector<bool> accepting_;
  std::vector<int> step_cache_;  // state·|Σ| + symbol -> id, -1 = row unfilled
  std::vector<Bitset> successors_;  // SubsetStepAll scratch, one per symbol
};

/// Conjunctive product of lazy automata: accepts iff every part accepts.
/// All parts must share the alphabet size. Parts are borrowed, not owned.
/// This is the product to materialize (MaterializeLazyDfa) or to wrap
/// (LazyImageSubsetDfa); FindAcceptedWord takes the parts themselves and
/// interns its own tuples.
class LazyProductDfa : public LazyDfa {
 public:
  explicit LazyProductDfa(std::vector<LazyDfa*> parts);

  int NumSymbols() const override { return num_symbols_; }
  int StartState() override;
  int Step(int state, int symbol) override;
  bool IsAccepting(int state) override;
  int64_t NumDiscoveredStates() const override { return interner_.size(); }

 private:
  std::vector<LazyDfa*> parts_;
  int num_symbols_;
  WordVectorInterner interner_;
  std::vector<uint64_t> scratch_key_;  // reused across Step calls
};

/// Lazy determinization of the homomorphic image of a lazy automaton: given
/// `inner` over one alphabet and a symbol mapping (image symbol id, or
/// kEpsilon to erase), this is a deterministic automaton over the image
/// alphabet whose language is { h(w) : w ∈ L(inner) }. States are ε-closed
/// sets of inner states (closure under erased-symbol steps). With
/// `complement = true`, acceptance is flipped — which is exactly the
/// fully-on-the-fly form of "complement of the projection" used by the
/// Theorem 8 nonemptiness check.
class LazyImageSubsetDfa : public LazyDfa {
 public:
  LazyImageSubsetDfa(LazyDfa* inner, std::vector<int> mapping,
                     int image_symbols, bool complement = false);

  int NumSymbols() const override { return image_symbols_; }
  int StartState() override;
  int Step(int state, int symbol) override;
  bool IsAccepting(int state) override;
  int64_t NumDiscoveredStates() const override { return interner_.size(); }

  /// Image-subset states are sorted inner-id sets, ordered by inclusion just
  /// like plain subsets (complement flips the direction).
  bool HasSubsumption() const override { return true; }
  uint64_t SubsumptionPartition(int /*state*/) override { return 0; }
  bool Subsumes(int state, int other) override;
  SubsumptionSig SubsumptionSignature(int state) override;

 private:
  /// Closes `states` (sorted, unique inner ids) under erased-symbol steps and
  /// interns the result.
  int CloseAndIntern(std::vector<int> states);

  LazyDfa* inner_;
  std::vector<int> mapping_;  // indexed by inner symbol id
  int image_symbols_;
  bool complement_;
  std::vector<int> erased_symbols_;
  std::vector<std::vector<int>> preimage_;  // image symbol -> inner symbols
  WordVectorInterner interner_;
};

/// Outcome of an on-the-fly emptiness check.
struct EmptinessResult {
  enum class Outcome { kFoundWord, kEmpty, kLimitExceeded };
  Outcome outcome;
  std::vector<int> witness;  // a shortest accepted word when kFoundWord
  int64_t states_explored = 0;
  /// Antichain accounting (zero when no part has subsumption): frontier
  /// tuples discarded because a queued tuple subsumed them, and the number
  /// of live antichain members when the search stopped.
  int64_t states_pruned = 0;
  int64_t antichain_size = 0;
  /// Successors dropped because a part stepped into a dead state.
  int64_t dead_cuts = 0;
  /// On kLimitExceeded: the precise limit that was hit — ResourceExhausted
  /// (state cap), DeadlineExceeded, or Cancelled. Ok otherwise.
  Status status;
};

/// Emptiness of L(nfa) ∩ ⋂ L(parts) without determinizing the NFA: BFS over
/// interned (NFA state, part states) tuples, stopping at the first accepting
/// tuple (which yields a shortest witness) or after `max_states` queued
/// tuples. Use when one intersection component is a genuinely
/// nondeterministic automaton whose subset construction would blow up (e.g.
/// the certificate NFAs of Theorem 17). `budget` (optional) adds
/// deadline/cancellation enforcement and state accounting; budget
/// exhaustion surfaces as kLimitExceeded with the code in `status`.
/// When a part advertises subsumption (see LazyDfa::HasSubsumption), a new
/// tuple dominated by a queued one — same NFA state, every part subsuming —
/// is pruned against an antichain, which usually decides
/// universality/containment-style checks without materializing the
/// determinized state space. Each NFA transition steps the parts in order,
/// and the tuple is dropped, before it is interned, compared, queued or
/// charged, at the first part whose successor is dead (LazyDfa::IsDead); it
/// accepts nothing, so neither the verdict nor the BFS order of the live
/// tuples changes.
EmptinessResult FindAcceptedWordWithNfa(const Nfa& nfa,
                                        const std::vector<LazyDfa*>& parts,
                                        int64_t max_states,
                                        Budget* budget = nullptr);

/// Emptiness of the conjunctive product of `parts` (at least one, sharing
/// the alphabet size): FindAcceptedWordWithNfa with the one-state NFA of Σ*.
EmptinessResult FindAcceptedWord(const std::vector<LazyDfa*>& parts,
                                 int64_t max_states, Budget* budget = nullptr);

/// Materializes the reachable fragment into an explicit DFA; fails with
/// ResourceExhausted beyond `max_states` (or the budget's deadline /
/// cancellation / quota status).
StatusOr<Dfa> MaterializeLazyDfa(LazyDfa* dfa, int64_t max_states,
                                 Budget* budget = nullptr);

}  // namespace rpqi

#endif  // RPQI_AUTOMATA_LAZY_H_
