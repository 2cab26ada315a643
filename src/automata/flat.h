#ifndef RPQI_AUTOMATA_FLAT_H_
#define RPQI_AUTOMATA_FLAT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "automata/nfa.h"
#include "base/bitset.h"
#include "base/logging.h"
#include "base/status.h"

namespace rpqi {

/// Flat compiled plan form of an ε-free NFA ("RPQIPLAN1"; DESIGN.md §16).
///
/// The general Nfa stores one heap vector per state, so the eval product BFS
/// chases two pointers per expanded configuration. The flat form pre-applies
/// the ε-closure and packs every transition into ONE contiguous array of
/// (symbol, target) pairs with a CSR-style offset table — the same layout the
/// graph side uses (LabelCsr) — so the BFS inner loop walks two flat spans.
/// Per-state spans are sorted by (symbol, target) and deduplicated, which
/// makes the whole structure byte-stable for serialization. The same form
/// is the automata layer's one per-state symbol index: SubsetStepAll walks
/// it for the subset constructions.
///
/// Initial/accepting membership is kept as word bitsets plus an explicit
/// sorted initial-state list (the BFS seeds from the list; the bitsets are
/// the O(1) membership test and the serialized form).
///
/// Invariants (enforced by CompileFlat on the trusted path and by
/// ValidateFlatNfa in src/analysis on the deserialization path):
///   * offsets().size() == NumStates() + 1, offsets()[0] == 0, monotone,
///     back() == NumEdges();
///   * every edge: 0 <= symbol < num_symbols(), 0 <= to < NumStates()
///     (no ε — the flat form is ε-free by construction);
///   * each state's span strictly increasing by (symbol, to);
///   * initial/accepting words sized ceil(states / 64) with zero tail bits,
///     and InitialStates() sorted, duplicate-free, equal to the initial
///     bitset as a set.
class FlatNfa {
 public:
  struct Edge {
    int32_t symbol;
    int32_t to;

    friend bool operator==(const Edge& a, const Edge& b) {
      return a.symbol == b.symbol && a.to == b.to;
    }
    friend bool operator<(const Edge& a, const Edge& b) {
      return a.symbol != b.symbol ? a.symbol < b.symbol : a.to < b.to;
    }
  };
  static_assert(sizeof(Edge) == 8, "edges are serialized as two i32 words");

  FlatNfa() = default;

  /// Assembles a FlatNfa from raw parts WITHOUT checking the invariants
  /// above. Trusted builders (CompileFlat) uphold them by construction;
  /// untrusted data (DecodeFlatPlan) must pass ValidateFlatNfa before the
  /// span accessors are used.
  static FlatNfa FromPartsUnchecked(int num_symbols,
                                    std::vector<uint32_t> offsets,
                                    std::vector<Edge> edges,
                                    std::vector<uint64_t> initial_words,
                                    std::vector<uint64_t> accepting_words,
                                    std::vector<int32_t> initial_list) {
    FlatNfa flat;
    flat.num_symbols_ = num_symbols;
    flat.offsets_ = std::move(offsets);
    flat.edges_ = std::move(edges);
    flat.initial_words_ = std::move(initial_words);
    flat.accepting_words_ = std::move(accepting_words);
    flat.initial_list_ = std::move(initial_list);
    return flat;
  }

  int num_symbols() const { return num_symbols_; }
  int NumStates() const {
    return offsets_.empty() ? 0 : static_cast<int>(offsets_.size()) - 1;
  }
  int64_t NumEdges() const { return static_cast<int64_t>(edges_.size()); }

  /// All out-edges of `state`, sorted by (symbol, target) — the eval BFS
  /// iterates this span directly.
  std::span<const Edge> Edges(int state) const {
    RPQI_DCHECK(0 <= state && state < NumStates());
    return {edges_.data() + offsets_[state],
            static_cast<size_t>(offsets_[state + 1] - offsets_[state])};
  }

  bool IsInitial(int state) const {
    RPQI_DCHECK(0 <= state && state < NumStates());
    return (initial_words_[state >> 6] >> (state & 63)) & 1;
  }
  bool IsAccepting(int state) const {
    RPQI_DCHECK(0 <= state && state < NumStates());
    return (accepting_words_[state >> 6] >> (state & 63)) & 1;
  }
  bool HasAcceptingState() const {
    for (uint64_t w : accepting_words_)
      if (w != 0) return true;
    return false;
  }

  /// Sorted, duplicate-free initial-state ids.
  std::span<const int32_t> InitialStates() const { return initial_list_; }

  /// Exact heap footprint (capacity, not size — this feeds the plan cache's
  /// byte budget, which bounds *resident* bytes).
  int64_t ByteSize() const {
    return static_cast<int64_t>(sizeof(FlatNfa)) +
           static_cast<int64_t>(offsets_.capacity()) * sizeof(uint32_t) +
           static_cast<int64_t>(edges_.capacity()) * sizeof(Edge) +
           static_cast<int64_t>(initial_words_.capacity() +
                                accepting_words_.capacity()) *
               sizeof(uint64_t) +
           static_cast<int64_t>(initial_list_.capacity()) * sizeof(int32_t);
  }

  // Raw part views for serialization and validation (analysis reads these
  // with its own bounds checks — never the span accessors, which assume the
  // invariants already hold).
  const std::vector<uint32_t>& offsets() const { return offsets_; }
  const std::vector<Edge>& edges() const { return edges_; }
  const std::vector<uint64_t>& initial_words() const { return initial_words_; }
  const std::vector<uint64_t>& accepting_words() const {
    return accepting_words_;
  }
  const std::vector<int32_t>& initial_list() const { return initial_list_; }

 private:
  int num_symbols_ = 0;
  std::vector<uint32_t> offsets_;  // NumStates() + 1 entries
  std::vector<Edge> edges_;
  std::vector<uint64_t> initial_words_;    // ceil(NumStates() / 64)
  std::vector<uint64_t> accepting_words_;  // ceil(NumStates() / 64)
  std::vector<int32_t> initial_list_;
};

/// Compiles `nfa` to the flat plan form: applies RemoveEpsilon when needed,
/// then packs, sorts, and deduplicates the per-state edge lists. The result
/// always satisfies the FlatNfa invariants.
FlatNfa CompileFlat(const Nfa& nfa);

/// One subset-construction step on every symbol at once: afterwards
/// (*next)[a] holds the a-successors of `subset`, for each symbol a. Each
/// member's edge span is walked once, so one subset's successors on all of
/// Σ cost the members' out-degree (plus clearing the |Σ| bitsets) instead
/// of one index lookup per (member, symbol). `subset` is the words of a
/// state set (ceil(NumStates() / 64) of them, as an interner keeps it);
/// `next` is caller-owned scratch of num_symbols() bitsets over NumStates()
/// bits.
void SubsetStepAll(const FlatNfa& flat, std::span<const uint64_t> subset,
                   std::vector<Bitset>* next);

/// True when `subset` (the words of a state set over NumStates() bits)
/// contains an accepting state.
bool SubsetAccepts(const FlatNfa& flat, std::span<const uint64_t> subset);

/// A serializable compiled plan: the flat automaton plus an opaque caller
/// tag (the serving layer stores the full plan-cache key and compares it on
/// load, so a filename hash collision can never alias two plans) and an
/// optional precomputed answer set (u32 pairs; the serving layer stores
/// eval's node-id pairs, sound because the tag pins the snapshot content).
struct FlatPlan {
  FlatNfa nfa;
  std::string tag;
  bool has_answers = false;
  std::vector<std::pair<uint32_t, uint32_t>> answers;
};

/// Binary plan format "RPQIPLAN1": a fixed little-endian header (magic,
/// version, endian tag, total size, whole-file checksum, counts) followed by
/// 8-aligned sections in fixed order (tag bytes, offsets, edges, initial
/// words, accepting words, initial list, answers). Same discipline as the
/// columnar snapshot format (graphdb/columnar.cc): the checksum covers every
/// byte except its own field, so a flip anywhere is rejected; validation
/// errors name the absolute byte offset of the offending field.
inline constexpr char kFlatPlanMagic[12] = {'R', 'P', 'Q', 'I', 'P', 'L',
                                            'A', 'N', '1', '\0', '\0', '\0'};
inline constexpr uint32_t kFlatPlanVersion = 1;
inline constexpr uint32_t kFlatPlanEndianTag = 0x01020304;

/// True when `prefix` (the first bytes of a file) starts with the plan magic.
bool IsFlatPlan(std::string_view prefix);

/// Exact encoded size of `plan` in bytes — EncodeFlatPlan(plan).size()
/// without building the buffer (the disk-store accounting uses this).
int64_t EncodedFlatPlanBytes(const FlatPlan& plan);

/// Serializes to the RPQIPLAN1 wire form. The nfa must satisfy the FlatNfa
/// invariants (CHECK-enforced cheaply: counts only).
std::string EncodeFlatPlan(const FlatPlan& plan);

/// Parses and fully validates an untrusted buffer: header checks, size and
/// count plausibility, whole-file checksum, then ValidateFlatNfa over the
/// decoded automaton. Never aborts on malformed input — every rejection is a
/// Status naming `source_name` and a byte offset.
StatusOr<FlatPlan> DecodeFlatPlan(std::string_view bytes,
                                  std::string_view source_name);

}  // namespace rpqi

#endif  // RPQI_AUTOMATA_FLAT_H_
