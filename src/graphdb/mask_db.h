#ifndef RPQI_GRAPHDB_MASK_DB_H_
#define RPQI_GRAPHDB_MASK_DB_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "automata/flat.h"
#include "base/logging.h"

namespace rpqi {

/// A database over the dense objects [0, n) held as neighbour masks of
/// ⌈n/64⌉ words (DESIGN.md §5). For every relation r and object u there is a
/// forward row — the objects v with an edge u -r-> v — and an inverse row —
/// the objects v with an edge v -r-> u. Rows are indexed by Σ± symbol (2r
/// forward, 2r+1 inverse), so a transition finds its row without decoding
/// its symbol. Adding or removing an edge flips one bit in each of its two
/// rows; tail bits past n stay zero.
///
/// The CDA solver keeps its lower and upper graphs in two of these and
/// flips their bits in place as it branches.
class MaskDb {
 public:
  MaskDb(int num_objects, int num_relations)
      : num_objects_(num_objects),
        num_relations_(num_relations),
        words_((num_objects + 63) / 64),
        masks_(static_cast<size_t>(2) * num_relations * num_objects * words_,
               0) {}

  int num_objects() const { return num_objects_; }
  int num_relations() const { return num_relations_; }
  /// Words per row: ⌈num_objects / 64⌉.
  int words() const { return words_; }

  void AddEdge(int from, int relation, int to) {
    Word(2 * relation, from, to) |= Bit(to);
    Word(2 * relation + 1, to, from) |= Bit(from);
  }
  void RemoveEdge(int from, int relation, int to) {
    Word(2 * relation, from, to) &= ~Bit(to);
    Word(2 * relation + 1, to, from) &= ~Bit(from);
  }
  bool HasEdge(int from, int relation, int to) const {
    return (Row(2 * relation, from)[to >> 6] & Bit(to)) != 0;
  }

  /// Removes every edge.
  void Clear();
  /// Adds every edge over every relation: the complete graph.
  void Fill();

  /// The row of `object` under Σ± `symbol`: the objects one `symbol` step
  /// away. `symbol` must be below 2 · num_relations().
  const uint64_t* Row(int symbol, int object) const {
    RPQI_DCHECK(0 <= symbol && symbol < 2 * num_relations_);
    RPQI_DCHECK(0 <= object && object < num_objects_);
    return masks_.data() +
           (static_cast<size_t>(symbol) * num_objects_ + object) * words_;
  }

 private:
  static uint64_t Bit(int object) { return uint64_t{1} << (object & 63); }
  uint64_t& Word(int symbol, int object, int bit) {
    const size_t row = static_cast<size_t>(symbol) * num_objects_ + object;
    return masks_[row * words_ + (bit >> 6)];
  }

  int num_objects_;
  int num_relations_;
  int words_;
  std::vector<uint64_t> masks_;  // [symbol][object][word]
};

/// Bit-parallel single-source evaluation of a compiled plan on a MaskDb.
/// It keeps one reach mask per plan state: the source is seeded in every
/// initial state, and a state's newly reached objects are pushed through
/// each of its transitions (symbol 2k follows relation k forward, 2k+1
/// backward; a relation at or past db.num_relations() has no edges) until
/// no mask changes. The answers are the objects reached in an accepting
/// state, which includes the source when an initial state accepts — the
/// same set EvalRpqiFrom computes on the equivalent GraphDb.
///
/// All working memory is sized at construction, so Run never allocates.
/// Not thread-safe: one evaluator per thread.
class MaskEvaluator {
 public:
  /// Sized for plans of at most `max_states` states over `num_objects`
  /// objects.
  MaskEvaluator(int max_states, int num_objects);

  /// The answer mask from `source`: db.words() words, valid until the next
  /// Run. `plan` must satisfy the FlatNfa invariants and fit the sizing.
  std::span<const uint64_t> Run(const MaskDb& db, const FlatNfa& plan,
                                int source);

  static bool Contains(std::span<const uint64_t> mask, int object) {
    return (mask[object >> 6] >> (object & 63)) & 1;
  }

 private:
  int max_states_;
  int words_;
  std::vector<uint64_t> reach_;    // [state][word]: objects reached so far
  std::vector<uint64_t> pending_;  // [state][word]: reached, not yet pushed
  std::vector<uint64_t> delta_;    // the state being pushed
  std::vector<uint64_t> image_;    // delta_ under one symbol
  std::vector<uint64_t> answers_;
  std::vector<int32_t> worklist_;  // states with pending bits
  std::vector<char> queued_;       // [state]: on the worklist
};

}  // namespace rpqi

#endif  // RPQI_GRAPHDB_MASK_DB_H_
