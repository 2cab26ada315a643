#include "automata/table_dfa.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <utility>

#include "base/bitset.h"
#include "base/hash.h"

namespace rpqi {

namespace {

inline void SetBit(uint64_t* mask, int i) {
  mask[i >> 6] |= uint64_t{1} << (i & 63);
}

inline void OrInto(uint64_t* to, const uint64_t* from, int words) {
  for (int w = 0; w < words; ++w) to[w] |= from[w];
}

/// Word w of the union of the rows i ∈ `mask` (a `mask_words`-word set) of
/// `rows`, a table of `row_words`-word rows. A step builds every output word
/// in a register this way: no buffer is cleared and no row is ORed in place.
inline uint64_t UnionOfRows(const uint64_t* mask, int mask_words,
                            const uint64_t* rows, int row_words, int w) {
  uint64_t acc = 0;
  ForEachSetBit(mask, mask_words, [&](int i) {
    acc |= rows[static_cast<size_t>(i) * row_words + w];
  });
  return acc;
}

/// Unions one symbol's row tables over its stay moves: afterwards the row of
/// every state s, in both tables, is the union of the rows of the states s
/// reaches by stay moves (s included). The stay graph is a CSR: the targets
/// of s are to[begin[s] .. begin[s + 1]). Tarjan's algorithm completes a
/// strongly connected component only after every component it reaches, so
/// each component's union reads settled rows only, and the whole closure
/// costs O(n + stay edges) row unions.
class StayClosure {
 public:
  explicit StayClosure(int n) : index_(n, -1), low_(n), component_(n, -1) {}

  void Close(const std::vector<int>& begin, const std::vector<int>& to,
             uint64_t* right, int right_words, uint64_t* left,
             int left_words) {
    const int n = static_cast<int>(index_.size());
    std::fill(index_.begin(), index_.end(), -1);
    std::fill(component_.begin(), component_.end(), -1);
    int next_index = 0;
    auto open = [&](int s) {
      index_[s] = low_[s] = next_index++;
      stack_.push_back(s);
      path_.push_back({s, begin[s]});
    };
    auto unite = [&](int into, int from) {
      OrInto(right + static_cast<size_t>(into) * right_words,
             right + static_cast<size_t>(from) * right_words, right_words);
      OrInto(left + static_cast<size_t>(into) * left_words,
             left + static_cast<size_t>(from) * left_words, left_words);
    };
    for (int root = 0; root < n; ++root) {
      // A state without stay moves is its own closure.
      if (index_[root] >= 0 || begin[root] == begin[root + 1]) continue;
      open(root);
      while (!path_.empty()) {
        const int s = path_.back().first;
        if (path_.back().second < begin[s + 1]) {
          const int t = to[path_.back().second++];
          if (index_[t] < 0) {
            open(t);
          } else if (component_[t] < 0) {  // t is still on the stack
            low_[s] = std::min(low_[s], index_[t]);
          }
          continue;
        }
        path_.pop_back();
        if (!path_.empty()) {
          int& parent_low = low_[path_.back().first];
          parent_low = std::min(parent_low, low_[s]);
        }
        if (low_[s] != index_[s]) continue;
        // s roots a component: the stack from s up. Its row collects the
        // members' rows and the settled rows of the components they reach.
        size_t first = stack_.size();
        do {
          --first;
          component_[stack_[first]] = s;
        } while (stack_[first] != s);
        for (size_t i = first; i < stack_.size(); ++i) {
          const int u = stack_[i];
          if (u != s) unite(s, u);
          for (int e = begin[u]; e < begin[u + 1]; ++e) {
            if (component_[to[e]] != s) unite(s, to[e]);
          }
        }
        for (size_t i = first + 1; i < stack_.size(); ++i) {
          unite(stack_[i], s);
        }
        stack_.resize(first);
      }
    }
  }

 private:
  std::vector<int> index_, low_;
  std::vector<int> component_;  // root of the state's component, -1 = open
  std::vector<int> stack_;
  std::vector<std::pair<int, int>> path_;  // (state, next edge) of the DFS
};

}  // namespace

LazyTableDfa::LazyTableDfa(const TwoWayNfa& two_way, bool complement)
    : num_symbols_(two_way.num_symbols()),
      complement_(complement),
      n_(two_way.NumStates()),
      words_((two_way.NumStates() + 63) / 64) {
  // Live rows: the states some left move lands in, numbered in state order.
  std::vector<int> row_of(n_, -1);
  for (int s = 0; s < n_; ++s) {
    for (int a = 0; a < num_symbols_; ++a) {
      for (const TwoWayNfa::Transition& t : two_way.TransitionsOn(s, a)) {
        if (t.move == Move::kLeft) row_of[t.to] = 0;
      }
    }
  }
  for (int s = 0; s < n_; ++s) {
    if (row_of[s] < 0) continue;
    row_of[s] = num_live_rows_++;
    live_states_.push_back(s);
  }
  live_words_ = (num_live_rows_ + 63) / 64;

  const size_t key_words = static_cast<size_t>(words_) * (num_live_rows_ + 1);
  start_key_.assign(key_words, 0);
  accepting_.assign(words_, 0);
  for (int s = 0; s < n_; ++s) {
    if (two_way.IsInitial(s)) SetBit(start_key_.data(), s);
    if (two_way.IsAccepting(s)) SetBit(accepting_.data(), s);
  }

  stay_right_.assign(static_cast<size_t>(num_symbols_) * n_ * words_, 0);
  stay_left_.assign(static_cast<size_t>(num_symbols_) * n_ * live_words_, 0);
  std::vector<int> stay_begin(n_ + 1);
  std::vector<int> stay_to;
  std::optional<StayClosure> closure;
  for (int a = 0; a < num_symbols_; ++a) {
    uint64_t* right = stay_right_.data() + static_cast<size_t>(a) * n_ * words_;
    uint64_t* left =
        stay_left_.data() + static_cast<size_t>(a) * n_ * live_words_;
    stay_to.clear();
    for (int s = 0; s < n_; ++s) {
      stay_begin[s] = static_cast<int>(stay_to.size());
      for (const TwoWayNfa::Transition& t : two_way.TransitionsOn(s, a)) {
        switch (t.move) {
          case Move::kStay: stay_to.push_back(t.to); break;
          case Move::kLeft:
            SetBit(left + static_cast<size_t>(s) * live_words_, row_of[t.to]);
            break;
          case Move::kRight:
            SetBit(right + static_cast<size_t>(s) * words_, t.to);
            break;
        }
      }
    }
    stay_begin[n_] = static_cast<int>(stay_to.size());
    if (stay_to.empty()) continue;
    if (!closure) closure.emplace(n_);
    closure->Close(stay_begin, stay_to, right, words_, left, live_words_);
  }

  exit_.assign(static_cast<size_t>(num_live_rows_) * words_, 0);
  nested_.assign(static_cast<size_t>(num_live_rows_ + 1) * live_words_, 0);
  key_.assign(key_words, 0);
}

int LazyTableDfa::StartState() {
  return interner_.InternHashed(start_key_, HashWords(start_key_));
}

int LazyTableDfa::Step(int state, int symbol) {
  size_t index = static_cast<size_t>(state) * num_symbols_ + symbol;
  if (index >= step_cache_.size()) {
    step_cache_.resize(static_cast<size_t>(interner_.size()) * num_symbols_,
                       -1);
  }
  int& cached = step_cache_[index];
  if (cached < 0) cached = ComputeStep(state, symbol);
  return cached;
}

int LazyTableDfa::ComputeStep(int state, int symbol) {
  const int W = words_;
  const int LW = live_words_;
  const int L = num_live_rows_;
  const uint64_t* stay_right =
      stay_right_.data() + static_cast<size_t>(symbol) * n_ * W;
  const uint64_t* stay_left =
      stay_left_.data() + static_cast<size_t>(symbol) * n_ * LW;
  uint64_t* exit = exit_.data();
  uint64_t* nested = nested_.data();
  const uint64_t* reach = interner_.KeyOf(state).data();
  const uint64_t* behavior = reach + W;  // live row r at behavior[r * W]

  // A run that goes left into row r comes back in some u ∈ B[r]: exit[r]
  // starts as the right exits of those u, nested[r] collects the rows they
  // go left into again.
  uint64_t any_nested = 0;
  for (int r = 0; r < L; ++r) {
    const uint64_t* back = behavior + static_cast<size_t>(r) * W;
    uint64_t* out = exit + static_cast<size_t>(r) * W;
    uint64_t* again = nested + static_cast<size_t>(r) * LW;
    for (int w = 0; w < W; ++w) out[w] = UnionOfRows(back, W, stay_right, W, w);
    for (int w = 0; w < LW; ++w) {
      again[w] = UnionOfRows(back, W, stay_left, LW, w);
      any_nested |= again[w];
    }
  }
  // Nested excursions: exit[r] ∪= exit[q] for q ∈ nested[r], to the least
  // fixpoint (Gauss-Seidel over the live rows).
  for (bool changed = any_nested != 0; changed;) {
    changed = false;
    for (int r = 0; r < L; ++r) {
      uint64_t* out = exit + static_cast<size_t>(r) * W;
      const uint64_t* again = nested + static_cast<size_t>(r) * LW;
      for (int w = 0; w < W; ++w) {
        const uint64_t grown = out[w] | UnionOfRows(again, LW, exit, W, w);
        changed = changed || grown != out[w];
        out[w] = grown;
      }
    }
  }

  // R' = stay_right(R) ∪ exit over stay_left(R); the spare row L of nested_
  // holds stay_left(R).
  uint64_t* reach_left = nested + static_cast<size_t>(L) * LW;
  for (int w = 0; w < LW; ++w) {
    reach_left[w] = UnionOfRows(reach, W, stay_left, LW, w);
  }
  for (int w = 0; w < W; ++w) {
    key_[w] = UnionOfRows(reach, W, stay_right, W, w) |
              UnionOfRows(reach_left, LW, exit, W, w);
  }
  // B'[t] = stay_right[t] ∪ exit over stay_left[t], for each live row t.
  for (int r = 0; r < L; ++r) {
    const size_t t = static_cast<size_t>(live_states_[r]);
    uint64_t* row = key_.data() + static_cast<size_t>(r + 1) * W;
    for (int w = 0; w < W; ++w) {
      row[w] = stay_right[t * W + w] |
               UnionOfRows(stay_left + t * LW, LW, exit, W, w);
    }
  }
  return interner_.InternHashed(key_, HashWords(key_));
}

bool LazyTableDfa::IsAccepting(int state) {
  const std::vector<uint64_t>& key = interner_.KeyOf(state);
  bool reach_accepts = false;
  for (int w = 0; w < words_; ++w) {
    if (key[w] & accepting_[w]) {
      reach_accepts = true;
      break;
    }
  }
  return reach_accepts != complement_;
}

bool LazyTableDfa::IsDead(int state) {
  if (complement_) return false;
  const std::vector<uint64_t>& key = interner_.KeyOf(state);
  return std::all_of(key.begin(), key.begin() + words_,
                     [](uint64_t word) { return word == 0; });
}

uint64_t LazyTableDfa::SubsumptionPartition(int state) {
  // The componentwise order compares any two states, but partitioning by
  // (a hash of) the B part keeps antichain buckets small; within a bucket
  // the order reduces to R-inclusion, which is where most pruning lives —
  // the search's bounded cross-partition pool picks up the rest. A hash
  // collision merely merges two buckets; Subsumes stays exact.
  const std::vector<uint64_t>& key = interner_.KeyOf(state);
  return HashWords(key.data() + words_,
                   key.size() - static_cast<size_t>(words_));
}

bool LazyTableDfa::Subsumes(int state, int other) {
  const std::vector<uint64_t>& a = interner_.KeyOf(state);
  const std::vector<uint64_t>& b = interner_.KeyOf(other);
  // The per-letter update is monotone in the whole (R, B) encoding: bigger
  // rows produce bigger closures, hence bigger successor rows, hence a bigger
  // reach set on every future letter. Acceptance is R ∩ F ≠ ∅ (monotone in
  // R), so componentwise inclusion of the full key orders the languages —
  // flipped under complement, where acceptance is R ∩ F = ∅.
  for (size_t i = 0; i < a.size(); ++i) {
    if (complement_ ? (a[i] & ~b[i]) != 0 : (b[i] & ~a[i]) != 0) return false;
  }
  return true;
}

SubsumptionSig LazyTableDfa::SubsumptionSignature(int state) {
  // Rotated lane-fold of the whole key: componentwise inclusion implies fold
  // inclusion, and since every key word only populates the low n_ bits, each
  // word is rotated by its index before the fold so the R row and the B rows
  // land on distinct signature bits instead of aliasing. The complement flip
  // moves the fold to the antitone (shrink) side, which keeps the filter
  // words sparse in both directions.
  const std::vector<uint64_t>& key = interner_.KeyOf(state);
  SubsumptionSig signature;
  uint64_t* side = complement_ ? signature.shrink : signature.grow;
  for (size_t i = 0; i < key.size(); ++i) {
    side[i & 1] |= std::rotl(key[i], static_cast<int>((i * 29) & 63));
  }
  return signature;
}

}  // namespace rpqi
