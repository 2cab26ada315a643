#include "automata/table_dfa.h"

#include <algorithm>
#include <bit>

#include "base/hash.h"

namespace rpqi {

namespace {

/// Calls fn(state) for every set bit in the `words`-word state-set mask.
template <typename Fn>
inline void ForEachState(const uint64_t* mask, int words, Fn fn) {
  for (int w = 0; w < words; ++w) {
    uint64_t bits = mask[w];
    while (bits != 0) {
      fn((w << 6) + __builtin_ctzll(bits));
      bits &= bits - 1;
    }
  }
}

}  // namespace

LazyTableDfa::LazyTableDfa(const TwoWayNfa& two_way, bool complement)
    : two_way_(two_way),
      complement_(complement),
      n_(two_way.NumStates()),
      words_per_set_((two_way.NumStates() + 63) / 64),
      accepting_states_(two_way.NumStates()),
      left_targets_(two_way.NumStates()) {
  for (int s = 0; s < n_; ++s) {
    if (two_way_.IsAccepting(s)) accepting_states_.Set(s);
  }
  // Behavior rows are only ever consulted when a left move lands in their
  // state (see ComputeStep); rows of states that are never left-move targets
  // are dead and get masked out before interning, which collapses otherwise
  // distinct table states into one.
  for (int s = 0; s < n_; ++s) {
    for (int symbol = 0; symbol < two_way_.num_symbols(); ++symbol) {
      for (const TwoWayNfa::Transition& t : two_way_.TransitionsOn(s, symbol)) {
        if (t.move == Move::kLeft) left_targets_.Set(t.to);
      }
    }
  }
  row_index_.assign(n_, -1);
  for (int s = 0; s < n_; ++s) {
    if (left_targets_.Test(s)) {
      row_index_[s] = num_live_rows_;
      ++num_live_rows_;
    }
  }
}

int LazyTableDfa::StartState() {
  // Compact key: the reach set followed by the live (left-target) behavior
  // rows, all empty initially except R = initial states.
  Bitset reach(n_);
  for (int s : two_way_.InitialStates()) reach.Set(s);
  std::vector<uint64_t> key(
      static_cast<size_t>(words_per_set_) * (num_live_rows_ + 1), 0);
  for (int w = 0; w < words_per_set_; ++w) key[w] = reach.words()[w];
  int id = interner_.InternHashed(key, HashWords(key));
  if (id == static_cast<int>(b_of_.size())) b_of_.push_back(-1);
  return id;
}

int LazyTableDfa::Step(int state, int symbol) {
  const int num_symbols = two_way_.num_symbols();
  size_t index = static_cast<size_t>(state) * num_symbols + symbol;
  if (index >= step_cache_.size()) {
    step_cache_.resize(static_cast<size_t>(interner_.size()) * num_symbols,
                       -1);
  }
  int& cached = step_cache_[index];
  if (cached < 0) cached = ComputeStep(state, symbol);
  return cached;
}

int LazyTableDfa::ComputeStep(int state, int symbol) {
  if (masks_.empty()) BuildMasks();
  // Adaptive bail-out: filling a BStep pays a full-n closure that only
  // amortizes when (B part, symbol) pairs recur. Require a 25% hit rate once
  // past the warm-up window, else step without touching the cache (or even
  // interning B parts — see BPartOf).
  if (b_step_misses_ > 128 && b_step_hits_ * 3 < b_step_misses_) {
    return ComputeStepDirect(state, symbol);
  }
  int b_id = BPartOf(state);
  uint64_t cache_key = PairKey(b_id, symbol);
  auto it = b_step_index_.find(cache_key);
  if (it != b_step_index_.end()) {
    ++b_step_hits_;
    return ApplyBStep(state, b_steps_[it->second]);
  }
  ++b_step_misses_;
  return ApplyBStep(state, ComputeBStep(cache_key, b_id, symbol));
}

int LazyTableDfa::BPartOf(int state) {
  int& b = b_of_[state];
  if (b < 0) {
    const std::vector<uint64_t>& key = interner_.KeyOf(state);
    std::vector<uint64_t> b_words(key.begin() + words_per_set_, key.end());
    b = b_interner_.InternHashed(b_words, HashWords(b_words));
  }
  return b;
}

int LazyTableDfa::ApplyBStep(int state, const BStep& bs) {
  const int W = words_per_set_;
  const std::vector<uint64_t>& key = interner_.KeyOf(state);

  // R' = ⋃ { closure-result row of s : s ∈ R } — every state the two-way
  // automaton can hand to the next cell after stay/left excursions from R.
  if (W == 1) {
    uint64_t acc = 0;
    uint64_t bits = key[0];
    while (bits != 0) {
      acc |= bs.rows[__builtin_ctzll(bits)];
      bits &= bits - 1;
    }
    scratch_key_[0] = acc;
  } else {
    for (int w = 0; w < W; ++w) scratch_key_[w] = 0;
    ForEachState(key.data(), W, [&](int s) {
      const uint64_t* row = &bs.rows[static_cast<size_t>(s) * W];
      for (int w = 0; w < W; ++w) scratch_key_[w] |= row[w];
    });
  }
  std::copy(bs.new_b_words.begin(), bs.new_b_words.end(),
            scratch_key_.begin() + W);
  int id = interner_.InternHashed(scratch_key_, HashWords(scratch_key_));
  if (id == static_cast<int>(b_of_.size())) b_of_.push_back(bs.new_b_id);
  return id;
}

int LazyTableDfa::ComputeStepDirect(int state, int symbol) {
  if (words_per_set_ == 1) return ComputeStepDirect1(state, symbol);
  const int W = words_per_set_;
  const SymbolMasks& masks = masks_[symbol];
  const std::vector<uint64_t>& key = interner_.KeyOf(state);
  const uint64_t* b_section = key.data() + W;
  uint64_t* one_step = scratch_one_step_.data();
  uint64_t* rows = scratch_rows_.data();

  // Discover the states whose closure rows are actually needed — the reach
  // set (for R') and the live rows (for B') — closed under one-step edges,
  // building one_step and seeding rows with the right-move targets as we go.
  scratch_order_.clear();
  size_t built = 0;
  auto discover = [&](int s) {
    if (!scratch_visited_[s]) {
      scratch_visited_[s] = 1;
      scratch_order_.push_back(s);
    }
  };
  ForEachState(key.data(), W, discover);
  ForEachState(left_targets_.words().data(), W, discover);
  while (built < scratch_order_.size()) {
    int s = scratch_order_[built++];
    uint64_t* row = &one_step[static_cast<size_t>(s) * W];
    for (int w = 0; w < W; ++w) {
      row[w] = masks.stay[static_cast<size_t>(s) * W + w];
      rows[static_cast<size_t>(s) * W + w] =
          masks.right[static_cast<size_t>(s) * W + w];
    }
    ForEachState(&masks.left[static_cast<size_t>(s) * W], W, [&](int t) {
      const uint64_t* behavior =
          &b_section[static_cast<size_t>(row_index_[t]) * W];
      for (int w = 0; w < W; ++w) row[w] |= behavior[w];
    });
    ForEachState(row, W, discover);
  }
  // Least fixpoint rows[s] = right[s] ∪ ⋃_{t ∈ one_step[s]} rows[t],
  // Gauss-Seidel in reverse discovery order (targets tend to be discovered
  // after their sources, so sources see settled targets first).
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = scratch_order_.size(); i-- > 0;) {
      int s = scratch_order_[i];
      uint64_t* result = &rows[static_cast<size_t>(s) * W];
      ForEachState(&one_step[static_cast<size_t>(s) * W], W, [&](int t) {
        const uint64_t* from = &rows[static_cast<size_t>(t) * W];
        for (int w = 0; w < W; ++w) {
          uint64_t add = from[w] & ~result[w];
          if (add != 0) {
            result[w] |= add;
            changed = true;
          }
        }
      });
    }
  }
  for (int s : scratch_order_) scratch_visited_[s] = 0;

  // Assemble the successor key: R' then the live closure rows.
  for (int w = 0; w < W; ++w) scratch_key_[w] = 0;
  ForEachState(key.data(), W, [&](int s) {
    const uint64_t* row = &rows[static_cast<size_t>(s) * W];
    for (int w = 0; w < W; ++w) scratch_key_[w] |= row[w];
  });
  ForEachState(left_targets_.words().data(), W, [&](int s) {
    std::copy_n(&rows[static_cast<size_t>(s) * W], W,
                scratch_key_.begin() + W +
                    static_cast<size_t>(row_index_[s]) * W);
  });
  int id = interner_.InternHashed(scratch_key_, HashWords(scratch_key_));
  // -1 = B part not interned; resolved lazily by BPartOf should the cached
  // path ever need it (it will not while the cache stays bailed out).
  if (id == static_cast<int>(b_of_.size())) b_of_.push_back(-1);
  return id;
}

int LazyTableDfa::ComputeStepDirect1(int state, int symbol) {
  const SymbolMasks& masks = masks_[symbol];
  const std::vector<uint64_t>& key = interner_.KeyOf(state);
  const uint64_t* behavior = key.data() + 1;
  const uint64_t* stay = masks.stay.data();
  const uint64_t* left = masks.left.data();
  const uint64_t* right = masks.right.data();
  uint64_t* one_step = scratch_one_step_.data();
  uint64_t* rows = scratch_rows_.data();

  // Discovery runs on plain word masks: `discovered` doubles as the visited
  // set, `pending` as the work queue.
  scratch_order_.clear();
  uint64_t discovered = key[0] | left_targets_.words()[0];
  uint64_t pending = discovered;
  while (pending != 0) {
    int s = __builtin_ctzll(pending);
    pending &= pending - 1;
    scratch_order_.push_back(s);
    uint64_t row = stay[s];
    uint64_t lt = left[s];
    while (lt != 0) {
      row |= behavior[row_index_[__builtin_ctzll(lt)]];
      lt &= lt - 1;
    }
    one_step[s] = row;
    rows[s] = right[s];
    uint64_t fresh = row & ~discovered;
    discovered |= fresh;
    pending |= fresh;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = scratch_order_.size(); i-- > 0;) {
      int s = scratch_order_[i];
      uint64_t acc = rows[s];
      uint64_t bits = one_step[s];
      while (bits != 0) {
        acc |= rows[__builtin_ctzll(bits)];
        bits &= bits - 1;
      }
      if (acc != rows[s]) {
        rows[s] = acc;
        changed = true;
      }
    }
  }
  uint64_t reach = 0;
  uint64_t bits = key[0];
  while (bits != 0) {
    reach |= rows[__builtin_ctzll(bits)];
    bits &= bits - 1;
  }
  scratch_key_[0] = reach;
  uint64_t lt = left_targets_.words()[0];
  while (lt != 0) {
    int s = __builtin_ctzll(lt);
    lt &= lt - 1;
    scratch_key_[1 + row_index_[s]] = rows[s];
  }
  int id = interner_.InternHashed(scratch_key_, HashWords(scratch_key_));
  if (id == static_cast<int>(b_of_.size())) b_of_.push_back(-1);
  return id;
}

const LazyTableDfa::BStep& LazyTableDfa::ComputeBStep(uint64_t cache_key,
                                                      int b_id, int symbol) {
  const SymbolMasks& masks = masks_[symbol];
  const int W = words_per_set_;
  // B rows of the source part: row r of the compact encoding at r·W.
  const std::vector<uint64_t>& b_words = b_interner_.KeyOf(b_id);
  //   one_step[s] = stay targets of s ∪ behavior rows of s's left targets.
  uint64_t* one_step = scratch_one_step_.data();
  BStep bs;
  bs.rows.assign(static_cast<size_t>(n_) * W, 0);
  for (int s = 0; s < n_; ++s) {
    uint64_t* row = &one_step[static_cast<size_t>(s) * W];
    uint64_t* result = &bs.rows[static_cast<size_t>(s) * W];
    for (int w = 0; w < W; ++w) {
      row[w] = masks.stay[static_cast<size_t>(s) * W + w];
      result[w] = masks.right[static_cast<size_t>(s) * W + w];
    }
    ForEachState(&masks.left[static_cast<size_t>(s) * W], W, [&](int t) {
      const uint64_t* behavior =
          &b_words[static_cast<size_t>(row_index_[t]) * W];
      for (int w = 0; w < W; ++w) row[w] |= behavior[w];
    });
  }
  // Least fixpoint result[s] = right[s] ∪ ⋃_{t ∈ one_step[s]} result[t],
  // Gauss-Seidel until stable.
  bool changed = true;
  while (changed) {
    changed = false;
    for (int s = 0; s < n_; ++s) {
      uint64_t* result = &bs.rows[static_cast<size_t>(s) * W];
      ForEachState(&one_step[static_cast<size_t>(s) * W], W, [&](int t) {
        const uint64_t* from = &bs.rows[static_cast<size_t>(t) * W];
        for (int w = 0; w < W; ++w) {
          uint64_t add = from[w] & ~result[w];
          if (add != 0) {
            result[w] |= add;
            changed = true;
          }
        }
      });
    }
  }
  // Successor B part: the closure-result rows of the live states.
  bs.new_b_words.assign(static_cast<size_t>(num_live_rows_) * W, 0);
  ForEachState(left_targets_.words().data(), W, [&](int s) {
    std::copy_n(&bs.rows[static_cast<size_t>(s) * W], W,
                &bs.new_b_words[static_cast<size_t>(row_index_[s]) * W]);
  });
  bs.new_b_id = b_interner_.InternHashed(bs.new_b_words,
                                         HashWords(bs.new_b_words));
  int index = static_cast<int>(b_steps_.size());
  b_steps_.push_back(std::move(bs));
  b_step_index_.emplace(cache_key, index);
  return b_steps_[index];
}

void LazyTableDfa::BuildMasks() {
  const int W = words_per_set_;
  masks_.resize(two_way_.num_symbols());
  for (int symbol = 0; symbol < two_way_.num_symbols(); ++symbol) {
    SymbolMasks& masks = masks_[symbol];
    masks.stay.assign(static_cast<size_t>(n_) * W, 0);
    masks.left.assign(static_cast<size_t>(n_) * W, 0);
    masks.right.assign(static_cast<size_t>(n_) * W, 0);
    for (int s = 0; s < n_; ++s) {
      for (const TwoWayNfa::Transition& t : two_way_.TransitionsOn(s, symbol)) {
        size_t word = static_cast<size_t>(s) * W + (t.to >> 6);
        uint64_t bit = uint64_t{1} << (t.to & 63);
        switch (t.move) {
          case Move::kStay: masks.stay[word] |= bit; break;
          case Move::kLeft: masks.left[word] |= bit; break;
          case Move::kRight: masks.right[word] |= bit; break;
        }
      }
    }
  }
  scratch_one_step_.assign(static_cast<size_t>(n_) * W, 0);
  scratch_rows_.assign(static_cast<size_t>(n_) * W, 0);
  scratch_key_.assign(static_cast<size_t>(W) * (num_live_rows_ + 1), 0);
  scratch_order_.reserve(n_);
  scratch_visited_.assign(n_, 0);
}

bool LazyTableDfa::IsAccepting(int state) {
  const std::vector<uint64_t>& key = interner_.KeyOf(state);
  bool reach_accepts = false;
  for (int i = 0; i < words_per_set_; ++i) {
    if (key[i] & accepting_states_.words()[i]) {
      reach_accepts = true;
      break;
    }
  }
  return reach_accepts != complement_;
}

bool LazyTableDfa::IsDead(int state) {
  if (complement_) return false;
  const std::vector<uint64_t>& key = interner_.KeyOf(state);
  return std::all_of(key.begin(), key.begin() + words_per_set_,
                     [](uint64_t word) { return word == 0; });
}

uint64_t LazyTableDfa::SubsumptionPartition(int state) {
  // The componentwise order compares any two states, but partitioning by
  // (a hash of) the B part keeps antichain buckets small; within a bucket
  // the order reduces to R-inclusion, which is where most pruning lives —
  // the searches' bounded cross-partition pool picks up the rest. A hash
  // collision merely merges two buckets; Subsumes stays exact.
  const std::vector<uint64_t>& key = interner_.KeyOf(state);
  return HashWords(key.data() + words_per_set_,
                   key.size() - static_cast<size_t>(words_per_set_));
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
