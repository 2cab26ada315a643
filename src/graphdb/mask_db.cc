#include "graphdb/mask_db.h"

#include <algorithm>
#include <bit>

namespace rpqi {

void MaskDb::Clear() { std::fill(masks_.begin(), masks_.end(), 0); }

void MaskDb::Fill() {
  if (words_ == 0) return;
  const uint64_t tail = (num_objects_ & 63) == 0
                            ? ~uint64_t{0}
                            : (uint64_t{1} << (num_objects_ & 63)) - 1;
  std::fill(masks_.begin(), masks_.end(), ~uint64_t{0});
  for (size_t last = words_ - 1; last < masks_.size(); last += words_) {
    masks_[last] = tail;
  }
}

MaskEvaluator::MaskEvaluator(int max_states, int num_objects)
    : max_states_(max_states),
      words_((num_objects + 63) / 64),
      reach_(static_cast<size_t>(max_states) * words_),
      pending_(static_cast<size_t>(max_states) * words_),
      delta_(words_),
      image_(words_),
      answers_(words_),
      worklist_(max_states),
      queued_(max_states, 0) {}

std::span<const uint64_t> MaskEvaluator::Run(const MaskDb& db,
                                             const FlatNfa& plan,
                                             int source) {
  RPQI_CHECK(db.words() == words_ && plan.NumStates() <= max_states_);
  RPQI_CHECK(0 <= source && source < db.num_objects());
  const int words = words_;
  const size_t cells = static_cast<size_t>(plan.NumStates()) * words;
  std::fill_n(reach_.begin(), cells, 0);
  std::fill_n(pending_.begin(), cells, 0);
  int top = 0;
  const uint64_t source_bit = uint64_t{1} << (source & 63);
  for (int32_t s : plan.InitialStates()) {
    reach_[static_cast<size_t>(s) * words + (source >> 6)] = source_bit;
    pending_[static_cast<size_t>(s) * words + (source >> 6)] = source_bit;
    queued_[s] = 1;
    worklist_[top++] = s;
  }

  // Semi-naive: a state pushes only the objects it gained since it was last
  // pushed, so every (state, object) pair is expanded at most once.
  const int num_symbols = 2 * db.num_relations();
  while (top > 0) {
    const int state = worklist_[--top];
    queued_[state] = 0;
    uint64_t* pending = pending_.data() + static_cast<size_t>(state) * words;
    std::copy_n(pending, words, delta_.begin());
    std::fill_n(pending, words, 0);
    int image_symbol = -1;
    for (const FlatNfa::Edge& t : plan.Edges(state)) {
      // Spans are sorted by symbol: from here on no relation has edges.
      if (t.symbol >= num_symbols) break;
      if (t.symbol != image_symbol) {
        // The image of delta under this symbol serves every target of the
        // symbol's run of edges.
        image_symbol = t.symbol;
        std::fill(image_.begin(), image_.end(), 0);
        for (int w = 0; w < words; ++w) {
          for (uint64_t bits = delta_[w]; bits != 0; bits &= bits - 1) {
            const uint64_t* row =
                db.Row(t.symbol, (w << 6) + std::countr_zero(bits));
            for (int k = 0; k < words; ++k) image_[k] |= row[k];
          }
        }
      }
      uint64_t* reach = reach_.data() + static_cast<size_t>(t.to) * words;
      uint64_t* target_pending =
          pending_.data() + static_cast<size_t>(t.to) * words;
      uint64_t grew = 0;
      for (int k = 0; k < words; ++k) {
        const uint64_t fresh = image_[k] & ~reach[k];
        reach[k] |= fresh;
        target_pending[k] |= fresh;
        grew |= fresh;
      }
      if (grew != 0 && !queued_[t.to]) {
        queued_[t.to] = 1;
        worklist_[top++] = t.to;
      }
    }
  }

  std::fill(answers_.begin(), answers_.end(), 0);
  for (int s = 0; s < plan.NumStates(); ++s) {
    if (!plan.IsAccepting(s)) continue;
    const uint64_t* reach = reach_.data() + static_cast<size_t>(s) * words;
    for (int k = 0; k < words; ++k) answers_[k] |= reach[k];
  }
  return answers_;
}

}  // namespace rpqi
