#include "rewrite/eval.h"

#include <algorithm>
#include <deque>
#include <set>

#include "automata/ops.h"
#include "base/bitset.h"
#include "graphdb/eval.h"
#include "graphdb/views.h"
#include "rewrite/rewriter.h"

namespace rpqi {

std::vector<std::pair<int, int>> EvaluateRewriting(
    const Dfa& rewriting, int num_objects,
    const std::vector<std::vector<std::pair<int, int>>>& extensions) {
  RPQI_CHECK_EQ(rewriting.num_symbols(),
                2 * static_cast<int>(extensions.size()));
  GraphDb view_graph = BuildViewGraph(num_objects, extensions);
  const FlatNfa plan = CompileEvalPlan(Trim(DfaToNfa(rewriting)));
  return EvalRpqiAllPairs(view_graph, plan);
}

namespace {

/// A binary relation over the objects, as one adjacency bitset per source.
using Relation = std::vector<Bitset>;

bool RelationEmpty(const Relation& relation) {
  for (const Bitset& row : relation) {
    if (!row.None()) return false;
  }
  return true;
}

/// rows ∘ step: (x,z) iff ∃y with (x,y) ∈ rows and (y,z) ∈ step.
Relation Compose(const Relation& rows, const Relation& step, int num_objects) {
  Relation result(num_objects, Bitset(num_objects));
  for (int x = 0; x < num_objects; ++x) {
    for (int y = rows[x].NextSetBit(0); y >= 0;
         y = rows[x].NextSetBit(y + 1)) {
      for (int z = step[y].NextSetBit(0); z >= 0;
           z = step[y].NextSetBit(z + 1)) {
        result[x].Set(z);
      }
    }
  }
  return result;
}

}  // namespace

StatusOr<DirectViewAnswersResult> DirectViewAnswers(
    const Nfa& query, const std::vector<Nfa>& views, int num_objects,
    const std::vector<std::vector<std::pair<int, int>>>& extensions,
    const DirectViewAnswersOptions& options) {
  RPQI_CHECK_EQ(views.size(), extensions.size());
  const int num_view_symbols = 2 * static_cast<int>(views.size());

  // Per-symbol step relations over the view graph: symbol 2i follows the
  // extension pairs of view i forward, 2i+1 backwards.
  std::vector<Relation> step(num_view_symbols,
                             Relation(num_objects, Bitset(num_objects)));
  for (size_t view = 0; view < extensions.size(); ++view) {
    for (const auto& [a, b] : extensions[view]) {
      RPQI_CHECK(0 <= a && a < num_objects && 0 <= b && b < num_objects);
      step[2 * view][a].Set(b);
      step[2 * view + 1][b].Set(a);
    }
  }

  // BFS over realized view words: each node carries the word and the object
  // relation it denotes; empty relations are pruned (the word labels no
  // semipath, so it can contribute no answers and neither can extensions).
  struct Node {
    std::vector<int> word;
    Relation reach;
  };
  std::deque<Node> queue;
  Relation identity(num_objects, Bitset(num_objects));
  for (int x = 0; x < num_objects; ++x) identity[x].Set(x);
  queue.push_back({{}, std::move(identity)});

  DirectViewAnswersResult result;
  std::set<std::pair<int, int>> answers;
  while (!queue.empty()) {
    if (result.words_checked >= options.max_words) {
      result.exhaustive_to_length = false;
      break;
    }
    Node node = std::move(queue.front());
    queue.pop_front();
    ++result.words_checked;

    StatusOr<bool> certified = IsWordInMaximalRewritingWithBudget(
        query, views, node.word, options.max_states_per_check, options.budget);
    if (!certified.ok()) {
      if (certified.status().code() == Status::Code::kCancelled) {
        return certified.status();
      }
      result.exhaustive_to_length = false;
      break;
    }
    if (*certified) {
      for (int x = 0; x < num_objects; ++x) {
        for (int y = node.reach[x].NextSetBit(0); y >= 0;
             y = node.reach[x].NextSetBit(y + 1)) {
          answers.insert({x, y});
        }
      }
    }
    if (static_cast<int>(node.word.size()) < options.max_word_length) {
      for (int symbol = 0; symbol < num_view_symbols; ++symbol) {
        Relation next = Compose(node.reach, step[symbol], num_objects);
        if (RelationEmpty(next)) continue;
        std::vector<int> word = node.word;
        word.push_back(symbol);
        queue.push_back({std::move(word), std::move(next)});
      }
    }
  }

  result.answers.assign(answers.begin(), answers.end());
  return result;
}

}  // namespace rpqi
