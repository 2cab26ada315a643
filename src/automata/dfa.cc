#include "automata/dfa.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "automata/nfa.h"

namespace rpqi {

Dfa Complete(const Dfa& dfa) {
  if (dfa.IsComplete()) return dfa;
  Dfa result(dfa.num_symbols(), dfa.NumStates() + 1);
  int sink = dfa.NumStates();
  result.SetInitial(dfa.initial());
  for (int s = 0; s < dfa.NumStates(); ++s) {
    result.SetAccepting(s, dfa.IsAccepting(s));
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      int to = dfa.Next(s, a);
      result.SetNext(s, a, to < 0 ? sink : to);
    }
  }
  for (int a = 0; a < dfa.num_symbols(); ++a) result.SetNext(sink, a, sink);
  return result;
}

Dfa ComplementDfa(const Dfa& dfa) {
  Dfa result = Complete(dfa);
  for (int s = 0; s < result.NumStates(); ++s) {
    result.SetAccepting(s, !result.IsAccepting(s));
  }
  return result;
}

namespace {

/// The reachable part of Complete(dfa) as a row-major table, states numbered
/// breadth-first from the initial state (which gets 0). A missing edge leads
/// to a rejecting sink, numbered where the search first meets it — the
/// numbering RestrictToReachable(Complete(dfa)) gives.
struct ReachableTable {
  std::vector<int> next;
  std::vector<bool> accepting;
};

ReachableTable ReachableCompletion(const Dfa& dfa) {
  const int k = dfa.num_symbols();
  const int sink = dfa.NumStates();  // the completion's extra state
  std::vector<int> new_id(static_cast<size_t>(sink) + 1, -1);
  std::vector<int> order = {dfa.initial()};
  new_id[dfa.initial()] = 0;
  ReachableTable table;
  for (size_t i = 0; i < order.size(); ++i) {
    const int s = order[i];
    table.accepting.push_back(s != sink && dfa.IsAccepting(s));
    for (int a = 0; a < k; ++a) {
      int to = s == sink ? sink : dfa.Next(s, a);
      if (to < 0) to = sink;
      if (new_id[to] < 0) {
        new_id[to] = static_cast<int>(order.size());
        order.push_back(to);
      }
      table.next.push_back(new_id[to]);
    }
  }
  return table;
}

}  // namespace

Dfa Minimize(const Dfa& input) {
  ReachableTable dfa = ReachableCompletion(input);
  const int n = static_cast<int>(dfa.accepting.size());
  const int k = input.num_symbols();

  // Reverse transitions in CSR form: the states q with q --a--> s are
  // preimage[preimage_begin[a * n + s] .. preimage_begin[a * n + s + 1]), in
  // increasing order of q.
  std::vector<int> preimage_begin(static_cast<size_t>(k) * n + 1, 0);
  auto row = [&](int q) {
    return dfa.next.data() + static_cast<size_t>(q) * k;
  };
  for (int q = 0; q < n; ++q) {
    for (int a = 0; a < k; ++a) {
      ++preimage_begin[static_cast<size_t>(a) * n + row(q)[a] + 1];
    }
  }
  for (size_t i = 1; i < preimage_begin.size(); ++i) {
    preimage_begin[i] += preimage_begin[i - 1];
  }
  std::vector<int> preimage(dfa.next.size());
  {
    std::vector<int> fill(preimage_begin.begin(), preimage_begin.end() - 1);
    for (int q = 0; q < n; ++q) {
      for (int a = 0; a < k; ++a) {
        preimage[fill[static_cast<size_t>(a) * n + row(q)[a]]++] = q;
      }
    }
  }

  // Hopcroft's algorithm. Each block is a range [block_begin, block_end) of
  // `members`; a split partitions its range stably (members of X first).
  // Member order decides the order of X and so the order in which blocks
  // split and get their ids: the numbering of the result, which the
  // rendered rewriting depends on, stays fixed only while splits are
  // stable. The worklist holds (block, symbol) splitters.
  std::vector<int> members;
  members.reserve(n);
  std::vector<int> block_of(n);
  std::vector<int> block_begin, block_end;
  for (bool accepting : {true, false}) {
    const int begin = static_cast<int>(members.size());
    for (int s = 0; s < n; ++s) {
      if (dfa.accepting[s] == accepting) members.push_back(s);
    }
    if (static_cast<int>(members.size()) == begin) continue;
    for (int i = begin; i < static_cast<int>(members.size()); ++i) {
      block_of[members[i]] = static_cast<int>(block_begin.size());
    }
    block_begin.push_back(begin);
    block_end.push_back(static_cast<int>(members.size()));
  }

  std::vector<std::pair<int, int>> worklist;  // (block id, symbol)
  for (size_t b = 0; b < block_begin.size(); ++b)
    for (int a = 0; a < k; ++a) worklist.push_back({static_cast<int>(b), a});

  // Per-splitter scratch, reused: X, the blocks it touches, how many members
  // of each are in X, and the states of a split block outside X.
  std::vector<int> x;
  std::vector<char> state_in_x(n, 0);
  std::vector<int> touched_blocks;
  std::vector<int> touched_count(n, 0);
  std::vector<int> outside;
  while (!worklist.empty()) {
    auto [splitter_block, a] = worklist.back();
    worklist.pop_back();

    // X = preimage of the splitter block under symbol a.
    x.clear();
    for (int i = block_begin[splitter_block]; i < block_end[splitter_block];
         ++i) {
      const size_t bucket = static_cast<size_t>(a) * n + members[i];
      for (int j = preimage_begin[bucket]; j < preimage_begin[bucket + 1];
           ++j) {
        const int q = preimage[j];
        if (!state_in_x[q]) {
          state_in_x[q] = 1;
          x.push_back(q);
        }
      }
    }
    if (x.empty()) continue;

    // Find blocks split by X.
    touched_blocks.clear();
    for (int q : x) {
      if (touched_count[block_of[q]]++ == 0) {
        touched_blocks.push_back(block_of[q]);
      }
    }
    for (int b : touched_blocks) {
      const int in_x = touched_count[b];
      touched_count[b] = 0;
      const int begin = block_begin[b];
      const int end = block_end[b];
      if (in_x == end - begin) continue;  // not split
      // Split block b into (b ∩ X) and (b \ X); keep the smaller as new block.
      outside.clear();
      int write = begin;
      for (int i = begin; i < end; ++i) {
        const int s = members[i];
        if (state_in_x[s]) {
          members[write++] = s;
        } else {
          outside.push_back(s);
        }
      }
      std::copy(outside.begin(), outside.end(), members.begin() + write);
      const int mid = begin + in_x;
      const int new_block = static_cast<int>(block_begin.size());
      if (in_x <= end - mid) {
        block_begin.push_back(begin);
        block_end.push_back(mid);
        block_begin[b] = mid;
      } else {
        block_begin.push_back(mid);
        block_end.push_back(end);
        block_end[b] = mid;
      }
      for (int i = block_begin[new_block]; i < block_end[new_block]; ++i) {
        block_of[members[i]] = new_block;
      }
      for (int sym = 0; sym < k; ++sym) worklist.push_back({new_block, sym});
    }
    for (int q : x) state_in_x[q] = 0;
  }

  // Build the quotient automaton.
  const int num_blocks = static_cast<int>(block_begin.size());
  std::vector<int> next(static_cast<size_t>(num_blocks) * k);
  std::vector<bool> accepting(num_blocks);
  for (int b = 0; b < num_blocks; ++b) {
    const int representative = members[block_begin[b]];
    accepting[b] = dfa.accepting[representative];
    for (int a = 0; a < k; ++a) {
      next[static_cast<size_t>(b) * k + a] = block_of[row(representative)[a]];
    }
  }
  return Dfa(k, std::move(next), std::move(accepting), block_of[0]);
}

bool IsEmpty(const Dfa& dfa) {
  std::vector<char> seen(dfa.NumStates(), 0);
  std::vector<int> queue = {dfa.initial()};
  seen[dfa.initial()] = 1;
  for (size_t i = 0; i < queue.size(); ++i) {
    const int s = queue[i];
    if (dfa.IsAccepting(s)) return false;
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      const int to = dfa.Next(s, a);
      if (to >= 0 && !seen[to]) {
        seen[to] = 1;
        queue.push_back(to);
      }
    }
  }
  return true;
}

Nfa DfaToNfa(const Dfa& dfa) {
  // lint: allow-unbudgeted linear copy of the input DFA
  Nfa nfa(dfa.num_symbols());
  for (int s = 0; s < dfa.NumStates(); ++s) nfa.AddState();
  nfa.SetInitial(dfa.initial());
  for (int s = 0; s < dfa.NumStates(); ++s) {
    if (dfa.IsAccepting(s)) nfa.SetAccepting(s);
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      int to = dfa.Next(s, a);
      if (to >= 0) nfa.AddTransition(s, a, to);
    }
  }
  return nfa;
}

}  // namespace rpqi
