#ifndef RPQI_AUTOMATA_DFA_H_
#define RPQI_AUTOMATA_DFA_H_

#include <utility>
#include <vector>

#include "base/logging.h"

namespace rpqi {

class Nfa;

/// A complete deterministic finite automaton: every state has exactly one
/// successor per symbol (a rejecting sink plays the role of "no transition").
class Dfa {
 public:
  Dfa(int num_symbols, int num_states)
      : num_symbols_(num_symbols),
        num_states_(num_states),
        next_(static_cast<size_t>(num_states) * num_symbols, -1),
        accepting_(num_states, false),
        initial_(0) {
    RPQI_CHECK_GE(num_symbols, 0);
    RPQI_CHECK_GT(num_states, 0);
  }

  /// Adopts a row-major table (`next[state * num_symbols + symbol]`, -1 for
  /// a missing edge) and per-state acceptance, so builders that grow a flat
  /// table move it in instead of copying it edge by edge.
  Dfa(int num_symbols, std::vector<int> next, std::vector<bool> accepting,
      int initial)
      : num_symbols_(num_symbols),
        num_states_(static_cast<int>(accepting.size())),
        next_(std::move(next)),
        accepting_(std::move(accepting)),
        initial_(initial) {
    RPQI_CHECK_GE(num_symbols, 0);
    RPQI_CHECK_GT(num_states_, 0);
    RPQI_CHECK_EQ(next_.size(),
                  static_cast<size_t>(num_states_) * num_symbols);
    RPQI_CHECK(0 <= initial && initial < num_states_);
    for (int to : next_) RPQI_CHECK(-1 <= to && to < num_states_);
  }

  int num_symbols() const { return num_symbols_; }
  int NumStates() const { return num_states_; }

  int initial() const { return initial_; }
  void SetInitial(int state) {
    RPQI_CHECK(0 <= state && state < num_states_);
    initial_ = state;
  }

  void SetAccepting(int state, bool value = true) {
    RPQI_CHECK(0 <= state && state < num_states_);
    accepting_[state] = value;
  }
  bool IsAccepting(int state) const {
    // Interior hot-loop read (the subset-construction and rewriting inner
    // loops call this per transition): bounds are established by the
    // construction-time RPQI_CHECKs above, so release builds skip the check.
    RPQI_DCHECK(0 <= state && state < num_states_);
    return accepting_[state];
  }

  void SetNext(int state, int symbol, int to) {
    RPQI_CHECK(0 <= state && state < num_states_);
    RPQI_CHECK(0 <= symbol && symbol < num_symbols_);
    RPQI_CHECK(0 <= to && to < num_states_);
    next_[static_cast<size_t>(state) * num_symbols_ + symbol] = to;
  }

  int Next(int state, int symbol) const {
    // Same contract as IsAccepting: two checks per transition dominated the
    // release-mode rewriting loops, and SetNext/SetInitial already reject
    // out-of-range ids at construction.
    RPQI_DCHECK(0 <= state && state < num_states_);
    RPQI_DCHECK(0 <= symbol && symbol < num_symbols_);
    return next_[static_cast<size_t>(state) * num_symbols_ + symbol];
  }

  /// True if every (state, symbol) pair has a successor.
  bool IsComplete() const {
    for (int v : next_)
      if (v < 0) return false;
    return true;
  }

  bool Accepts(const std::vector<int>& word) const {
    int state = initial_;
    for (int symbol : word) {
      state = Next(state, symbol);
      if (state < 0) return false;
    }
    return accepting_[state];
  }

 private:
  int num_symbols_;
  int num_states_;
  std::vector<int> next_;
  std::vector<bool> accepting_;
  int initial_;
};

/// Ensures totality by adding a rejecting sink if any transition is missing.
Dfa Complete(const Dfa& dfa);

/// Language complement: completes, then flips acceptance.
Dfa ComplementDfa(const Dfa& dfa);

/// Hopcroft partition-refinement minimization. The result is complete and has
/// the minimum number of states among complete DFAs for the language
/// (including the sink state, if the language is not universal-prefix-closed).
Dfa Minimize(const Dfa& dfa);

/// True if the automaton accepts no word: one breadth-first search over the
/// table from the initial state.
bool IsEmpty(const Dfa& dfa);

/// Converts to an equivalent NFA (one initial state, same transitions).
Nfa DfaToNfa(const Dfa& dfa);

}  // namespace rpqi

#endif  // RPQI_AUTOMATA_DFA_H_
