#include <gtest/gtest.h>

#include <random>
#include <string>

#include "automata/lazy.h"
#include "automata/nfa.h"
#include "automata/ops.h"
#include "automata/pair_complement.h"
#include "automata/random.h"
#include "automata/table_dfa.h"
#include "automata/two_way.h"
#include "base/interner.h"

namespace rpqi {
namespace {

/// A handwritten two-way automaton over {0,1} that accepts words whose first
/// and last symbols agree. It guesses the last cell: walk right remembering
/// the first symbol, nondeterministically compare-and-step-right into a state
/// with no transitions — that state survives only past the true end. To make
/// the automaton genuinely two-way, the comparison re-checks the first symbol
/// by walking all the way back left and forth again.
TwoWayNfa FirstEqualsLastAutomaton() {
  TwoWayNfa automaton(2);
  const int start = automaton.AddState();    // records the first symbol
  const int scan0 = automaton.AddState();    // first symbol was 0
  const int scan1 = automaton.AddState();    // first symbol was 1
  const int back0 = automaton.AddState();    // re-verify: rewind to cell 0
  const int fwd0 = automaton.AddState();     // re-verified; scan right again
  const int accept = automaton.AddState();   // stuck unless past the end
  automaton.SetInitial(start);
  automaton.SetAccepting(accept);

  automaton.AddTransition(start, 0, scan0, Move::kStay);
  automaton.AddTransition(start, 1, scan1, Move::kStay);
  for (int symbol = 0; symbol < 2; ++symbol) {
    automaton.AddTransition(scan0, symbol, scan0, Move::kRight);
    automaton.AddTransition(scan1, symbol, scan1, Move::kRight);
    // scan0 may detour: rewind to the first cell and re-check it is a 0
    // (exercises left moves; semantically a no-op).
    automaton.AddTransition(scan0, symbol, back0, Move::kLeft);
    automaton.AddTransition(back0, symbol, back0, Move::kLeft);
    automaton.AddTransition(fwd0, symbol, fwd0, Move::kRight);
    automaton.AddTransition(fwd0, symbol, scan0, Move::kStay);
  }
  automaton.AddTransition(back0, 0, fwd0, Move::kStay);
  // Guess "this is the last cell": compare with the remembered first symbol.
  automaton.AddTransition(scan0, 0, accept, Move::kRight);
  automaton.AddTransition(scan1, 1, accept, Move::kRight);
  return automaton;
}

TEST(TwoWaySimulateTest, FirstEqualsLast) {
  TwoWayNfa automaton = FirstEqualsLastAutomaton();
  EXPECT_TRUE(SimulateTwoWay(automaton, {0}));
  EXPECT_TRUE(SimulateTwoWay(automaton, {1, 0, 1}));
  EXPECT_TRUE(SimulateTwoWay(automaton, {0, 1, 1, 0}));
  EXPECT_FALSE(SimulateTwoWay(automaton, {0, 1}));
  EXPECT_FALSE(SimulateTwoWay(automaton, {1, 1, 0}));
  EXPECT_FALSE(SimulateTwoWay(automaton, {}));
}

/// One-way automata embed into two-way automata: every NFA transition becomes
/// a right move.
TwoWayNfa EmbedOneWay(const Nfa& input) {
  Nfa nfa = RemoveEpsilon(input);
  TwoWayNfa automaton(nfa.num_symbols());
  for (int s = 0; s < nfa.NumStates(); ++s) automaton.AddState();
  for (int s = 0; s < nfa.NumStates(); ++s) {
    automaton.SetInitial(s, nfa.IsInitial(s));
    automaton.SetAccepting(s, nfa.IsAccepting(s));
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      automaton.AddTransition(s, t.symbol, t.to, Move::kRight);
    }
  }
  return automaton;
}

TEST(TwoWaySimulateTest, AgreesWithOneWayEmbedding) {
  std::mt19937_64 rng(5);
  RandomAutomatonOptions options;
  options.num_states = 5;
  options.num_symbols = 2;
  for (int trial = 0; trial < 40; ++trial) {
    Nfa nfa = RandomNfa(rng, options);
    TwoWayNfa embedded = EmbedOneWay(nfa);
    for (int i = 0; i < 25; ++i) {
      std::vector<int> word = RandomWord(rng, 2, i % 7);
      EXPECT_EQ(SimulateTwoWay(embedded, word), Accepts(nfa, word));
    }
  }
}

bool TableDfaAccepts(LazyTableDfa& dfa, const std::vector<int>& word) {
  int state = dfa.StartState();
  for (int symbol : word) state = dfa.Step(state, symbol);
  return dfa.IsAccepting(state);
}

TEST(TableDfaTest, MatchesSimulationOnHandwrittenAutomaton) {
  TwoWayNfa automaton = FirstEqualsLastAutomaton();
  LazyTableDfa table(automaton);
  std::mt19937_64 rng(11);
  for (int i = 0; i < 200; ++i) {
    std::vector<int> word = RandomWord(rng, 2, i % 9);
    EXPECT_EQ(TableDfaAccepts(table, word), SimulateTwoWay(automaton, word));
  }
}

TEST(TableDfaTest, MatchesSimulationOnRandomAutomata) {
  std::mt19937_64 rng(13);
  RandomAutomatonOptions options;
  options.num_states = 4;
  options.num_symbols = 2;
  options.transition_density = 1.2;
  for (int trial = 0; trial < 60; ++trial) {
    TwoWayNfa automaton = RandomTwoWayNfa(rng, options);
    LazyTableDfa table(automaton);
    for (int i = 0; i < 30; ++i) {
      std::vector<int> word = RandomWord(rng, 2, i % 8);
      EXPECT_EQ(TableDfaAccepts(table, word), SimulateTwoWay(automaton, word))
          << "trial " << trial;
    }
  }
}

TEST(TableDfaTest, ComplementFlipsEveryWord) {
  std::mt19937_64 rng(17);
  RandomAutomatonOptions options;
  options.num_states = 4;
  options.num_symbols = 2;
  for (int trial = 0; trial < 20; ++trial) {
    TwoWayNfa automaton = RandomTwoWayNfa(rng, options);
    LazyTableDfa accept(automaton, /*complement=*/false);
    LazyTableDfa reject(automaton, /*complement=*/true);
    for (int i = 0; i < 20; ++i) {
      std::vector<int> word = RandomWord(rng, 2, i % 6);
      EXPECT_NE(TableDfaAccepts(accept, word), TableDfaAccepts(reject, word));
    }
  }
}

// ---------------------------------------------------------------------------
// LazyTableDfa against the closure step it replaced.

/// The table translation as LazyTableDfa computed it before the live-row
/// step: per letter, one_step[s] = stay[s] ∪ ⋃_{t ∈ left[s]} B[t] for every
/// two-way state s, then the least fixpoint
/// rows[s] = right[s] ∪ ⋃_{t ∈ one_step[s]} rows[t] (Gauss-Seidel over all
/// n states), R' = ⋃_{s ∈ R} rows[s] and B'[t] = rows[t] for the live rows
/// t. Same key layout and interning order, so the ids must agree.
class ReferenceTableDfa {
 public:
  ReferenceTableDfa(const TwoWayNfa& two_way, bool complement)
      : complement_(complement),
        n_(two_way.NumStates()),
        words_((n_ + 63) / 64),
        row_index_(n_, -1) {
    auto mask = [&](int symbol, Move move) {
      std::vector<uint64_t> rows(static_cast<size_t>(n_) * words_, 0);
      for (int s = 0; s < n_; ++s) {
        for (const TwoWayNfa::Transition& t :
             two_way.TransitionsOn(s, symbol)) {
          if (t.move != move) continue;
          rows[static_cast<size_t>(s) * words_ + (t.to >> 6)] |=
              uint64_t{1} << (t.to & 63);
          if (move == Move::kLeft) row_index_[t.to] = 0;
        }
      }
      return rows;
    };
    for (int a = 0; a < two_way.num_symbols(); ++a) {
      stay_.push_back(mask(a, Move::kStay));
      left_.push_back(mask(a, Move::kLeft));
      right_.push_back(mask(a, Move::kRight));
    }
    for (int s = 0; s < n_; ++s) {
      if (row_index_[s] >= 0) row_index_[s] = num_live_rows_++;
    }
    std::vector<uint64_t> start(static_cast<size_t>(words_) *
                                    (num_live_rows_ + 1),
                                0);
    for (int s = 0; s < n_; ++s) {
      if (two_way.IsInitial(s)) start[s >> 6] |= uint64_t{1} << (s & 63);
      if (two_way.IsAccepting(s)) accepting_.push_back(s);
    }
    interner_.Intern(start);
  }

  int NumDiscoveredStates() const { return interner_.size(); }

  bool IsAccepting(int state) const {
    const std::vector<uint64_t>& key = interner_.KeyOf(state);
    bool reach_accepts = false;
    for (int s : accepting_) {
      reach_accepts = reach_accepts || ((key[s >> 6] >> (s & 63)) & 1) != 0;
    }
    return reach_accepts != complement_;
  }

  bool IsDead(int state) const {
    const std::vector<uint64_t>& key = interner_.KeyOf(state);
    for (int w = 0; w < words_; ++w) {
      if (key[w] != 0) return false;
    }
    return !complement_;
  }

  int Step(int state, int symbol) {
    const int W = words_;
    const std::vector<uint64_t> key = interner_.KeyOf(state);
    auto word = [W](const std::vector<uint64_t>& rows, int s, int w) {
      return rows[static_cast<size_t>(s) * W + w];
    };
    auto for_each = [](const uint64_t* mask, int words, auto fn) {
      for (int w = 0; w < words; ++w) {
        for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
          fn((w << 6) + __builtin_ctzll(bits));
        }
      }
    };
    std::vector<uint64_t> one_step(static_cast<size_t>(n_) * W, 0);
    std::vector<uint64_t> rows(static_cast<size_t>(n_) * W, 0);
    for (int s = 0; s < n_; ++s) {
      for (int w = 0; w < W; ++w) {
        one_step[static_cast<size_t>(s) * W + w] = word(stay_[symbol], s, w);
        rows[static_cast<size_t>(s) * W + w] = word(right_[symbol], s, w);
      }
      for_each(&left_[symbol][static_cast<size_t>(s) * W], W, [&](int t) {
        for (int w = 0; w < W; ++w) {
          one_step[static_cast<size_t>(s) * W + w] |=
              key[static_cast<size_t>(row_index_[t] + 1) * W + w];
        }
      });
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (int s = 0; s < n_; ++s) {
        for_each(&one_step[static_cast<size_t>(s) * W], W, [&](int t) {
          for (int w = 0; w < W; ++w) {
            uint64_t& to = rows[static_cast<size_t>(s) * W + w];
            const uint64_t add = word(rows, t, w) & ~to;
            to |= add;
            changed = changed || add != 0;
          }
        });
      }
    }
    std::vector<uint64_t> next(key.size(), 0);
    for_each(key.data(), W, [&](int s) {
      for (int w = 0; w < W; ++w) next[w] |= word(rows, s, w);
    });
    for (int s = 0; s < n_; ++s) {
      if (row_index_[s] < 0) continue;
      for (int w = 0; w < W; ++w) {
        next[static_cast<size_t>(row_index_[s] + 1) * W + w] = word(rows, s, w);
      }
    }
    return interner_.Intern(next);
  }

 private:
  bool complement_;
  int n_;
  int words_;
  std::vector<int> row_index_;  // state -> live row, -1 if dead
  int num_live_rows_ = 0;
  std::vector<int> accepting_;
  std::vector<std::vector<uint64_t>> stay_, left_, right_;  // per symbol
  WordVectorInterner interner_;
};

/// A random two-way automaton whose moves are left with probability
/// `left`, stay with probability `stay` and right otherwise; with
/// `stay_cycles`, every symbol also gets a stay cycle through a few states,
/// so stay closures are longer than one move.
TwoWayNfa RandomShapedTwoWayNfa(std::mt19937_64& rng, int n, double left,
                                double stay, bool stay_cycles) {
  const int kSymbols = 3;
  TwoWayNfa automaton(kSymbols);
  for (int s = 0; s < n; ++s) automaton.AddState();
  std::uniform_int_distribution<int> pick_state(0, n - 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  automaton.SetInitial(0);
  automaton.SetInitial(pick_state(rng));
  const double per_target = 1.3 / n;
  for (int s = 0; s < n; ++s) {
    automaton.SetAccepting(s, coin(rng) < 0.3);
    for (int a = 0; a < kSymbols; ++a) {
      for (int t = 0; t < n; ++t) {
        if (coin(rng) >= per_target) continue;
        const double move = coin(rng);
        automaton.AddTransition(s, a, t,
                                move < left          ? Move::kLeft
                                : move < left + stay ? Move::kStay
                                                     : Move::kRight);
      }
    }
  }
  if (stay_cycles) {
    for (int a = 0; a < kSymbols; ++a) {
      std::vector<int> cycle;
      for (int i = 0; i < std::min(n, 6); ++i) cycle.push_back(pick_state(rng));
      for (size_t i = 0; i < cycle.size(); ++i) {
        automaton.AddTransition(cycle[i], a, cycle[(i + 1) % cycle.size()],
                                Move::kStay);
      }
    }
  }
  return automaton;
}

/// Walks both translations breadth-first (ids are handed out in discovery
/// order, so expanding ids in order is the walk) over at most `max_states`
/// states; returns the number of states compared.
int ExpectSameTableAsReference(const TwoWayNfa& automaton, bool complement,
                               int max_states) {
  LazyTableDfa table(automaton, complement);
  ReferenceTableDfa reference(automaton, complement);
  EXPECT_EQ(table.StartState(), 0);
  int state = 0;
  for (; state < reference.NumDiscoveredStates() && state < max_states;
       ++state) {
    EXPECT_EQ(table.IsAccepting(state), reference.IsAccepting(state))
        << "state " << state;
    EXPECT_EQ(table.IsDead(state), reference.IsDead(state))
        << "state " << state;
    for (int a = 0; a < automaton.num_symbols(); ++a) {
      const int want = reference.Step(state, a);
      const int got = table.Step(state, a);
      if (got != want) {
        ADD_FAILURE() << "state " << state << " symbol " << a << ": " << got
                      << " instead of " << want;
        return state;
      }
    }
  }
  EXPECT_EQ(table.NumDiscoveredStates(), reference.NumDiscoveredStates());
  return state;
}

TEST(TableDfaDifferentialTest, MatchesTheClosureStepStateForState) {
  struct Shape {
    const char* name;
    double left, stay;
    bool stay_cycles;
  };
  const Shape shapes[] = {{"no left moves", 0.0, 0.3, false},
                          {"sparse left moves", 0.08, 0.2, false},
                          {"dense left moves", 0.5, 0.2, false},
                          {"stay cycles", 0.3, 0.3, true}};
  std::mt19937_64 rng(24);
  int compared = 0;
  int large_walks = 0;
  // n = 63, 64, 65 and 130 put a state set in one, two and three words.
  for (int n : {1, 5, 12, 24, 63, 64, 65, 130}) {
    for (const Shape& shape : shapes) {
      for (bool complement : {false, true}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " " + shape.name +
                     (complement ? " complement" : ""));
        TwoWayNfa automaton = RandomShapedTwoWayNfa(
            rng, n, shape.left, shape.stay, shape.stay_cycles);
        const int walked =
            ExpectSameTableAsReference(automaton, complement, 2000);
        compared += walked;
        if (walked >= 50) ++large_walks;
      }
    }
  }
  // The comparison is only worth something on walks past a handful of
  // states.
  EXPECT_GE(large_walks, 30) << compared << " states compared";
}

TEST(TableDfaDifferentialTest, MultiWordTablesMatchSimulation) {
  std::mt19937_64 rng(25);
  for (int n : {65, 130}) {
    for (double left : {0.1, 0.5}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " left=" + std::to_string(left));
      TwoWayNfa automaton = RandomShapedTwoWayNfa(rng, n, left, 0.25, true);
      LazyTableDfa table(automaton);
      int accepted = 0;
      for (int i = 0; i < 60; ++i) {
        std::vector<int> word =
            RandomWord(rng, automaton.num_symbols(), i % 10);
        const bool accepts = SimulateTwoWay(automaton, word);
        EXPECT_EQ(TableDfaAccepts(table, word), accepts) << "word " << i;
        accepted += accepts ? 1 : 0;
      }
      EXPECT_GT(accepted, 0);
      EXPECT_LT(accepted, 60);
    }
  }
}

TEST(VardiComplementTest, MatchesTableComplementOnRandomAutomata) {
  std::mt19937_64 rng(29);
  RandomAutomatonOptions options;
  options.num_states = 3;
  options.num_symbols = 2;
  options.transition_density = 1.0;
  for (int trial = 0; trial < 25; ++trial) {
    TwoWayNfa automaton = RandomTwoWayNfa(rng, options);
    StatusOr<Nfa> complement = VardiComplement(automaton, 1 << 18);
    ASSERT_TRUE(complement.ok()) << complement.status().ToString();
    for (int i = 0; i < 25; ++i) {
      std::vector<int> word = RandomWord(rng, 2, i % 6);
      EXPECT_EQ(Accepts(*complement, word), !SimulateTwoWay(automaton, word))
          << "trial " << trial;
    }
  }
}

TEST(VardiComplementTest, HandwrittenAutomaton) {
  TwoWayNfa automaton = FirstEqualsLastAutomaton();
  StatusOr<Nfa> complement = VardiComplement(automaton, 1 << 20);
  ASSERT_TRUE(complement.ok());
  EXPECT_FALSE(Accepts(*complement, {0, 1, 0}));
  EXPECT_TRUE(Accepts(*complement, {0, 1}));
  EXPECT_TRUE(Accepts(*complement, {}));
}

TEST(TwoWayBasicsTest, EmptyWordAcceptance) {
  TwoWayNfa automaton(1);
  int s = automaton.AddState();
  automaton.SetInitial(s);
  EXPECT_FALSE(SimulateTwoWay(automaton, {}));
  automaton.SetAccepting(s);
  EXPECT_TRUE(SimulateTwoWay(automaton, {}));
  LazyTableDfa table(automaton);
  EXPECT_TRUE(table.IsAccepting(table.StartState()));
}

TEST(TwoWayBasicsTest, FallingOffLeftEndIsUnavailable) {
  // One state that always moves left: can never get past the first cell, so
  // it never reaches the end and never accepts a nonempty word.
  TwoWayNfa automaton(1);
  int s = automaton.AddState();
  automaton.SetInitial(s);
  automaton.SetAccepting(s);
  automaton.AddTransition(s, 0, s, Move::kLeft);
  EXPECT_TRUE(SimulateTwoWay(automaton, {}));
  EXPECT_FALSE(SimulateTwoWay(automaton, {0}));
  EXPECT_FALSE(SimulateTwoWay(automaton, {0, 0}));
}

}  // namespace
}  // namespace rpqi
