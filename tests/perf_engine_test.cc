// Tests for the performance engine of the subset-construction hot paths:
// PairKey pinning, the open-addressed WordVectorInterner, Bitset hash
// caching, and — the core — seeded differential fuzzing of the antichain
// emptiness search: against explicit Determinize-based references and
// materialized products for its verdicts and witness lengths, and against
// the product search it replaced for every counter it reports.
//
// The base seed defaults to kDefaultSeed and can be overridden through the
// RPQI_FUZZ_SEED environment variable (decimal or 0x-hex); every failure
// message includes the seed in use.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <deque>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "answer/linearize.h"
#include "answer/oda.h"
#include "answer/views.h"
#include "automata/dfa.h"
#include "automata/lazy.h"
#include "automata/nfa.h"
#include "automata/ops.h"
#include "automata/random.h"
#include "automata/table_dfa.h"
#include "automata/two_way.h"
#include "base/bitset.h"
#include "base/hash.h"
#include "base/interner.h"
#include "regex/parser.h"
#include "rpq/alphabet.h"
#include "rpq/compile.h"

namespace rpqi {
namespace {

constexpr uint64_t kDefaultSeed = 0x5eed5eed2026;

uint64_t BaseSeed() {
  static const uint64_t seed = [] {
    const char* env = std::getenv("RPQI_FUZZ_SEED");
    if (env == nullptr || *env == '\0') return kDefaultSeed;
    char* end = nullptr;
    uint64_t parsed = std::strtoull(env, &end, 0);
    if (end == env || *end != '\0') {
      ADD_FAILURE() << "RPQI_FUZZ_SEED='" << env
                    << "' is not a number; using default seed";
      return kDefaultSeed;
    }
    return parsed;
  }();
  return seed;
}

#define RPQI_FUZZ_SCOPE(offset)                                  \
  SCOPED_TRACE(::testing::Message()                              \
               << "reproduce with RPQI_FUZZ_SEED=" << BaseSeed() \
               << " (iteration " << (offset) << ")")

// ---------------------------------------------------------------------------
// PairKey pinning: the packing is part of the on-disk/in-map key contract of
// the subset-transition and visited caches — pin it bit-for-bit.

TEST(PairKeyTest, PacksHighAndLowWords) {
  EXPECT_EQ(PairKey(0, 0), 0u);
  EXPECT_EQ(PairKey(0, 1), 1u);
  EXPECT_EQ(PairKey(1, 0), uint64_t{1} << 32);
  EXPECT_EQ(PairKey(3, 7), (uint64_t{3} << 32) | 7);
  EXPECT_EQ(PairKey((int64_t{1} << 32) - 1, (int64_t{1} << 32) - 1),
            ~uint64_t{0});
}

TEST(PairKeyTest, RoundTrips) {
  for (int64_t a : {int64_t{0}, int64_t{5}, int64_t{70000},
                    (int64_t{1} << 31) - 1}) {
    for (int64_t b : {int64_t{0}, int64_t{9}, int64_t{1 << 20}}) {
      uint64_t key = PairKey(a, b);
      EXPECT_EQ(PairKeyFirst(key), a);
      EXPECT_EQ(PairKeySecond(key), b);
    }
  }
}

TEST(PairKeyTest, NoCollisionsWhereMultiplicativePackingCollides) {
  // subset_id * num_symbols + symbol collides once subset_id exceeds the
  // multiplier; PairKey stays collision-free over the full int range.
  const int num_symbols = 4;
  EXPECT_EQ(5 * num_symbols + 2, 4 * num_symbols + 6);  // the old failure
  EXPECT_NE(PairKey(5, 2), PairKey(4, 6));
  std::set<uint64_t> keys;
  for (int a = 0; a < 64; ++a) {
    for (int b = 0; b < 64; ++b) keys.insert(PairKey(a, b));
  }
  EXPECT_EQ(keys.size(), 64u * 64u);
}

// ---------------------------------------------------------------------------
// WordVectorInterner: dense ids, open-addressed growth, collision spill.

TEST(WordVectorInternerTest, DenseIdsAndLookup) {
  WordVectorInterner interner;
  std::vector<std::vector<uint64_t>> keys;
  for (uint64_t i = 0; i < 500; ++i) keys.push_back({i, i * 3, ~i});
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(interner.Intern(keys[i]), static_cast<int>(i));
  }
  // Re-interning and finding is stable across the table growths above.
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(interner.Intern(keys[i]), static_cast<int>(i));
    EXPECT_EQ(interner.Find(keys[i]), static_cast<int>(i));
    EXPECT_EQ(interner.KeyOf(static_cast<int>(i)), keys[i]);
  }
  EXPECT_EQ(interner.Find({123456, 0, 0}), -1);
  EXPECT_EQ(interner.size(), 500);
}

TEST(WordVectorInternerTest, FullHashCollisionsSpillToOverflow) {
  WordVectorInterner interner;
  // Force distinct keys through InternHashed with the SAME 64-bit hash: the
  // first owns the primary slot, the rest must spill by key, all distinct.
  int a = interner.InternHashed({1}, /*hash=*/42);
  int b = interner.InternHashed({2}, /*hash=*/42);
  int c = interner.InternHashed({3}, /*hash=*/42);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(c, 2);
  EXPECT_EQ(interner.InternHashed({1}, 42), a);
  EXPECT_EQ(interner.InternHashed({2}, 42), b);
  EXPECT_EQ(interner.InternHashed({3}, 42), c);
  EXPECT_EQ(interner.FindHashed({2}, 42), b);
  EXPECT_EQ(interner.FindHashed({9}, 42), -1);
  EXPECT_EQ(interner.KeyOf(b), (std::vector<uint64_t>{2}));
}

// ---------------------------------------------------------------------------
// Bitset cached hash.

TEST(BitsetHashTest, CachedHashTracksMutation) {
  Bitset bits(130);
  EXPECT_EQ(bits.Hash(), HashWords(bits.words()));
  bits.Set(7);
  bits.Set(129);
  EXPECT_EQ(bits.Hash(), HashWords(bits.words()));
  EXPECT_TRUE(bits.CachedHashCoherent());
  bits.Clear();
  EXPECT_EQ(bits.Hash(), HashWords(bits.words()));
  bits.Set(64);
  Bitset copy = bits;
  EXPECT_EQ(copy.Hash(), bits.Hash());
  EXPECT_TRUE(bits.CachedHashCoherent());
  bits.CorruptCachedHashForTesting();
  EXPECT_FALSE(bits.CachedHashCoherent());
}

// ---------------------------------------------------------------------------
// Differential fuzz: antichain vs Determinize-based reference.

/// Explicit reference for L(a) ⊆ L(b): determinize both, BFS the product,
/// look for a state where `a` accepts and `b` does not. Returns the length
/// of a shortest violating word, or -1 when contained. Missing transitions
/// (-1) are rejecting sinks.
int ReferenceViolationLength(const Dfa& da, const Dfa& db) {
  const int sink = -1;
  std::set<std::pair<int, int>> seen;
  std::deque<std::pair<std::pair<int, int>, int>> queue;  // ((qa, qb), depth)
  queue.push_back({{da.initial(), db.initial()}, 0});
  seen.insert(queue.front().first);
  while (!queue.empty()) {
    auto [pair, depth] = queue.front();
    queue.pop_front();
    auto [qa, qb] = pair;
    const bool a_accepts = qa != sink && da.IsAccepting(qa);
    const bool b_accepts = qb != sink && db.IsAccepting(qb);
    if (a_accepts && !b_accepts) return depth;
    for (int symbol = 0; symbol < da.num_symbols(); ++symbol) {
      int na = qa == sink ? sink : da.Next(qa, symbol);
      if (na == sink) continue;  // `a` can no longer accept: no violation
      int nb = qb == sink ? sink : db.Next(qb, symbol);
      if (seen.insert({na, nb}).second) queue.push_back({{na, nb}, depth + 1});
    }
  }
  return -1;
}

TEST(AntichainDifferentialTest, ContainmentMatchesDeterminizeReference) {
  std::mt19937_64 rng(BaseSeed());
  RandomAutomatonOptions options;
  options.num_states = 5;
  options.num_symbols = 2;
  options.transition_density = 1.2;
  for (int iteration = 0; iteration < 500; ++iteration) {
    RPQI_FUZZ_SCOPE(iteration);
    Nfa a = RandomNfa(rng, options);
    Nfa b = RandomNfa(rng, options);
    const bool reference =
        ReferenceViolationLength(Determinize(a), Determinize(b)) < 0;
    EXPECT_EQ(IsContained(a, b), reference);
  }
}

TEST(AntichainDifferentialTest, LazyProductEmptinessMatchesReference) {
  // Emptiness of L(a) ∩ ¬L(b) through the lazy product of a plain subset
  // DFA and a complemented one — the construction the answering pipeline
  // uses — with the antichain active; the reference is the explicit product
  // of determinized automata. Shortest-witness lengths must agree too (the
  // antichain must not skew BFS depth), and the witness itself must be
  // accepted by `a` and rejected by `b`.
  std::mt19937_64 rng(BaseSeed() ^ 0x9e3779b97f4a7c15ULL);
  RandomAutomatonOptions options;
  options.num_states = 6;
  options.num_symbols = 2;
  options.transition_density = 1.0;
  for (int iteration = 0; iteration < 500; ++iteration) {
    RPQI_FUZZ_SCOPE(iteration);
    Nfa a = RandomNfa(rng, options);
    Nfa b = RandomNfa(rng, options);
    Dfa da = Determinize(a);
    Dfa db = Determinize(b);
    const int reference_length = ReferenceViolationLength(da, db);

    LazySubsetDfa left(a);
    LazySubsetDfa not_right(b, /*complement=*/true);
    EmptinessResult result =
        FindAcceptedWord({&left, &not_right}, /*max_states=*/1 << 20);
    ASSERT_NE(result.outcome, EmptinessResult::Outcome::kLimitExceeded);
    if (reference_length < 0) {
      EXPECT_EQ(result.outcome, EmptinessResult::Outcome::kEmpty);
    } else {
      ASSERT_EQ(result.outcome, EmptinessResult::Outcome::kFoundWord);
      EXPECT_EQ(static_cast<int>(result.witness.size()), reference_length);
      // Run the witness through the explicit DFAs.
      int qa = da.initial(), qb = db.initial();
      for (int symbol : result.witness) {
        qa = qa < 0 ? -1 : da.Next(qa, symbol);
        qb = qb < 0 ? -1 : db.Next(qb, symbol);
      }
      EXPECT_TRUE(qa >= 0 && da.IsAccepting(qa));
      EXPECT_FALSE(qb >= 0 && db.IsAccepting(qb));
    }
  }
}

/// Length of a shortest word `dfa` accepts, or -1 when it accepts none.
int ShortestAcceptedLength(const Dfa& dfa) {
  std::deque<std::pair<int, int>> queue;  // (state, depth)
  std::set<int> seen{dfa.initial()};
  queue.push_back({dfa.initial(), 0});
  while (!queue.empty()) {
    auto [q, depth] = queue.front();
    queue.pop_front();
    if (dfa.IsAccepting(q)) return depth;
    for (int symbol = 0; symbol < dfa.num_symbols(); ++symbol) {
      int to = dfa.Next(q, symbol);
      if (to >= 0 && seen.insert(to).second) queue.push_back({to, depth + 1});
    }
  }
  return -1;
}

TEST(AntichainDifferentialTest, TableDfaEmptinessMatchesMaterialized) {
  // The two-way table translation with complemented acceptance — the A2 /
  // A_(Q,c,d) construction — checked with the antichain against a full
  // materialization of the same lazy automaton (materialization visits every
  // reachable state, no pruning). Verifies both the verdict and the shortest
  // witness length.
  std::mt19937_64 rng(BaseSeed() ^ 0xc4ceb9fe1a85ec53ULL);
  RandomAutomatonOptions options;
  options.num_states = 4;
  options.num_symbols = 2;
  options.transition_density = 1.0;
  for (int iteration = 0; iteration < 500; ++iteration) {
    RPQI_FUZZ_SCOPE(iteration);
    TwoWayNfa two_way = RandomTwoWayNfa(rng, options);
    for (bool complement : {false, true}) {
      LazyTableDfa for_search(two_way, complement);
      EmptinessResult with_antichain =
          FindAcceptedWord({&for_search}, /*max_states=*/1 << 16);

      LazyTableDfa for_materialize(two_way, complement);
      StatusOr<Dfa> materialized =
          MaterializeLazyDfa(&for_materialize, /*max_states=*/1 << 16);
      if (!materialized.ok() ||
          with_antichain.outcome ==
              EmptinessResult::Outcome::kLimitExceeded) {
        continue;  // both sides capped; nothing to compare
      }
      const int reference_length = ShortestAcceptedLength(*materialized);
      if (reference_length < 0) {
        EXPECT_EQ(with_antichain.outcome, EmptinessResult::Outcome::kEmpty);
      } else {
        ASSERT_EQ(with_antichain.outcome,
                  EmptinessResult::Outcome::kFoundWord);
        EXPECT_EQ(static_cast<int>(with_antichain.witness.size()),
                  reference_length);
      }
      // Pruning must never *increase* exploration.
      EXPECT_LE(with_antichain.states_explored,
                for_materialize.NumDiscoveredStates());
    }
  }
}

// ---------------------------------------------------------------------------
// Dead-part cut: products whose parts fall into rejecting sinks, searched
// with the cut and checked against the materialized (uncut) product.

/// Walks `word` from the start state with the total Step.
bool LazyAccepts(LazyDfa* dfa, const std::vector<int>& word) {
  int state = dfa->StartState();
  for (int symbol : word) state = dfa->Step(state, symbol);
  return dfa->IsAccepting(state);
}

/// A random DFA missing about a third of its transitions, so that
/// LazyDfaFromDfa completes it with a reachable sink.
Dfa RandomPartialDfa(std::mt19937_64& rng,
                     const RandomAutomatonOptions& options) {
  Dfa dfa(options.num_symbols, options.num_states);
  std::uniform_int_distribution<int> pick_state(0, options.num_states - 1);
  std::bernoulli_distribution missing(0.3);
  std::bernoulli_distribution accepting(options.accepting_probability);
  for (int state = 0; state < options.num_states; ++state) {
    dfa.SetAccepting(state, accepting(rng));
    for (int symbol = 0; symbol < options.num_symbols; ++symbol) {
      if (!missing(rng)) dfa.SetNext(state, symbol, pick_state(rng));
    }
  }
  return dfa;
}

/// The automata of one sink-prone product: a subset part of a partial NFA,
/// a table part of either polarity, and a partial explicit DFA. Lazy
/// automata intern as they step, so the search and the reference each build
/// their own.
struct SinkProneInputs {
  Nfa partial_nfa;
  TwoWayNfa two_way;
  bool complement_table;
  Dfa partial_dfa;
};

struct SinkProneParts {
  explicit SinkProneParts(const SinkProneInputs& in)
      : subset(in.partial_nfa),
        table(in.two_way, in.complement_table),
        from_dfa(in.partial_dfa) {}
  std::vector<LazyDfa*> parts() { return {&subset, &table, &from_dfa}; }
  LazySubsetDfa subset;
  LazyTableDfa table;
  LazyDfaFromDfa from_dfa;
};

SinkProneInputs RandomSinkProneInputs(std::mt19937_64& rng,
                                      bool complement_table) {
  RandomAutomatonOptions sparse;
  sparse.num_states = 4;
  sparse.num_symbols = 2;
  sparse.transition_density = 0.8;
  sparse.accepting_probability = 0.5;
  RandomAutomatonOptions two_way;
  two_way.num_states = 3;
  two_way.num_symbols = 2;
  // Braced initializers run in order, so the draws are deterministic.
  return SinkProneInputs{RandomNfa(rng, sparse), RandomTwoWayNfa(rng, two_way),
                         complement_table, RandomPartialDfa(rng, sparse)};
}

TEST(AntichainDifferentialTest, DeadPartCutMatchesMaterializedProduct) {
  std::mt19937_64 rng(BaseSeed() ^ 0x2545f4914f6cdd1dULL);
  int64_t cuts = 0;
  int found = 0;
  int empty = 0;
  for (int iteration = 0; iteration < 1000; ++iteration) {
    RPQI_FUZZ_SCOPE(iteration);
    const SinkProneInputs in = RandomSinkProneInputs(rng, iteration & 1);
    SinkProneParts search(in);
    EmptinessResult result =
        FindAcceptedWord(search.parts(), /*max_states=*/1 << 16);

    SinkProneParts reference(in);
    LazyProductDfa uncut(reference.parts());
    StatusOr<Dfa> materialized = MaterializeLazyDfa(&uncut, 1 << 16);
    if (!materialized.ok() ||
        result.outcome == EmptinessResult::Outcome::kLimitExceeded) {
      continue;  // capped; nothing to compare
    }
    cuts += result.dead_cuts;
    const int reference_length = ShortestAcceptedLength(*materialized);
    if (reference_length < 0) {
      EXPECT_EQ(result.outcome, EmptinessResult::Outcome::kEmpty);
      ++empty;
      continue;
    }
    ASSERT_EQ(result.outcome, EmptinessResult::Outcome::kFoundWord);
    EXPECT_EQ(static_cast<int>(result.witness.size()), reference_length);
    for (LazyDfa* part : reference.parts()) {
      EXPECT_TRUE(LazyAccepts(part, result.witness));
    }
    ++found;
  }
  // The corpus must exercise the cut and both verdicts.
  EXPECT_GT(cuts, 0);
  EXPECT_GT(found, 0);
  EXPECT_GT(empty, 0);
}

TEST(AntichainDifferentialTest, NfaSearchCutMatchesMaterializedProduct) {
  // FindAcceptedWordWithNfa over the same sink-prone parts; the reference
  // materializes the subset automaton of the NFA times the parts.
  std::mt19937_64 rng(BaseSeed() ^ 0x9fb21c651e98df25ULL);
  RandomAutomatonOptions options;
  options.num_states = 4;
  options.num_symbols = 2;
  options.transition_density = 1.2;
  int64_t cuts = 0;
  int found = 0;
  int empty = 0;
  for (int iteration = 0; iteration < 1000; ++iteration) {
    RPQI_FUZZ_SCOPE(iteration);
    const Nfa nfa = RandomNfa(rng, options);
    const SinkProneInputs in = RandomSinkProneInputs(rng, iteration & 1);
    SinkProneParts search(in);
    EmptinessResult result =
        FindAcceptedWordWithNfa(nfa, search.parts(), /*max_states=*/1 << 16);

    SinkProneParts reference(in);
    LazySubsetDfa nfa_dfa(nfa);
    std::vector<LazyDfa*> reference_parts = reference.parts();
    reference_parts.insert(reference_parts.begin(), &nfa_dfa);
    LazyProductDfa uncut(reference_parts);
    StatusOr<Dfa> materialized = MaterializeLazyDfa(&uncut, 1 << 16);
    if (!materialized.ok() ||
        result.outcome == EmptinessResult::Outcome::kLimitExceeded) {
      continue;
    }
    cuts += result.dead_cuts;
    const int reference_length = ShortestAcceptedLength(*materialized);
    if (reference_length < 0) {
      EXPECT_EQ(result.outcome, EmptinessResult::Outcome::kEmpty);
      ++empty;
      continue;
    }
    ASSERT_EQ(result.outcome, EmptinessResult::Outcome::kFoundWord);
    EXPECT_EQ(static_cast<int>(result.witness.size()), reference_length);
    for (LazyDfa* part : reference_parts) {
      EXPECT_TRUE(LazyAccepts(part, result.witness));
    }
    ++found;
  }
  EXPECT_GT(cuts, 0);
  EXPECT_GT(found, 0);
  EXPECT_GT(empty, 0);
}

TEST(AntichainDifferentialTest, DeadStartQueuesNothingPastTheStart) {
  // Automata without an initial state start dead unless complemented.
  Nfa no_start(2);
  no_start.AddState();
  no_start.AddState();
  no_start.AddTransition(0, 0, 1);
  no_start.AddTransition(1, 1, 1);
  no_start.SetAccepting(1);
  TwoWayNfa no_start_two_way(2);
  no_start_two_way.AddState();
  no_start_two_way.AddTransition(0, 0, 0, Move::kRight);
  no_start_two_way.SetAccepting(0);
  LazySubsetDfa dead_subset(no_start);
  LazyTableDfa dead_table(no_start_two_way, /*complement=*/false);
  LazySubsetDfa complemented_subset(no_start, /*complement=*/true);
  LazyTableDfa complemented_table(no_start_two_way, /*complement=*/true);
  EXPECT_TRUE(dead_subset.IsDead(dead_subset.StartState()));
  EXPECT_TRUE(dead_table.IsDead(dead_table.StartState()));
  EXPECT_FALSE(
      complemented_subset.IsDead(complemented_subset.StartState()));
  EXPECT_FALSE(complemented_table.IsDead(complemented_table.StartState()));

  // Σ*: every word is accepted, so only the dead part empties the product.
  Nfa everything(2);
  everything.AddState();
  everything.SetInitial(0);
  everything.SetAccepting(0);
  everything.AddTransition(0, 0, 0);
  everything.AddTransition(0, 1, 0);
  // Remembers the last letter: three subsets are reachable from its start,
  // so a step on either letter would discover a new state.
  Nfa last_letter(2);
  for (int i = 0; i < 3; ++i) last_letter.AddState();
  last_letter.SetInitial(0);
  last_letter.SetAccepting(1);
  for (int from = 0; from < 3; ++from) {
    last_letter.AddTransition(from, 0, 1);
    last_letter.AddTransition(from, 1, 2);
  }
  for (LazyDfa* dead : std::vector<LazyDfa*>{&dead_subset, &dead_table}) {
    LazySubsetDfa live(everything);
    LazySubsetDfa after(last_letter);
    EmptinessResult result =
        FindAcceptedWord({&live, dead, &after}, /*max_states=*/16);
    EXPECT_EQ(result.outcome, EmptinessResult::Outcome::kEmpty);
    EXPECT_EQ(result.states_explored, 1);
    EXPECT_EQ(result.dead_cuts, 2);
    // The search drops each successor at the dead part, so the part after
    // it is never stepped and knows only its start state.
    EXPECT_EQ(after.NumDiscoveredStates(), 1);

    EmptinessResult with_nfa =
        FindAcceptedWordWithNfa(everything, {dead}, /*max_states=*/16);
    EXPECT_EQ(with_nfa.outcome, EmptinessResult::Outcome::kEmpty);
    EXPECT_EQ(with_nfa.states_explored, 1);
    EXPECT_EQ(with_nfa.dead_cuts, 2);
  }
}

TEST(AntichainDifferentialTest, SubsumptionSignatureContract) {
  // For every implementation: Subsumes(s, t) must imply the signature
  // conditions grow(t) ⊆ grow(s) and shrink(s) ⊆ shrink(t) lanewise —
  // otherwise the Bloom pre-filter would veto true subsumptions and the
  // searches would silently lose pruning power (or, for the searches that
  // trust the filter, soundness).
  std::mt19937_64 rng(BaseSeed() ^ 0xff51afd7ed558ccdULL);
  RandomAutomatonOptions options;
  options.num_states = 5;
  options.num_symbols = 2;
  auto check_pairs = [](LazyDfa* dfa, int limit) {
    // Discover a few states breadth-first, then compare all pairs.
    std::vector<int> states{dfa->StartState()};
    std::set<int> seen{states[0]};
    for (size_t i = 0; i < states.size() && states.size() < 40; ++i) {
      for (int symbol = 0; symbol < dfa->NumSymbols(); ++symbol) {
        int to = dfa->Step(states[i], symbol);
        if (seen.insert(to).second) states.push_back(to);
        if (static_cast<int>(states.size()) >= limit) break;
      }
    }
    for (int s : states) {
      for (int t : states) {
        if (!dfa->Subsumes(s, t)) continue;
        SubsumptionSig dominator = dfa->SubsumptionSignature(s);
        SubsumptionSig dominated = dfa->SubsumptionSignature(t);
        for (int lane = 0; lane < 2; ++lane) {
          EXPECT_EQ(dominated.grow[lane] & ~dominator.grow[lane], 0u);
          EXPECT_EQ(dominator.shrink[lane] & ~dominated.shrink[lane], 0u);
        }
      }
    }
  };
  for (int iteration = 0; iteration < 200; ++iteration) {
    RPQI_FUZZ_SCOPE(iteration);
    Nfa nfa = RandomNfa(rng, options);
    for (bool complement : {false, true}) {
      LazySubsetDfa subset(nfa, complement);
      check_pairs(&subset, 40);
    }
    TwoWayNfa two_way = RandomTwoWayNfa(rng, options);
    for (bool complement : {false, true}) {
      LazyTableDfa table(two_way, complement);
      check_pairs(&table, 30);
    }
  }
}

TEST(AntichainDifferentialTest, RepeatedSearchesReportIdenticalCounters) {
  // Accounting regression test: FindAcceptedWord on the same parts must
  // report identical counters every run. The lazy parts memoize discovered
  // states across searches, and that cache must not bleed into (or deflate)
  // a later search's explored/pruned/antichain tallies.
  std::mt19937_64 rng(BaseSeed() ^ 0xd1b54a32d192ed03ULL);
  RandomAutomatonOptions options;
  options.num_states = 7;
  options.num_symbols = 2;
  options.transition_density = 1.2;
  for (int iteration = 0; iteration < 100; ++iteration) {
    RPQI_FUZZ_SCOPE(iteration);
    Nfa a = RandomNfa(rng, options);
    Nfa b = RandomNfa(rng, options);
    LazySubsetDfa left(a);
    LazySubsetDfa not_right(b, /*complement=*/true);
    const std::vector<LazyDfa*> parts = {&left, &not_right};
    EmptinessResult first = FindAcceptedWord(parts, /*max_states=*/1 << 20);
    ASSERT_NE(first.outcome, EmptinessResult::Outcome::kLimitExceeded);
    EmptinessResult second = FindAcceptedWord(parts, /*max_states=*/1 << 20);
    EXPECT_EQ(first.outcome, second.outcome);
    EXPECT_EQ(first.witness, second.witness);
    EXPECT_EQ(first.states_explored, second.states_explored);
    EXPECT_EQ(first.states_pruned, second.states_pruned);
    EXPECT_EQ(first.antichain_size, second.antichain_size);
  }
}

// ---------------------------------------------------------------------------
// The product search as a reference. FindAcceptedWord once ran its own BFS
// over a lazy product that stepped its parts up to the first dead one and
// partitioned, signed and compared its tuples itself. It is kept here,
// without budget and metrics, and the tuple search FindAcceptedWord now runs
// over the one-state Σ* automaton must match it counter for counter: same
// outcome, witness, queued, pruned, antichain and dead-cut counts.

/// The product's search side: parts stepped in order up to the first dead
/// successor, the hash of the parts' partitions, the union of their
/// signatures rotated and lane-swapped by part index, and componentwise
/// subsumption.
class ReferenceProduct {
 public:
  explicit ReferenceProduct(std::vector<LazyDfa*> parts)
      : parts_(std::move(parts)), scratch_key_(parts_.size()) {
    for (LazyDfa* part : parts_) {
      if (part->HasSubsumption()) has_subsumption_ = true;
    }
  }

  int NumSymbols() const { return parts_[0]->NumSymbols(); }
  bool HasSubsumption() const { return has_subsumption_; }

  int StartState() {
    for (size_t i = 0; i < parts_.size(); ++i) {
      scratch_key_[i] = static_cast<uint64_t>(parts_[i]->StartState());
    }
    return interner_.Intern(scratch_key_);
  }

  /// The successor tuple, or -1 when a part steps into a dead state.
  int StepToLive(int state, int symbol) {
    const std::vector<uint64_t>& key = interner_.KeyOf(state);
    for (size_t i = 0; i < parts_.size(); ++i) {
      const int to = parts_[i]->Step(static_cast<int>(key[i]), symbol);
      if (parts_[i]->IsDead(to)) return -1;
      scratch_key_[i] = static_cast<uint64_t>(to);
    }
    return interner_.Intern(scratch_key_);
  }

  bool IsAccepting(int state) {
    const std::vector<uint64_t>& key = interner_.KeyOf(state);
    for (size_t i = 0; i < parts_.size(); ++i) {
      if (!parts_[i]->IsAccepting(static_cast<int>(key[i]))) return false;
    }
    return true;
  }

  uint64_t SubsumptionPartition(int state) {
    const std::vector<uint64_t>& key = interner_.KeyOf(state);
    uint64_t h = 0;
    for (size_t i = 0; i < parts_.size(); ++i) {
      h = HashCombine(
          h, parts_[i]->SubsumptionPartition(static_cast<int>(key[i])));
    }
    return h;
  }

  bool Subsumes(int state, int other) {
    const std::vector<uint64_t>& a = interner_.KeyOf(state);
    const std::vector<uint64_t>& b = interner_.KeyOf(other);
    for (size_t i = 0; i < parts_.size(); ++i) {
      if (!parts_[i]->Subsumes(static_cast<int>(a[i]),
                               static_cast<int>(b[i]))) {
        return false;
      }
    }
    return true;
  }

  SubsumptionSig SubsumptionSignature(int state) {
    const std::vector<uint64_t>& key = interner_.KeyOf(state);
    SubsumptionSig signature;
    for (size_t i = 0; i < parts_.size(); ++i) {
      SubsumptionSig part =
          parts_[i]->SubsumptionSignature(static_cast<int>(key[i]));
      const int r = static_cast<int>((i * 23) & 63);
      const size_t lane = i & 1;
      signature.grow[lane] |= std::rotl(part.grow[0], r);
      signature.grow[lane ^ 1] |= std::rotl(part.grow[1], r);
      signature.shrink[lane] |= std::rotl(part.shrink[0], r);
      signature.shrink[lane ^ 1] |= std::rotl(part.shrink[1], r);
    }
    return signature;
  }

 private:
  std::vector<LazyDfa*> parts_;
  bool has_subsumption_ = false;
  WordVectorInterner interner_;
  std::vector<uint64_t> scratch_key_;
};

/// The search's two-tier antichain: a candidate's own partition bucket is
/// scanned in full, then a pool of the first 2,048 undominated tuples, each
/// pair behind the signature pre-filter; a member the candidate dominates
/// leaves its bucket but stays in the pool.
class ReferenceAntichain {
  struct Bucket {
    std::vector<int> ids;
    std::vector<SubsumptionSig> sigs;
  };

 public:
  template <typename SubsumesFn>
  bool Blocks(int candidate, uint64_t partition, SubsumptionSig signature,
              SubsumesFn subsumes) {
    Bucket& bucket = buckets_[partition];
    for (size_t i = 0; i < bucket.ids.size(); ++i) {
      if (MayDominate(bucket.sigs[i], signature) &&
          subsumes(bucket.ids[i], candidate)) {
        return true;
      }
    }
    for (size_t i = 0; i < global_ids_.size(); ++i) {
      if (MayDominate(global_sigs_[i], signature) &&
          subsumes(global_ids_[i], candidate)) {
        return true;
      }
    }
    size_t kept = 0;
    for (size_t i = 0; i < bucket.ids.size(); ++i) {
      if (MayDominate(signature, bucket.sigs[i]) &&
          subsumes(candidate, bucket.ids[i])) {
        continue;
      }
      bucket.ids[kept] = bucket.ids[i];
      bucket.sigs[kept] = bucket.sigs[i];
      ++kept;
    }
    bucket.ids.resize(kept);
    bucket.sigs.resize(kept);
    bucket.ids.push_back(candidate);
    bucket.sigs.push_back(signature);
    if (global_ids_.size() < kGlobalMembers) {
      global_ids_.push_back(candidate);
      global_sigs_.push_back(signature);
    }
    return false;
  }

  int64_t TotalSize() const {
    int64_t total = 0;
    for (const auto& [partition, bucket] : buckets_) {
      total += static_cast<int64_t>(bucket.ids.size());
    }
    return total;
  }

 private:
  static bool MayDominate(const SubsumptionSig& dominator,
                          const SubsumptionSig& candidate) {
    return ((candidate.grow[0] & ~dominator.grow[0]) |
            (candidate.grow[1] & ~dominator.grow[1]) |
            (dominator.shrink[0] & ~candidate.shrink[0]) |
            (dominator.shrink[1] & ~candidate.shrink[1])) == 0;
  }

  static constexpr size_t kGlobalMembers = 1 << 11;
  std::unordered_map<uint64_t, Bucket> buckets_;
  std::vector<int> global_ids_;
  std::vector<SubsumptionSig> global_sigs_;
};

/// BFS over the product's tuples with the dead-part cut and the antichain,
/// stopping at the first accepting tuple or past `max_states` queued ones.
EmptinessResult ReferenceFindAcceptedWord(ReferenceProduct* product,
                                          int64_t max_states) {
  EmptinessResult result;
  const bool use_antichain = product->HasSubsumption();
  struct NodeInfo {
    int parent;
    int symbol;
  };
  std::vector<NodeInfo> info;               // indexed by discovery order
  std::unordered_map<int, int> discovered;  // tuple id -> info index
  std::deque<std::pair<int, int>> queue;    // (tuple id, info index)
  ReferenceAntichain antichain;
  auto blocks = [&](int state) {
    return antichain.Blocks(
        state, product->SubsumptionPartition(state),
        product->SubsumptionSignature(state),
        [&](int s, int t) { return product->Subsumes(s, t); });
  };
  auto finish = [&](EmptinessResult::Outcome outcome) {
    result.outcome = outcome;
    result.states_explored = static_cast<int64_t>(info.size());
    result.antichain_size = use_antichain ? antichain.TotalSize() : 0;
    return result;
  };

  const int start = product->StartState();
  discovered[start] = 0;
  info.push_back({-1, -1});
  queue.push_back({start, 0});
  if (use_antichain) blocks(start);
  while (!queue.empty()) {
    auto [state, index] = queue.front();
    queue.pop_front();
    if (product->IsAccepting(state)) {
      for (int i = index; info[i].parent != -1; i = info[i].parent) {
        result.witness.push_back(info[i].symbol);
      }
      std::reverse(result.witness.begin(), result.witness.end());
      return finish(EmptinessResult::Outcome::kFoundWord);
    }
    for (int a = 0; a < product->NumSymbols(); ++a) {
      const int to = product->StepToLive(state, a);
      if (to < 0) {
        ++result.dead_cuts;
        continue;
      }
      auto [it, inserted] = discovered.try_emplace(to, -1);
      if (!inserted) continue;
      if (use_antichain && blocks(to)) {
        ++result.states_pruned;
        continue;
      }
      it->second = static_cast<int>(info.size());
      info.push_back({index, a});
      queue.push_back({to, it->second});
      if (static_cast<int64_t>(info.size()) > max_states) {
        return finish(EmptinessResult::Outcome::kLimitExceeded);
      }
    }
  }
  return finish(EmptinessResult::Outcome::kEmpty);
}

/// Runs FindAcceptedWord and the reference on separate instances of the same
/// parts (lazy automata intern as they step) and compares every result
/// field; returns the tuple search's result.
template <typename MakeParts>
EmptinessResult ExpectSearchMatchesReference(MakeParts make_parts,
                                             int64_t max_states) {
  auto search_parts = make_parts();
  EmptinessResult result = FindAcceptedWord(search_parts.parts(), max_states);
  auto reference_parts = make_parts();
  ReferenceProduct product(reference_parts.parts());
  EmptinessResult reference = ReferenceFindAcceptedWord(&product, max_states);
  EXPECT_EQ(result.outcome, reference.outcome);
  EXPECT_EQ(result.witness, reference.witness);
  EXPECT_EQ(result.states_explored, reference.states_explored);
  EXPECT_EQ(result.states_pruned, reference.states_pruned);
  EXPECT_EQ(result.antichain_size, reference.antichain_size);
  EXPECT_EQ(result.dead_cuts, reference.dead_cuts);
  return result;
}

/// One random part: the subset automaton of an NFA or the table automaton
/// of a two-way one, of either polarity, or a partial explicit DFA
/// (completed with a dead sink).
struct RandomPart {
  std::variant<Nfa, TwoWayNfa, Dfa> automaton;
  bool complement = false;
};

struct OwnedParts {
  std::vector<std::unique_ptr<LazyDfa>> owned;
  std::vector<LazyDfa*> parts() const {
    std::vector<LazyDfa*> raw;
    for (const auto& part : owned) raw.push_back(part.get());
    return raw;
  }
};

OwnedParts MakeParts(const std::vector<RandomPart>& specs) {
  OwnedParts parts;
  for (const RandomPart& spec : specs) {
    if (const Nfa* nfa = std::get_if<Nfa>(&spec.automaton)) {
      parts.owned.push_back(
          std::make_unique<LazySubsetDfa>(*nfa, spec.complement));
    } else if (const TwoWayNfa* two_way =
                   std::get_if<TwoWayNfa>(&spec.automaton)) {
      parts.owned.push_back(
          std::make_unique<LazyTableDfa>(*two_way, spec.complement));
    } else {
      parts.owned.push_back(
          std::make_unique<LazyDfaFromDfa>(std::get<Dfa>(spec.automaton)));
    }
  }
  return parts;
}

TEST(AntichainDifferentialTest, TupleSearchMatchesTheProductSearch) {
  std::mt19937_64 rng(BaseSeed() ^ 0x94d049bb133111ebULL);
  RandomAutomatonOptions one_way;
  one_way.num_states = 5;
  one_way.num_symbols = 2;
  one_way.transition_density = 1.0;
  one_way.accepting_probability = 0.4;
  RandomAutomatonOptions two_way;
  two_way.num_states = 3;
  two_way.num_symbols = 2;
  std::uniform_int_distribution<int> pick_kind(0, 4);
  int64_t pruned = 0;
  int64_t cuts = 0;
  int found = 0;
  int empty = 0;
  for (int iteration = 0; iteration < 1200; ++iteration) {
    RPQI_FUZZ_SCOPE(iteration);
    std::vector<RandomPart> specs;
    for (int i = 0; i < 2 + iteration % 2; ++i) {
      const int kind = pick_kind(rng);
      const bool complement = (kind & 1) != 0;
      if (kind < 2) {
        specs.push_back({RandomNfa(rng, one_way), complement});
      } else if (kind < 4) {
        specs.push_back({RandomTwoWayNfa(rng, two_way), complement});
      } else {
        specs.push_back({RandomPartialDfa(rng, one_way)});
      }
    }
    EmptinessResult result = ExpectSearchMatchesReference(
        [&] { return MakeParts(specs); }, /*max_states=*/1 << 14);
    pruned += result.states_pruned;
    cuts += result.dead_cuts;
    found += result.outcome == EmptinessResult::Outcome::kFoundWord;
    empty += result.outcome == EmptinessResult::Outcome::kEmpty;
  }
  // The corpus must exercise the antichain, the cut and both verdicts.
  EXPECT_GT(pruned, 0);
  EXPECT_GT(cuts, 0);
  EXPECT_GT(found, 0);
  EXPECT_GT(empty, 0);
}

/// The phase-1 parts of a certain-answer probe (c, d) on Table 1's chain
/// instance (bench_table1_data): objects 0..n-1, one sound view p with
/// extension {(i, i+1)}, query p^(n-1). In the solver's order: structure and
/// occurrence subset parts, one table part per extension pair, then the
/// complemented query table.
struct Table1OdaParts {
  Table1OdaParts(int num_objects, int c, int d) {
    SignedAlphabet signed_alphabet;
    signed_alphabet.AddRelation("p");
    std::string query_text;
    for (int i = 0; i + 1 < num_objects; ++i) query_text += "p ";
    instance.num_objects = num_objects;
    instance.query =
        MustCompileRegex(MustParseRegex(query_text), signed_alphabet);
    View view;
    view.definition = MustCompileRegex(MustParseRegex("p"), signed_alphabet);
    for (int i = 0; i + 1 < num_objects; ++i) {
      view.extension.push_back({i, i + 1});
    }
    view.assumption = ViewAssumption::kSound;
    instance.views.push_back(view);

    alphabet.sigma_symbols = instance.query.num_symbols();
    alphabet.num_objects = num_objects;
    one_way.push_back(BuildStructureAutomaton(alphabet));
    for (int object = 0; object < num_objects; ++object) {
      one_way.push_back(BuildOccurrenceAutomaton(alphabet, object));
    }
    for (const auto& [from, to] : view.extension) {
      two_way.push_back(BuildLinearizedEvalAutomaton(
          view.definition, alphabet, AtConstants(from, to)));
    }
    query = BuildLinearizedEvalAutomaton(instance.query, alphabet,
                                         AtConstants(c, d));
  }

  static LinearEvalSpec AtConstants(int from, int to) {
    LinearEvalSpec spec;
    spec.start = LinearEvalSpec::Start::kAtConstant;
    spec.start_constant = from;
    spec.end = LinearEvalSpec::End::kAtConstant;
    spec.end_constant = to;
    return spec;
  }

  OwnedParts Make() const {
    OwnedParts parts;
    for (const Nfa& nfa : one_way) {
      parts.owned.push_back(std::make_unique<LazySubsetDfa>(nfa));
    }
    for (const TwoWayNfa& automaton : two_way) {
      parts.owned.push_back(std::make_unique<LazyTableDfa>(automaton));
    }
    parts.owned.push_back(
        std::make_unique<LazyTableDfa>(query, /*complement=*/true));
    return parts;
  }

  AnsweringInstance instance;
  LinearAlphabet alphabet;
  std::vector<Nfa> one_way;
  std::vector<TwoWayNfa> two_way;
  TwoWayNfa query{0};
};

TEST(AntichainDifferentialTest, TupleSearchMatchesTheProductSearchOnTable1) {
  // The 2-object certain and refuted probes and the 3-object refuted one;
  // the solver decides each in phase 1 with the same queued count.
  for (const auto& [n, c, d, certain] :
       {std::tuple{2, 0, 1, true}, std::tuple{2, 1, 0, false},
        std::tuple{3, 2, 0, false}}) {
    SCOPED_TRACE(::testing::Message()
                 << n << " objects, pair (" << c << "," << d << ")");
    const Table1OdaParts table1(n, c, d);
    EmptinessResult result = ExpectSearchMatchesReference(
        [&] { return table1.Make(); }, /*max_states=*/200000);
    EXPECT_EQ(result.outcome, certain ? EmptinessResult::Outcome::kEmpty
                                      : EmptinessResult::Outcome::kFoundWord);
    EXPECT_GT(result.dead_cuts, 0);
    StatusOr<OdaResult> oda = CertainAnswerOda(table1.instance, c, d);
    ASSERT_TRUE(oda.ok()) << oda.status().ToString();
    EXPECT_EQ(oda->certain, certain);
    EXPECT_EQ(oda->states_explored, result.states_explored);
    EXPECT_EQ(oda->states_pruned, result.states_pruned);
  }
}

}  // namespace
}  // namespace rpqi
