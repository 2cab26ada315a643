// Tests for the performance engine of the subset-construction hot paths:
// PairKey pinning, the open-addressed WordVectorInterner, Bitset hash
// caching, and — the core — seeded differential fuzzing of the antichain
// emptiness/containment checks against explicit Determinize-based references
// and of the parallel frontier paths against the serial ones (which must be
// bit-identical).
//
// The base seed defaults to kDefaultSeed and can be overridden through the
// RPQI_FUZZ_SEED environment variable (decimal or 0x-hex); every failure
// message includes the seed in use.

#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <random>
#include <set>
#include <utility>
#include <vector>

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
    LazyProductDfa product({&left, &not_right});
    EmptinessResult result =
        FindAcceptedWord(&product, /*max_states=*/1 << 20);
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
          FindAcceptedWord(&for_search, /*max_states=*/1 << 16);

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
    LazyProductDfa product(search.parts());
    EmptinessResult result = FindAcceptedWord(&product, /*max_states=*/1 << 16);

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
  for (LazyDfa* dead : std::vector<LazyDfa*>{&dead_subset, &dead_table}) {
    LazySubsetDfa live(everything);
    LazyProductDfa product({&live, dead});
    EXPECT_TRUE(product.IsDead(product.StartState()));
    EmptinessResult result = FindAcceptedWord(&product, /*max_states=*/16);
    EXPECT_EQ(result.outcome, EmptinessResult::Outcome::kEmpty);
    EXPECT_EQ(result.states_explored, 1);
    EXPECT_EQ(result.dead_cuts, 2);
    EXPECT_EQ(product.NumDiscoveredStates(), 1);

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
    Nfa other = RandomNfa(rng, options);
    LazySubsetDfa left(nfa);
    LazySubsetDfa right(other, /*complement=*/true);
    LazyProductDfa product({&left, &right});
    check_pairs(&product, 40);
  }
}

TEST(AntichainDifferentialTest, RepeatedSearchesReportIdenticalCounters) {
  // Accounting regression test: FindAcceptedWord on the same lazy product
  // must report identical counters every run. The lazy components memoize
  // discovered states across searches, and that cache must not bleed into
  // (or deflate) a later search's explored/pruned/antichain tallies.
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
    LazyProductDfa product({&left, &not_right});
    EmptinessResult first = FindAcceptedWord(&product, /*max_states=*/1 << 20);
    ASSERT_NE(first.outcome, EmptinessResult::Outcome::kLimitExceeded);
    EmptinessResult second =
        FindAcceptedWord(&product, /*max_states=*/1 << 20);
    EXPECT_EQ(first.outcome, second.outcome);
    EXPECT_EQ(first.witness, second.witness);
    EXPECT_EQ(first.states_explored, second.states_explored);
    EXPECT_EQ(first.states_pruned, second.states_pruned);
    EXPECT_EQ(first.antichain_size, second.antichain_size);
  }
}

}  // namespace
}  // namespace rpqi
