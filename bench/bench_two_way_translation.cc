// 2WAY bench: cost of the two-way → one-way translations that power every
// construction in the paper (Section 3 cites the classical 2^O(n log n) /
// 2^O(n) bounds). Measures (a) the deterministic table translation used by
// the pipelines — reachable states and per-word stepping cost — and (b) the
// eager Vardi pair-of-sets complement, as automaton size grows.

#include <benchmark/benchmark.h>

#include <random>

#include "automata/lazy.h"
#include "automata/ops.h"
#include "automata/pair_complement.h"
#include "automata/random.h"
#include "automata/table_dfa.h"
#include "automata/two_way.h"

#include "bench_main.h"

namespace rpqi {
namespace {

TwoWayNfa MakeAutomaton(int num_states, uint64_t seed) {
  std::mt19937_64 rng(seed);
  RandomAutomatonOptions options;
  options.num_states = num_states;
  options.num_symbols = 2;
  options.transition_density = 1.3;
  return RandomTwoWayNfa(rng, options);
}

void BM_DirectSimulation(benchmark::State& state) {
  TwoWayNfa automaton = MakeAutomaton(static_cast<int>(state.range(0)), 1);
  std::mt19937_64 rng(2);
  std::vector<int> word = RandomWord(rng, 2, 64);
  ScopedMetricsCounters metrics(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimulateTwoWay(automaton, word));
  }
  state.counters["two_way_states"] = automaton.NumStates();
}

void BM_TableTranslationStepping(benchmark::State& state) {
  TwoWayNfa automaton = MakeAutomaton(static_cast<int>(state.range(0)), 1);
  std::mt19937_64 rng(3);
  std::vector<int> word = RandomWord(rng, 2, 64);
  int64_t discovered = 0;
  ScopedMetricsCounters metrics(state);
  for (auto _ : state) {
    LazyTableDfa table(automaton);
    int s = table.StartState();
    for (int symbol : word) s = table.Step(s, symbol);
    benchmark::DoNotOptimize(table.IsAccepting(s));
    discovered = table.NumDiscoveredStates();
  }
  state.counters["two_way_states"] = automaton.NumStates();
  state.counters["table_states_discovered"] = static_cast<double>(discovered);
}

void BM_TableReachableStates(benchmark::State& state) {
  // Exhaustive reachable-state count of the table DFA (complement flavour):
  // the empirical analogue of the 2^O(n²) worst case, usually far smaller.
  TwoWayNfa automaton = MakeAutomaton(static_cast<int>(state.range(0)), 1);
  int64_t states = 0;
  ScopedMetricsCounters metrics(state);
  for (auto _ : state) {
    LazyTableDfa table(automaton, /*complement=*/true);
    StatusOr<Dfa> dfa = MaterializeLazyDfa(&table, int64_t{1} << 18);
    states = dfa.ok() ? dfa->NumStates() : -1;
    benchmark::DoNotOptimize(states);
  }
  state.counters["two_way_states"] = automaton.NumStates();
  state.counters["one_way_states"] = static_cast<double>(states);
}

void BM_VardiComplement(benchmark::State& state) {
  TwoWayNfa automaton = MakeAutomaton(static_cast<int>(state.range(0)), 1);
  int64_t states = 0;
  ScopedMetricsCounters metrics(state);
  for (auto _ : state) {
    StatusOr<Nfa> complement = VardiComplement(automaton, int64_t{1} << 20);
    states = complement.ok() ? complement->NumStates() : -1;
    benchmark::DoNotOptimize(states);
  }
  state.counters["two_way_states"] = automaton.NumStates();
  state.counters["complement_states"] = static_cast<double>(states);
}

BENCHMARK(BM_DirectSimulation)->DenseRange(2, 12, 2);
// 70 and 130 states put a state set in two and three words.
BENCHMARK(BM_TableTranslationStepping)->DenseRange(2, 12, 2)->Arg(70)->Arg(130);
BENCHMARK(BM_TableReachableStates)->DenseRange(2, 8, 1);
BENCHMARK(BM_VardiComplement)->DenseRange(2, 7, 1);

}  // namespace
}  // namespace rpqi
