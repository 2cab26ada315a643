// ABL bench: design ablations called out in DESIGN.md.
//   1. A_ODA emptiness: pure on-the-fly flat product (the paper's PSPACE
//      procedure, part_materialize_budget = 0) vs the fold-and-minimize
//      strategy (materialize each component, Hopcroft-minimize, pairwise
//      product) — same answers, very different constants.
//   2. Rewriting membership: deciding e-words one at a time on the fly
//      (IsWordInMaximalRewriting) vs materializing the full rewriting DFA
//      once and running words through it.

#include <benchmark/benchmark.h>

#include "answer/oda.h"
#include "regex/parser.h"
#include "rewrite/rewriter.h"
#include "rpq/alphabet.h"
#include "rpq/compile.h"

#include "bench_main.h"

namespace rpqi {
namespace {

AnsweringInstance SmallInstance(SignedAlphabet* alphabet) {
  alphabet->AddRelation("p");
  AnsweringInstance instance;
  instance.num_objects = 2;
  instance.query = MustCompileRegex(MustParseRegex("p p"), *alphabet);
  View view;
  view.definition = MustCompileRegex(MustParseRegex("p"), *alphabet);
  view.extension = {{0, 1}};
  view.assumption = ViewAssumption::kSound;
  instance.views.push_back(std::move(view));
  return instance;
}

void BM_OdaStrategy(benchmark::State& state, bool fold_and_minimize) {
  SignedAlphabet alphabet;
  AnsweringInstance instance = SmallInstance(&alphabet);
  OdaOptions options;
  options.part_materialize_budget =
      fold_and_minimize ? (int64_t{1} << 22) : 0;
  // (0,1) is not certain (the p p path may bypass object 1): witness search.
  bool certain = true;
  int64_t states = 0;
  int64_t pruned = 0;
  ScopedMetricsCounters metrics(state);
  for (auto _ : state) {
    StatusOr<OdaResult> result = CertainAnswerOda(instance, 0, 1, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    certain = result->certain;
    states = result->states_explored;
    pruned = result->states_pruned;
  }
  state.counters["certain"] = certain;
  state.counters["states_explored"] = static_cast<double>(states);
  state.counters["states_pruned"] = static_cast<double>(pruned);
}

void BM_OdaStrategyExhaustive(benchmark::State& state, bool fold_and_minimize) {
  // A chain of promised edges and the query walking it: (0,2) is certain, so
  // the check must exhaust the counterexample space. Phase 1 decides it
  // (93,938 queued states, most successors cut at a dead part) before either
  // strategy runs, so this pair no longer separates the strategies; an
  // instance that overflows phase 1 would.
  SignedAlphabet alphabet;
  alphabet.AddRelation("p");
  AnsweringInstance instance;
  instance.num_objects = 3;
  instance.query = MustCompileRegex(MustParseRegex("p p"), alphabet);
  View view;
  view.definition = MustCompileRegex(MustParseRegex("p"), alphabet);
  view.extension = {{0, 1}, {1, 2}};
  view.assumption = ViewAssumption::kSound;
  instance.views.push_back(std::move(view));
  OdaOptions options;
  options.part_materialize_budget =
      fold_and_minimize ? (int64_t{1} << 22) : 0;
  options.max_states = int64_t{1} << 23;
  bool certain = false;
  int64_t states = 0;
  int64_t pruned = 0;
  ScopedMetricsCounters metrics(state);
  for (auto _ : state) {
    StatusOr<OdaResult> result = CertainAnswerOda(instance, 0, 2, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    certain = result->certain;  // true: the chain exists in every model
    states = result->states_explored;
    pruned = result->states_pruned;
  }
  state.counters["certain"] = certain;
  state.counters["states_explored"] = static_cast<double>(states);
  state.counters["states_pruned"] = static_cast<double>(pruned);
}

void BM_RewritingMembership(benchmark::State& state, bool materialize) {
  SignedAlphabet alphabet;
  alphabet.AddRelation("a");
  alphabet.AddRelation("b");
  Nfa query =
      MustCompileRegex(MustParseRegex("(a | b)* a (a | b)"), alphabet);
  std::vector<Nfa> views = {MustCompileRegex(MustParseRegex("a"), alphabet),
                            MustCompileRegex(MustParseRegex("b"), alphabet)};
  // 16 probe words of length 4 over the 4 signed view symbols.
  std::vector<std::vector<int>> probes;
  for (int i = 0; i < 16; ++i) {
    probes.push_back({(i >> 0) & 3, (i >> 2) & 3, 0, 2});
  }
  if (materialize) {
    StatusOr<MaximalRewriting> rewriting =
        ComputeMaximalRewriting(query, views);
    if (!rewriting.ok()) {
      state.SkipWithError(rewriting.status().ToString().c_str());
      return;
    }
    ScopedMetricsCounters metrics(state);
    for (auto _ : state) {
      int hits = 0;
      for (const auto& word : probes) {
        hits += rewriting->dfa.Accepts(word) ? 1 : 0;
      }
      benchmark::DoNotOptimize(hits);
    }
  } else {
    ScopedMetricsCounters metrics(state);
    for (auto _ : state) {
      int hits = 0;
      for (const auto& word : probes) {
        hits += IsWordInMaximalRewriting(query, views, word) ? 1 : 0;
      }
      benchmark::DoNotOptimize(hits);
    }
  }
}

BENCHMARK_CAPTURE(BM_OdaStrategy, fold_minimize, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OdaStrategy, pure_on_the_fly, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OdaStrategyExhaustive, fold_minimize, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OdaStrategyExhaustive, pure_on_the_fly, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RewritingMembership, on_the_fly_per_word, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RewritingMembership, materialized_dfa, true)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rpqi
