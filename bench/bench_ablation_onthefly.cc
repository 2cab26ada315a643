// ABL bench: rewriting membership, deciding e-words one at a time on the
// fly (IsWordInMaximalRewriting) vs materializing the full rewriting DFA once
// and running words through it.

#include <benchmark/benchmark.h>

#include "regex/parser.h"
#include "rewrite/rewriter.h"
#include "rpq/alphabet.h"
#include "rpq/compile.h"

#include "bench_main.h"

namespace rpqi {
namespace {

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

BENCHMARK_CAPTURE(BM_RewritingMembership, on_the_fly_per_word, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RewritingMembership, materialized_dfa, true)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rpqi
