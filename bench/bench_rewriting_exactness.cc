// THM9 bench: exactness of the maximal rewriting (2EXPSPACE-complete,
// Theorem 9). Measures the containment check query ⊑ expand(R) on families
// where the exact rewriting exists (decomposable queries) and where it does
// not (coverage gaps), as the query grows. Also reports the expansion size.

#include <benchmark/benchmark.h>

#include <string>

#include "regex/parser.h"
#include "rewrite/exactness.h"
#include "rewrite/expansion.h"
#include "rewrite/rewriter.h"
#include "rpq/alphabet.h"
#include "rpq/compile.h"

#include "bench_main.h"

namespace rpqi {
namespace {

struct Instance {
  SignedAlphabet alphabet;
  Nfa query{0};
  std::vector<Nfa> views;
};

/// Query (up⁻)^k (c | d): with views {up⁻, c | d} the rewriting is exact;
/// with only {up⁻, c} it is maximal but not exact (d-branch uncovered).
Instance Visibility(int k, bool exact) {
  Instance instance;
  instance.alphabet.AddRelation("up");
  instance.alphabet.AddRelation("c");
  instance.alphabet.AddRelation("d");
  std::string query_text;
  for (int i = 0; i < k; ++i) query_text += "up^- ";
  query_text += "(c | d)";
  instance.query =
      MustCompileRegex(MustParseRegex(query_text), instance.alphabet);
  instance.views.push_back(
      MustCompileRegex(MustParseRegex("up^-"), instance.alphabet));
  instance.views.push_back(MustCompileRegex(
      MustParseRegex(exact ? "c | d" : "c"), instance.alphabet));
  return instance;
}

void BM_ExactnessCheck(benchmark::State& state, bool exact) {
  Instance instance = Visibility(static_cast<int>(state.range(0)), exact);
  StatusOr<MaximalRewriting> rewriting =
      ComputeMaximalRewriting(instance.query, instance.views);
  if (!rewriting.ok()) {
    state.SkipWithError(rewriting.status().ToString().c_str());
    return;
  }
  bool result = false;
  ScopedMetricsCounters metrics(state);
  for (auto _ : state) {
    StatusOr<bool> checked = IsExactRewriting(instance.query, instance.views,
                                              rewriting->dfa, nullptr);
    // The StatusOr, not the bool: on a bool, GCC's two-alternative "+m,r"
    // operand of DoNotOptimize clobbered `result` (is_exact read 88 or 232).
    benchmark::DoNotOptimize(checked);
    if (!checked.ok()) {
      state.SkipWithError(checked.status().ToString().c_str());
      return;
    }
    result = *checked;
  }
  Nfa expansion = ExpandRewriting(rewriting->dfa, instance.views);
  state.counters["is_exact"] = result;
  state.counters["rewriting_states"] = rewriting->dfa.NumStates();
  state.counters["expansion_states"] = expansion.NumStates();
}

void BM_FullPipelineWithExactness(benchmark::State& state) {
  Instance instance = Visibility(static_cast<int>(state.range(0)), true);
  ScopedMetricsCounters metrics(state);
  for (auto _ : state) {
    StatusOr<MaximalRewriting> rewriting =
        ComputeMaximalRewriting(instance.query, instance.views);
    if (!rewriting.ok()) {
      state.SkipWithError(rewriting.status().ToString().c_str());
      return;
    }
    StatusOr<bool> checked = IsExactRewriting(instance.query, instance.views,
                                              rewriting->dfa, nullptr);
    benchmark::DoNotOptimize(checked);
    if (!checked.ok()) {
      state.SkipWithError(checked.status().ToString().c_str());
      return;
    }
  }
}

BENCHMARK_CAPTURE(BM_ExactnessCheck, exact_family, true)
    ->DenseRange(1, 6, 1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExactnessCheck, inexact_family, false)
    ->DenseRange(1, 6, 1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FullPipelineWithExactness)
    ->DenseRange(1, 5, 1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rpqi
