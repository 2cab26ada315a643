// EVAL substrate bench: throughput of the ans(E,B) evaluator (Section 2
// semantics) as graph size, density, and query shape vary. Every result in
// the paper is defined relative to this oracle, so its scaling is reported
// first in EXPERIMENTS.md.

#include <benchmark/benchmark.h>

#include <random>

#include "automata/flat.h"
#include "graphdb/eval.h"
#include "regex/parser.h"
#include "rpq/alphabet.h"
#include "rpq/compile.h"
#include "workload/graph_gen.h"

#include "bench_main.h"

namespace rpqi {
namespace {

Nfa MakeQuery(const std::string& text, SignedAlphabet* alphabet) {
  alphabet->AddRelation("r0");
  alphabet->AddRelation("r1");
  return MustCompileRegex(MustParseRegex(text), *alphabet);
}

void BM_EvalAllPairs(benchmark::State& state, const std::string& query_text) {
  std::mt19937_64 rng(42);
  RandomGraphOptions options;
  options.num_nodes = static_cast<int>(state.range(0));
  options.num_relations = 2;
  options.average_out_degree = 3.0;
  GraphDb db = RandomGraph(rng, options).Build();
  SignedAlphabet alphabet;
  Nfa query = MakeQuery(query_text, &alphabet);

  int64_t answers = 0;
  ScopedMetricsCounters metrics(state);
  for (auto _ : state) {
    answers = static_cast<int64_t>(
        EvalRpqiAllPairs(db, CompileEvalPlan(query)).size());
    benchmark::DoNotOptimize(answers);
  }
  state.counters["nodes"] = options.num_nodes;
  state.counters["edges"] = db.NumEdges();
  state.counters["answers"] = static_cast<double>(answers);
}

void BM_EvalSingleSource(benchmark::State& state,
                         const std::string& query_text) {
  std::mt19937_64 rng(42);
  RandomGraphOptions options;
  options.num_nodes = static_cast<int>(state.range(0));
  options.num_relations = 2;
  options.average_out_degree = 3.0;
  GraphDb db = RandomGraph(rng, options).Build();
  SignedAlphabet alphabet;
  Nfa query = MakeQuery(query_text, &alphabet);
  const FlatNfa plan = CompileEvalPlan(query);
  EvalScratch scratch;

  ScopedMetricsCounters metrics(state);
  for (auto _ : state) {
    Bitset reachable = EvalRpqiFrom(db, plan, 0, &scratch);
    benchmark::DoNotOptimize(reachable.Count());
  }
  state.counters["nodes"] = options.num_nodes;
}

// Pure BFS cost: the flat plan is compiled once outside the loop, so every
// iteration is only the product BFS over the contiguous edge arrays — the
// serving layer's steady state, where CachedPlan already holds the FlatNfa.
// The gap to BM_EvalAllPairs (which includes the per-call CompileEvalPlan)
// is the per-query setup cost the plan cache amortizes away.
void BM_EvalAllPairsPrecompiled(benchmark::State& state,
                                const std::string& query_text) {
  std::mt19937_64 rng(42);
  RandomGraphOptions options;
  options.num_nodes = static_cast<int>(state.range(0));
  options.num_relations = 2;
  options.average_out_degree = 3.0;
  GraphDb db = RandomGraph(rng, options).Build();
  SignedAlphabet alphabet;
  Nfa query = MakeQuery(query_text, &alphabet);
  const FlatNfa plan = CompileFlat(query);

  int64_t answers = 0;
  ScopedMetricsCounters metrics(state);
  for (auto _ : state) {
    StatusOr<std::vector<std::pair<int, int>>> result =
        EvalRpqiAllPairsWithBudget(db, plan, nullptr);
    if (!result.ok()) {
      state.SkipWithError("eval failed");
      break;
    }
    answers = static_cast<int64_t>(result->size());
    benchmark::DoNotOptimize(answers);
  }
  state.counters["nodes"] = options.num_nodes;
  state.counters["edges"] = db.NumEdges();
  state.counters["answers"] = static_cast<double>(answers);
}

// Label-skew scenario: 16 relations at ~128 average out-degree, querying a
// single label. The CSR label index (DESIGN.md §15) jumps straight to the
// per-(node, relation) span, so a visited node costs its ~8 edges of the
// queried label rather than all ~128 of its out-edges.
void BM_EvalLabelSkew(benchmark::State& state) {
  std::mt19937_64 rng(42);
  RandomGraphOptions options;
  options.num_nodes = static_cast<int>(state.range(0));
  options.num_relations = 16;
  options.average_out_degree = 128.0;
  GraphDb db = RandomGraph(rng, options).Build();
  SignedAlphabet alphabet;
  for (int r = 0; r < options.num_relations; ++r) {
    alphabet.AddRelation("r" + std::to_string(r));
  }
  Nfa query = MustCompileRegex(MustParseRegex("r0*"), alphabet);

  int64_t answers = 0;
  ScopedMetricsCounters metrics(state);
  for (auto _ : state) {
    answers = static_cast<int64_t>(
        EvalRpqiAllPairs(db, CompileEvalPlan(query)).size());
    benchmark::DoNotOptimize(answers);
  }
  state.counters["nodes"] = options.num_nodes;
  state.counters["edges"] = db.NumEdges();
  state.counters["answers"] = static_cast<double>(answers);
}

BENCHMARK_CAPTURE(BM_EvalAllPairs, forward_star, std::string("r0*"))
    ->Arg(32)->Arg(128)->Arg(512)->Arg(2048);
BENCHMARK_CAPTURE(BM_EvalAllPairs, with_inverse,
                  std::string("(r0 r1^-)* r0"))
    ->Arg(32)->Arg(128)->Arg(512)->Arg(2048);
BENCHMARK_CAPTURE(BM_EvalAllPairs, two_way_closure,
                  std::string("(r0 | r0^- | r1)*"))
    ->Arg(32)->Arg(128)->Arg(512);
BENCHMARK_CAPTURE(BM_EvalAllPairsPrecompiled, forward_star,
                  std::string("r0*"))
    ->Arg(32)->Arg(128)->Arg(512)->Arg(2048);
BENCHMARK_CAPTURE(BM_EvalAllPairsPrecompiled, with_inverse,
                  std::string("(r0 r1^-)* r0"))
    ->Arg(32)->Arg(128)->Arg(512)->Arg(2048);
BENCHMARK_CAPTURE(BM_EvalSingleSource, forward_star, std::string("r0*"))
    ->Arg(1024)->Arg(4096)->Arg(16384);
BENCHMARK_CAPTURE(BM_EvalSingleSource, with_inverse,
                  std::string("(r0 r1^-)* r0"))
    ->Arg(1024)->Arg(4096)->Arg(16384);
BENCHMARK(BM_EvalLabelSkew)->Name("BM_EvalLabelSkew/csr")->Arg(128)->Arg(512);

}  // namespace
}  // namespace rpqi
