// Shared main for every bench binary: runs Google Benchmark with the normal
// console output, then writes BENCH_<name>.json — a machine-readable summary
// (per series point: median wall time in ms plus every user counter, e.g.
// states_explored / antichain_size) consumed by tools/bench_diff.py and the
// CI perf-smoke job.
//
// Flags understood on top of the benchmark library's own:
//   --quick           smoke mode: implies --benchmark_min_time=0.01 unless an
//                     explicit min time was passed
//   --bench_out=FILE  where to write the JSON (default: BENCH_<name>.json in
//                     the working directory, <name> = binary basename with
//                     any bench_ prefix stripped)
//   --metrics-out=FILE  write the final process-wide obs counter snapshot as
//                     NDJSON after all benchmarks ran (CI uploads these as
//                     artifacts next to the BENCH_*.json files)
//   --trace-out=FILE  write every obs span the benchmarks open as NDJSON
//                     (src/obs/trace.h), for a per-stage split of where a
//                     bench's time goes. Tracing adds its own cost to every
//                     span, so a traced run's timings are not comparable to
//                     an untraced one's; CI never passes it.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_main.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rpqi {
namespace {

bool g_quick_mode = false;

/// Console reporter that additionally keeps every finished run for the JSON
/// summary.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (!run.error_occurred) collected_.push_back(run);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Run>& collected() const { return collected_; }

 private:
  std::vector<Run> collected_;
};

double RunTimeMs(const benchmark::BenchmarkReporter::Run& run) {
  const double t = run.GetAdjustedRealTime();  // in run.time_unit
  switch (run.time_unit) {
    case benchmark::kNanosecond:
      return t * 1e-6;
    case benchmark::kMicrosecond:
      return t * 1e-3;
    case benchmark::kMillisecond:
      return t;
    case benchmark::kSecond:
      return t * 1e3;
  }
  return t;
}

/// "BM_Family/variant/7" -> series "BM_Family/variant", n = 7. When the last
/// path component is not a plain integer, n is -1 and the series is the full
/// name.
void SplitSeries(const std::string& name, std::string* series, long* n) {
  *series = name;
  *n = -1;
  size_t slash = name.rfind('/');
  if (slash == std::string::npos || slash + 1 == name.size()) return;
  const std::string last = name.substr(slash + 1);
  char* end = nullptr;
  long value = std::strtol(last.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return;
  *series = name.substr(0, slash);
  *n = value;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Picks one representative run per benchmark name: the "median" aggregate
/// when repetitions produced one, the plain iteration run otherwise (its
/// reported time is already the per-iteration mean, the benchmark library's
/// stable default). Runs are keyed by `run_name`, which an aggregate shares
/// with its raw runs (`benchmark_name()` appends "_median").
std::vector<benchmark::BenchmarkReporter::Run> SelectRuns(
    const std::vector<benchmark::BenchmarkReporter::Run>& runs) {
  using Run = benchmark::BenchmarkReporter::Run;
  std::vector<Run> selected;
  std::map<std::string, size_t> index_of;  // run_name -> slot in `selected`
  for (const Run& run : runs) {
    const bool is_aggregate =
        run.run_type == Run::RT_Aggregate;
    if (is_aggregate && run.aggregate_name != "median") continue;
    const std::string name = run.run_name.str();
    auto [it, inserted] = index_of.try_emplace(name, selected.size());
    if (inserted) {
      selected.push_back(run);
    } else if (is_aggregate) {
      selected[it->second] = run;  // a median aggregate beats the raw run
    }
  }
  return selected;
}

void WriteJson(const std::string& path, const std::string& bench_name,
               const std::vector<benchmark::BenchmarkReporter::Run>& runs) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_main: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"" << JsonEscape(bench_name) << "\",\n"
      << "  \"quick\": " << (g_quick_mode ? "true" : "false") << ",\n"
      << "  \"entries\": [\n";
  bool first = true;
  for (const auto& run : SelectRuns(runs)) {
    std::string series;
    long n = -1;
    const std::string name = run.run_name.str();
    SplitSeries(name, &series, &n);
    if (!first) out << ",\n";
    first = false;
    out << "    {\"name\": \"" << JsonEscape(name) << "\", \"series\": \""
        << JsonEscape(series) << "\", \"n\": " << n << ", \"median_ms\": "
        << RunTimeMs(run) << ", \"iterations\": " << run.iterations;
    for (const auto& [counter_name, counter] : run.counters) {
      out << ", \"" << JsonEscape(counter_name)
          << "\": " << static_cast<double>(counter.value);
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
}

std::string BenchName(const char* argv0) {
  std::string name = argv0;
  size_t slash = name.find_last_of("/\\");
  if (slash != std::string::npos) name = name.substr(slash + 1);
  if (name.rfind("bench_", 0) == 0) name = name.substr(6);
  return name;
}

}  // namespace

bool BenchQuickMode() { return g_quick_mode; }

ScopedMetricsCounters::ScopedMetricsCounters(benchmark::State& state)
    : state_(state), before_(obs::TakeMetricsSnapshot()) {}

ScopedMetricsCounters::~ScopedMetricsCounters() {
  const obs::MetricsSnapshot delta =
      obs::TakeMetricsSnapshot().DeltaSince(before_);
  const double iterations =
      static_cast<double>(std::max<int64_t>(1, state_.iterations()));
  for (const auto& [name, value] : delta.counters()) {
    if (value == 0) continue;  // keep the counter column set stable and small
    state_.counters["m_" + name] =
        benchmark::Counter(static_cast<double>(value) / iterations);
  }
}

}  // namespace rpqi

int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::string out_path;
  std::string metrics_path;
  std::string trace_path;
  bool min_time_given = false;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      rpqi::g_quick_mode = true;
    } else if (arg.rfind("--bench_out=", 0) == 0) {
      out_path = arg.substr(12);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_path = arg.substr(14);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_path = arg.substr(12);
    } else {
      if (arg.rfind("--benchmark_min_time", 0) == 0) min_time_given = true;
      args.push_back(arg);
    }
  }
  if (rpqi::g_quick_mode && !min_time_given) {
    args.push_back("--benchmark_min_time=0.01");
  }
  std::vector<char*> c_args;
  c_args.reserve(args.size());
  for (std::string& arg : args) c_args.push_back(arg.data());
  int c_argc = static_cast<int>(c_args.size());
  benchmark::Initialize(&c_argc, c_args.data());
  if (benchmark::ReportUnrecognizedArguments(c_argc, c_args.data())) return 1;

  const std::string bench_name = rpqi::BenchName(argv[0]);
  if (out_path.empty()) out_path = "BENCH_" + bench_name + ".json";
  if (!trace_path.empty() && !rpqi::obs::Tracer::StartToFile(trace_path)) {
    std::fprintf(stderr, "bench_main: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  rpqi::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  rpqi::obs::Tracer::Stop();
  rpqi::WriteJson(out_path, bench_name, reporter.collected());
  if (!metrics_path.empty()) {
    std::ofstream metrics_out(metrics_path);
    if (metrics_out) {
      rpqi::obs::TakeMetricsSnapshot().WriteNdjson(metrics_out);
    } else {
      std::fprintf(stderr, "bench_main: cannot write %s\n",
                   metrics_path.c_str());
    }
  }
  benchmark::Shutdown();
  return 0;
}
