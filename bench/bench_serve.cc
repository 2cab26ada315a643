// Serving-layer bench: request latency and throughput through the Server
// (`rpqi serve`). Two axes matter for the roadmap's scaling story:
//   * cold vs. warm plan cache — a warm `eval` skips regex compilation, the
//     all-pairs product BFS and answer rendering entirely (the cached plan
//     carries the answer set already rendered), so its median must sit well
//     below (>= 5x) the cold median;
//   * worker-pool throughput — a 1000-request mixed NDJSON stream with
//     periodic `admin reload` requests, at 1/4/8 threads.

#include <benchmark/benchmark.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "base/socket.h"
#include "graphdb/columnar.h"
#include "graphdb/io.h"
#include "net/framing.h"
#include "net/tcp_server.h"
#include "rpq/alphabet.h"
#include "service/server.h"
#include "service/snapshot.h"
#include "workload/graph_gen.h"

#include "bench_main.h"

namespace rpqi {
namespace {

// A fixed labeled path: the cold eval pays compilation plus the product BFS
// over every source node. The answer set is not small: 2,352 pairs, a
// ~37 KB response. The cold path renders it once into the plan; every
// later response copies those bytes.
constexpr char kEvalRequest[] =
    R"({"id":1,"op":"eval","query":"r0 r0 r1 r0"})";

// Deterministic random graph shared by every benchmark in this binary,
// serialized once to a temp file so Server::Init exercises the real snapshot
// loader. 512 nodes / out-degree 3 keeps --quick runs fast.
const std::string& GraphPath() {
  static const std::string* path = [] {
    std::mt19937_64 rng(7);
    RandomGraphOptions options;
    options.num_nodes = 512;
    options.num_relations = 2;
    options.average_out_degree = 3.0;
    GraphDb db = RandomGraph(rng, options).Build();
    SignedAlphabet alphabet;
    alphabet.AddRelation("r0");
    alphabet.AddRelation("r1");
    auto file = std::filesystem::temp_directory_path() / "rpqi_bench_serve.txt";
    std::ofstream(file) << SaveGraphText(db, alphabet);
    return new std::string(file.string());
  }();
  return *path;
}

service::ServerOptions BaseOptions() {
  service::ServerOptions options;
  options.initial_db_path = GraphPath();
  return options;
}

// A larger graph for the snapshot-open benches: 4096 nodes / out-degree 8,
// written once in both formats. Text parsing re-tokenizes and re-interns
// every line; the columnar open is an mmap plus a checksum pass, so its
// median must sit far (>= 10x) below the text median at this size.
struct SnapshotOpenFixture {
  std::string text_path;
  std::string columnar_path;
};

const SnapshotOpenFixture& OpenFixture() {
  static const SnapshotOpenFixture* fixture = [] {
    std::mt19937_64 rng(11);
    RandomGraphOptions options;
    options.num_nodes = 4096;
    options.num_relations = 4;
    options.average_out_degree = 8.0;
    GraphDb db = RandomGraph(rng, options).Build();
    SignedAlphabet alphabet;
    for (int r = 0; r < options.num_relations; ++r) {
      alphabet.AddRelation("r" + std::to_string(r));
    }
    auto* out = new SnapshotOpenFixture;
    auto dir = std::filesystem::temp_directory_path();
    out->text_path = (dir / "rpqi_bench_open.txt").string();
    std::string text = SaveGraphText(db, alphabet);
    std::ofstream(out->text_path) << text;
    out->columnar_path = (dir / "rpqi_bench_open.rpqicol").string();
    Status written = WriteColumnarFile(out->columnar_path, db, alphabet,
                                       FingerprintGraphText(text));
    if (!written.ok()) out->columnar_path.clear();
    return out;
  }();
  return *fixture;
}

// One full LoadGraphSnapshot per iteration — read, parse/validate, intern —
// through exactly the code path `admin reload` takes.
void BM_SnapshotOpenText(benchmark::State& state) {
  ScopedMetricsCounters metrics(state);
  for (auto _ : state) {
    auto snapshot = service::LoadGraphSnapshot(OpenFixture().text_path);
    if (!snapshot.ok()) {
      state.SkipWithError("text snapshot load failed");
      break;
    }
    benchmark::DoNotOptimize((*snapshot)->db.NumEdges());
  }
}
BENCHMARK(BM_SnapshotOpenText);

// Same graph through the mmap path: open + header/checksum validation +
// pointer-cast CSR views; no per-edge parsing, no interning.
void BM_SnapshotOpenColumnar(benchmark::State& state) {
  if (OpenFixture().columnar_path.empty()) {
    state.SkipWithError("columnar fixture write failed");
    return;
  }
  ScopedMetricsCounters metrics(state);
  for (auto _ : state) {
    auto snapshot = service::LoadGraphSnapshot(OpenFixture().columnar_path);
    if (!snapshot.ok()) {
      state.SkipWithError("columnar snapshot load failed");
      break;
    }
    benchmark::DoNotOptimize((*snapshot)->db.NumEdges());
  }
}
BENCHMARK(BM_SnapshotOpenColumnar);

// Cold path: a fresh Server (empty plan cache) per iteration; only the
// HandleLine call is timed, so the measurement is parse + compile + eval +
// render without snapshot-load noise.
void BM_ServeEvalCold(benchmark::State& state) {
  // Every iteration does identical work (fresh server, one miss), so the
  // m_* columns are deterministic: expect compile + eval + cache-insert.
  ScopedMetricsCounters metrics(state);
  for (auto _ : state) {
    state.PauseTiming();
    auto server = std::make_unique<service::Server>(BaseOptions());
    if (!server->Init().ok()) {
      state.SkipWithError("snapshot init failed");
      break;
    }
    state.ResumeTiming();
    std::string response = server->HandleLine(kEvalRequest);
    benchmark::DoNotOptimize(response.data());
    state.PauseTiming();
    server.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ServeEvalCold);

// Warm path: same request against a pre-warmed cache — parse + shard lookup +
// splicing the plan's rendered answers into the response, with no per-pair
// rendering. The >= 5x cold/warm separation asserted in EXPERIMENTS.md lives
// in the ratio of these two medians.
void BM_ServeEvalWarm(benchmark::State& state) {
  service::Server server(BaseOptions());
  if (!server.Init().ok()) {
    state.SkipWithError("snapshot init failed");
    return;
  }
  std::string warmup = server.HandleLine(kEvalRequest);
  benchmark::DoNotOptimize(warmup.data());
  // Every iteration is one cache hit — the m_* columns document what the
  // warm path skips (no compile.*, no eval.*).
  ScopedMetricsCounters metrics(state);
  for (auto _ : state) {
    std::string response = server.HandleLine(kEvalRequest);
    benchmark::DoNotOptimize(response.data());
  }
}
BENCHMARK(BM_ServeEvalWarm);

// Restart path: a fresh Server per iteration, but --plan-cache-dir points at
// a directory pre-warmed with the persisted plan, so the timed HandleLine is
// a disk hit — decode + validate the "RPQIPLAN1" payload and render its
// answers once, no compile, no BFS.
// Its median must sit well below the cold median (that gap is the restart
// win the persistent plan cache buys) while staying above the pure in-memory
// warm median (the decode + admission-validation tax).
void BM_ServeEvalWarmRestart(benchmark::State& state) {
  auto dir = std::filesystem::temp_directory_path() / "rpqi_bench_serve_plans";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    state.SkipWithError("plan dir setup failed");
    return;
  }
  service::ServerOptions options = BaseOptions();
  options.plan_cache_dir = dir.string();
  {
    service::Server warmer(options);
    if (!warmer.Init().ok()) {
      state.SkipWithError("snapshot init failed");
      return;
    }
    std::string warmup = warmer.HandleLine(kEvalRequest);
    benchmark::DoNotOptimize(warmup.data());
  }
  // Every iteration is one disk hit (fresh in-memory cache, persisted plan
  // present), so the m_* columns are deterministic: expect
  // service.plan_cache.disk_hit with no compile.* or eval.* work.
  ScopedMetricsCounters metrics(state);
  for (auto _ : state) {
    state.PauseTiming();
    auto server = std::make_unique<service::Server>(options);
    if (!server->Init().ok()) {
      state.SkipWithError("snapshot init failed");
      break;
    }
    state.ResumeTiming();
    std::string response = server->HandleLine(kEvalRequest);
    benchmark::DoNotOptimize(response.data());
    state.PauseTiming();
    server.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ServeEvalWarmRestart);

// Full stdio serve loop: a 1000-request mixed stream (eight distinct eval
// queries cycling, an admin reload every 100 requests) read from a file by
// the request loop's stream connection and drained by N workers. The Server
// persists across iterations, so after the first pass the cache is warm —
// this measures framing + admission + dispatch + hit-path throughput, with
// the reloads exercising snapshot pinning under load.
void BM_ServeMixedStream(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kRequests = 1000;
  service::ServerOptions options = BaseOptions();
  options.threads = threads;
  options.admission.queue_depth = kRequests;
  service::Server server(options);
  if (!server.Init().ok()) {
    state.SkipWithError("snapshot init failed");
    return;
  }

  const std::vector<std::string> queries = {
      "r0", "r1", "r0 r1", "r1 r0", "r0 r0 r1", "r0 r1^-", "r1^- r0",
      "r0 r0 r1 r0"};
  std::string input;
  for (int i = 0; i < kRequests; ++i) {
    if (i % 100 == 99) {
      input += "{\"id\":" + std::to_string(i) +
               ",\"op\":\"admin\",\"action\":\"reload\",\"db\":\"" +
               GraphPath() + "\"}\n";
    } else {
      input += "{\"id\":" + std::to_string(i) +
               ",\"op\":\"eval\",\"query\":\"" +
               queries[i % queries.size()] + "\"}\n";
    }
  }

  const auto dir = std::filesystem::temp_directory_path();
  const std::string in_path = (dir / "rpqi_bench_serve_in.ndjson").string();
  const std::string out_path = (dir / "rpqi_bench_serve_out.ndjson").string();
  std::ofstream(in_path) << input;
  for (auto _ : state) {
    UniqueFd in_fd(::open(in_path.c_str(), O_RDONLY));
    UniqueFd out_fd(
        ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600));
    net::TcpTransport transport(&server, {});
    if (!transport.ServeStream(in_fd.get(), out_fd.get()).ok()) {
      state.SkipWithError("serve loop failed");
      break;
    }
  }
  // bench_diff gates every extra numeric column with --counters fail, so only
  // the deterministic thread count is exported; throughput lives in
  // median_ms (1000 requests per iteration) and hit/miss rates are
  // thread-race-dependent by design.
  state.counters["threads"] = threads;
}
BENCHMARK(BM_ServeMixedStream)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

// The same mixed stream over TCP: one loopback connection sends 500
// pipelined requests and reads every response back. Relative to
// BM_ServeMixedStream, which runs the same request loop over files, this adds
// the connect and two socket copies per request. The stream is pipelined, so
// the request batching (shared snapshot pins, plan lookups resolved once per
// batch) is on the measured path of both.
void BM_ServeTcpThroughput(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kRequests = 500;
  service::ServerOptions options = BaseOptions();
  options.threads = threads;
  options.admission.queue_depth = kRequests;
  service::Server server(options);
  if (!server.Init().ok()) {
    state.SkipWithError("snapshot init failed");
    return;
  }
  net::TcpTransport transport(&server, {});
  if (!transport.Listen().ok()) {
    state.SkipWithError("listen failed");
    return;
  }
  std::thread serve_thread([&transport] {
    // lint: allow-discard — failures surface as truncated streams below
    (void)transport.Serve();
  });

  const std::vector<std::string> queries = {
      "r0", "r1", "r0 r1", "r1 r0", "r0 r0 r1", "r0 r1^-", "r1^- r0",
      "r0 r0 r1 r0"};
  std::string input;
  for (int i = 0; i < kRequests; ++i) {
    input += "{\"id\":" + std::to_string(i) + ",\"op\":\"eval\",\"query\":\"" +
             queries[i % queries.size()] + "\"}\n";
  }

  bool failed = false;
  for (auto _ : state) {
    StatusOr<UniqueFd> fd = ConnectTcp("127.0.0.1", transport.port());
    if (!fd.ok()) {
      state.SkipWithError("connect failed");
      failed = true;
      break;
    }
    size_t sent = 0;
    while (sent < input.size()) {
      ssize_t n = ::send(fd->get(), input.data() + sent, input.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    net::LineFramer framer(size_t{1} << 20);
    std::vector<std::string> lines;
    char buf[1 << 16];
    while (lines.size() < size_t{kRequests}) {
      ssize_t n = ::recv(fd->get(), buf, sizeof(buf), 0);
      if (n <= 0) break;
      framer.Feed(buf, static_cast<size_t>(n), &lines);
    }
    if (sent < input.size() || lines.size() < size_t{kRequests}) {
      state.SkipWithError("tcp stream truncated");
      failed = true;
      break;
    }
    benchmark::DoNotOptimize(lines.data());
  }
  transport.RequestShutdown();
  serve_thread.join();
  // Only the deterministic thread count is exported (bench_diff gates every
  // extra numeric column); throughput lives in median_ms — 500 requests per
  // iteration, same convention as BM_ServeMixedStream.
  if (!failed) state.counters["threads"] = threads;
}
BENCHMARK(BM_ServeTcpThroughput)->Arg(1)->Arg(4)->UseRealTime();

}  // namespace
}  // namespace rpqi
