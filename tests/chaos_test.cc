// Chaos soak for the serve path: a multithreaded stdio request loop over
// thousands of mixed requests with seeded faults armed at every layer
// (snapshot I/O, plan cache, automata state allocation, worker stalls, queue
// bursts, transport truncation). The invariants are the robustness contract:
//
//   * every non-blank request line yields exactly one response line,
//   * every response is well-formed JSON with a structured status,
//   * the process neither crashes nor deadlocks (the test finishing is the
//     assertion; CI additionally runs this under ASan/UBSan and TSan),
//   * armed sites actually fired (the run exercised the error paths),
//   * after DisarmAll the server serves cleanly again (no poisoned state).
//
// Seed and volume come from RPQI_CHAOS_SEED / RPQI_CHAOS_REQUESTS so CI can
// sweep seeds; every decision is deterministic given the pair.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/socket.h"
#include "fault/fault.h"
#include "graphdb/columnar.h"
#include "graphdb/io.h"
#include "net/framing.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"
#include "service/breaker.h"
#include "service/json.h"
#include "service/server.h"

namespace rpqi {
namespace service {
namespace {

/// Arms faults for the duration of one test; never leaks them.
struct FaultGuard {
  FaultGuard() { fault::DisarmAll(); }
  ~FaultGuard() { fault::DisarmAll(); }
};

std::string WriteTempGraph(const std::string& name, const std::string& text) {
  std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

/// Same graph, but compacted to the binary columnar format — reloads of this
/// file exercise the snapshot.mmap_open path of the loader.
std::string WriteTempColumnarGraph(const std::string& name,
                                   const std::string& text) {
  SignedAlphabet alphabet;
  StatusOr<GraphDb> db = LoadGraphText(text, &alphabet);
  RPQI_CHECK(db.ok());
  std::string path = testing::TempDir() + name;
  Status written =
      WriteColumnarFile(path, *db, alphabet, FingerprintGraphText(text));
  RPQI_CHECK(written.ok());
  return path;
}

/// Runs `in` to EOF through one stream connection of the request loop — the
/// path `rpqi serve` takes for stdin/stdout — over temp files (regular files
/// never block), one request per batch, and copies what the loop wrote to
/// `out`.
Status ServeStream(Server& server, std::istream& in, std::ostream& out) {
  const std::string base = testing::TempDir() + "chaos_stream_" +
                           std::to_string(::getpid());
  std::ofstream(base + ".in") << in.rdbuf();
  UniqueFd in_fd(::open((base + ".in").c_str(), O_RDONLY));
  UniqueFd out_fd(
      ::open((base + ".out").c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600));
  net::TcpTransportOptions options;
  options.max_batch = 1;
  Status served = net::TcpTransport(&server, options)
                      .ServeStream(in_fd.get(), out_fd.get());
  std::stringstream written;
  written << std::ifstream(base + ".out").rdbuf();
  out << written.str();
  return served;
}

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoll(value);
}

/// splitmix64: the request mix must be deterministic per seed, with no
/// dependence on the standard library's RNG implementation.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string ChaosFaultSpec(int64_t seed) {
  std::string s = std::to_string(seed);
  return "snapshot.open=prob:0.2:" + s +
         ",snapshot.read=prob:0.1:" + s +
         ",snapshot.mmap_open=prob:0.15:" + s +
         ",snapshot.reload_swap=prob:0.1:" + s +
         ",graphdb.parse_io=prob:0.05:" + s +
         ",plan_cache.insert=prob:0.3:" + s +
         ",plan_cache.disk_io=prob:0.3:" + s +
         ",automata.determinize_state=prob:0.02:" + s +
         ",automata.materialize_state=prob:0.02:" + s +
         ",service.request_truncate=prob:0.02:" + s +
         ",service.queue_full=prob:0.02:" + s +
         ",worker_pool.task_start=prob:0.05:" + s + ";ms=1";
}

/// One deterministic request line. The mix covers every op, both graph
/// files, cache-friendly repeats, and malformed lines.
std::string MakeRequest(int id, uint64_t* rng, const std::string& db_a,
                        const std::string& db_b) {
  const char* queries[] = {"(a|b)* c", "a b", "a", "b* a", "(a^-)* b"};
  uint64_t draw = NextRandom(rng) % 100;
  std::string idstr = std::to_string(id);
  if (draw < 40) {
    return "{\"id\":" + idstr + ",\"op\":\"eval\",\"query\":\"" +
           queries[NextRandom(rng) % 5] + "\"}";
  }
  if (draw < 60) {
    return "{\"id\":" + idstr + ",\"op\":\"rewrite\",\"query\":\"" +
           queries[NextRandom(rng) % 5] +
           "\",\"views\":{\"v1\":\"a\",\"v2\":\"b\"}}";
  }
  if (draw < 70) {
    return "{\"id\":" + idstr +
           ",\"op\":\"answer\",\"mode\":\"oda\",\"objects\":3,"
           "\"query\":\"a\",\"views\":[{\"expr\":\"a\",\"assumption\":"
           "\"exact\",\"extension\":[[0,1],[1,2]]}],\"pairs\":[[0,1],[0,2]]}";
  }
  if (draw < 80) {
    return "{\"id\":" + idstr + ",\"op\":\"admin\",\"action\":\"reload\","
           "\"db\":\"" + (NextRandom(rng) % 2 == 0 ? db_a : db_b) + "\"}";
  }
  if (draw < 88) {
    return "{\"id\":" + idstr + ",\"op\":\"admin\",\"action\":\"stats\"}";
  }
  if (draw < 94) {
    return "{\"id\":" + idstr + ",\"op\":\"nonsense\"}";
  }
  // Malformed JSON: must come back as a structured invalid_request, id null.
  return "{\"id\":" + idstr + ",\"op\":\"eval\",";
}

TEST(ChaosTest, SoakServeLoopUnderSeededFaults) {
  FaultGuard guard;
  int64_t seed = EnvInt("RPQI_CHAOS_SEED", 1);
  // Modest by default so the tier-1 suite stays fast; the CI chaos job sets
  // RPQI_CHAOS_REQUESTS=2000 (and sweeps seeds) for the full soak.
  int64_t num_requests = EnvInt("RPQI_CHAOS_REQUESTS", 600);

  std::string db_a = WriteTempGraph("chaos_a.txt", "a r b\nb r c\nc s a\n");
  // One of the two reload targets is a binary columnar snapshot, so the soak
  // alternates the text parse path and the mmap path under the same faults.
  std::string db_b = WriteTempColumnarGraph("chaos_b.rpqicol", "a r b\nb s c\n");

  ServerOptions options;
  options.threads = 4;
  options.admission.queue_depth = 256;
  options.initial_db_path = db_a;
  // Persistent plan cache on, so the soak drives the disk save/load path
  // (and its plan_cache.disk_io fault) alongside the in-memory cache.
  options.plan_cache_dir = testing::TempDir();
  // Breaker on with a high threshold: exercised by the fault mix but rarely
  // tripping, so the request mix stays rich. Dedicated breaker tests pin the
  // state machine itself.
  options.breaker_failure_threshold = 50;
  options.breaker_cooldown_ms = 1;
  // One in-loop retry: transient reload faults often recover in-request.
  options.reload_retry.attempts = 2;
  Server server(options);
  ASSERT_TRUE(server.Init().ok());

  // Arm after Init so the initial load cannot fail the setup.
  ASSERT_TRUE(fault::Configure(ChaosFaultSpec(seed)).ok());

  uint64_t rng = static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL + 1;
  std::string input;
  for (int id = 0; id < num_requests; ++id) {
    input += MakeRequest(id, &rng, db_a, db_b);
    input += '\n';
  }
  std::istringstream in(input);
  std::ostringstream out;
  ASSERT_TRUE(ServeStream(server, in, out).ok());

  // Requests in == responses out, every one well-formed with a known status.
  std::istringstream responses(out.str());
  std::string line;
  int64_t num_responses = 0;
  int64_t num_ok = 0;
  int64_t num_error = 0;
  while (std::getline(responses, line)) {
    ++num_responses;
    StatusOr<Json> parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << "unparseable response: " << line;
    const Json* status = parsed->Find("status");
    ASSERT_NE(status, nullptr) << line;
    if (status->string_value() == "ok") {
      ++num_ok;
    } else {
      ASSERT_EQ(status->string_value(), "error") << line;
      const Json* code = parsed->Find("code");
      ASSERT_NE(code, nullptr) << line;
      ++num_error;
    }
  }
  EXPECT_EQ(num_responses, num_requests);
  // The mix always contains healthy eval repeats, so some must succeed, and
  // always contains malformed lines, so some must fail.
  EXPECT_GT(num_ok, 0);
  EXPECT_GT(num_error, 0);

  // The soak actually drove the fault layer: sites on deterministic paths
  // tallied hits, and the probabilistic policies fired somewhere.
  EXPECT_GT(fault::HitCount("plan_cache.insert"), 0);
  EXPECT_GT(fault::HitCount("plan_cache.disk_io"), 0);
  EXPECT_GT(fault::HitCount("snapshot.open"), 0);
  EXPECT_GT(fault::HitCount("snapshot.mmap_open"), 0);
  EXPECT_GT(fault::HitCount("service.request_truncate"), 0);
  EXPECT_GT(fault::HitCount("service.queue_full"), 0);
  EXPECT_GT(fault::HitCount("worker_pool.task_start"), 0);
  obs::MetricsSnapshot snapshot = obs::TakeMetricsSnapshot();
  EXPECT_GT(snapshot.CounterValue("fault.fires"), 0);
  EXPECT_GE(snapshot.CounterValue("fault.hits"),
            snapshot.CounterValue("fault.fires"));

  // Recovery: with faults disarmed the same server serves cleanly again —
  // nothing the chaos run did may poison later traffic.
  fault::DisarmAll();
  std::string reload = server.HandleLine(
      "{\"id\":\"r\",\"op\":\"admin\",\"action\":\"reload\",\"db\":\"" +
      db_a + "\"}");
  EXPECT_NE(reload.find("\"status\":\"ok\""), std::string::npos) << reload;
  std::string eval =
      server.HandleLine("{\"id\":\"e\",\"op\":\"eval\",\"query\":\"a\"}");
  EXPECT_NE(eval.find("\"status\":\"ok\""), std::string::npos) << eval;
  std::string stats = server.HandleLine(
      "{\"id\":\"s\",\"op\":\"admin\",\"action\":\"stats\"}");
  EXPECT_NE(stats.find("\"status\":\"ok\""), std::string::npos) << stats;
}

TEST(ChaosTest, TornBinarySnapshotDegradesToUnavailable) {
  // A binary snapshot truncated mid-write (or caught mid-atomic-replace) must
  // come back as a structured `unavailable` reload error — the checksummed
  // parse rejects it long before any pointer-cast view could read torn bytes
  // — and the previous snapshot must keep serving. Restoring the full file
  // then reloads cleanly.
  FaultGuard guard;
  std::string db_text = WriteTempGraph("chaos_torn.txt", "a r b\nb r c\n");
  std::string db_bin =
      WriteTempColumnarGraph("chaos_torn.rpqicol", "a r b\nb r c\n");
  std::string full_bytes;
  {
    std::ifstream in(db_bin, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    full_bytes = buffer.str();
  }

  ServerOptions options;
  options.initial_db_path = db_text;
  options.reload_retry.attempts = 1;  // no in-loop retry: surface the tear
  Server server(options);
  ASSERT_TRUE(server.Init().ok());

  // Truncation lengths that retain the full magic (the loader only takes the
  // columnar path once all 8 magic bytes are present; shorter prefixes fall
  // to the text parser and get a plain invalid_request). All must be
  // structured `unavailable` failures with the old snapshot still answering.
  for (size_t keep : {size_t{8}, size_t{100}, size_t{199},
                      full_bytes.size() / 2, full_bytes.size() - 1}) {
    std::ofstream out(db_bin, std::ios::binary | std::ios::trunc);
    out << full_bytes.substr(0, keep);
    out.close();
    std::string reload = server.HandleLine(
        "{\"id\":1,\"op\":\"admin\",\"action\":\"reload\",\"db\":\"" + db_bin +
        "\"}");
    EXPECT_NE(reload.find("\"status\":\"error\""), std::string::npos)
        << "keep=" << keep << ": " << reload;
    EXPECT_NE(reload.find("\"code\":\"unavailable\""), std::string::npos)
        << "keep=" << keep << ": " << reload;
    std::string eval =
        server.HandleLine("{\"id\":2,\"op\":\"eval\",\"query\":\"r\"}");
    EXPECT_NE(eval.find("\"status\":\"ok\""), std::string::npos) << eval;
  }

  // A prefix shorter than the magic is sniffed as text; the binary header
  // bytes fail the text parse as a structured invalid_request — never UB.
  {
    std::ofstream out(db_bin, std::ios::binary | std::ios::trunc);
    out << full_bytes.substr(0, 7);
    out.close();
    std::string reload = server.HandleLine(
        "{\"id\":5,\"op\":\"admin\",\"action\":\"reload\",\"db\":\"" + db_bin +
        "\"}");
    EXPECT_NE(reload.find("\"status\":\"error\""), std::string::npos) << reload;
    EXPECT_NE(reload.find("\"code\":\"invalid_request\""), std::string::npos)
        << reload;
  }

  // Bit flips in an intact-length file: checksum rejection, same contract.
  for (size_t at : {size_t{24}, size_t{208}, full_bytes.size() - 3}) {
    std::string corrupt = full_bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x40);
    std::ofstream out(db_bin, std::ios::binary | std::ios::trunc);
    out << corrupt;
    out.close();
    std::string reload = server.HandleLine(
        "{\"id\":3,\"op\":\"admin\",\"action\":\"reload\",\"db\":\"" + db_bin +
        "\"}");
    EXPECT_NE(reload.find("\"status\":\"error\""), std::string::npos)
        << "flip at " << at << ": " << reload;
  }

  // The complete file reloads fine afterwards.
  {
    std::ofstream out(db_bin, std::ios::binary | std::ios::trunc);
    out << full_bytes;
  }
  std::string reload = server.HandleLine(
      "{\"id\":4,\"op\":\"admin\",\"action\":\"reload\",\"db\":\"" + db_bin +
      "\"}");
  EXPECT_NE(reload.find("\"status\":\"ok\""), std::string::npos) << reload;
}

TEST(ChaosTest, EveryRequestStallsStillDrainCleanly) {
  FaultGuard guard;
  std::string db = WriteTempGraph("chaos_stall.txt", "a r b\n");
  ASSERT_TRUE(
      fault::Configure("worker_pool.task_start=every:1;ms=2").ok());
  ServerOptions options;
  options.threads = 2;
  options.initial_db_path = db;
  Server server(options);
  ASSERT_TRUE(server.Init().ok());
  std::string input;
  for (int id = 0; id < 50; ++id) {
    input += "{\"id\":" + std::to_string(id) +
             ",\"op\":\"eval\",\"query\":\"a\"}\n";
  }
  std::istringstream in(input);
  std::ostringstream out;
  ASSERT_TRUE(ServeStream(server, in, out).ok());
  std::istringstream responses(out.str());
  std::string line;
  int count = 0;
  while (std::getline(responses, line)) ++count;
  EXPECT_EQ(count, 50);
  EXPECT_EQ(fault::FireCount("worker_pool.task_start"), 50);
}

/// Sends `bytes` fully over a blocking socket.
void SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
    sent += static_cast<size_t>(n);
  }
}

/// Reads whole lines from `fd` until `want` lines arrive or `timeout_ms`
/// passes; appends to `*lines`.
void ReadLines(int fd, size_t want, std::vector<std::string>* lines,
               int timeout_ms) {
  net::LineFramer framer(size_t{1} << 20);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (lines->size() < want &&
         std::chrono::steady_clock::now() < deadline) {
    std::vector<PollEvent> events(1);
    events[0].fd = fd;
    events[0].want_read = true;
    StatusOr<int> ready = PollSockets(&events, 100);
    if (!ready.ok() || !events[0].readable) continue;
    char buf[8192];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return;  // peer closed
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return;
    }
    framer.Feed(buf, static_cast<size_t>(n), lines);
  }
}

// The transport-layer soak: real loopback sockets with the net.* fault sites
// armed. net.read fired skips a read round (level-triggered poll re-reports
// the data), net.write fired truncates a flush to one byte (forced short
// write) — both are delays, never corruption, so the invariant is exact:
// every request line sent gets exactly one well-formed response line.
TEST(ChaosTest, TcpSoakUnderReadWriteFaults) {
  FaultGuard guard;
  int64_t seed = EnvInt("RPQI_CHAOS_SEED", 1);
  std::string db = WriteTempGraph("chaos_tcp.txt", "a r b\nb r c\nc s a\n");
  ServerOptions options;
  options.threads = 2;
  options.initial_db_path = db;
  Server server(options);
  ASSERT_TRUE(server.Init().ok());
  net::TcpTransport transport(&server, {});
  ASSERT_TRUE(transport.Listen().ok());
  std::thread serve_thread([&transport] {
    Status served = transport.Serve();
    EXPECT_TRUE(served.ok()) << served.ToString();
  });

  std::string spec = "net.read=prob:0.3:" + std::to_string(seed) +
                     ",net.write=prob:0.5:" + std::to_string(seed);
  ASSERT_TRUE(fault::Configure(spec).ok());

  constexpr int kClients = 2;
  constexpr int kRequestsPerClient = 150;
  std::vector<std::thread> clients;
  std::atomic<int> well_formed{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      StatusOr<UniqueFd> fd = ConnectTcp("127.0.0.1", transport.port());
      ASSERT_TRUE(fd.ok()) << fd.status().ToString();
      uint64_t rng = static_cast<uint64_t>(seed + c) * 0x9e3779b97f4a7c15ULL;
      for (int id = 0; id < kRequestsPerClient; ++id) {
        std::string line;
        uint64_t draw = NextRandom(&rng) % 10;
        std::string idstr = std::to_string(c * kRequestsPerClient + id);
        if (draw < 7) {
          line = "{\"id\":" + idstr + ",\"op\":\"eval\",\"query\":\"a b\"}";
        } else if (draw < 9) {
          line = "{\"id\":" + idstr + ",\"op\":\"admin\","
                 "\"action\":\"stats\"}";
        } else {
          line = "{\"id\":" + idstr + ",\"op\":\"eval\",";  // malformed
        }
        SendAll(fd->get(), line + "\n");
      }
      std::vector<std::string> lines;
      ReadLines(fd->get(), kRequestsPerClient, &lines, 30000);
      EXPECT_EQ(lines.size(), size_t{kRequestsPerClient})
          << "client " << c << " lost responses under net faults";
      for (const std::string& line : lines) {
        StatusOr<Json> parsed = ParseJson(line);
        ASSERT_TRUE(parsed.ok()) << "torn response: " << line;
        const Json* status = parsed->Find("status");
        ASSERT_NE(status, nullptr) << line;
        well_formed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(well_formed.load(std::memory_order_relaxed),
            kClients * kRequestsPerClient);
  // The armed sites actually saw traffic and fired.
  EXPECT_GT(fault::HitCount("net.read"), 0);
  EXPECT_GT(fault::HitCount("net.write"), 0);
  EXPECT_GT(fault::FireCount("net.read") + fault::FireCount("net.write"), 0);

  // Recovery: disarmed, a fresh connection round-trips immediately.
  fault::DisarmAll();
  StatusOr<UniqueFd> fd = ConnectTcp("127.0.0.1", transport.port());
  ASSERT_TRUE(fd.ok());
  SendAll(fd->get(), "{\"id\":\"x\",\"op\":\"eval\",\"query\":\"a\"}\n");
  std::vector<std::string> lines;
  ReadLines(fd->get(), 1, &lines, 5000);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos) << lines[0];

  transport.RequestShutdown();
  serve_thread.join();
}

// net.accept fired drops the freshly accepted socket: the client sees an
// immediate EOF, never a half-served connection, and the listener keeps
// accepting afterwards.
TEST(ChaosTest, TcpAcceptFaultDropsOneConnectionCleanly) {
  FaultGuard guard;
  std::string db = WriteTempGraph("chaos_tcp_accept.txt", "a r b\n");
  ServerOptions options;
  options.initial_db_path = db;
  Server server(options);
  ASSERT_TRUE(server.Init().ok());
  net::TcpTransport transport(&server, {});
  ASSERT_TRUE(transport.Listen().ok());
  std::thread serve_thread([&transport] {
    Status served = transport.Serve();
    EXPECT_TRUE(served.ok()) << served.ToString();
  });

  ASSERT_TRUE(fault::Configure("net.accept=once").ok());
  {
    StatusOr<UniqueFd> dropped = ConnectTcp("127.0.0.1", transport.port());
    ASSERT_TRUE(dropped.ok());
    SendAll(dropped->get(), "{\"id\":1,\"op\":\"eval\",\"query\":\"a\"}\n");
    std::vector<std::string> lines;
    ReadLines(dropped->get(), 1, &lines, 3000);
    EXPECT_TRUE(lines.empty()) << "dropped connection still answered";
  }
  EXPECT_EQ(fault::FireCount("net.accept"), 1);

  // The one-shot is spent: the next connection is served normally.
  StatusOr<UniqueFd> fd = ConnectTcp("127.0.0.1", transport.port());
  ASSERT_TRUE(fd.ok());
  SendAll(fd->get(), "{\"id\":2,\"op\":\"eval\",\"query\":\"a\"}\n");
  std::vector<std::string> lines;
  ReadLines(fd->get(), 1, &lines, 5000);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos) << lines[0];

  transport.RequestShutdown();
  serve_thread.join();
}

TEST(ChaosTest, BreakerSnapshotRacesRecordersWithoutTearing) {
  // Pins the off-lock stats read: Snapshot() used to copy `entries_` without
  // holding the breaker mutex, racing concurrent ShouldReject/Record* writers
  // — a std::map data race (UB; TSan flags it, and a rebalancing insert can
  // derail an unlocked tree walk entirely). The CI chaos job runs this test
  // under TSan; here the assertions are on snapshot integrity: every entry
  // well-formed, counters non-negative, no crash.
  std::atomic<int64_t> fake_ms{0};
  service::CircuitBreaker::Options options;
  options.failure_threshold = 3;
  options.cooldown_ms = 2;
  options.now_ms = [&fake_ms] {
    return fake_ms.load(std::memory_order_relaxed);
  };
  service::CircuitBreaker breaker(options);

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 4000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&breaker, &fake_ms, t] {
      const std::string key = "op_" + std::to_string(t % 2);
      uint64_t rng = static_cast<uint64_t>(t) * 0x9e3779b97f4a7c15ULL + 7;
      for (int i = 0; i < kOpsPerWriter; ++i) {
        if (breaker.ShouldReject(key)) {
          fake_ms.fetch_add(1, std::memory_order_relaxed);  // advance cooldown
          continue;
        }
        if (NextRandom(&rng) % 3 == 0) {
          breaker.RecordInternalError(key);
        } else {
          breaker.RecordSuccess(key);
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&breaker, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<service::CircuitBreaker::KeyState> snapshot =
            breaker.Snapshot();
        EXPECT_LE(snapshot.size(), 2u);
        for (const service::CircuitBreaker::KeyState& key_state : snapshot) {
          EXPECT_TRUE(key_state.state == "closed" ||
                      key_state.state == "open" ||
                      key_state.state == "half_open")
              << key_state.state;
          EXPECT_GE(key_state.consecutive_failures, 0);
          EXPECT_GE(key_state.trips, 0);
          EXPECT_GE(key_state.rejected, 0);
        }
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[t].join();
  stop.store(true, std::memory_order_relaxed);
  threads[kWriters].join();
  threads[kWriters + 1].join();

  // Errors were injected well past the threshold, so both keys tripped at
  // least once and the trips survived into the final snapshot.
  int64_t total_trips = 0;
  for (const service::CircuitBreaker::KeyState& key_state :
       breaker.Snapshot()) {
    total_trips += key_state.trips;
  }
  EXPECT_GT(total_trips, 0);
}

}  // namespace
}  // namespace service
}  // namespace rpqi
