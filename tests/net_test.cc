// Tests for src/net: the incremental line framer, the TCP transport end to
// end over real loopback sockets (framing under chunked sends, connection
// shedding, oversized-line rejection, cross-connection shutdown drain), the
// batch execution path's snapshot-pin/plan-lookup amortization, and
// multi-tenant namespace routing, views, and quotas.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/socket.h"
#include "net/framing.h"
#include "net/loadgen.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"
#include "service/json.h"
#include "service/server.h"

namespace rpqi {
namespace net {
namespace {

using service::Json;
using service::ParseJson;

// ---------------------------------------------------------------------------
// framing.h

TEST(LineFramerTest, SplitsCompleteLines) {
  LineFramer framer(1024);
  std::vector<std::string> lines;
  const char* data = "one\ntwo\nthree";
  EXPECT_EQ(framer.Feed(data, std::strlen(data), &lines), 0);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[1], "two");
  EXPECT_TRUE(framer.has_partial());
  EXPECT_EQ(framer.pending_bytes(), 5u);
  EXPECT_EQ(framer.Feed("!\n", 2, &lines), 0);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[2], "three!");
  EXPECT_FALSE(framer.has_partial());
}

TEST(LineFramerTest, ReassemblesByteAtATime) {
  LineFramer framer(1024);
  std::vector<std::string> lines;
  const std::string input = "{\"id\":1}\n";
  for (char c : input) framer.Feed(&c, 1, &lines);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "{\"id\":1}");
}

TEST(LineFramerTest, StripsTrailingCarriageReturn) {
  LineFramer framer(1024);
  std::vector<std::string> lines;
  const char* data = "hello\r\n";
  framer.Feed(data, std::strlen(data), &lines);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "hello");
}

TEST(LineFramerTest, OversizedLineIsDiscardedAndFramingRecovers) {
  LineFramer framer(8);
  std::vector<std::string> lines;
  const char* data = "0123456789abcdef\nok\n";
  EXPECT_EQ(framer.Feed(data, std::strlen(data), &lines), 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "ok");
}

TEST(LineFramerTest, OversizedLineSpanningManyFeedsCountsOnce) {
  LineFramer framer(8);
  std::vector<std::string> lines;
  int oversized = 0;
  for (int i = 0; i < 10; ++i) oversized += framer.Feed("xxxxx", 5, &lines);
  EXPECT_EQ(oversized, 1);  // rejected when first crossing the limit
  oversized += framer.Feed("tail\nok\n", 8, &lines);
  EXPECT_EQ(oversized, 1);  // the discard consumed the rest silently
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "ok");
  EXPECT_EQ(framer.Feed("yyyyyyyyyyyy", 12, &lines), 1);  // next line counts
}

TEST(LineFramerTest, TakePartialReturnsUnterminatedTail) {
  LineFramer framer(1024);
  std::vector<std::string> lines;
  framer.Feed("no newline", 10, &lines);
  EXPECT_TRUE(lines.empty());
  ASSERT_TRUE(framer.has_partial());
  EXPECT_EQ(framer.TakePartial(), "no newline");
  EXPECT_FALSE(framer.has_partial());
}

// ---------------------------------------------------------------------------
// Batch execution (no sockets): amortization and quota accounting.

std::string WriteTempFile(const std::string& name, const std::string& text) {
  std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

service::ServerOptions BaseOptions(const std::string& db_path) {
  service::ServerOptions options;
  options.threads = 2;
  options.initial_db_path = db_path;
  return options;
}

Json MustParse(const std::string& text) {
  StatusOr<Json> parsed = ParseJson(text);
  return std::move(parsed).value();
}

std::string StatusOf(const std::string& response) {
  Json parsed = MustParse(response);
  const Json* status = parsed.Find("status");
  return status != nullptr && status->is_string() ? status->string_value()
                                                  : "<none>";
}

int64_t AnswerCountOf(const std::string& response) {
  Json parsed = MustParse(response);
  const Json* answers = parsed.Find("answers");
  if (answers == nullptr || !answers->is_array()) return -1;
  return static_cast<int64_t>(answers->array().size());
}

std::string ErrorCodeOf(const std::string& response) {
  Json parsed = MustParse(response);
  const Json* code = parsed.Find("code");
  return code != nullptr && code->is_string() ? code->string_value()
                                              : "<none>";
}

TEST(BatchTest, SharesSnapshotPinsAndPlanLookups) {
  std::string db = WriteTempFile("net_batch_graph.txt", "a r b\nb r c\n");
  service::Server server(BaseOptions(db));
  ASSERT_TRUE(server.Init().ok());
  std::vector<std::string> lines = {
      R"({"id":1,"op":"eval","query":"r"})",
      R"({"id":2,"op":"eval","query":"r"})",
      R"({"id":3,"op":"eval","query":"r r"})",
  };
  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  auto batch = server.ParseBatch(lines);
  EXPECT_FALSE(service::Server::RequestsShutdown(*batch));
  std::vector<std::string> responses = server.ExecuteBatch(batch.get());
  ASSERT_EQ(responses.size(), 3u);
  for (const std::string& response : responses) {
    EXPECT_EQ(StatusOf(response), "ok") << response;
  }
  obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  // Three requests against one store: the snapshot is pinned once, the two
  // later requests reuse the batch's pin.
  EXPECT_EQ(delta.CounterValue("service.batch.snapshot_pins_saved"), 2);
  EXPECT_EQ(delta.CounterValue("service.batches"), 1);
  // Request 2 finds request 1's plan in the plan cache.
  Json second = MustParse(responses[1]);
  const Json* cache = second.Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->string_value(), "hit");
}

TEST(BatchTest, BatchResponsesMatchHandleLine) {
  std::string db = WriteTempFile("net_batch_diff_graph.txt", "a r b\n");
  service::Server server(BaseOptions(db));
  ASSERT_TRUE(server.Init().ok());
  std::vector<std::string> lines = {
      R"({"id":1,"op":"eval","query":"r"})",
      R"({"id":2,"op":"eval","query":"r^-"})",
      R"({"id":3,"op":"bogus"})",
      "not json",
  };
  // Warm the plan cache so the singleton path also reports cache hits; the
  // batch path then must be field-for-field identical (modulo timing).
  service::Server reference(BaseOptions(db));
  ASSERT_TRUE(reference.Init().ok());
  std::vector<std::string> expected;
  for (const std::string& line : lines) {
    reference.HandleLine(line);  // warm
  }
  for (const std::string& line : lines) {
    expected.push_back(reference.HandleLine(line));
  }
  auto warm = server.ParseBatch(lines);
  server.ExecuteBatch(warm.get());
  auto batch = server.ParseBatch(lines);
  std::vector<std::string> responses = server.ExecuteBatch(batch.get());
  ASSERT_EQ(responses.size(), expected.size());
  // Timing and counters legitimately differ (the batch path reports its own
  // amortization counters); everything else must match field for field.
  auto strip_varying = [](const std::string& response) {
    Json parsed = MustParse(response);
    service::JsonObject kept;
    for (const auto& [key, value] : parsed.object()) {
      if (key != "us" && key != "counters") kept.emplace_back(key, value);
    }
    return Json::Obj(kept).Dump();
  };
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(strip_varying(responses[i]), strip_varying(expected[i]))
        << "line " << i;
  }
}

TEST(BatchTest, RejectBatchAnswersEveryEntry) {
  std::string db = WriteTempFile("net_reject_graph.txt", "a r b\n");
  service::Server server(BaseOptions(db));
  ASSERT_TRUE(server.Init().ok());
  std::vector<std::string> lines = {
      R"({"id":7,"op":"eval","query":"r"})",
      "not json",
  };
  auto batch = server.ParseBatch(lines);
  std::vector<std::string> responses =
      server.RejectBatch(batch.get(), "overloaded", "queue full");
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(ErrorCodeOf(responses[0]), "overloaded");
  Json first = MustParse(responses[0]);
  ASSERT_NE(first.Find("id"), nullptr);
  EXPECT_EQ(first.Find("id")->int_value(), 7);
  // The unparseable line keeps its invalid_request response, not overloaded.
  EXPECT_EQ(ErrorCodeOf(responses[1]), "invalid_request");
}

// ---------------------------------------------------------------------------
// Namespaces: routing, per-namespace views, quotas, scoped admin.

TEST(NamespaceTest, RequestsRouteToTheirNamespaceSnapshot) {
  std::string default_db = WriteTempFile("net_ns_default.txt", "a r b\n");
  std::string tenant_db =
      WriteTempFile("net_ns_tenant.txt", "a r b\nb r c\nc r d\n");
  service::ServerOptions options = BaseOptions(default_db);
  service::NamespaceOptions ns;
  ns.name = "tenant";
  ns.db_path = tenant_db;
  options.namespaces.push_back(ns);
  service::Server server(options);
  ASSERT_TRUE(server.Init().ok());

  std::string plain = server.HandleLine(R"({"id":1,"op":"eval","query":"r"})");
  std::string scoped =
      server.HandleLine(R"({"id":2,"op":"eval","query":"r","ns":"tenant"})");
  EXPECT_EQ(StatusOf(plain), "ok");
  EXPECT_EQ(StatusOf(scoped), "ok");
  EXPECT_EQ(AnswerCountOf(plain), 1);
  EXPECT_EQ(AnswerCountOf(scoped), 3);

  std::string unknown =
      server.HandleLine(R"({"id":3,"op":"eval","query":"r","ns":"nope"})");
  EXPECT_EQ(ErrorCodeOf(unknown), "invalid_request");
}

TEST(NamespaceTest, ViewsFileSuppliesRewriteDefaults) {
  std::string db = WriteTempFile("net_ns_views_db.txt", "a r b\nb s c\n");
  std::string views = WriteTempFile("net_ns_views.txt",
                                    "# tenant views\nvr=r\nvs=s\n");
  service::ServerOptions options = BaseOptions(db);
  service::NamespaceOptions ns;
  ns.name = "tenant";
  ns.db_path = db;
  ns.views_path = views;
  options.namespaces.push_back(ns);
  service::Server server(options);
  ASSERT_TRUE(server.Init().ok());

  std::string scoped = server.HandleLine(
      R"({"id":1,"op":"rewrite","query":"r s","ns":"tenant"})");
  EXPECT_EQ(StatusOf(scoped), "ok") << scoped;
  // Without the namespace there are no default views: invalid_request.
  std::string plain =
      server.HandleLine(R"({"id":2,"op":"rewrite","query":"r s"})");
  EXPECT_EQ(ErrorCodeOf(plain), "invalid_request");
  // An explicit views field overrides the namespace defaults.
  std::string override_views = server.HandleLine(
      R"({"id":3,"op":"rewrite","query":"r","views":{"w":"r"},"ns":"tenant"})");
  EXPECT_EQ(StatusOf(override_views), "ok") << override_views;
}

TEST(NamespaceTest, QuotaRejectsTheExcessRequestInOneBatch) {
  std::string db = WriteTempFile("net_ns_quota_db.txt", "a r b\n");
  service::ServerOptions options = BaseOptions(db);
  service::NamespaceOptions ns;
  ns.name = "t";
  ns.db_path = db;
  ns.max_inflight = 2;
  options.namespaces.push_back(ns);
  service::Server server(options);
  ASSERT_TRUE(server.Init().ok());

  // All three admitted at once (tickets are held for the whole batch), so the
  // third exceeds max_inflight=2 deterministically.
  std::vector<std::string> lines = {
      R"({"id":1,"op":"eval","query":"r","ns":"t"})",
      R"({"id":2,"op":"eval","query":"r","ns":"t"})",
      R"({"id":3,"op":"eval","query":"r","ns":"t"})",
  };
  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  auto batch = server.ParseBatch(lines);
  std::vector<std::string> responses = server.ExecuteBatch(batch.get());
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(StatusOf(responses[0]), "ok");
  EXPECT_EQ(StatusOf(responses[1]), "ok");
  EXPECT_EQ(ErrorCodeOf(responses[2]), "overloaded");
  obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("service.rejected.ns_quota"), 1);

  // Tickets released with the batch: the same burst admits 2 again.
  auto again = server.ParseBatch(lines);
  std::vector<std::string> retry = server.ExecuteBatch(again.get());
  EXPECT_EQ(StatusOf(retry[0]), "ok");
  EXPECT_EQ(ErrorCodeOf(retry[2]), "overloaded");
}

TEST(NamespaceTest, AdminReloadAndStatsAreScoped) {
  std::string default_db = WriteTempFile("net_ns_admin_default.txt", "a r b\n");
  std::string tenant_db = WriteTempFile("net_ns_admin_tenant.txt", "a r b\n");
  service::ServerOptions options = BaseOptions(default_db);
  service::NamespaceOptions ns;
  ns.name = "t";
  ns.db_path = tenant_db;
  ns.max_inflight = 4;
  options.namespaces.push_back(ns);
  service::Server server(options);
  ASSERT_TRUE(server.Init().ok());

  // Namespaced reload without "db" re-reads the configured path and bumps
  // only the tenant's snapshot version.
  {
    std::ofstream grow(tenant_db, std::ios::app);
    grow << "b r c\n";
  }
  std::string reloaded = server.HandleLine(
      R"({"id":1,"op":"admin","action":"reload","ns":"t"})");
  EXPECT_EQ(StatusOf(reloaded), "ok") << reloaded;
  Json reload_json = MustParse(reloaded);
  ASSERT_NE(reload_json.Find("ns"), nullptr);
  EXPECT_EQ(reload_json.Find("ns")->string_value(), "t");
  EXPECT_EQ(reload_json.Find("edges")->int_value(), 2);

  std::string scoped_count =
      server.HandleLine(R"({"id":2,"op":"eval","query":"r","ns":"t"})");
  EXPECT_EQ(AnswerCountOf(scoped_count), 2);
  std::string default_count =
      server.HandleLine(R"({"id":3,"op":"eval","query":"r"})");
  EXPECT_EQ(AnswerCountOf(default_count), 1);

  // Scoped stats carry the namespace block; global stats enumerate tenants.
  Json scoped_stats = MustParse(server.HandleLine(
      R"({"id":4,"op":"admin","action":"stats","ns":"t"})"));
  const Json* ns_block = scoped_stats.Find("namespace");
  ASSERT_NE(ns_block, nullptr);
  EXPECT_EQ(ns_block->Find("max_inflight")->int_value(), 4);
  Json global_stats = MustParse(
      server.HandleLine(R"({"id":5,"op":"admin","action":"stats"})"));
  const Json* all = global_stats.Find("namespaces");
  ASSERT_NE(all, nullptr);
  ASSERT_EQ(all->array().size(), 1u);
  EXPECT_EQ(all->array()[0].Find("name")->string_value(), "t");
}

TEST(NamespaceTest, InitRejectsDuplicatesAndMissingGraphs) {
  std::string db = WriteTempFile("net_ns_dup_db.txt", "a r b\n");
  service::ServerOptions options = BaseOptions(db);
  service::NamespaceOptions ns;
  ns.name = "t";
  ns.db_path = db;
  options.namespaces.push_back(ns);
  options.namespaces.push_back(ns);
  service::Server duplicate(options);
  EXPECT_FALSE(duplicate.Init().ok());

  options.namespaces.pop_back();
  options.namespaces[0].db_path = testing::TempDir() + "net_ns_missing.txt";
  service::Server missing(options);
  EXPECT_FALSE(missing.Init().ok());
}

// ---------------------------------------------------------------------------
// TCP transport end to end.

/// Blocking line-oriented test client over a connected socket.
class TestClient {
 public:
  static TestClient Connect(int port) {
    StatusOr<UniqueFd> fd = ConnectTcp("127.0.0.1", port);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    return TestClient(fd.ok() ? std::move(fd).value() : UniqueFd());
  }

  bool ok() const { return fd_.valid(); }
  int raw_fd() const { return fd_.get(); }

  void Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd_.get(), bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      sent += static_cast<size_t>(n);
    }
  }

  void SendLine(const std::string& line) { Send(line + "\n"); }

  /// Reads until one full line is available; "" on EOF/timeout.
  std::string ReadLine(int timeout_ms = 5000) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (lines_.empty()) {
      if (std::chrono::steady_clock::now() >= deadline) return "";
      std::vector<PollEvent> events(1);
      events[0].fd = fd_.get();
      events[0].want_read = true;
      StatusOr<int> ready = PollSockets(&events, 100);
      if (!ready.ok() || !events[0].readable) continue;
      char buf[4096];
      ssize_t n = ::recv(fd_.get(), buf, sizeof(buf), 0);
      if (n == 0) return "";  // peer closed
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;
        }
        return "";
      }
      framer_.Feed(buf, static_cast<size_t>(n), &lines_);
    }
    std::string line = std::move(lines_.front());
    lines_.erase(lines_.begin());
    return line;
  }

  void Close() { fd_.reset(); }

 private:
  explicit TestClient(UniqueFd fd) : fd_(std::move(fd)) {}
  UniqueFd fd_;
  LineFramer framer_{size_t{1} << 20};
  std::vector<std::string> lines_;
};

/// A transport + server running on a background thread for one test.
class TestServer {
 public:
  explicit TestServer(const service::ServerOptions& server_options,
                      TcpTransportOptions transport_options = {})
      : server_(server_options) {
    Status init = server_.Init();
    EXPECT_TRUE(init.ok()) << init.ToString();
    transport_options.port = 0;
    transport_ = std::make_unique<TcpTransport>(&server_, transport_options);
    Status listening = transport_->Listen();
    EXPECT_TRUE(listening.ok()) << listening.ToString();
    thread_ = std::thread([this] { serve_status_ = transport_->Serve(); });
  }

  ~TestServer() { Stop(); }

  int port() const { return transport_->port(); }

  void Stop() {
    if (thread_.joinable()) {
      transport_->RequestShutdown();
      thread_.join();
      EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
    }
  }

  /// Waits for Serve() to return on its own (shutdown via the protocol).
  void Join() {
    if (thread_.joinable()) {
      thread_.join();
      EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
    }
  }

 private:
  service::Server server_;
  std::unique_ptr<TcpTransport> transport_;
  std::thread thread_;
  Status serve_status_ = Status::Ok();
};

TEST(TcpTransportTest, ServesEvalOverLoopback) {
  std::string db = WriteTempFile("net_tcp_basic.txt", "a r b\nb r c\n");
  TestServer server(BaseOptions(db));
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  client.SendLine(R"({"id":1,"op":"eval","query":"r"})");
  std::string response = client.ReadLine();
  ASSERT_FALSE(response.empty());
  EXPECT_EQ(StatusOf(response), "ok") << response;
  EXPECT_EQ(MustParse(response).Find("id")->int_value(), 1);
  EXPECT_EQ(AnswerCountOf(response), 2);
  client.SendLine(R"({"id":2,"op":"eval","query":"r r"})");
  std::string second = client.ReadLine();
  EXPECT_EQ(MustParse(second).Find("id")->int_value(), 2);
}

// Two reads from one connection become two batches that may run on both
// workers at once. The first sleeps, so the second finishes first; its
// response must still come second.
TEST(TcpTransportTest, ResponsesKeepRequestOrderAcrossBatches) {
  std::string db = WriteTempFile("net_tcp_order.txt", "a r b\nb r c\n");
  TestServer server(BaseOptions(db));
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  client.SendLine(R"({"id":1,"op":"admin","action":"sleep","ms":300})");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  client.SendLine(R"({"id":2,"op":"eval","query":"r r"})");
  std::string first = client.ReadLine();
  std::string second = client.ReadLine();
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(MustParse(first).Find("id")->int_value(), 1) << first;
  EXPECT_EQ(MustParse(second).Find("id")->int_value(), 2) << second;
}

TEST(TcpTransportTest, ChunkedAndCoalescedSendsAreFramed) {
  std::string db = WriteTempFile("net_tcp_chunk.txt", "a r b\n");
  TestServer server(BaseOptions(db));
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  // A slow writer: the request arrives in 4 fragments.
  const std::string request = R"({"id":11,"op":"eval","query":"r"})" "\n";
  for (size_t i = 0; i < request.size(); i += 7) {
    client.Send(request.substr(i, 7));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::string response = client.ReadLine();
  EXPECT_EQ(StatusOf(response), "ok") << response;
  EXPECT_EQ(MustParse(response).Find("id")->int_value(), 11);
  // Two requests coalesced in one send still yield two responses (a batch).
  client.Send(
      "{\"id\":12,\"op\":\"eval\",\"query\":\"r\"}\n"
      "{\"id\":13,\"op\":\"eval\",\"query\":\"r\"}\n");
  std::string first = client.ReadLine();
  std::string second = client.ReadLine();
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  int64_t a = MustParse(first).Find("id")->int_value();
  int64_t b = MustParse(second).Find("id")->int_value();
  EXPECT_EQ(a + b, 25);
  EXPECT_NE(a, b);
}

TEST(TcpTransportTest, OversizedLineIsRejectedButConnectionSurvives) {
  std::string db = WriteTempFile("net_tcp_oversize.txt", "a r b\n");
  TcpTransportOptions transport_options;
  transport_options.max_line_bytes = 128;
  TestServer server(BaseOptions(db), transport_options);
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  client.Send(std::string(300, 'x') + "\n");
  std::string rejection = client.ReadLine();
  EXPECT_EQ(ErrorCodeOf(rejection), "invalid_request") << rejection;
  // Framing recovered: the next request on the same connection is served.
  client.SendLine(R"({"id":1,"op":"eval","query":"r"})");
  std::string response = client.ReadLine();
  EXPECT_EQ(StatusOf(response), "ok") << response;
}

TEST(TcpTransportTest, ConnectionLimitShedsWithStructuredError) {
  std::string db = WriteTempFile("net_tcp_shed.txt", "a r b\n");
  TcpTransportOptions transport_options;
  transport_options.max_connections = 1;
  TestServer server(BaseOptions(db), transport_options);
  TestClient first = TestClient::Connect(server.port());
  ASSERT_TRUE(first.ok());
  // Prove the first connection is established server-side before the second
  // connects (accept order is connection order on loopback).
  first.SendLine(R"({"id":1,"op":"eval","query":"r"})");
  ASSERT_EQ(StatusOf(first.ReadLine()), "ok");
  TestClient second = TestClient::Connect(server.port());
  ASSERT_TRUE(second.ok());
  std::string shed = second.ReadLine();
  EXPECT_EQ(ErrorCodeOf(shed), "overloaded") << shed;
  EXPECT_EQ(second.ReadLine(1000), "");  // then the socket closes
  // The first connection is unaffected.
  first.SendLine(R"({"id":2,"op":"eval","query":"r"})");
  EXPECT_EQ(StatusOf(first.ReadLine()), "ok");
}

TEST(TcpTransportTest, NamespaceRequestsWorkOverTcp) {
  std::string default_db = WriteTempFile("net_tcp_ns_default.txt", "a r b\n");
  std::string tenant_db =
      WriteTempFile("net_tcp_ns_tenant.txt", "a r b\nb r c\n");
  service::ServerOptions options = BaseOptions(default_db);
  service::NamespaceOptions ns;
  ns.name = "t";
  ns.db_path = tenant_db;
  options.namespaces.push_back(ns);
  TestServer server(options);
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  client.SendLine(R"({"id":1,"op":"eval","query":"r","ns":"t"})");
  std::string scoped = client.ReadLine();
  EXPECT_EQ(AnswerCountOf(scoped), 2) << scoped;
}

// Regression pin: an `admin shutdown` arriving on one connection must not
// truncate another connection's in-flight work — every admitted request on
// every connection is answered and flushed before Serve() returns.
TEST(TcpTransportTest, ShutdownOnOneConnectionDrainsTheOthers) {
  std::string db = WriteTempFile("net_tcp_drain.txt", "a r b\n");
  service::ServerOptions options = BaseOptions(db);
  options.threads = 2;
  TestServer server(options);
  TestClient worker = TestClient::Connect(server.port());
  TestClient admin = TestClient::Connect(server.port());
  ASSERT_TRUE(worker.ok());
  ASSERT_TRUE(admin.ok());
  // A slow request occupies connection A...
  worker.SendLine(R"({"id":"slow","op":"admin","action":"sleep","ms":400})");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // ...while connection B asks the server to shut down.
  admin.SendLine(R"({"id":"bye","op":"admin","action":"shutdown"})");
  std::string bye = admin.ReadLine();
  EXPECT_EQ(StatusOf(bye), "ok") << bye;
  // The drain must still deliver the slow request's response on A.
  std::string slow = worker.ReadLine();
  ASSERT_FALSE(slow.empty())
      << "shutdown on another connection truncated an in-flight request";
  EXPECT_EQ(StatusOf(slow), "ok") << slow;
  EXPECT_EQ(MustParse(slow).Find("slept_ms")->int_value(), 400);
  server.Join();  // Serve() returns on its own after the drain
}

// One shutdown rule for every connection: lines behind an `admin shutdown`
// in the same read are not parsed, admitted, executed or answered.
TEST(TcpTransportTest, LinesAfterShutdownInTheSameReadAreNotAnswered) {
  std::string db = WriteTempFile("net_tcp_shutdown_read.txt", "a r b\n");
  TestServer server(BaseOptions(db));
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  client.Send(
      "{\"id\":1,\"op\":\"admin\",\"action\":\"shutdown\"}\n"
      "{\"id\":2,\"op\":\"admin\",\"action\":\"stats\"}\n");
  std::string bye = client.ReadLine();
  EXPECT_EQ(StatusOf(bye), "ok") << bye;
  EXPECT_EQ(MustParse(bye).Find("id")->int_value(), 1);
  EXPECT_EQ(client.ReadLine(2000), "");  // the drain closes the connection
  server.Join();  // Serve() returns on its own
}

// The framer's limit is the only request-size limit: raising it admits a
// request past the old hidden 1 MiB cap.
TEST(TcpTransportTest, RaisedLineLimitAdmitsATwoMebibyteRequest) {
  std::string db = WriteTempFile("net_tcp_big_line.txt", "a r b\n");
  TcpTransportOptions transport_options;
  transport_options.max_line_bytes = size_t{4} << 20;
  TestServer server(BaseOptions(db), transport_options);
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  client.SendLine(R"({"id":1,"op":"eval","query":"r","pad":")" +
                  std::string(size_t{2} << 20, 'x') + "\"}");
  std::string response = client.ReadLine();
  EXPECT_EQ(StatusOf(response), "ok") << response.substr(0, 200);
  EXPECT_EQ(AnswerCountOf(response), 1);
}

TEST(TcpTransportTest, EofMidLineStillExecutesTheFragment) {
  std::string db = WriteTempFile("net_tcp_eof.txt", "a r b\n");
  TestServer server(BaseOptions(db));
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  // No trailing newline, then half-close the write side: the transport
  // mirrors stdio getline semantics and executes the fragment.
  client.Send(R"({"id":1,"op":"eval","query":"r"})");
  ::shutdown(client.raw_fd(), SHUT_WR);
  std::string response = client.ReadLine();
  EXPECT_EQ(StatusOf(response), "ok") << response;
}

// ---------------------------------------------------------------------------
// loadgen (closed loop against a real transport).

TEST(LoadGenTest, ClosedLoopCollectsLatencies) {
  std::string db = WriteTempFile("net_loadgen_db.txt", "");
  ASSERT_TRUE(EmitScenarioDb("modules", 7, db).ok());
  TestServer server(BaseOptions(db));
  LoadGenOptions options;
  options.port = server.port();
  options.qps = 200;
  options.duration_ms = 400;
  options.connections = 2;
  options.scenario = "modules";
  StatusOr<LoadGenReport> report = RunLoadGen(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->sent, 0);
  EXPECT_GT(report->received, 0);
  EXPECT_GT(report->ok, 0);
  EXPECT_EQ(report->unanswered, 0);
  EXPECT_GE(report->p99_us, report->p50_us);
  std::string json = LoadGenReportJson(*report);
  Json parsed = MustParse(json);
  ASSERT_NE(parsed.Find("latency"), nullptr);
  EXPECT_NE(parsed.Find("latency")->Find("p50_us"), nullptr);
  EXPECT_NE(parsed.Find("latency")->Find("p99_us"), nullptr);
}

TEST(LoadGenTest, OpenLoopAndHardScenario) {
  std::string db = WriteTempFile("net_loadgen_hard_db.txt", "a r b\n");
  TestServer server(BaseOptions(db));
  LoadGenOptions options;
  options.port = server.port();
  options.qps = 100;
  options.duration_ms = 300;
  options.connections = 1;
  options.open_loop = true;
  options.scenario = "hard";
  StatusOr<LoadGenReport> report = RunLoadGen(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->received, 0);
  EXPECT_EQ(report->mode, "open");
}

TEST(LoadGenTest, RejectsBadConfiguration) {
  LoadGenOptions options;
  options.port = 0;
  EXPECT_FALSE(RunLoadGen(options).ok());
  options.port = 1;
  options.scenario = "nope";
  EXPECT_FALSE(RunLoadGen(options).ok());
}

}  // namespace
}  // namespace net
}  // namespace rpqi
