// Tests for src/service: the NDJSON protocol values (json.h), the sharded
// plan cache, the snapshot store, admission control, and the Server loop
// itself — including the concurrency stress mixing plan-cache traffic with
// snapshot hot-swaps, and exact counter accounting against the obs registry.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "automata/flat.h"
#include "automata/nfa.h"
#include "base/socket.h"
#include "fault/fault.h"
#include "graphdb/eval.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "regex/parser.h"
#include "rpq/compile.h"
#include "service/admission.h"
#include "service/breaker.h"
#include "service/json.h"
#include "service/plan_cache.h"
#include "service/server.h"
#include "service/snapshot.h"

namespace rpqi {
namespace service {
namespace {

Json MustParse(const std::string& text) {
  StatusOr<Json> parsed = ParseJson(text);
  return std::move(parsed).value();  // aborts with the parse error if not ok
}

// ---------------------------------------------------------------------------
// json.h

TEST(JsonTest, ScalarRoundTrips) {
  EXPECT_EQ(MustParse("null").type(), Json::Type::kNull);
  EXPECT_EQ(MustParse("true").bool_value(), true);
  EXPECT_EQ(MustParse("false").bool_value(), false);
  EXPECT_EQ(MustParse("42").int_value(), 42);
  EXPECT_EQ(MustParse("-7").int_value(), -7);
  EXPECT_TRUE(MustParse("1.5").is_number());
  EXPECT_DOUBLE_EQ(MustParse("1.5").double_value(), 1.5);
  EXPECT_EQ(MustParse("\"hi\"").string_value(), "hi");
}

TEST(JsonTest, IntegersBeyondInt64BecomeDoubles) {
  Json big = MustParse("123456789012345678901234567890");
  EXPECT_EQ(big.type(), Json::Type::kDouble);
  Json exp = MustParse("1e3");
  EXPECT_EQ(exp.type(), Json::Type::kDouble);
  EXPECT_DOUBLE_EQ(exp.double_value(), 1000.0);
}

TEST(JsonTest, StringEscapesRoundTrip) {
  Json parsed = MustParse(R"("a\"b\\c\ndA")");
  EXPECT_EQ(parsed.string_value(), "a\"b\\c\ndA");
  std::string dumped = Json::Str("tab\there\"q").Dump();
  EXPECT_EQ(MustParse(dumped).string_value(), "tab\there\"q");
}

TEST(JsonTest, ObjectsPreserveOrderAndFindFirstWins) {
  Json object = MustParse(R"({"b":1,"a":2,"b":3})");
  ASSERT_TRUE(object.is_object());
  EXPECT_EQ(object.object()[0].first, "b");
  EXPECT_EQ(object.object()[1].first, "a");
  ASSERT_NE(object.Find("b"), nullptr);
  EXPECT_EQ(object.Find("b")->int_value(), 1);
  EXPECT_EQ(object.Find("missing"), nullptr);
  EXPECT_EQ(object.Dump(), R"({"b":1,"a":2,"b":3})");
}

TEST(JsonTest, NestedRoundTrip) {
  const std::string text =
      R"({"op":"eval","args":[1,2.5,"x",null,true],"sub":{"k":[]}})";
  EXPECT_EQ(MustParse(text).Dump(), text);
}

TEST(JsonTest, ErrorsNameTheByteOffset) {
  StatusOr<Json> bad = ParseJson("{\"a\":}");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("byte "), std::string::npos)
      << bad.status().message();
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
}

TEST(JsonTest, TrailingContentIsAnError) {
  EXPECT_FALSE(ParseJson("1 2").ok());
  EXPECT_FALSE(ParseJson("{} {}").ok());
  EXPECT_TRUE(ParseJson("{}  \t").ok());
}

TEST(JsonTest, DepthCapStopsAdversarialNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  StatusOr<Json> parsed = ParseJson(deep);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("nesting"), std::string::npos)
      << parsed.status().message();
}

// ---------------------------------------------------------------------------
// plan_cache.h

std::shared_ptr<CachedPlan> PlanWithAnswers(int n) {
  auto plan = std::make_shared<CachedPlan>();
  plan->eval_answers.emplace();
  for (int i = 0; i < n; ++i) plan->eval_answers->push_back({i, i});
  return plan;
}

TEST(PlanCacheTest, HitAfterPutMissBefore) {
  PlanCache cache(int64_t{1} << 20, 4);
  EXPECT_EQ(cache.Get("k1"), nullptr);
  cache.Put("k1", PlanWithAnswers(3));
  std::shared_ptr<const CachedPlan> plan = cache.Get("k1");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->eval_answers->size(), 3u);
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.entries, 1);
}

TEST(PlanCacheTest, LruEvictsColdestFirst) {
  // Single shard so the LRU order is global; capacity fits ~2 small plans.
  int64_t plan_bytes = PlanWithAnswers(1)->ApproxBytes() + 2;  // + key size
  PlanCache cache(2 * plan_bytes + plan_bytes / 2, 1);
  cache.Put("k1", PlanWithAnswers(1));
  cache.Put("k2", PlanWithAnswers(1));
  ASSERT_NE(cache.Get("k1"), nullptr);  // k1 now most-recent
  cache.Put("k3", PlanWithAnswers(1));  // evicts k2, the coldest
  EXPECT_EQ(cache.Get("k2"), nullptr);
  EXPECT_NE(cache.Get("k1"), nullptr);
  EXPECT_NE(cache.Get("k3"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(PlanCacheTest, ByteAccountingMatchesEntries) {
  PlanCache cache(int64_t{1} << 20, 2);
  int64_t expected = 0;
  for (int i = 0; i < 10; ++i) {
    std::string key = "key" + std::to_string(i);
    auto plan = PlanWithAnswers(i);
    expected += plan->ApproxBytes() + static_cast<int64_t>(key.size());
    cache.Put(key, std::move(plan));
  }
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 10);
  EXPECT_EQ(stats.bytes, expected);
  EXPECT_LE(stats.bytes, cache.capacity_bytes());
}

TEST(PlanCacheTest, ReplaceInPlaceKeepsOneEntry) {
  PlanCache cache(int64_t{1} << 20, 1);
  cache.Put("k", PlanWithAnswers(1));
  cache.Put("k", PlanWithAnswers(5));
  EXPECT_EQ(cache.stats().entries, 1);
  std::shared_ptr<const CachedPlan> plan = cache.Get("k");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->eval_answers->size(), 5u);
  // The displaced plan counts as an eviction: inserts - evictions must
  // always equal the resident entry count, even across replacements.
  EXPECT_EQ(cache.stats().inserts, 2);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(PlanCacheTest, ZeroCapacityDisablesCaching) {
  PlanCache cache(0, 4);
  cache.Put("k", PlanWithAnswers(1));
  EXPECT_EQ(cache.Get("k"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
}

TEST(PlanCacheTest, EvictionNeverFreesAPinnedPlan) {
  int64_t plan_bytes = PlanWithAnswers(1)->ApproxBytes() + 2;
  PlanCache cache(plan_bytes + plan_bytes / 2, 1);
  cache.Put("k1", PlanWithAnswers(1));
  std::shared_ptr<const CachedPlan> pinned = cache.Get("k1");
  cache.Put("k2", PlanWithAnswers(1));  // evicts k1 from the cache
  EXPECT_EQ(cache.Get("k1"), nullptr);
  ASSERT_NE(pinned, nullptr);  // but the pinned reference stays valid
  EXPECT_EQ(pinned->eval_answers->size(), 1u);
}

// ---------------------------------------------------------------------------
// snapshot.h

std::string WriteTempGraph(const std::string& name, const std::string& text) {
  std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(SnapshotTest, LoadValidatesAndFingerprints) {
  std::string path = WriteTempGraph("snap_a.txt", "a r b\nb r c\n");
  auto loaded = LoadGraphSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::shared_ptr<const GraphSnapshot> snapshot = *loaded;
  EXPECT_EQ(snapshot->db.NumNodes(), 3);
  EXPECT_EQ(snapshot->db.NumEdges(), 2);
  EXPECT_EQ(snapshot->source_path, path);
  EXPECT_NE(snapshot->fingerprint, 0u);

  // Same content at a different path → same fingerprint (content hash).
  std::string copy = WriteTempGraph("snap_a_copy.txt", "a r b\nb r c\n");
  auto reloaded = LoadGraphSnapshot(copy);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ((*reloaded)->fingerprint, snapshot->fingerprint);

  std::string other = WriteTempGraph("snap_b.txt", "a r b\nb s c\n");
  auto different = LoadGraphSnapshot(other);
  ASSERT_TRUE(different.ok());
  EXPECT_NE((*different)->fingerprint, snapshot->fingerprint);
}

TEST(SnapshotTest, MissingFileAndBadContentAreInvalidArgument) {
  auto missing = LoadGraphSnapshot(testing::TempDir() + "no_such_graph.txt");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), Status::Code::kInvalidArgument);
  std::string bad = WriteTempGraph("snap_bad.txt", "a r\n");
  auto malformed = LoadGraphSnapshot(bad);
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), Status::Code::kInvalidArgument);
}

TEST(SnapshotTest, BaseAlphabetKeepsRelationIdsStable) {
  SignedAlphabet base;
  base.AddRelation("q_only");
  std::string path = WriteTempGraph("snap_base.txt", "a r b\n");
  auto loaded = LoadGraphSnapshot(path, base);
  ASSERT_TRUE(loaded.ok());
  // The base relation keeps id 0; the graph's relation appends after it.
  EXPECT_EQ((*loaded)->alphabet.NumRelations(), 2);
}

TEST(SnapshotStoreTest, ReloadSwapsAndPinsKeepOldSnapshotsAlive) {
  SnapshotStore store;
  EXPECT_EQ(store.Current(), nullptr);
  EXPECT_EQ(store.version(), 0);

  std::string path1 = WriteTempGraph("store_v1.txt", "a r b\n");
  std::string path2 = WriteTempGraph("store_v2.txt", "a r b\nb r c\nc r d\n");
  ASSERT_TRUE(store.Reload(path1).ok());
  std::shared_ptr<const GraphSnapshot> pinned = store.Current();
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->version, 1);
  EXPECT_EQ(pinned->db.NumNodes(), 2);

  auto version2 = store.Reload(path2);
  ASSERT_TRUE(version2.ok());
  EXPECT_EQ(*version2, 2);
  EXPECT_EQ(store.version(), 2);
  EXPECT_EQ(store.Current()->db.NumNodes(), 4);
  // The pinned snapshot is untouched by the swap.
  EXPECT_EQ(pinned->version, 1);
  EXPECT_EQ(pinned->db.NumNodes(), 2);

  // A failed reload keeps the current snapshot and burns no version.
  ASSERT_FALSE(store.Reload(testing::TempDir() + "nope.txt").ok());
  EXPECT_EQ(store.version(), 2);
  EXPECT_EQ(store.Current()->db.NumNodes(), 4);
}

// ---------------------------------------------------------------------------
// admission.h

TEST(AdmissionTest, DefaultsFillGapsAndCapsClamp) {
  AdmissionPolicy policy;
  policy.default_timeout_ms = 100;
  policy.max_timeout_ms = 500;
  policy.default_max_states = 1000;
  policy.max_states_cap = 5000;

  Admission defaulted = AdmitRequest(policy, 0, 0);
  EXPECT_TRUE(defaulted.has_deadline);
  EXPECT_EQ(defaulted.max_states, 1000);

  Admission asked = AdmitRequest(policy, 300, 2000);
  EXPECT_TRUE(asked.has_deadline);
  EXPECT_EQ(asked.max_states, 2000);

  Admission clamped = AdmitRequest(policy, 9000, 999999);
  EXPECT_LE(clamped.deadline - clamped.admitted_at,
            std::chrono::milliseconds(500));
  EXPECT_EQ(clamped.max_states, 5000);
}

TEST(AdmissionTest, UnlimitedPolicyAndRequestMeansNoBudgetLimits) {
  Admission admission = AdmitRequest(AdmissionPolicy{}, 0, 0);
  EXPECT_FALSE(admission.has_deadline);
  EXPECT_EQ(admission.max_states, 0);
  EXPECT_FALSE(admission.ExpiredInQueue());
  Budget budget = admission.MakeBudget();
  EXPECT_TRUE(budget.Check().ok());
}

TEST(AdmissionTest, CapAppliesEvenWithoutDefaults) {
  AdmissionPolicy policy;
  policy.max_timeout_ms = 50;
  Admission admission = AdmitRequest(policy, 0, 0);
  // No request ask and no default, but the operator cap still bounds it.
  EXPECT_TRUE(admission.has_deadline);
  EXPECT_LE(admission.deadline - admission.admitted_at,
            std::chrono::milliseconds(50));
}

TEST(AdmissionTest, ExpiredInQueueAfterDeadlinePasses) {
  AdmissionPolicy policy;
  Admission admission = AdmitRequest(policy, 1, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(admission.ExpiredInQueue());
  EXPECT_FALSE(admission.MakeBudget().Check().ok());
}

// ---------------------------------------------------------------------------
// Server (synchronous entry point)

const Json* FindField(const Json& response, const char* key) {
  const Json* value = response.Find(key);
  EXPECT_NE(value, nullptr) << "missing field '" << key << "' in "
                            << response.Dump();
  return value;
}

Json Handle(Server& server, const std::string& line) {
  return MustParse(server.HandleLine(line));
}

ServerOptions OptionsWithDb(const std::string& path) {
  ServerOptions options;
  options.initial_db_path = path;
  return options;
}

TEST(ServerTest, EvalHitsCacheOnSecondRequest) {
  std::string path = WriteTempGraph("srv_eval.txt", "a r b\nb r c\nc s d\n");
  Server server(OptionsWithDb(path));
  ASSERT_TRUE(server.Init().ok());

  Json first = Handle(server, R"({"id":1,"op":"eval","query":"r* s"})");
  EXPECT_EQ(FindField(first, "status")->string_value(), "ok");
  EXPECT_EQ(FindField(first, "cache")->string_value(), "miss");
  EXPECT_EQ(FindField(first, "snapshot_version")->int_value(), 1);
  EXPECT_EQ(FindField(first, "answers")->array().size(), 3u);

  // Textual variant of the same AST: canonicalization shares the entry.
  Json second =
      Handle(server, R"q({"id":2,"op":"eval","query":"(r)* (s)"})q");
  EXPECT_EQ(FindField(second, "status")->string_value(), "ok");
  EXPECT_EQ(FindField(second, "cache")->string_value(), "hit");
  EXPECT_EQ(FindField(second, "answers")->Dump(),
            FindField(first, "answers")->Dump());
}

TEST(ServerTest, EvalWithoutSnapshotIsUnavailable) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Init().ok());
  Json response = Handle(server, R"({"id":1,"op":"eval","query":"r"})");
  EXPECT_EQ(FindField(response, "status")->string_value(), "error");
  EXPECT_EQ(FindField(response, "code")->string_value(), "unavailable");
}

TEST(ServerTest, MalformedRequestsGetStructuredErrors) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Init().ok());
  EXPECT_EQ(FindField(Handle(server, "not json"), "code")->string_value(),
            "invalid_request");
  EXPECT_EQ(FindField(Handle(server, "[1,2]"), "code")->string_value(),
            "invalid_request");
  EXPECT_EQ(
      FindField(Handle(server, R"({"id":7,"op":"nope"})"), "code")
          ->string_value(),
      "invalid_request");
  // The id is echoed even on errors.
  EXPECT_EQ(
      FindField(Handle(server, R"({"id":7,"op":"nope"})"), "id")->int_value(),
      7);
  // A syntactically bad query expression (rewrite needs no snapshot, so the
  // parse error is what surfaces).
  EXPECT_EQ(
      FindField(
          Handle(server,
                 R"({"id":1,"op":"rewrite","query":"((","views":{"v":"r"}})"),
          "code")
          ->string_value(),
      "invalid_request");
}

TEST(ServerTest, StateQuotaMapsToResourceExhausted) {
  std::string path = WriteTempGraph("srv_quota.txt", "a r b\nb r c\n");
  Server server(OptionsWithDb(path));
  ASSERT_TRUE(server.Init().ok());
  Json response = Handle(
      server, R"({"id":1,"op":"eval","query":"r*","max_states":1})");
  EXPECT_EQ(FindField(response, "status")->string_value(), "error");
  EXPECT_EQ(FindField(response, "code")->string_value(), "resource_exhausted");
}

TEST(ServerTest, RewriteCachesExhaustiveResults) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Init().ok());
  const std::string request =
      R"({"id":1,"op":"rewrite","query":"r r","views":{"v1":"r"}})";
  std::ostringstream trace;
  obs::Tracer::StartToStream(&trace);
  Json first = Handle(server, request);
  EXPECT_EQ(FindField(first, "status")->string_value(), "ok");
  EXPECT_EQ(FindField(first, "cache")->string_value(), "miss");
  EXPECT_EQ(FindField(first, "rewriting")->string_value(), "v1 v1");
  EXPECT_EQ(FindField(first, "exact")->bool_value(), true);
  EXPECT_EQ(FindField(first, "exhaustive")->bool_value(), true);

  // View order in the request must not matter for the cache key.
  Json second = Handle(
      server, R"({"id":2,"op":"rewrite","query":"r r","views":[["v1","r"]]})");
  obs::Tracer::Stop();
  EXPECT_EQ(FindField(second, "cache")->string_value(), "hit");
  EXPECT_EQ(FindField(second, "rewriting")->string_value(), "v1 v1");
  // The miss rendered the regex once, into the plan; the hit spliced it.
  const std::string spans = trace.str();
  const std::string render_span = "\"name\":\"rewrite.render\"";
  int renders = 0;
  size_t at = 0;
  while ((at = spans.find(render_span, at)) != std::string::npos) {
    ++renders;
    at += render_span.size();
  }
  EXPECT_EQ(renders, 1) << spans;
}

TEST(ServerTest, RewriteExactnessObeysTheStateQuota) {
  // This instance's pipeline fits a quota of 128 states, but not together
  // with its exactness search (about 116 and 140 states). Out of quota, the
  // response keeps the exhaustive rewriting, answers `exact` null with its
  // cause, and is not cached; an unlimited request then decides and caches
  // it, and a quota request hits that plan.
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Init().ok());
  const std::string body =
      R"json("op":"rewrite","query":"(a | b)* a (a | b) (a | b)",)json"
      R"json("views":{"v":"a","w":"b"})json";
  const std::string limited = R"({"id":1,)" + body + R"(,"max_states":128})";
  for (int attempt = 0; attempt < 2; ++attempt) {
    Json response = Handle(server, limited);
    EXPECT_EQ(FindField(response, "status")->string_value(), "ok");
    EXPECT_EQ(FindField(response, "cache")->string_value(), "miss");
    EXPECT_TRUE(FindField(response, "exhaustive")->bool_value());
    EXPECT_TRUE(FindField(response, "exact")->is_null());
    EXPECT_EQ(FindField(response, "exact_cause")->string_value(),
              "ResourceExhausted: state quota of 128 exceeded");
  }
  Json full = Handle(server, R"({"id":2,)" + body + "}");
  EXPECT_EQ(FindField(full, "cache")->string_value(), "miss");
  EXPECT_TRUE(FindField(full, "exact")->bool_value());
  EXPECT_EQ(full.Find("exact_cause"), nullptr);
  Json hit = Handle(server, limited);
  EXPECT_EQ(FindField(hit, "cache")->string_value(), "hit");
  EXPECT_TRUE(FindField(hit, "exact")->bool_value());
  EXPECT_EQ(hit.Find("exact_cause"), nullptr);
}

TEST(ServerTest, RewriteRendersBeforeTheExactnessCheckSpendsTheQuota) {
  // The hard family at k = 3: the pipeline fits a quota of 240 states, its
  // exactness search does not, and R's regex renders as some 20 KB, past
  // the printer's first budget check. A budget the exactness search has
  // spent keeps failing, so the rewriting must be rendered before it: the
  // response keeps the rewriting, answers `exact` null with its cause, and
  // is not cached.
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Init().ok());
  const std::string body =
      R"json("op":"rewrite","query":"(a | b)* a (a | b) (a | b) (a | b)",)json"
      R"json("views":{"va":"a","vb":"b"})json";
  const std::string limited = R"({"id":1,)" + body + R"(,"max_states":240})";
  std::string limited_text;
  for (int attempt = 0; attempt < 2; ++attempt) {
    Json response = Handle(server, limited);
    ASSERT_EQ(FindField(response, "status")->string_value(), "ok")
        << response.Dump();
    EXPECT_EQ(FindField(response, "cache")->string_value(), "miss");
    EXPECT_TRUE(FindField(response, "exhaustive")->bool_value());
    EXPECT_TRUE(FindField(response, "exact")->is_null());
    EXPECT_EQ(FindField(response, "exact_cause")->string_value(),
              "ResourceExhausted: state quota of 240 exceeded");
    limited_text = FindField(response, "rewriting")->string_value();
  }
  EXPECT_GT(limited_text.size(), 16384u);
  Json stats = Handle(server, R"({"id":2,"op":"admin","action":"stats"})");
  EXPECT_EQ(FindField(stats, "plan_cache")->Find("inserts")->int_value(), 0);
  Json full = Handle(server, R"({"id":3,)" + body + "}");
  EXPECT_EQ(FindField(full, "cache")->string_value(), "miss");
  EXPECT_TRUE(FindField(full, "exact")->bool_value());
  EXPECT_EQ(FindField(full, "rewriting")->string_value(), limited_text);
}

TEST(ServerTest, RewriteRenderingObeysTheDeadline) {
  // The hard family at k = 5 has a 65-state R, computed in milliseconds,
  // whose regex prints as hundreds of megabytes: state elimination shares
  // subexpressions that the text repeats. Rendering stops at the deadline,
  // the request fails with it, and nothing is cached.
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Init().ok());
  const std::string line =
      R"json({"id":1,"op":"rewrite",)json"
      R"json("query":"(a | b)* a (a | b) (a | b) (a | b) (a | b) (a | b)",)json"
      R"json("views":{"va":"a","vb":"b"},"timeout_ms":300})json";
  for (int attempt = 0; attempt < 2; ++attempt) {
    const auto start = std::chrono::steady_clock::now();
    Json response = Handle(server, line);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(FindField(response, "code")->string_value(),
              "deadline_exceeded");
    EXPECT_LT(elapsed, std::chrono::milliseconds(2 * 300 + 400));
  }
  Json stats = Handle(server, R"({"id":2,"op":"admin","action":"stats"})");
  const Json* cache = FindField(stats, "plan_cache");
  EXPECT_EQ(cache->Find("inserts")->int_value(), 0);
  EXPECT_EQ(cache->Find("entries")->int_value(), 0);
}

TEST(ServerTest, AnswerOdaAndCdaAgreeOnExactView) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Init().ok());
  for (const char* mode : {"oda", "cda"}) {
    std::string request =
        std::string(R"({"id":1,"op":"answer","mode":")") + mode +
        R"(","objects":2,"query":"r","views":[{"name":"v","expr":"r",)" +
        R"("assumption":"exact","extension":[[0,1]]}],)" +
        R"("pairs":[[0,1],[1,0]]})";
    Json response = Handle(server, request);
    ASSERT_EQ(FindField(response, "status")->string_value(), "ok") << mode;
    const JsonArray& results = FindField(response, "results")->array();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].Find("certain")->bool_value()) << mode;
    EXPECT_FALSE(results[1].Find("certain")->bool_value()) << mode;
  }
}

// The CDA candidate space is objects² · relations edges. It used to be
// computed in int: 2^16 objects wrapped it to 0 and answered "certain"
// without a search, and 50,000 objects made it negative and aborted the
// server with std::length_error. Spaces past the int range are now an
// invalid request, and the server keeps answering.
TEST(ServerTest, CdaCandidateSpaceOverflowIsInvalidRequest) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Init().ok());
  auto request = [](int objects) {
    return R"({"id":1,"op":"answer","mode":"cda","objects":)" +
           std::to_string(objects) +
           R"(,"query":"p","views":[{"name":"v","expr":"p",)"
           R"("assumption":"sound","extension":[[0,1]]}],"pairs":[[1,0]]})";
  };
  Json small = Handle(server, request(3));
  ASSERT_EQ(FindField(small, "status")->string_value(), "ok");
  EXPECT_FALSE(
      FindField(small, "results")->array()[0].Find("certain")->bool_value());

  for (int objects : {65536, 50000}) {
    Json response = Handle(server, request(objects));
    EXPECT_EQ(FindField(response, "status")->string_value(), "error")
        << objects << " objects";
    EXPECT_EQ(FindField(response, "code")->string_value(), "invalid_request")
        << objects << " objects";
  }

  Json after = Handle(server, request(3));
  ASSERT_EQ(FindField(after, "status")->string_value(), "ok");
  EXPECT_FALSE(
      FindField(after, "results")->array()[0].Find("certain")->bool_value());
}

// An allocation failure inside a request fails that one request as
// resource_exhausted instead of aborting the server for every client, and
// the same request right after is answered.
TEST(ServerTest, AllocationFailureIsResourceExhaustedNotAnAbort) {
  fault::DisarmAll();
  ServerOptions options;
  options.breaker_failure_threshold = 2;
  Server server(options);
  ASSERT_TRUE(server.Init().ok());
  auto answer_failures = [&server] {
    Json stats = Handle(server, R"({"id":2,"op":"admin","action":"stats"})");
    for (const Json& key :
         FindField(*FindField(stats, "breaker"), "keys")->array()) {
      if (key.Find("op")->string_value() == "answer") {
        return key.Find("consecutive_failures")->int_value();
      }
    }
    return int64_t{-1};
  };
  const std::string request =
      R"({"id":1,"op":"answer","mode":"cda","objects":3,"query":"p p",)"
      R"("views":[{"name":"v","expr":"p","assumption":"sound",)"
      R"("extension":[[0,1],[1,2]]}],"pairs":[[0,2],[2,0]]})";
  ASSERT_TRUE(fault::Configure("cda.mask_alloc=once").ok());
  Json failed = Handle(server, request);
  EXPECT_EQ(FindField(failed, "status")->string_value(), "error");
  EXPECT_EQ(FindField(failed, "code")->string_value(), "resource_exhausted");
  EXPECT_EQ(fault::FireCount("cda.mask_alloc"), 1);
  // The breaker counts it like any other internal exhaustion.
  EXPECT_EQ(answer_failures(), 1);

  Json answered = Handle(server, request);
  ASSERT_EQ(FindField(answered, "status")->string_value(), "ok");
  const JsonArray& results = FindField(answered, "results")->array();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].Find("certain")->bool_value());
  EXPECT_FALSE(results[1].Find("certain")->bool_value());
  EXPECT_EQ(answer_failures(), 0);
  fault::DisarmAll();
}

TEST(ServerTest, ReloadKeepsCacheWarmForIdenticalContent) {
  std::string path = WriteTempGraph("srv_warm.txt", "a r b\n");
  Server server(OptionsWithDb(path));
  ASSERT_TRUE(server.Init().ok());
  EXPECT_EQ(
      FindField(Handle(server, R"({"id":1,"op":"eval","query":"r"})"), "cache")
          ->string_value(),
      "miss");
  Json reload = Handle(
      server,
      R"({"id":2,"op":"admin","action":"reload","db":")" + path + R"("})");
  EXPECT_EQ(FindField(reload, "status")->string_value(), "ok");
  EXPECT_EQ(FindField(reload, "snapshot_version")->int_value(), 2);
  // Identical content → identical fingerprint → cache entry still keyed.
  Json after = Handle(server, R"({"id":3,"op":"eval","query":"r"})");
  EXPECT_EQ(FindField(after, "cache")->string_value(), "hit");
  EXPECT_EQ(FindField(after, "snapshot_version")->int_value(), 2);
}

TEST(ServerTest, AdminStatsReportsCacheAndSnapshot) {
  std::string path = WriteTempGraph("srv_stats.txt", "a r b\n");
  Server server(OptionsWithDb(path));
  ASSERT_TRUE(server.Init().ok());
  server.HandleLine(R"({"id":1,"op":"eval","query":"r"})");  // warm the cache
  Json stats = Handle(server, R"({"id":2,"op":"admin","action":"stats"})");
  EXPECT_EQ(FindField(stats, "status")->string_value(), "ok");
  const Json* cache = FindField(stats, "plan_cache");
  EXPECT_EQ(cache->Find("inserts")->int_value(), 1);
  EXPECT_GE(cache->Find("bytes")->int_value(), 1);
  const Json* snapshot = FindField(stats, "snapshot");
  EXPECT_EQ(snapshot->Find("version")->int_value(), 1);
  EXPECT_EQ(snapshot->Find("nodes")->int_value(), 2);
}

TEST(ServerTest, CounterDeltasAccountTheRequestExactly) {
  std::string path = WriteTempGraph("srv_counters.txt", "a r b\n");
  Server server(OptionsWithDb(path));
  ASSERT_TRUE(server.Init().ok());
  Json miss = Handle(server, R"({"id":1,"op":"eval","query":"r"})");
  const Json* counters = FindField(miss, "counters");
  ASSERT_NE(counters->Find("service.requests"), nullptr);
  EXPECT_EQ(counters->Find("service.requests")->int_value(), 1);
  ASSERT_NE(counters->Find("service.plan_cache.miss"), nullptr);
  EXPECT_EQ(counters->Find("service.plan_cache.miss")->int_value(), 1);
  EXPECT_EQ(counters->Find("service.plan_cache.hit"), nullptr);

  Json hit = Handle(server, R"({"id":2,"op":"eval","query":"r"})");
  const Json* hit_counters = FindField(hit, "counters");
  ASSERT_NE(hit_counters->Find("service.plan_cache.hit"), nullptr);
  EXPECT_EQ(hit_counters->Find("service.plan_cache.hit")->int_value(), 1);
  EXPECT_EQ(hit_counters->Find("service.plan_cache.miss"), nullptr);
}

// ---------------------------------------------------------------------------
// The stdio request loop: drain, ordering, and the full-stack stress

/// Runs `in` to EOF through one stream connection of the request loop — the
/// path `rpqi serve` takes for stdin/stdout — over temp files (regular files
/// never block), and copies what the loop wrote to `out`.
Status ServeStream(Server& server, std::istream& in, std::ostream& out,
                   int max_batch = 64) {
  const std::string base = testing::TempDir() + "serve_stream_" +
                           std::to_string(::getpid());
  std::ofstream(base + ".in") << in.rdbuf();
  UniqueFd in_fd(::open((base + ".in").c_str(), O_RDONLY));
  UniqueFd out_fd(
      ::open((base + ".out").c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600));
  net::TcpTransportOptions options;
  options.max_batch = max_batch;
  Status served = net::TcpTransport(&server, options)
                      .ServeStream(in_fd.get(), out_fd.get());
  std::stringstream written;
  written << std::ifstream(base + ".out").rdbuf();
  out << written.str();
  return served;
}

TEST(ServerTest, ServeAnswersEveryLineAndDrainsOnEof) {
  std::string path = WriteTempGraph("srv_loop.txt", "a r b\nb r c\n");
  ServerOptions options = OptionsWithDb(path);
  options.threads = 2;
  Server server(options);
  ASSERT_TRUE(server.Init().ok());
  std::istringstream in(
      R"({"id":1,"op":"eval","query":"r"})" "\n"
      "\n"  // blank lines are skipped, not answered
      R"({"id":2,"op":"eval","query":"r r"})" "\n"
      "garbage\n"
      R"({"id":3,"op":"admin","action":"stats"})" "\n");
  std::ostringstream out;
  ASSERT_TRUE(ServeStream(server, in, out).ok());
  std::istringstream lines(out.str());
  std::string line;
  std::multiset<std::string> ids;
  while (std::getline(lines, line)) {
    Json response = MustParse(line);
    ids.insert(response.Find("id")->Dump());
  }
  EXPECT_EQ(ids, (std::multiset<std::string>{"1", "2", "3", "null"}));
}

TEST(ServerTest, ShutdownRequestStopsReadingFurtherInput) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Init().ok());
  std::istringstream in(
      R"({"id":1,"op":"admin","action":"shutdown"})" "\n"
      R"({"id":2,"op":"admin","action":"stats"})" "\n");
  std::ostringstream out;
  ASSERT_TRUE(ServeStream(server, in, out).ok());
  EXPECT_NE(out.str().find("\"draining\":true"), std::string::npos);
  EXPECT_EQ(out.str().find("\"id\":2"), std::string::npos);
}

TEST(ServerStressTest, MixedLoadWithReloadsLosesNoRequests) {
  std::string path1 =
      WriteTempGraph("stress_v1.txt", "a r b\nb r c\nc s d\n");
  std::string path2 =
      WriteTempGraph("stress_v2.txt", "a r b\nb r c\nc s d\nd r e\n");
  ServerOptions options = OptionsWithDb(path1);
  options.threads = 4;
  options.admission.queue_depth = 2000;  // never reject in this test
  Server server(options);
  ASSERT_TRUE(server.Init().ok());

  constexpr int kRequests = 1000;
  std::ostringstream in_text;
  for (int i = 0; i < kRequests; ++i) {
    switch (i % 5) {
      case 0:
        in_text << R"({"id":)" << i << R"(,"op":"eval","query":"r* s"})";
        break;
      case 1:
        in_text << R"({"id":)" << i << R"(,"op":"eval","query":"r r"})";
        break;
      case 2:
        in_text << R"({"id":)" << i
                << R"(,"op":"rewrite","query":"r r","views":{"v":"r"}})";
        break;
      case 3:
        in_text << R"({"id":)" << i << R"(,"op":"admin","action":"stats"})";
        break;
      case 4:
        // Periodic hot swap alternating between the two graph files.
        in_text << R"({"id":)" << i
                << R"(,"op":"admin","action":"reload","db":")"
                << (i % 10 == 4 ? path1 : path2) << R"("})";
        break;
    }
    in_text << "\n";
  }
  std::istringstream in(in_text.str());
  std::ostringstream out;
  // One request per batch: 1000 pool tasks race the reloads.
  ASSERT_TRUE(ServeStream(server, in, out, /*max_batch=*/1).ok());

  std::istringstream lines(out.str());
  std::string line;
  std::map<int64_t, int> answered;
  int errors = 0;
  while (std::getline(lines, line)) {
    Json response = MustParse(line);
    ASSERT_TRUE(response.Find("id")->is_int()) << line;
    ++answered[response.Find("id")->int_value()];
    if (response.Find("status")->string_value() != "ok") ++errors;
  }
  // Zero requests lost across reloads: every id answered exactly once.
  ASSERT_EQ(answered.size(), static_cast<size_t>(kRequests));
  for (const auto& [id, count] : answered) {
    EXPECT_EQ(count, 1) << "id " << id;
  }
  EXPECT_EQ(errors, 0) << out.str().substr(0, 2000);
  // Eval answers must reflect *some* pinned snapshot, never a torn one: on
  // both graphs "r* s" yields exactly 3 pairs and "r r" exactly 1 (the d→e
  // edge of v2 is relation r, unreachable through s), so any other answer
  // count means a request saw a half-swapped snapshot.
  std::istringstream again(out.str());
  while (std::getline(again, line)) {
    Json response = MustParse(line);
    const Json* answers = response.Find("answers");
    if (answers == nullptr) continue;
    size_t count = answers->array().size();
    EXPECT_TRUE(count == 1 || count == 3) << line;
  }
}

TEST(ServerStressTest, PlanCacheAndSnapshotStoreUnderConcurrentTraffic) {
  // Satellite (c): N threads hammer the plan cache while a reloader hot-swaps
  // the snapshot store. Asserts no torn snapshot reads and *exact* hit/miss
  // accounting: every Get is classified as exactly one of hit or miss, both
  // in PlanCache::stats() and in the obs registry counters.
  std::string path1 = WriteTempGraph("cc_v1.txt", "a r b\n");
  std::string path2 = WriteTempGraph("cc_v2.txt", "a r b\nb r c\n");

  PlanCache cache(int64_t{1} << 16, 4);  // small: forces concurrent eviction
  SnapshotStore store;
  ASSERT_TRUE(store.Reload(path1).ok());
  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  PlanCache::Stats stats_before = cache.stats();

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::atomic<int64_t> gets{0};
  std::atomic<bool> torn{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "key" + std::to_string((t * 7 + i) % 64);
        std::shared_ptr<const CachedPlan> plan = cache.Get(key);
        gets.fetch_add(1, std::memory_order_relaxed);
        if (plan == nullptr) {
          cache.Put(key, PlanWithAnswers(i % 8));
        } else if (!plan->eval_answers.has_value()) {
          torn.store(true);  // a cached plan must arrive fully formed
        }
        std::shared_ptr<const GraphSnapshot> snapshot = store.Current();
        // Snapshot consistency: node count must match the content the
        // fingerprint claims — a torn read would mix the two.
        int nodes = snapshot->db.NumNodes();
        if (nodes != 2 && nodes != 3) torn.store(true);
        if (snapshot->version < 1) torn.store(true);
      }
    });
  }
  workers.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(store.Reload(i % 2 == 0 ? path2 : path1).ok());
      std::this_thread::yield();
    }
  });
  for (std::thread& worker : workers) worker.join();

  EXPECT_FALSE(torn.load());
  EXPECT_EQ(store.version(), 51);

  PlanCache::Stats stats = cache.stats();
  int64_t hits = stats.hits - stats_before.hits;
  int64_t misses = stats.misses - stats_before.misses;
  EXPECT_EQ(hits + misses, gets.load());
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);

  // The obs registry observed exactly the same classification.
  obs::MetricsSnapshot delta =
      obs::TakeMetricsSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("service.plan_cache.hit"), hits);
  EXPECT_EQ(delta.CounterValue("service.plan_cache.miss"), misses);
  EXPECT_EQ(delta.CounterValue("service.snapshot.reloads"), 50);
  // Inserts and evictions balance with the cache's final entry count.
  int64_t inserts = stats.inserts - stats_before.inserts;
  int64_t evictions = stats.evictions - stats_before.evictions;
  EXPECT_EQ(delta.CounterValue("service.plan_cache.insert"), inserts);
  EXPECT_EQ(delta.CounterValue("service.plan_cache.evict"), evictions);
  EXPECT_EQ(inserts - evictions, stats.entries - stats_before.entries);
}

// ---------------------------------------------------------------------------
// breaker.h (deterministic fake clock throughout)

TEST(CircuitBreakerTest, DisabledBreakerIsTransparent) {
  CircuitBreaker breaker(CircuitBreaker::Options{});  // threshold 0
  EXPECT_FALSE(breaker.enabled());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(breaker.ShouldReject("eval"));
    breaker.RecordInternalError("eval");
  }
  EXPECT_FALSE(breaker.ShouldReject("eval"));
  EXPECT_TRUE(breaker.Snapshot().empty());
}

CircuitBreaker::Options FakeClockOptions(int threshold, int64_t cooldown_ms,
                                         int64_t* now_ms) {
  CircuitBreaker::Options options;
  options.failure_threshold = threshold;
  options.cooldown_ms = cooldown_ms;
  options.now_ms = [now_ms] { return *now_ms; };
  return options;
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresAndFastFails) {
  int64_t now_ms = 0;
  CircuitBreaker breaker(FakeClockOptions(3, 100, &now_ms));
  breaker.RecordInternalError("eval");
  breaker.RecordInternalError("eval");
  EXPECT_FALSE(breaker.ShouldReject("eval"));  // 2 < 3: still closed
  breaker.RecordInternalError("eval");
  EXPECT_TRUE(breaker.ShouldReject("eval"));  // tripped
  // Keys are independent: a tripped eval never blocks rewrite.
  EXPECT_FALSE(breaker.ShouldReject("rewrite"));
  now_ms += 99;
  EXPECT_TRUE(breaker.ShouldReject("eval"));  // cooldown not yet over
}

TEST(CircuitBreakerTest, SuccessResetsTheStreak) {
  int64_t now_ms = 0;
  CircuitBreaker breaker(FakeClockOptions(2, 100, &now_ms));
  breaker.RecordInternalError("eval");
  breaker.RecordSuccess("eval");
  breaker.RecordInternalError("eval");
  EXPECT_FALSE(breaker.ShouldReject("eval"));  // never 2 in a row
}

TEST(CircuitBreakerTest, HalfOpenElectsOneProbeThenClosesOnSuccess) {
  int64_t now_ms = 0;
  CircuitBreaker breaker(FakeClockOptions(1, 100, &now_ms));
  breaker.RecordInternalError("eval");
  EXPECT_TRUE(breaker.ShouldReject("eval"));
  now_ms = 100;
  // Cooldown over: exactly one request becomes the probe, the rest still
  // fast-fail until it reports back.
  EXPECT_FALSE(breaker.ShouldReject("eval"));
  EXPECT_TRUE(breaker.ShouldReject("eval"));
  breaker.RecordSuccess("eval");
  EXPECT_FALSE(breaker.ShouldReject("eval"));  // closed again
  std::vector<CircuitBreaker::KeyState> keys = breaker.Snapshot();
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].state, "closed");
  EXPECT_EQ(keys[0].trips, 1);
}

TEST(CircuitBreakerTest, FailedProbeReopensForAnotherCooldown) {
  int64_t now_ms = 0;
  CircuitBreaker breaker(FakeClockOptions(1, 100, &now_ms));
  breaker.RecordInternalError("eval");
  now_ms = 100;
  EXPECT_FALSE(breaker.ShouldReject("eval"));  // probe elected
  breaker.RecordInternalError("eval");         // probe failed
  EXPECT_TRUE(breaker.ShouldReject("eval"));   // back to open
  now_ms = 150;
  EXPECT_TRUE(breaker.ShouldReject("eval"));  // new cooldown from reopen
  now_ms = 200;
  EXPECT_FALSE(breaker.ShouldReject("eval"));  // next probe
  breaker.RecordSuccess("eval");
  EXPECT_FALSE(breaker.ShouldReject("eval"));
}

// ---------------------------------------------------------------------------
// Server + breaker integration (fake clock; resource_exhausted generated by
// an injected automata fault, recovery by disarming it)

TEST(ServerTest, BreakerTripsOnInternalErrorsAndRecoversViaProbe) {
  fault::DisarmAll();
  std::string path = WriteTempGraph("breaker.txt", "a r b\n");
  int64_t now_ms = 0;
  ServerOptions options = OptionsWithDb(path);
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown_ms = 100;
  options.breaker_now_ms = [&now_ms] { return now_ms; };
  Server server(options);
  ASSERT_TRUE(server.Init().ok());

  const std::string rewrite_line =
      R"({"id":1,"op":"rewrite","query":"r r","views":{"v":"r"}})";
  ASSERT_TRUE(
      fault::Configure("automata.determinize_state=every:1").ok());
  for (int i = 0; i < 2; ++i) {
    Json response = Handle(server, rewrite_line);
    EXPECT_EQ(FindField(response, "code")->string_value(),
              "resource_exhausted");
  }
  // Tripped: fast-fail without touching the engine (the armed fault tallies
  // no further hits), while other ops and admin stay reachable.
  int64_t hits_when_tripped = fault::HitCount("automata.determinize_state");
  Json rejected = Handle(server, rewrite_line);
  EXPECT_EQ(FindField(rejected, "code")->string_value(), "unavailable");
  EXPECT_NE(FindField(rejected, "message")
                ->string_value()
                .find("circuit breaker open"),
            std::string::npos);
  EXPECT_EQ(fault::HitCount("automata.determinize_state"), hits_when_tripped);
  Json eval = Handle(server, R"({"id":2,"op":"eval","query":"r"})");
  EXPECT_EQ(FindField(eval, "status")->string_value(), "ok");
  Json stats = Handle(server, R"({"id":3,"op":"admin","action":"stats"})");
  EXPECT_EQ(FindField(stats, "status")->string_value(), "ok");
  const Json* breaker = FindField(stats, "breaker");
  EXPECT_TRUE(FindField(*breaker, "enabled")->bool_value());

  // Fault repaired + cooldown over: the probe request closes the breaker.
  fault::DisarmAll();
  now_ms = 100;
  Json probe = Handle(server, rewrite_line);
  EXPECT_EQ(FindField(probe, "status")->string_value(), "ok");
  Json after = Handle(server, rewrite_line);
  EXPECT_EQ(FindField(after, "status")->string_value(), "ok");
}

// ---------------------------------------------------------------------------
// Reload retry + transient classification (snapshot fault sites)

TEST(SnapshotStoreTest, TransientOpenFaultRecoversWithRetry) {
  fault::DisarmAll();
  std::string path = WriteTempGraph("retry_ok.txt", "a r b\n");
  SnapshotStore store;
  ASSERT_TRUE(fault::Configure("snapshot.open=once").ok());
  std::vector<int64_t> sleeps;
  ReloadRetryPolicy policy;
  policy.attempts = 2;
  policy.backoff_ms = 7;
  policy.sleeper = [&sleeps](int64_t ms) { sleeps.push_back(ms); };
  bool transient = true;
  auto version = store.Reload(path, policy, &transient);
  fault::DisarmAll();
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(*version, 1);  // the failed attempt burned no version number
  EXPECT_FALSE(transient);
  EXPECT_EQ(sleeps, (std::vector<int64_t>{7}));
}

TEST(SnapshotStoreTest, PersistentTransientFaultFailsWithBackoffSchedule) {
  fault::DisarmAll();
  std::string path = WriteTempGraph("retry_fail.txt", "a r b\n");
  SnapshotStore store;
  ASSERT_TRUE(fault::Configure("snapshot.read=every:1").ok());
  std::vector<int64_t> sleeps;
  ReloadRetryPolicy policy;
  policy.attempts = 4;
  policy.backoff_ms = 10;
  policy.sleeper = [&sleeps](int64_t ms) { sleeps.push_back(ms); };
  bool transient = false;
  auto version = store.Reload(path, policy, &transient);
  fault::DisarmAll();
  ASSERT_FALSE(version.ok());
  EXPECT_TRUE(transient);
  EXPECT_EQ(sleeps, (std::vector<int64_t>{10, 20, 40}));  // exponential
  EXPECT_EQ(store.version(), 0);  // still no snapshot, no version burned
  // With the fault gone the same store loads normally at version 1.
  ASSERT_TRUE(store.Reload(path).ok());
  EXPECT_EQ(store.version(), 1);
}

TEST(SnapshotStoreTest, PermanentParseFailureIsNotRetried) {
  fault::DisarmAll();
  std::string bad = WriteTempGraph("retry_bad.txt", "a r\n");
  SnapshotStore store;
  std::vector<int64_t> sleeps;
  ReloadRetryPolicy policy;
  policy.attempts = 5;
  policy.backoff_ms = 10;
  policy.sleeper = [&sleeps](int64_t ms) { sleeps.push_back(ms); };
  bool transient = true;
  auto version = store.Reload(bad, policy, &transient);
  ASSERT_FALSE(version.ok());
  EXPECT_FALSE(transient);          // content error: the file's fault
  EXPECT_TRUE(sleeps.empty());      // zero retries burned on it
  // The error carries file/line/byte context from the parser.
  EXPECT_NE(version.status().message().find("line 1 (byte 0)"),
            std::string::npos)
      << version.status().ToString();
}

TEST(SnapshotStoreTest, ReloadSwapFaultBurnsNoVersionAndRecovers) {
  fault::DisarmAll();
  std::string path = WriteTempGraph("swap_fault.txt", "a r b\n");
  SnapshotStore store;
  ASSERT_TRUE(store.Reload(path).ok());
  ASSERT_TRUE(fault::Configure("snapshot.reload_swap=once").ok());
  bool transient = false;
  auto failed = store.Reload(path, ReloadRetryPolicy{}, &transient);
  fault::DisarmAll();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(transient);
  EXPECT_EQ(store.version(), 1);  // old snapshot still serving, no burn
  auto recovered = store.Reload(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, 2);  // the failed attempt left no gap
}

TEST(ServerTest, TransientReloadFaultIsUnavailableAndCacheStaysWarm) {
  fault::DisarmAll();
  std::string path = WriteTempGraph("reload_fault.txt", "a r b\n");
  Server server(OptionsWithDb(path));
  ASSERT_TRUE(server.Init().ok());
  Json warm = Handle(server, R"({"id":1,"op":"eval","query":"r"})");
  EXPECT_EQ(FindField(warm, "cache")->string_value(), "miss");

  ASSERT_TRUE(fault::Configure("snapshot.open=once").ok());
  const std::string reload_line =
      R"({"id":2,"op":"admin","action":"reload","db":")" + path + R"("})";
  Json failed = Handle(server, reload_line);
  EXPECT_EQ(FindField(failed, "code")->string_value(), "unavailable");
  // Structurally invalid reload requests stay invalid_request even with
  // faults armed: the classifier must not blur client and environment.
  Json bad_request =
      Handle(server, R"({"id":3,"op":"admin","action":"reload"})");
  EXPECT_EQ(FindField(bad_request, "code")->string_value(),
            "invalid_request");

  // The one-shot fault is spent: the retried request succeeds, and the old
  // snapshot kept serving the cache in the meantime (identical content ⇒
  // same fingerprint ⇒ warm).
  Json retried = Handle(server, reload_line);
  EXPECT_EQ(FindField(retried, "status")->string_value(), "ok");
  fault::DisarmAll();
  Json hit = Handle(server, R"({"id":4,"op":"eval","query":"r"})");
  EXPECT_EQ(FindField(hit, "cache")->string_value(), "hit");
}

TEST(ServerTest, AdminStatsListsArmedFaultSites) {
  fault::DisarmAll();
  Server server{ServerOptions{}};
  Json without = Handle(server, R"({"id":1,"op":"admin","action":"stats"})");
  EXPECT_EQ(without.Find("faults"), nullptr);  // absent when disabled
  ASSERT_TRUE(fault::Configure("snapshot.open=once").ok());
  Json with = Handle(server, R"({"id":2,"op":"admin","action":"stats"})");
  const Json* faults = FindField(with, "faults");
  fault::DisarmAll();
  ASSERT_TRUE(faults->is_array());
  bool found = false;
  for (const Json& site : faults->array()) {
    if (site.Find("site")->string_value() != "snapshot.open") continue;
    found = true;
    EXPECT_TRUE(site.Find("armed")->bool_value());
    EXPECT_EQ(site.Find("policy")->string_value(), "once");
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Admission edge cases

TEST(AdmissionTest, AbsurdTimeoutIsClampedNotOverflowed) {
  // A timeout near INT64_MAX used to overflow the deadline arithmetic and
  // wrap into the past, expiring every request instantly.
  Admission admission =
      AdmitRequest(AdmissionPolicy{}, std::numeric_limits<int64_t>::max(), 0);
  EXPECT_TRUE(admission.has_deadline);
  EXPECT_GT(admission.deadline, admission.admitted_at);
  EXPECT_FALSE(admission.ExpiredInQueue());
  EXPECT_TRUE(admission.MakeBudget().Check().ok());
}

TEST(AdmissionTest, ZeroTimeoutMeansNoDeadlineNotInstantExpiry) {
  Admission admission = AdmitRequest(AdmissionPolicy{}, 0, 0);
  EXPECT_FALSE(admission.has_deadline);
  EXPECT_FALSE(admission.ExpiredInQueue());
}

TEST(ServerTest, HugeProtocolTimeoutStillExecutes) {
  std::string path = WriteTempGraph("huge_timeout.txt", "a r b\n");
  Server server(OptionsWithDb(path));
  ASSERT_TRUE(server.Init().ok());
  Json response = Handle(
      server,
      R"({"id":1,"op":"eval","query":"r","timeout_ms":9223372036854775807})");
  EXPECT_EQ(FindField(response, "status")->string_value(), "ok");
}

// ---------------------------------------------------------------------------
// Shutdown with queued work and a reload in flight

TEST(ServerTest, ShutdownDrainsQueuedRequestsAndInFlightReload) {
  std::string path1 = WriteTempGraph("drain_v1.txt", "a r b\n");
  std::string path2 = WriteTempGraph("drain_v2.txt", "a r b\nb r c\n");
  ServerOptions options = OptionsWithDb(path1);
  options.threads = 2;
  options.admission.queue_depth = 64;
  Server server(options);
  ASSERT_TRUE(server.Init().ok());
  // Sleeps occupy both workers so the reload and evals genuinely queue;
  // shutdown arrives with all of them still pending. Every accepted request
  // must still be answered, and nothing after shutdown may be read.
  std::istringstream in(
      R"({"id":1,"op":"admin","action":"sleep","ms":30})" "\n"
      R"({"id":2,"op":"admin","action":"sleep","ms":30})" "\n"
      R"({"id":3,"op":"admin","action":"reload","db":")" + path2 + "\"}\n" +
      R"({"id":4,"op":"eval","query":"r r"})" "\n"
      R"({"id":5,"op":"admin","action":"shutdown"})" "\n"
      R"({"id":6,"op":"eval","query":"r"})" "\n");
  std::ostringstream out;
  ASSERT_TRUE(ServeStream(server, in, out, /*max_batch=*/1).ok());
  std::istringstream lines(out.str());
  std::string line;
  std::set<std::string> ids;
  while (std::getline(lines, line)) {
    Json response = MustParse(line);
    ids.insert(response.Find("id")->Dump());
    EXPECT_EQ(response.Find("status")->string_value(), "ok") << line;
  }
  EXPECT_EQ(ids, (std::set<std::string>{"1", "2", "3", "4", "5"}));
  // The drained reload really landed before Serve returned.
  EXPECT_EQ(server.snapshot_store().version(), 2);
}

// ---------------------------------------------------------------------------
// Exact plan byte accounting (CachedPlan::ApproxBytes) — what --plan-cache-mb
// actually bounds.

/// A plan shaped like what OpEval caches: compiled flat automaton + answers.
std::shared_ptr<CachedPlan> FlatEvalPlan(int num_answers) {
  Nfa nfa(2);
  int a = nfa.AddState(), b = nfa.AddState(), c = nfa.AddState();
  nfa.SetInitial(a);
  nfa.SetAccepting(c);
  nfa.AddTransition(a, 0, b);
  nfa.AddTransition(b, 1, c);
  nfa.AddTransition(c, 0, a);
  auto plan = std::make_shared<CachedPlan>();
  plan->flat_plan = CompileFlat(nfa);
  plan->eval_answers.emplace();
  for (int i = 0; i < num_answers; ++i) {
    plan->eval_answers->push_back({i, i + 1});
  }
  plan->eval_answers->shrink_to_fit();
  return plan;
}

TEST(PlanCacheTest, ApproxBytesCountsEveryHeapBlockExactly) {
  std::shared_ptr<CachedPlan> plan = FlatEvalPlan(7);
  // Recompute the footprint independently: fixed entry overhead, the flat
  // plan's exact capacity-based heap bytes, and the answer vector's header +
  // capacity. (The pre-flat estimate ignored per-state heap blocks entirely,
  // so the cache budget under-bounded resident memory.)
  int64_t expected =
      128 + plan->flat_plan->ByteSize() +
      static_cast<int64_t>(sizeof(std::vector<std::pair<int, int>>)) +
      static_cast<int64_t>(plan->eval_answers->capacity()) *
          static_cast<int64_t>(sizeof(std::pair<int, int>));
  EXPECT_EQ(plan->ApproxBytes(), expected);

  // The flat payload must dominate a plan with no answers: the accounting
  // actually sees the automaton, not just the answer list.
  std::shared_ptr<CachedPlan> answerless = FlatEvalPlan(0);
  EXPECT_GE(answerless->ApproxBytes(), answerless->flat_plan->ByteSize());

  // View names contribute per-name bytes.
  plan->view_names = {"v1", "a-rather-long-view-name"};
  expected += (32 + 2) + (32 + 23);
  EXPECT_EQ(plan->ApproxBytes(), expected);

  // The rendered payload adds its string's heap block: capacity plus the
  // terminator. A payload short enough for the string's inline buffer, like
  // an empty answer set, allocates nothing and adds nothing.
  plan->rendered = "[]";
  EXPECT_EQ(plan->ApproxBytes(), expected);
  plan->rendered.assign(1000, 'x');
  expected += static_cast<int64_t>(plan->rendered.capacity()) + 1;
  EXPECT_EQ(plan->ApproxBytes(), expected);
}

TEST(PlanCacheTest, BytesGaugeTracksKnownSizePlans) {
  PlanCache cache(int64_t{1} << 20, 2);
  int64_t expected = 0;
  for (int i = 0; i < 6; ++i) {
    std::string key = "plan" + std::to_string(i);
    std::shared_ptr<CachedPlan> plan = FlatEvalPlan(i * 3);
    expected += plan->ApproxBytes() + static_cast<int64_t>(key.size());
    cache.Put(key, std::move(plan));
  }
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 6);
  EXPECT_EQ(stats.bytes, expected);
  EXPECT_LE(stats.bytes, cache.capacity_bytes());
  // The published gauge agrees with the instance accounting (Put publishes
  // after every insert, and nothing else ran a Put since).
  EXPECT_EQ(obs::TakeMetricsSnapshot().GaugeValue("service.plan_cache.bytes"),
            stats.bytes);
}

TEST(PlanCacheTest, ByteBudgetBoundsResidentFlatPlans) {
  int64_t one_plan = FlatEvalPlan(4)->ApproxBytes() + 5;  // + key bytes
  PlanCache cache(2 * one_plan, 1);
  for (int i = 0; i < 10; ++i) {
    cache.Put("plan" + std::to_string(i), FlatEvalPlan(4));
    EXPECT_LE(cache.stats().bytes, cache.capacity_bytes());
  }
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_EQ(cache.stats().evictions, 8);
}

// ---------------------------------------------------------------------------
// PlanDiskStore (--plan-cache-dir): persistence, rejection, fault site.

std::string FreshPlanDir(const std::string& name) {
  std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(PlanDiskStoreTest, EmptyDirDisablesTheStore) {
  PlanDiskStore store("");
  EXPECT_FALSE(store.enabled());
  EXPECT_EQ(store.Load("k", 100), nullptr);
  store.Save("k", *FlatEvalPlan(2));  // must not crash or write anywhere
}

TEST(PlanDiskStoreTest, SaveThenLoadRoundTripsPlanAndAnswers) {
  PlanDiskStore store(FreshPlanDir("plan_store_rt"));
  std::shared_ptr<CachedPlan> plan = FlatEvalPlan(3);
  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  store.Save("eval|fp|q", *plan);
  std::shared_ptr<const CachedPlan> loaded = store.Load("eval|fp|q", 100);
  ASSERT_NE(loaded, nullptr);
  ASSERT_TRUE(loaded->eval_answers.has_value());
  EXPECT_EQ(*loaded->eval_answers, *plan->eval_answers);
  ASSERT_TRUE(loaded->flat_plan.has_value());
  EXPECT_EQ(loaded->flat_plan->edges(), plan->flat_plan->edges());
  EXPECT_EQ(loaded->flat_plan->offsets(), plan->flat_plan->offsets());
  // A key that was never saved is a miss, not a reject.
  EXPECT_EQ(store.Load("eval|fp|other", 100), nullptr);
  obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("service.plan_cache.disk_write"), 1);
  EXPECT_EQ(delta.CounterValue("service.plan_cache.disk_hit"), 1);
  EXPECT_EQ(delta.CounterValue("service.plan_cache.disk_miss"), 1);
  EXPECT_EQ(delta.CounterValue("service.plan_cache.disk_reject"), 0);
}

TEST(PlanDiskStoreTest, FilenameAliasCannotServeAnotherKeysPlan) {
  PlanDiskStore store(FreshPlanDir("plan_store_alias"));
  store.Save("key-a", *FlatEvalPlan(2));
  // Simulate a filename-hash collision: key-b's slot holds key-a's payload.
  ASSERT_EQ(std::rename(store.PathForKey("key-a").c_str(),
                        store.PathForKey("key-b").c_str()),
            0);
  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  EXPECT_EQ(store.Load("key-b", 100), nullptr);
  obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("service.plan_cache.disk_reject"), 1);
}

TEST(PlanDiskStoreTest, CorruptedFileIsRejectedNotServed) {
  PlanDiskStore store(FreshPlanDir("plan_store_corrupt"));
  store.Save("key", *FlatEvalPlan(2));
  std::string path = store.PathForKey("key");
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(100);
    file.put(static_cast<char>(0xff));
  }
  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  EXPECT_EQ(store.Load("key", 100), nullptr);
  obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("service.plan_cache.disk_reject"), 1);
}

TEST(PlanDiskStoreTest, AnswerIdsBeyondSnapshotAreRejected) {
  PlanDiskStore store(FreshPlanDir("plan_store_range"));
  std::shared_ptr<CachedPlan> plan = FlatEvalPlan(5);  // answers up to (4, 5)
  store.Save("key", *plan);
  EXPECT_NE(store.Load("key", 100), nullptr);
  // The same file against a smaller snapshot names out-of-range nodes.
  EXPECT_EQ(store.Load("key", 3), nullptr);
}

TEST(PlanDiskStoreTest, DiskIoFaultFailsBothDirectionsCleanly) {
  fault::DisarmAll();
  PlanDiskStore store(FreshPlanDir("plan_store_fault"));
  ASSERT_TRUE(fault::Configure("plan_cache.disk_io=every:1").ok());
  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  store.Save("key", *FlatEvalPlan(2));  // write fails, nothing persisted
  EXPECT_EQ(store.Load("key", 100), nullptr);
  obs::MetricsSnapshot delta = obs::TakeMetricsSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("service.plan_cache.disk_write_failed"), 1);
  EXPECT_EQ(delta.CounterValue("service.plan_cache.disk_write"), 0);
  EXPECT_EQ(delta.CounterValue("service.plan_cache.disk_reject"), 1);
  fault::DisarmAll();
  // With the fault gone the store works again (nothing was poisoned).
  store.Save("key", *FlatEvalPlan(2));
  EXPECT_NE(store.Load("key", 100), nullptr);
}

// ---------------------------------------------------------------------------
// Server + persistent plan cache: warm restarts and corrupt-file healing.

TEST(ServerTest, RestartedServerServesRepeatedQueryFromDisk) {
  std::string graph = WriteTempGraph("srv_disk.txt", "a r b\nb r c\nc s d\n");
  ServerOptions options = OptionsWithDb(graph);
  options.plan_cache_dir = FreshPlanDir("srv_disk_plans");
  const std::string line = R"({"id":1,"op":"eval","query":"r* s"})";
  std::string cold_answers;
  {
    Server server(options);
    ASSERT_TRUE(server.Init().ok());
    Json cold = Handle(server, line);
    EXPECT_EQ(FindField(cold, "status")->string_value(), "ok");
    EXPECT_EQ(FindField(cold, "cache")->string_value(), "miss");
    cold_answers = FindField(cold, "answers")->Dump();
  }  // server gone; only the persisted plan survives
  Server restarted(options);
  ASSERT_TRUE(restarted.Init().ok());
  Json warm = Handle(restarted, line);
  EXPECT_EQ(FindField(warm, "status")->string_value(), "ok");
  EXPECT_EQ(FindField(warm, "cache")->string_value(), "disk");
  EXPECT_EQ(FindField(warm, "answers")->Dump(), cold_answers);
  // The disk hit was promoted into the in-memory cache.
  Json hot = Handle(restarted, line);
  EXPECT_EQ(FindField(hot, "cache")->string_value(), "hit");
  // No recompile on the warm path: the per-request counter deltas carry no
  // eval.plan_compiles for the disk-served request.
  EXPECT_EQ(FindField(warm, "counters")->Find("eval.plan_compiles"), nullptr);
}

TEST(ServerTest, CorruptPersistedPlanRecompilesAndServerStaysUp) {
  std::string graph = WriteTempGraph("srv_heal.txt", "a r b\nb r c\n");
  ServerOptions options = OptionsWithDb(graph);
  options.plan_cache_dir = FreshPlanDir("srv_heal_plans");
  const std::string line = R"({"id":1,"op":"eval","query":"r*"})";
  std::string good_answers;
  {
    Server server(options);
    ASSERT_TRUE(server.Init().ok());
    good_answers =
        FindField(Handle(server, line), "answers")->Dump();
  }
  // Corrupt every persisted plan in place (a torn write / bad sector).
  int corrupted = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.plan_cache_dir)) {
    std::fstream file(entry.path(),
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(90);
    file.put('\x5a');
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0);

  Server restarted(options);
  ASSERT_TRUE(restarted.Init().ok());
  Json healed = Handle(restarted, line);
  // The corrupt plan is rejected by checksum, the query recompiles, the
  // response is correct, and the serve path never errors.
  EXPECT_EQ(FindField(healed, "status")->string_value(), "ok");
  EXPECT_EQ(FindField(healed, "cache")->string_value(), "miss");
  EXPECT_EQ(FindField(healed, "answers")->Dump(), good_answers);
  EXPECT_EQ(
      FindField(healed, "counters")->Find("service.plan_cache.disk_reject")
          ->int_value(),
      1);

  // The recompile re-persisted a good plan: one more restart serves "disk".
  Server again(options);
  ASSERT_TRUE(again.Init().ok());
  EXPECT_EQ(FindField(Handle(again, line), "cache")->string_value(), "disk");
}

// A plan renders its `answers` array once, straight from the snapshot's node
// dictionary, and every later response splices those bytes. Every path to
// the plan must send the same bytes, escaped as a Json tree escapes them: a
// miss, in-memory hits (one batched behind another) and a disk hit.
TEST(ServerTest, RenderedAnswersAreIdenticalOnEveryCachePath) {
  // Node names that need escaping, and one in multi-byte UTF-8.
  const std::string quote = "q\"1";
  const std::string backslash = "b\\2";
  const std::string utf8 = "\xc3\xa9t\xc3\xa9";
  const std::string text = quote + " r " + backslash + "\n" + backslash +
                           " r " + utf8 + "\n" + utf8 + " s " + quote + "\n";
  std::string graph = WriteTempGraph("srv_render.txt", text);
  ServerOptions options = OptionsWithDb(graph);
  options.plan_cache_dir = FreshPlanDir("srv_render_plans");
  const std::string line = R"({"id":1,"op":"eval","query":"r* s"})";

  std::string miss;
  std::string none;
  std::vector<std::string> batch;
  {
    Server server(options);
    ASSERT_TRUE(server.Init().ok());
    miss = server.HandleLine(line);
    none = server.HandleLine(R"({"id":2,"op":"eval","query":"s s"})");
    // Both requests of the batch find the plan in the in-memory cache.
    auto parsed = server.ParseBatch({line, line});
    batch = server.ExecuteBatch(parsed.get());
  }
  ASSERT_EQ(batch.size(), 2u);
  std::string disk;
  {
    Server restarted(options);
    ASSERT_TRUE(restarted.Init().ok());
    disk = restarted.HandleLine(line);
  }
  Json batch_hit = MustParse(batch[1]);
  EXPECT_EQ(FindField(MustParse(miss), "cache")->string_value(), "miss");
  EXPECT_EQ(FindField(MustParse(batch[0]), "cache")->string_value(), "hit");
  EXPECT_EQ(FindField(batch_hit, "cache")->string_value(), "hit");
  EXPECT_EQ(FindField(MustParse(disk), "cache")->string_value(), "disk");

  // What the plan decides: the bytes from "snapshot_version" up to "cache".
  auto plan_bytes = [](const std::string& response) {
    size_t from = response.find("\"snapshot_version\"");
    size_t to = response.find(",\"cache\"");
    EXPECT_NE(from, std::string::npos) << response;
    EXPECT_NE(to, std::string::npos) << response;
    return response.substr(from, to - from);
  };
  EXPECT_EQ(plan_bytes(batch[0]), plan_bytes(miss));
  EXPECT_EQ(plan_bytes(batch[1]), plan_bytes(miss));
  EXPECT_EQ(plan_bytes(disk), plan_bytes(miss));

  // The answers are the engine's pairs, in engine order, named through the
  // dictionary and escaped as a Json tree escapes them.
  auto snapshot = LoadGraphSnapshot(graph);
  ASSERT_TRUE(snapshot.ok());
  const GraphDb& db = (*snapshot)->db;
  SignedAlphabet alphabet = (*snapshot)->alphabet;
  RegexPtr query = ParseRegex("r* s").value();
  RegisterRelations({query}, &alphabet);
  StatusOr<Nfa> nfa = CompileRegex(query, alphabet);
  ASSERT_TRUE(nfa.ok());
  JsonArray expected;
  for (const auto& [x, y] : EvalRpqiAllPairs(db, CompileEvalPlan(*nfa))) {
    expected.push_back(Json::Arr({Json::Str(std::string(db.NodeName(x))),
                                  Json::Str(std::string(db.NodeName(y)))}));
  }
  ASSERT_EQ(expected.size(), 3u);
  const std::string answers = Json::Arr(expected).Dump();
  EXPECT_EQ(FindField(MustParse(miss), "answers")->Dump(), answers);
  size_t spliced = miss.find("\"answers\":" + answers + ",\"cache\"");
  EXPECT_NE(spliced, std::string::npos) << miss;
  EXPECT_NE(none.find("\"answers\":[],\"cache\""), std::string::npos) << none;
}

}  // namespace
}  // namespace service
}  // namespace rpqi
