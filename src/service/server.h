#ifndef RPQI_SERVICE_SERVER_H_
#define RPQI_SERVICE_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "service/admission.h"
#include "service/breaker.h"
#include "service/json.h"
#include "service/plan_cache.h"
#include "service/snapshot.h"

namespace rpqi {
namespace service {

/// One tenant namespace: a named snapshot with its own view set and admission
/// quota. Requests select a namespace with a `"ns"` field; requests without
/// one run against the server's default snapshot.
struct NamespaceOptions {
  std::string name;
  /// Graph loaded into the namespace's snapshot store at Init().
  std::string db_path;
  /// Optional view-definition file: one `name=expression` per line ('#'
  /// comments and blank lines ignored). A namespaced `rewrite` request that
  /// carries no `views` field uses these.
  std::string views_path;
  /// Requests from this namespace admitted (queued or executing) at once;
  /// one more is rejected with the `overloaded` error code. 0 = unlimited.
  int64_t max_inflight = 0;
};

/// Configuration for one Server instance. Zero-valued quota fields mean
/// "unlimited"; see AdmissionPolicy for the per-request derivation.
struct ServerOptions {
  /// Worker threads executing request batches (`rpqi serve --threads`); each
  /// request's pipeline runs serially on its worker.
  int threads = 1;
  AdmissionPolicy admission;
  /// Plan-cache capacity; <= 0 disables caching.
  int64_t plan_cache_bytes = int64_t{64} << 20;
  /// Directory for the persistent plan cache (--plan-cache-dir): compiled
  /// eval plans are serialized here so a restarted server serves its first
  /// repeated query at warm-cache latency. Empty disables persistence. The
  /// directory must already exist.
  std::string plan_cache_dir;
  /// Graph database loaded at Init(); empty = start without a snapshot (eval
  /// requests fail with `unavailable` until an `admin reload`).
  std::string initial_db_path;
  /// Tenant namespaces loaded at Init(); duplicate names are an Init error.
  /// The plan cache is shared across namespaces — keys embed the snapshot
  /// fingerprint, so tenants serving identical graph content share plans and
  /// different content can never alias.
  std::vector<NamespaceOptions> namespaces;
  /// Circuit breaker over the query ops (eval/rewrite/answer, keyed per op).
  /// 0 disables it. `admin` deliberately bypasses the breaker so an
  /// `admin reload` can repair the condition that tripped it.
  int breaker_failure_threshold = 0;
  int64_t breaker_cooldown_ms = 1000;
  /// Test hook: fake monotonic clock (ms) for the breaker's cooldown timer.
  std::function<int64_t()> breaker_now_ms;
  /// Retry schedule applied to `admin reload` (and Init); transient I/O
  /// failures are retried, content errors are not.
  ReloadRetryPolicy reload_retry;
};

/// Renders a protocol error response line (no trailing newline) outside the
/// request pipeline — for transports that must reject input they cannot even
/// hand to the Server (oversized frames, connection shedding).
std::string ErrorResponseLine(const Json& id, const std::string& code,
                              const std::string& message);

/// The long-lived query-serving engine behind `rpqi serve`: parses NDJSON
/// requests (one JSON object per line) into batches and executes them,
/// producing one NDJSON response line per request that echoes its `id`. It
/// owns no I/O: the request loop in src/net/tcp_server.h reads the lines —
/// from TCP connections or from stdin as one more connection — runs batches
/// on its worker pool, and writes each connection's responses in request
/// order.
///
/// Protocol (see README, "The serve protocol", for the full reference):
///   {"id":1,"op":"eval","query":"(a|b)* c","timeout_ms":500}
///   {"id":2,"op":"rewrite","query":"a b","views":{"v1":"a","v2":"b"}}
///   {"id":3,"op":"answer","mode":"oda","objects":3,"query":"a",
///    "views":[{"name":"v","expr":"a","assumption":"exact",
///              "extension":[[0,1]]}],"pairs":[[0,1]]}
///   {"id":4,"op":"admin","action":"reload","db":"graph.txt"}
///   {"id":5,"op":"eval","query":"a","ns":"tenant1"}
/// Responses carry "status":"ok" plus op fields, or "status":"error" with a
/// structured code (invalid_request, unavailable, overloaded,
/// resource_exhausted, deadline_exceeded, cancelled) — request failures are
/// responses, never process exits.
///
/// Lifecycle: one Server outlives any number of serve loops; the plan cache
/// and snapshot store persist across them — that is the whole point.
class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Loads the initial snapshot (when the options name one) and every
  /// configured namespace. Split from the constructor so the CLI can map a
  /// bad --db to a clean exit code.
  Status Init();

  /// Parses and executes one request line synchronously on the calling
  /// thread and returns the response line (no trailing newline). The
  /// single-request entry point for tests and benchmarks; admission control
  /// (queueing) is bypassed, quotas still apply.
  std::string HandleLine(const std::string& line);

  /// A group of adjacent request lines read together from one transport
  /// buffer, parsed and admitted as a unit. Opaque to transports; the
  /// lifetime of namespace-quota tickets is tied to it.
  struct ParsedBatch;

  /// Parses `lines` into a batch. Call on the transport's read thread:
  /// admission (deadline anchoring, namespace-quota tickets) happens here, at
  /// arrival time, so time queued behind other batches counts against each
  /// request's own deadline. Lines that fail parsing or admission carry a
  /// ready-made error response inside the batch. Parsing stops after an
  /// `admin shutdown` request: the lines behind it are not admitted.
  std::shared_ptr<ParsedBatch> ParseBatch(const std::vector<std::string>& lines);

  /// True when the batch ends with an `admin shutdown` request — the
  /// transport should stop reading new input but still execute this batch.
  static bool RequestsShutdown(const ParsedBatch& batch);

  /// Executes every request in the batch on the calling thread and returns
  /// one response line per input line, in input order. Requests in one batch
  /// share a BatchContext: the snapshot is pinned once per store, so the
  /// batch sees one graph version per store
  /// (`service.batch.snapshot_pins_saved` counts the reused pins;
  /// `service.batch.size` is the batch-size histogram). Plans resolve through
  /// the sharded plan cache per request. Namespace-quota tickets are released
  /// on return.
  std::vector<std::string> ExecuteBatch(ParsedBatch* batch);

  /// Rejection responses for a batch the transport could not enqueue (pool
  /// full): one line per batch entry, echoing each request's id. Releases the
  /// batch's quota tickets.
  std::vector<std::string> RejectBatch(ParsedBatch* batch,
                                       const std::string& code,
                                       const std::string& message);

  const PlanCache& plan_cache() const { return plan_cache_; }
  SnapshotStore& snapshot_store() { return snapshot_store_; }
  const ServerOptions& options() const { return options_; }

 private:
  struct Request;
  struct Namespace;
  /// Per-batch amortization state: pinned snapshots.
  struct BatchContext;

  enum class ParseOutcome {
    kOk,
    /// Malformed envelope; `*error_response` is the invalid_request line.
    kInvalid,
    /// Admission rejected it (namespace quota); `*error_response` is the
    /// overloaded line.
    kRejected,
  };

  /// Parses the envelope (id/op/quota/ns fields) and admits the request.
  ParseOutcome ParseRequest(const std::string& line, Request* request,
                            std::string* error_response);
  /// Executes a parsed request and renders the full response line. `ctx` is
  /// non-null when the request runs as part of a batch.
  std::string ExecuteToResponse(const Request& request,
                                BatchContext* ctx = nullptr);

  /// `*cache_source` reports where the plan came from: "miss" (compiled
  /// fresh), "hit" (in-memory cache), or "disk" (persistent store; eval
  /// only). Echoed as the response's `cache` field.
  StatusOr<JsonObject> OpEval(const Request& request, Budget* budget,
                              const char** cache_source, BatchContext* ctx);
  StatusOr<JsonObject> OpRewrite(const Request& request, Budget* budget,
                                 const char** cache_source);
  StatusOr<JsonObject> OpAnswer(const Request& request, Budget* budget);
  StatusOr<JsonObject> OpAdmin(const Request& request);

  /// The snapshot store a request routes to: its namespace's, or the default.
  SnapshotStore& StoreFor(const Request& request);

  ServerOptions options_;
  PlanCache plan_cache_;
  PlanDiskStore plan_disk_;
  SnapshotStore snapshot_store_;
  /// Tenant namespaces by name; populated at Init(), immutable afterwards
  /// (the Namespace objects themselves are internally synchronized).
  std::map<std::string, std::unique_ptr<Namespace>> namespaces_;
  CircuitBreaker breaker_;
};

}  // namespace service
}  // namespace rpqi

#endif  // RPQI_SERVICE_SERVER_H_
