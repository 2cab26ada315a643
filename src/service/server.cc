#include "service/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <new>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "answer/cda.h"
#include "answer/oda.h"
#include "answer/views.h"
#include "fault/fault.h"
#include "graphdb/eval.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "regex/parser.h"
#include "regex/printer.h"
#include "rewrite/exactness.h"
#include "rewrite/rewriter.h"
#include "rpq/compile.h"
#include "service/errors.h"

namespace rpqi {
namespace service {
namespace {

constexpr int64_t kMaxSleepMs = 10000;

const char* StatusErrorCode(const Status& status) {
  switch (status.code()) {
    case Status::Code::kOk:
      return "ok";
    case Status::Code::kInvalidArgument:
      return IsUnavailable(status) ? "unavailable" : "invalid_request";
    case Status::Code::kResourceExhausted:
      return "resource_exhausted";
    case Status::Code::kDeadlineExceeded:
      return "deadline_exceeded";
    case Status::Code::kCancelled:
      return "cancelled";
  }
  return "invalid_request";
}

/// Appends `,"name":value` per member to an object that already has its
/// opening brace and first member.
void AppendMembers(const JsonObject& members, std::string* out) {
  for (const auto& [name, value] : members) {
    out->append(",\"");
    JsonEscapeTo(name, out);
    out->append("\":");
    value.DumpTo(out);
  }
}

/// `{"id":<id>,"status":"<status_word>"` followed by `fields`: a response
/// line still open for more members and its closing brace.
std::string OpenResponse(const Json& id, const char* status_word,
                         const JsonObject& fields) {
  std::string out = "{\"id\":";
  id.DumpTo(&out);
  out.append(",\"status\":\"");
  out.append(status_word);
  out.push_back('"');
  AppendMembers(fields, &out);
  return out;
}

std::string ErrorResponse(const Json& id, const std::string& code,
                          const std::string& message) {
  JsonObject fields;
  fields.emplace_back("code", Json::Str(code));
  fields.emplace_back("message", Json::Str(message));
  std::string out = OpenResponse(id, "error", fields);
  out.push_back('}');
  return out;
}

/// The plan's `rendered` bytes as a Json value that shares the plan's
/// ownership, so they outlive the request's plan reference.
Json RenderedField(const std::shared_ptr<const CachedPlan>& plan) {
  return Json::Raw(std::shared_ptr<const std::string>(plan, &plan->rendered));
}

/// Renders an eval plan's answers as the `answers` array, node names straight
/// from the snapshot's dictionary, in engine order. Every id must already be
/// in range for `db`: the disk store's bounds check runs before this.
void RenderAnswers(const GraphDb& db, CachedPlan* plan) {
  std::string& out = plan->rendered;
  out = "[";
  for (const auto& [x, y] : *plan->eval_answers) {
    if (out.size() > 1) out.push_back(',');
    out.append("[\"");
    JsonEscapeTo(db.NodeName(x), &out);
    out.append("\",\"");
    JsonEscapeTo(db.NodeName(y), &out);
    out.append("\"]");
  }
  out.push_back(']');
  out.shrink_to_fit();  // the cache budget counts capacity, not size
}

/// Required string member; InvalidArgument naming the key otherwise.
StatusOr<std::string> RequireString(const Json& body, const char* key) {
  const Json* value = body.Find(key);
  if (value == nullptr || !value->is_string()) {
    return Status::InvalidArgument(std::string("request needs a string '") +
                                   key + "' field");
  }
  return value->string_value();
}

/// Optional non-negative integer member with a default; InvalidArgument when
/// present but not an integer >= 0.
StatusOr<int64_t> OptionalInt(const Json& body, const char* key,
                              int64_t default_value) {
  const Json* value = body.Find(key);
  if (value == nullptr) return default_value;
  if (!value->is_int() || value->int_value() < 0) {
    return Status::InvalidArgument(std::string("'") + key +
                                   "' must be a non-negative integer");
  }
  return value->int_value();
}

StatusOr<RegexPtr> ParseExpr(const std::string& text) {
  StatusOr<RegexPtr> parsed = ParseRegex(text);
  if (!parsed.ok()) {
    return Status::InvalidArgument("in expression '" + text +
                                   "': " + parsed.status().message());
  }
  return parsed;
}

StatusOr<std::pair<int, int>> ParsePairElement(const Json& element,
                                               const char* what,
                                               int num_objects) {
  if (!element.is_array() || element.array().size() != 2 ||
      !element.array()[0].is_int() || !element.array()[1].is_int()) {
    return Status::InvalidArgument(std::string(what) +
                                   " entries must be [int,int] pairs");
  }
  int64_t a = element.array()[0].int_value();
  int64_t b = element.array()[1].int_value();
  if (a < 0 || b < 0 || a >= num_objects || b >= num_objects) {
    return Status::InvalidArgument(
        std::string(what) + " pair [" + std::to_string(a) + "," +
        std::to_string(b) + "] names an object outside [0, " +
        std::to_string(num_objects) + ")");
  }
  return std::pair<int, int>{static_cast<int>(a), static_cast<int>(b)};
}

/// Named view expressions of a rewrite request, canonically ordered.
struct NamedViews {
  std::vector<std::string> names;
  std::vector<RegexPtr> exprs;
};

/// Accepts {"v1":"expr",...} or [["v1","expr"],...]; sorts by name so the
/// plan-cache key and the compiled automata are order-independent.
StatusOr<NamedViews> ParseNamedViews(const Json& body) {
  const Json* views = body.Find("views");
  if (views == nullptr) {
    return Status::InvalidArgument("request needs a 'views' field");
  }
  std::vector<std::pair<std::string, std::string>> raw;
  if (views->is_object()) {
    for (const auto& [name, expr] : views->object()) {
      if (!expr.is_string()) {
        return Status::InvalidArgument("view '" + name +
                                       "': expression must be a string");
      }
      raw.emplace_back(name, expr.string_value());
    }
  } else if (views->is_array()) {
    for (const Json& element : views->array()) {
      if (!element.is_array() || element.array().size() != 2 ||
          !element.array()[0].is_string() || !element.array()[1].is_string()) {
        return Status::InvalidArgument(
            "'views' array entries must be [name, expression] string pairs");
      }
      raw.emplace_back(element.array()[0].string_value(),
                       element.array()[1].string_value());
    }
  } else {
    return Status::InvalidArgument(
        "'views' must be an object or an array of [name, expression] pairs");
  }
  if (raw.empty()) {
    return Status::InvalidArgument("'views' must name at least one view");
  }
  std::sort(raw.begin(), raw.end());
  NamedViews result;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (i > 0 && raw[i].first == raw[i - 1].first) {
      return Status::InvalidArgument("duplicate view name '" + raw[i].first +
                                     "'");
    }
    RPQI_ASSIGN_OR_RETURN(RegexPtr expr, ParseExpr(raw[i].second));
    result.names.push_back(raw[i].first);
    result.exprs.push_back(std::move(expr));
  }
  return result;
}

JsonObject PlanCacheStatsJson(const PlanCache& cache) {
  PlanCache::Stats stats = cache.stats();
  JsonObject object;
  object.emplace_back("hits", Json::Int(stats.hits));
  object.emplace_back("misses", Json::Int(stats.misses));
  object.emplace_back("inserts", Json::Int(stats.inserts));
  object.emplace_back("evictions", Json::Int(stats.evictions));
  object.emplace_back("entries", Json::Int(stats.entries));
  object.emplace_back("bytes", Json::Int(stats.bytes));
  object.emplace_back("capacity_bytes", Json::Int(cache.capacity_bytes()));
  return object;
}

std::string FingerprintHex(uint64_t fingerprint) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

/// Parses a `name=expression` views file (one view per line; '#' comments and
/// blank lines ignored) into a canonically ordered view set, mirroring the
/// validation ParseNamedViews applies to request-supplied views.
Status LoadViewsFile(const std::string& path, std::vector<std::string>* names,
                     std::vector<RegexPtr>* exprs) {
  std::ifstream in(path);
  if (!in) {
    return Status::InvalidArgument("cannot open views file '" + path + "'");
  }
  std::vector<std::pair<std::string, std::string>> raw;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    size_t eq = line.find('=', start);
    if (eq == std::string::npos || eq == start) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_number) +
                                     ": expected NAME=EXPRESSION");
    }
    std::string name = line.substr(start, eq - start);
    name.erase(name.find_last_not_of(" \t") + 1);
    raw.emplace_back(std::move(name), line.substr(eq + 1));
  }
  if (raw.empty()) {
    return Status::InvalidArgument("views file '" + path +
                                   "' defines no views");
  }
  std::sort(raw.begin(), raw.end());
  for (size_t i = 0; i < raw.size(); ++i) {
    if (i > 0 && raw[i].first == raw[i - 1].first) {
      return Status::InvalidArgument("views file '" + path +
                                     "': duplicate view name '" +
                                     raw[i].first + "'");
    }
    RPQI_ASSIGN_OR_RETURN(RegexPtr expr, ParseExpr(raw[i].second));
    names->push_back(raw[i].first);
    exprs->push_back(std::move(expr));
  }
  return Status::Ok();
}

}  // namespace

std::string ErrorResponseLine(const Json& id, const std::string& code,
                              const std::string& message) {
  return ErrorResponse(id, code, message);
}

/// One tenant namespace: its own snapshot store, the pre-parsed view set, and
/// a counting admission quota. Immutable after Init() except `store` (admin
/// reload swaps snapshots) and `inflight`; both are internally synchronized.
struct Server::Namespace {
  std::string name;
  NamespaceOptions options;
  SnapshotStore store;
  /// Views from options.views_path, sorted by name (parsed once at Init).
  std::vector<std::string> view_names;
  std::vector<RegexPtr> view_exprs;
  /// Requests admitted (queued or executing) right now.
  std::atomic<int64_t> inflight{0};
};

/// One admitted request: the parsed envelope plus its execution grant.
struct Server::Request {
  /// Holds one unit of a namespace's max_inflight quota from admission until
  /// the request object dies (its response has been rendered).
  struct NsTicket {
    Namespace* held = nullptr;
    NsTicket() = default;
    NsTicket(NsTicket&& other) noexcept : held(other.held) {
      other.held = nullptr;
    }
    NsTicket& operator=(NsTicket&& other) noexcept {
      if (this != &other) {
        Release();
        held = other.held;
        other.held = nullptr;
      }
      return *this;
    }
    NsTicket(const NsTicket&) = delete;
    NsTicket& operator=(const NsTicket&) = delete;
    ~NsTicket() { Release(); }
    void Release() {
      if (held != nullptr) {
        // order: counting ticket only; no data is published through it
        held->inflight.fetch_sub(1, std::memory_order_relaxed);
        held = nullptr;
      }
    }
  };

  Json id;
  std::string op;
  Json body;
  Admission admission;
  bool is_shutdown = false;
  /// Resolved tenant (nullptr = the server's default snapshot).
  Namespace* ns = nullptr;
  NsTicket ticket;
};

/// Amortization state shared by the requests of one batch: each snapshot
/// store is pinned at most once, however many requests in the batch touch
/// it, so the whole batch sees one graph version per store.
struct Server::BatchContext {
  std::map<const SnapshotStore*, std::shared_ptr<const GraphSnapshot>>
      snapshots;
};

struct Server::ParsedBatch {
  struct Entry {
    Request request;
    /// Ready-made response when parsing or admission failed (`ready` false).
    std::string error_response;
    bool ready = false;
  };
  std::vector<Entry> entries;
  bool wants_shutdown = false;
};

namespace {

CircuitBreaker::Options BreakerOptions(const ServerOptions& options) {
  CircuitBreaker::Options breaker;
  breaker.failure_threshold = options.breaker_failure_threshold;
  breaker.cooldown_ms = options.breaker_cooldown_ms;
  breaker.now_ms = options.breaker_now_ms;
  return breaker;
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options),
      plan_cache_(options.plan_cache_bytes),
      plan_disk_(options.plan_cache_dir),
      breaker_(BreakerOptions(options)) {}

Server::~Server() = default;

Status Server::Init() {
  if (!options_.initial_db_path.empty()) {
    RPQI_RETURN_IF_ERROR(
        snapshot_store_.Reload(options_.initial_db_path, options_.reload_retry)
            .status());
  }
  for (const NamespaceOptions& ns_options : options_.namespaces) {
    if (ns_options.name.empty()) {
      return Status::InvalidArgument("namespace name must be non-empty");
    }
    if (namespaces_.count(ns_options.name) != 0) {
      return Status::InvalidArgument("duplicate namespace '" +
                                     ns_options.name + "'");
    }
    auto ns = std::make_unique<Namespace>();
    ns->name = ns_options.name;
    ns->options = ns_options;
    if (ns_options.db_path.empty()) {
      return Status::InvalidArgument("namespace '" + ns_options.name +
                                     "' needs a graph path");
    }
    Status loaded =
        ns->store.Reload(ns_options.db_path, options_.reload_retry).status();
    if (!loaded.ok()) {
      return Status::InvalidArgument("namespace '" + ns_options.name +
                                     "': " + loaded.message());
    }
    if (!ns_options.views_path.empty()) {
      Status views = LoadViewsFile(ns_options.views_path, &ns->view_names,
                                   &ns->view_exprs);
      if (!views.ok()) {
        return Status::InvalidArgument("namespace '" + ns_options.name +
                                       "': " + views.message());
      }
    }
    namespaces_.emplace(ns->name, std::move(ns));
  }
  return Status::Ok();
}

SnapshotStore& Server::StoreFor(const Request& request) {
  return request.ns != nullptr ? request.ns->store : snapshot_store_;
}

Server::ParseOutcome Server::ParseRequest(const std::string& line,
                                          Request* request,
                                          std::string* error_response) {
  std::string_view payload = line;
  // Models a request cut mid-line by the transport: the parser must fail it
  // as a clean invalid_request, never crash or stall.
  if (RPQI_FAULT_FIRED("service.request_truncate")) {
    payload = payload.substr(0, payload.size() / 2);
  }
  StatusOr<Json> parsed = ParseJson(payload);
  if (!parsed.ok()) {
    *error_response = ErrorResponse(Json::Null(), "invalid_request",
                                    parsed.status().message());
    return ParseOutcome::kInvalid;
  }
  if (!parsed->is_object()) {
    *error_response = ErrorResponse(Json::Null(), "invalid_request",
                                    "request must be a JSON object");
    return ParseOutcome::kInvalid;
  }
  request->body = std::move(parsed).value();
  const Json* id = request->body.Find("id");
  request->id = id == nullptr ? Json::Null() : *id;
  const Json* op = request->body.Find("op");
  if (op == nullptr || !op->is_string()) {
    *error_response = ErrorResponse(request->id, "invalid_request",
                                    "request needs a string 'op' field");
    return ParseOutcome::kInvalid;
  }
  request->op = op->string_value();

  StatusOr<int64_t> timeout_ms = OptionalInt(request->body, "timeout_ms", 0);
  StatusOr<int64_t> max_states = OptionalInt(request->body, "max_states", 0);
  if (!timeout_ms.ok() || !max_states.ok()) {
    const Status& bad =
        timeout_ms.ok() ? max_states.status() : timeout_ms.status();
    *error_response =
        ErrorResponse(request->id, "invalid_request", bad.message());
    return ParseOutcome::kInvalid;
  }
  request->admission =
      AdmitRequest(options_.admission, *timeout_ms, *max_states);

  if (request->op == "admin") {
    const Json* action = request->body.Find("action");
    request->is_shutdown = action != nullptr && action->is_string() &&
                           action->string_value() == "shutdown";
  }

  const Json* ns_field = request->body.Find("ns");
  if (ns_field != nullptr) {
    if (!ns_field->is_string()) {
      *error_response = ErrorResponse(request->id, "invalid_request",
                                      "'ns' must be a string namespace name");
      return ParseOutcome::kInvalid;
    }
    auto it = namespaces_.find(ns_field->string_value());
    if (it == namespaces_.end()) {
      *error_response = ErrorResponse(
          request->id, "invalid_request",
          "unknown namespace '" + ns_field->string_value() + "'");
      return ParseOutcome::kInvalid;
    }
    request->ns = it->second.get();
  }
  // Namespace admission quota, taken at arrival so a flooding tenant is shed
  // here instead of occupying the shared queue. The ticket rides on the
  // request object and frees the slot when the response has been rendered.
  if (request->ns != nullptr && request->ns->options.max_inflight > 0) {
    static const obs::Counter ns_rejected("service.rejected.ns_quota");
    // order: counting ticket only; no data is published through it
    int64_t before =
        request->ns->inflight.fetch_add(1, std::memory_order_relaxed);
    request->ticket.held = request->ns;
    if (before >= request->ns->options.max_inflight) {
      ns_rejected.Increment();
      *error_response = ErrorResponse(
          request->id, "overloaded",
          "namespace '" + request->ns->name + "' is at max_inflight " +
              std::to_string(request->ns->options.max_inflight));
      return ParseOutcome::kRejected;
    }
  }
  return ParseOutcome::kOk;
}

std::string Server::ExecuteToResponse(const Request& request,
                                      BatchContext* ctx) {
  static const obs::Counter requests("service.requests");
  static const obs::Counter expired("service.rejected.expired_in_queue");
  static const obs::Histogram request_us("service.request_us");
  obs::Span span("service.request");
  std::vector<int64_t> baseline = obs::internal::ThreadCounterValues();
  auto start = std::chrono::steady_clock::now();
  requests.Increment();

  StatusOr<JsonObject> fields = Status::InvalidArgument("unreachable");
  const char* cache_source = "miss";
  bool cacheable_op = false;
  if (request.admission.ExpiredInQueue()) {
    expired.Increment();
    fields = Status::DeadlineExceeded(
        "deadline expired while the request was queued");
  } else {
    // The breaker guards the query ops only: `admin` must stay reachable so
    // an `admin reload` can repair whatever tripped it. A fast-failed
    // request never reaches the engine, so it reports no outcome either.
    bool breaker_guarded = request.op == "eval" || request.op == "rewrite" ||
                           request.op == "answer";
    if (breaker_guarded && breaker_.ShouldReject(request.op)) {
      breaker_guarded = false;
      fields = Unavailable("circuit breaker open for op '" + request.op +
                           "'; retrying after cooldown");
    } else {
      Budget budget = request.admission.MakeBudget();
      // Running out of memory fails this request, not the process: every
      // other client keeps being served, and the breaker counts it as the
      // engine giving out.
      try {
        if (request.op == "eval") {
          cacheable_op = true;
          fields = OpEval(request, &budget, &cache_source, ctx);
        } else if (request.op == "rewrite") {
          cacheable_op = true;
          fields = OpRewrite(request, &budget, &cache_source);
        } else if (request.op == "answer") {
          fields = OpAnswer(request, &budget);
        } else if (request.op == "admin") {
          fields = OpAdmin(request);
        } else {
          fields = Status::InvalidArgument("unknown op '" + request.op + "'");
        }
      } catch (const std::bad_alloc&) {
        fields = Status::ResourceExhausted("out of memory executing op '" +
                                           request.op + "'");
      }
    }
    if (breaker_guarded) {
      // Only internal exhaustion counts against the breaker: the engine gave
      // out. Any other outcome — success, a caller mistake, a caller-chosen
      // deadline — proves the engine is reachable and resets the streak.
      if (!fields.ok() &&
          fields.status().code() == Status::Code::kResourceExhausted) {
        breaker_.RecordInternalError(request.op);
      } else {
        breaker_.RecordSuccess(request.op);
      }
    }
  }

  // The body is rendered before the clock stops, so `us` and
  // service.request_us cover rendering; only the cache/us/counters tail is
  // appended afterwards.
  std::string response;
  if (fields.ok()) {
    response = OpenResponse(request.id, "ok", *fields);
  } else {
    JsonObject error_fields;
    error_fields.emplace_back("code",
                              Json::Str(StatusErrorCode(fields.status())));
    error_fields.emplace_back(
        "message", Json::Str(StripUnavailable(fields.status())));
    response = OpenResponse(request.id, "error", error_fields);
  }
  int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  request_us.RecordUs(us);
  span.Note("ok", fields.ok() ? 1 : 0);

  JsonObject tail;
  if (cacheable_op && fields.ok()) {
    // "hit" = in-memory cache, "disk" = persistent store (eval only),
    // "miss" = compiled fresh this request.
    tail.emplace_back("cache", Json::Str(cache_source));
  }
  tail.emplace_back("us", Json::Int(us));
  // Same-thread counter deltas: the request ran entirely on this worker, so
  // the deltas are exactly this request's footprint.
  std::vector<std::pair<std::string, int64_t>> deltas;
  obs::internal::AppendCounterDeltasSince(baseline, &deltas);
  JsonObject counters;
  for (const auto& [name, delta] : deltas) {
    counters.emplace_back(name, Json::Int(delta));
  }
  tail.emplace_back("counters", Json::Obj(std::move(counters)));
  AppendMembers(tail, &response);
  response.push_back('}');
  return response;
}

StatusOr<JsonObject> Server::OpEval(const Request& request, Budget* budget,
                                    const char** cache_source,
                                    BatchContext* ctx) {
  static const obs::Counter pins_saved("service.batch.snapshot_pins_saved");
  SnapshotStore& store = StoreFor(request);
  // Within a batch the snapshot is pinned once per store; every further
  // request reuses the pin (and is thereby guaranteed to see the same graph
  // version as its batch peers, even across a concurrent reload).
  std::shared_ptr<const GraphSnapshot> snapshot;
  if (ctx != nullptr) {
    auto pinned = ctx->snapshots.find(&store);
    if (pinned != ctx->snapshots.end()) {
      snapshot = pinned->second;
      pins_saved.Increment();
    }
  }
  if (snapshot == nullptr) {
    snapshot = store.Current();
    if (snapshot != nullptr && ctx != nullptr) {
      ctx->snapshots.emplace(&store, snapshot);
    }
  }
  if (snapshot == nullptr) {
    return Unavailable(
        "no graph snapshot loaded; start with --db or send "
        "{\"op\":\"admin\",\"action\":\"reload\",\"db\":...}");
  }
  RPQI_ASSIGN_OR_RETURN(std::string query_text,
                        RequireString(request.body, "query"));
  RPQI_ASSIGN_OR_RETURN(RegexPtr expr, ParseExpr(query_text));
  // Key: op, snapshot content fingerprint, canonicalized query AST. Textual
  // variants of one AST ("a|b" vs "(a|b)") share an entry; different
  // snapshot contents can never alias.
  std::string key = "eval|" + FingerprintHex(snapshot->fingerprint) + "|" +
                    RegexToString(expr);

  std::shared_ptr<const CachedPlan> plan = plan_cache_.Get(key);
  std::shared_ptr<CachedPlan> loaded;
  if (plan != nullptr && plan->eval_answers.has_value()) {
    *cache_source = "hit";
  } else if ((loaded = plan_disk_.Load(key, snapshot->db.NumNodes())) !=
             nullptr) {
    // Persistent store hit (typically the first repeated query after a
    // restart): render it once, then promote it into the in-memory cache so
    // the next request is a plain "hit".
    *cache_source = "disk";
    RenderAnswers(snapshot->db, loaded.get());
    plan_cache_.Put(key, loaded);
    plan = std::move(loaded);
  } else {
    SignedAlphabet alphabet = snapshot->alphabet;
    RegisterRelations({expr}, &alphabet);
    RPQI_ASSIGN_OR_RETURN(Nfa query, CompileRegex(expr, alphabet));
    FlatNfa compiled = CompileEvalPlan(query);
    RPQI_ASSIGN_OR_RETURN(auto pairs, EvalRpqiAllPairsWithBudget(
                                          snapshot->db, compiled, budget));
    auto fresh = std::make_shared<CachedPlan>();
    fresh->flat_plan = std::move(compiled);
    fresh->eval_answers = std::move(pairs);
    RenderAnswers(snapshot->db, fresh.get());
    plan_cache_.Put(key, fresh);
    plan_disk_.Save(key, *fresh);
    plan = std::move(fresh);
  }

  JsonObject fields;
  fields.emplace_back("snapshot_version", Json::Int(snapshot->version));
  fields.emplace_back("answers", RenderedField(plan));
  return fields;
}

StatusOr<JsonObject> Server::OpRewrite(const Request& request, Budget* budget,
                                       const char** cache_source) {
  RPQI_ASSIGN_OR_RETURN(std::string query_text,
                        RequireString(request.body, "query"));
  RPQI_ASSIGN_OR_RETURN(RegexPtr query_expr, ParseExpr(query_text));
  NamedViews views;
  if (request.body.Find("views") == nullptr && request.ns != nullptr &&
      !request.ns->view_names.empty()) {
    // Namespaced request without explicit views: the tenant's configured view
    // set applies (already sorted and validated at Init).
    views.names = request.ns->view_names;
    views.exprs = request.ns->view_exprs;
  } else {
    RPQI_ASSIGN_OR_RETURN(views, ParseNamedViews(request.body));
  }

  std::string key = "rewrite|" + RegexToString(query_expr);
  for (size_t i = 0; i < views.names.size(); ++i) {
    key += "|" + views.names[i] + "=" + RegexToString(views.exprs[i]);
  }

  std::shared_ptr<const CachedPlan> plan = plan_cache_.Get(key);
  Status exact_cause;
  if (plan != nullptr && plan->rewriting.has_value()) {
    *cache_source = "hit";
  } else {
    SignedAlphabet alphabet;
    RegisterRelations({query_expr}, &alphabet);
    RegisterRelations(views.exprs, &alphabet);
    RPQI_ASSIGN_OR_RETURN(Nfa query, CompileRegex(query_expr, alphabet));
    std::vector<Nfa> view_nfas;
    for (const RegexPtr& expr : views.exprs) {
      RPQI_ASSIGN_OR_RETURN(Nfa view, CompileRegex(expr, alphabet));
      view_nfas.push_back(std::move(view));
    }
    RewritingOptions options;
    options.budget = budget;
    if (request.admission.max_states > 0) {
      options.max_subset_states = request.admission.max_states;
      options.max_product_states = request.admission.max_states;
    }
    RPQI_ASSIGN_OR_RETURN(MaximalRewriting rewriting,
                          ComputeMaximalRewriting(query, view_nfas, options));
    auto fresh = std::make_shared<CachedPlan>();
    fresh->view_names = views.names;
    {
      // Rendered once, into the plan, before the exactness check can spend
      // the budget; out of budget here, the request fails and nothing is
      // cached.
      obs::Span span("rewrite.render");
      RPQI_ASSIGN_OR_RETURN(std::string text,
                            RenderRewriting(rewriting, views.names, budget));
      fresh->rendered = Json::Str(std::move(text)).Dump();
      fresh->rendered.shrink_to_fit();
    }
    if (rewriting.exhaustive && !rewriting.empty) {
      // Out of deadline or quota, the exactness check leaves `exact`
      // unknown and names the cause; cancellation fails the request.
      StatusOr<bool> exact =
          IsExactRewriting(query, view_nfas, rewriting.dfa, budget);
      if (exact.ok()) {
        fresh->exact = *exact;
      } else if (exact.status().code() == Status::Code::kCancelled) {
        return exact.status();
      } else {
        exact_cause = exact.status();
      }
    }
    bool exhaustive = rewriting.exhaustive;
    fresh->rewriting = std::move(rewriting);
    // Only complete results are cached: a degraded partial rewriting or an
    // unknown `exact` reflects this request's budget, not the query, and
    // must not be served to better-funded callers.
    if (exhaustive && exact_cause.ok()) plan_cache_.Put(key, fresh);
    plan = std::move(fresh);
  }

  const MaximalRewriting& rewriting = *plan->rewriting;
  JsonObject fields;
  fields.emplace_back("empty", Json::Bool(rewriting.empty));
  fields.emplace_back("rewriting", RenderedField(plan));
  fields.emplace_back("exhaustive", Json::Bool(rewriting.exhaustive));
  fields.emplace_back("exact", plan->exact.has_value()
                                   ? Json::Bool(*plan->exact)
                                   : Json::Null());
  if (!exact_cause.ok()) {
    fields.emplace_back("exact_cause", Json::Str(exact_cause.ToString()));
  }
  if (!rewriting.exhaustive) {
    fields.emplace_back("partial_word_length",
                        Json::Int(rewriting.partial_word_length));
    fields.emplace_back("degradation_cause",
                        Json::Str(rewriting.degradation_cause.ToString()));
  }
  JsonObject stats;
  stats.emplace_back("a1_states", Json::Int(rewriting.stats.a1_states));
  stats.emplace_back("a3_states", Json::Int(rewriting.stats.a3_states));
  stats.emplace_back("a2_states_discovered",
                     Json::Int(rewriting.stats.a2_states_discovered));
  stats.emplace_back("product_states",
                     Json::Int(rewriting.stats.product_states));
  stats.emplace_back("a4_states", Json::Int(rewriting.stats.a4_states));
  stats.emplace_back("rewriting_states",
                     Json::Int(rewriting.stats.rewriting_states));
  fields.emplace_back("stats", Json::Obj(std::move(stats)));
  return fields;
}

StatusOr<JsonObject> Server::OpAnswer(const Request& request, Budget* budget) {
  RPQI_ASSIGN_OR_RETURN(std::string mode, RequireString(request.body, "mode"));
  if (mode != "cda" && mode != "oda") {
    return Status::InvalidArgument("'mode' must be 'cda' or 'oda', got '" +
                                   mode + "'");
  }
  RPQI_ASSIGN_OR_RETURN(int64_t objects64,
                        OptionalInt(request.body, "objects", 0));
  if (objects64 < 1 || objects64 > (1 << 20)) {
    return Status::InvalidArgument(
        "'objects' must be an integer in [1, 2^20]");
  }
  int num_objects = static_cast<int>(objects64);
  RPQI_ASSIGN_OR_RETURN(std::string query_text,
                        RequireString(request.body, "query"));
  RPQI_ASSIGN_OR_RETURN(RegexPtr query_expr, ParseExpr(query_text));

  const Json* views = request.body.Find("views");
  if (views == nullptr || !views->is_array() || views->array().empty()) {
    return Status::InvalidArgument(
        "request needs a non-empty 'views' array of "
        "{name, expr, assumption, extension} objects");
  }
  struct ViewSpec {
    RegexPtr expr;
    ViewAssumption assumption;
    std::vector<std::pair<int, int>> extension;
  };
  std::vector<ViewSpec> specs;
  for (const Json& element : views->array()) {
    if (!element.is_object()) {
      return Status::InvalidArgument("'views' entries must be objects");
    }
    ViewSpec spec;
    RPQI_ASSIGN_OR_RETURN(std::string expr_text,
                          RequireString(element, "expr"));
    RPQI_ASSIGN_OR_RETURN(spec.expr, ParseExpr(expr_text));
    RPQI_ASSIGN_OR_RETURN(std::string assumption,
                          RequireString(element, "assumption"));
    if (assumption == "sound") {
      spec.assumption = ViewAssumption::kSound;
    } else if (assumption == "complete") {
      spec.assumption = ViewAssumption::kComplete;
    } else if (assumption == "exact") {
      spec.assumption = ViewAssumption::kExact;
    } else {
      return Status::InvalidArgument("unknown assumption '" + assumption +
                                     "' (sound|complete|exact)");
    }
    const Json* extension = element.Find("extension");
    if (extension == nullptr || !extension->is_array()) {
      return Status::InvalidArgument(
          "view needs an 'extension' array of [a,b] pairs");
    }
    for (const Json& pair : extension->array()) {
      RPQI_ASSIGN_OR_RETURN(auto parsed,
                            ParsePairElement(pair, "extension", num_objects));
      spec.extension.push_back(parsed);
    }
    specs.push_back(std::move(spec));
  }

  std::vector<std::pair<int, int>> probes;
  const Json* pairs = request.body.Find("pairs");
  if (pairs != nullptr) {
    if (!pairs->is_array()) {
      return Status::InvalidArgument("'pairs' must be an array of [c,d]");
    }
    for (const Json& pair : pairs->array()) {
      RPQI_ASSIGN_OR_RETURN(auto parsed,
                            ParsePairElement(pair, "pairs", num_objects));
      probes.push_back(parsed);
    }
  } else {
    if (static_cast<int64_t>(num_objects) * num_objects > kMaxAllPairsProbes) {
      return Status::InvalidArgument(
          "all-pairs probing above 2^20 pairs needs an explicit 'pairs' "
          "array");
    }
    for (int c = 0; c < num_objects; ++c) {
      for (int d = 0; d < num_objects; ++d) probes.push_back({c, d});
    }
  }

  SignedAlphabet alphabet;
  RegisterRelations({query_expr}, &alphabet);
  for (const ViewSpec& spec : specs) RegisterRelations({spec.expr}, &alphabet);
  AnsweringInstance instance;
  instance.num_objects = num_objects;
  RPQI_ASSIGN_OR_RETURN(instance.query, CompileRegex(query_expr, alphabet));
  for (ViewSpec& spec : specs) {
    View view;
    RPQI_ASSIGN_OR_RETURN(view.definition, CompileRegex(spec.expr, alphabet));
    view.extension = std::move(spec.extension);
    view.assumption = spec.assumption;
    instance.views.push_back(std::move(view));
  }

  JsonArray results;
  if (mode == "oda") {
    OdaOptions options;
    options.budget = budget;
    // One solver for the whole probe batch: the Section 5.2 view-side
    // automata are built once and reused per pair.
    OdaSolver solver(instance, options);
    for (const auto& [c, d] : probes) {
      RPQI_ASSIGN_OR_RETURN(OdaResult result, solver.CertainAnswer(c, d));
      results.push_back(Json::Obj({{"pair", Json::Arr({Json::Int(c),
                                                       Json::Int(d)})},
                                   {"certain", Json::Bool(result.certain)}}));
    }
  } else {
    CdaOptions options;
    options.budget = budget;
    // One solver for the whole probe batch: the plans are compiled and the
    // search masks allocated once.
    CdaSolver solver(instance, options);
    for (const auto& [c, d] : probes) {
      RPQI_ASSIGN_OR_RETURN(CdaResult result, solver.CertainAnswer(c, d));
      results.push_back(Json::Obj({{"pair", Json::Arr({Json::Int(c),
                                                       Json::Int(d)})},
                                   {"certain", Json::Bool(result.certain)}}));
    }
  }
  JsonObject fields;
  fields.emplace_back("mode", Json::Str(mode));
  fields.emplace_back("results", Json::Arr(std::move(results)));
  return fields;
}

StatusOr<JsonObject> Server::OpAdmin(const Request& request) {
  RPQI_ASSIGN_OR_RETURN(std::string action,
                        RequireString(request.body, "action"));
  // Admin requests route like query requests: a namespaced request reloads /
  // reports its own namespace's store, so one tenant's `admin reload` can
  // never swap another tenant's snapshot.
  SnapshotStore& store = StoreFor(request);
  JsonObject fields;
  fields.emplace_back("action", Json::Str(action));
  if (request.ns != nullptr) {
    fields.emplace_back("ns", Json::Str(request.ns->name));
  }
  if (action == "reload") {
    std::string db_path;
    if (request.ns != nullptr && request.body.Find("db") == nullptr) {
      // Namespaced reload defaults to the configured path: re-reads the file
      // the namespace was started from (picks up external updates in place).
      db_path = request.ns->options.db_path;
    } else {
      RPQI_ASSIGN_OR_RETURN(db_path, RequireString(request.body, "db"));
    }
    bool transient = false;
    StatusOr<int64_t> reloaded =
        store.Reload(db_path, options_.reload_retry, &transient);
    if (!reloaded.ok()) {
      // A transient failure (open/read error, injected abort) is the
      // environment's fault, not the request's: report `unavailable` so the
      // client knows the same request may succeed on retry. Content errors
      // stay invalid_request. Either way the old snapshot keeps serving.
      if (transient) return Unavailable(reloaded.status().message());
      return reloaded.status();
    }
    int64_t version = reloaded.value();
    std::shared_ptr<const GraphSnapshot> snapshot = store.Current();
    fields.emplace_back("snapshot_version", Json::Int(version));
    fields.emplace_back("nodes", Json::Int(snapshot->db.NumNodes()));
    fields.emplace_back("edges", Json::Int(snapshot->db.NumEdges()));
    fields.emplace_back("fingerprint",
                        Json::Str(FingerprintHex(snapshot->fingerprint)));
    return fields;
  }
  if (action == "stats") {
    fields.emplace_back("plan_cache",
                        Json::Obj(PlanCacheStatsJson(plan_cache_)));
    JsonObject snapshot_stats;
    std::shared_ptr<const GraphSnapshot> snapshot = store.Current();
    snapshot_stats.emplace_back("version", Json::Int(store.version()));
    if (snapshot != nullptr) {
      snapshot_stats.emplace_back("path", Json::Str(snapshot->source_path));
      snapshot_stats.emplace_back("nodes", Json::Int(snapshot->db.NumNodes()));
      snapshot_stats.emplace_back("edges", Json::Int(snapshot->db.NumEdges()));
      snapshot_stats.emplace_back(
          "fingerprint", Json::Str(FingerprintHex(snapshot->fingerprint)));
    }
    fields.emplace_back("snapshot", Json::Obj(std::move(snapshot_stats)));
    if (request.ns != nullptr) {
      // Scoped stats: this namespace's quota state and view set.
      JsonObject ns_stats;
      // order: stats snapshot; an instantaneous count needs no ordering
      int64_t inflight =
          request.ns->inflight.load(std::memory_order_relaxed);
      ns_stats.emplace_back("max_inflight",
                            Json::Int(request.ns->options.max_inflight));
      ns_stats.emplace_back("inflight", Json::Int(inflight));
      ns_stats.emplace_back(
          "views", Json::Int(static_cast<int64_t>(
                       request.ns->view_names.size())));
      fields.emplace_back("namespace", Json::Obj(std::move(ns_stats)));
    } else if (!namespaces_.empty()) {
      // Global stats enumerate every namespace (names + quota occupancy) so
      // an operator can see all tenants from one unscoped request.
      JsonArray all;
      for (const auto& [name, ns] : namespaces_) {
        // order: stats snapshot; an instantaneous count needs no ordering
        int64_t inflight = ns->inflight.load(std::memory_order_relaxed);
        all.push_back(Json::Obj(
            {{"name", Json::Str(name)},
             {"snapshot_version", Json::Int(ns->store.version())},
             {"max_inflight", Json::Int(ns->options.max_inflight)},
             {"inflight", Json::Int(inflight)},
             {"views",
              Json::Int(static_cast<int64_t>(ns->view_names.size()))}}));
      }
      fields.emplace_back("namespaces", Json::Arr(std::move(all)));
    }
    JsonObject admission;
    admission.emplace_back("threads", Json::Int(options_.threads));
    admission.emplace_back("queue_depth",
                           Json::Int(options_.admission.queue_depth));
    admission.emplace_back("default_timeout_ms",
                           Json::Int(options_.admission.default_timeout_ms));
    admission.emplace_back("default_max_states",
                           Json::Int(options_.admission.default_max_states));
    fields.emplace_back("admission", Json::Obj(std::move(admission)));
    JsonObject breaker;
    breaker.emplace_back("enabled", Json::Bool(breaker_.enabled()));
    breaker.emplace_back("failure_threshold",
                         Json::Int(options_.breaker_failure_threshold));
    breaker.emplace_back("cooldown_ms",
                         Json::Int(options_.breaker_cooldown_ms));
    JsonArray breaker_keys;
    for (const CircuitBreaker::KeyState& key : breaker_.Snapshot()) {
      breaker_keys.push_back(Json::Obj(
          {{"op", Json::Str(key.key)},
           {"state", Json::Str(key.state)},
           {"consecutive_failures", Json::Int(key.consecutive_failures)},
           {"trips", Json::Int(key.trips)},
           {"rejected", Json::Int(key.rejected)}}));
    }
    breaker.emplace_back("keys", Json::Arr(std::move(breaker_keys)));
    fields.emplace_back("breaker", Json::Obj(std::move(breaker)));
    if (fault::Enabled()) {
      JsonArray faults;
      for (const fault::SiteInfo& site : fault::ListSites()) {
        faults.push_back(Json::Obj({{"site", Json::Str(site.name)},
                                    {"policy", Json::Str(site.policy)},
                                    {"armed", Json::Bool(site.armed)},
                                    {"hits", Json::Int(site.hits)},
                                    {"fires", Json::Int(site.fires)}}));
      }
      fields.emplace_back("faults", Json::Arr(std::move(faults)));
    }
    return fields;
  }
  if (action == "sleep") {
    // Test/diagnostic helper: occupies this worker, making queue backpressure
    // reproducible (tools/cli_serve_test.py).
    RPQI_ASSIGN_OR_RETURN(int64_t ms, OptionalInt(request.body, "ms", 0));
    ms = std::min(ms, kMaxSleepMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    fields.emplace_back("slept_ms", Json::Int(ms));
    return fields;
  }
  if (action == "shutdown") {
    fields.emplace_back("draining", Json::Bool(true));
    return fields;
  }
  return Status::InvalidArgument(
      "unknown admin action '" + action +
      "' (reload|stats|sleep|shutdown)");
}

std::string Server::HandleLine(const std::string& line) {
  Request request;
  std::string error_response;
  if (ParseRequest(line, &request, &error_response) != ParseOutcome::kOk) {
    return error_response;
  }
  return ExecuteToResponse(request);
}

std::shared_ptr<Server::ParsedBatch> Server::ParseBatch(
    const std::vector<std::string>& lines) {
  static const obs::Counter invalid("service.rejected.invalid");
  auto batch = std::make_shared<ParsedBatch>();
  batch->entries.reserve(lines.size());
  for (const std::string& line : lines) {
    ParsedBatch::Entry entry;
    switch (ParseRequest(line, &entry.request, &entry.error_response)) {
      case ParseOutcome::kOk:
        entry.ready = true;
        if (entry.request.is_shutdown) batch->wants_shutdown = true;
        break;
      case ParseOutcome::kInvalid:
        invalid.Increment();
        break;
      case ParseOutcome::kRejected:
        break;  // quota rejection; counted inside ParseRequest
    }
    batch->entries.push_back(std::move(entry));
    // Lines after a shutdown request are neither admitted nor answered.
    if (batch->wants_shutdown) break;
  }
  return batch;
}

bool Server::RequestsShutdown(const ParsedBatch& batch) {
  return batch.wants_shutdown;
}

std::vector<std::string> Server::ExecuteBatch(ParsedBatch* batch) {
  static const obs::Counter batches("service.batches");
  static const obs::Histogram batch_size("service.batch.size");
  batches.Increment();
  // RecordUs despite the name: the histogram buckets are unitless log2 bins,
  // which is exactly the right shape for a batch-size distribution too.
  batch_size.RecordUs(static_cast<int64_t>(batch->entries.size()));
  BatchContext ctx;
  std::vector<std::string> responses;
  responses.reserve(batch->entries.size());
  for (ParsedBatch::Entry& entry : batch->entries) {
    responses.push_back(entry.ready ? ExecuteToResponse(entry.request, &ctx)
                                    : entry.error_response);
  }
  // Destroying the entries releases every namespace-quota ticket: the batch
  // stops counting against its tenants the moment its responses exist.
  batch->entries.clear();
  return responses;
}

std::vector<std::string> Server::RejectBatch(ParsedBatch* batch,
                                             const std::string& code,
                                             const std::string& message) {
  std::vector<std::string> responses;
  responses.reserve(batch->entries.size());
  for (ParsedBatch::Entry& entry : batch->entries) {
    responses.push_back(entry.ready
                            ? ErrorResponse(entry.request.id, code, message)
                            : entry.error_response);
  }
  batch->entries.clear();  // releases quota tickets, as in ExecuteBatch
  return responses;
}

}  // namespace service
}  // namespace rpqi
