// rpqi — command-line front end to the library.
//
// Subcommands:
//   eval        evaluate an RPQI over a graph database
//   rewrite     compute the maximal rewriting of a query w.r.t. views
//   satisfies   decide word satisfaction (Theorem 2)
//   contains    decide RPQI containment
//   answer      certain answers from view extensions (CDA or ODA)
//   validate    structural validation of queries / views / databases
//   compact     convert a graph text <-> binary columnar snapshot
//   serve       long-lived NDJSON query server (src/service/server.h),
//               over stdio or TCP (src/net/tcp_server.h)
//   loadgen     TCP saturation client replaying src/workload scenarios
//               against a serve --transport tcp instance
//
// Graph databases use the text format of graphdb/io.h (one `from rel to` per
// line). View definitions are `name=expression` arguments; extensions are
// `name:obj1,obj2` pair arguments. Run with no arguments for usage.
//
// Exit codes (see ExitCodeForStatus in base/status.h):
//   0  success (positive decision for satisfies/contains; clean drain for
//      serve — per-request failures are in-band error responses, not exits)
//   1  negative decision (does not satisfy / not contained)
//   2  invalid input or usage, including unusable --trace-out/--metrics-out
//   3  resource limit exhausted (state quota, or memory: an allocation
//      failure prints one `error:` line instead of aborting)
//   4  wall-clock deadline exceeded
//   5  execution cancelled

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/validate.h"
#include "answer/cda.h"
#include "answer/oda.h"
#include "answer/views.h"
#include "base/budget.h"
#include "base/flags.h"
#include "base/status.h"
#include "fault/fault.h"
#include "graphdb/columnar.h"
#include "graphdb/eval.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "graphdb/io.h"
#include "graphdb/views.h"
#include "net/loadgen.h"
#include "net/tcp_server.h"
#include "regex/parser.h"
#include "regex/printer.h"
#include "rewrite/eval.h"
#include "rewrite/exactness.h"
#include "rewrite/rewriter.h"
#include "rpq/compile.h"
#include "rpq/containment.h"
#include "rpq/satisfaction.h"
#include "service/server.h"
#include "service/snapshot.h"

namespace rpqi {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitNegative = 1;
constexpr int kExitInvalidInput = 2;

int Usage() {
  std::fprintf(stderr, R"USAGE(usage:
  rpqi eval --db FILE --query EXPR
  rpqi rewrite --query EXPR --view NAME=EXPR [--view NAME=EXPR ...]
               [--db FILE]           evaluate the rewriting over materialized views
  rpqi satisfies --query EXPR --word "r1 r2^- ..."
  rpqi contains --query EXPR --in EXPR
  rpqi answer --mode cda|oda --objects N --query EXPR
              --view 'NAME=EXPR;sound|complete|exact;a,b a,b ...'
              [--pair c,d]           all pairs when omitted
  rpqi compact --in FILE --out FILE [--validate 1]
              convert a graph between the text format and the binary columnar
              snapshot ("RPQICOL1", DESIGN.md §15); the direction follows the
              input's magic bytes. --validate reloads the output and checks
              round-trip equivalence and fingerprint stability
  rpqi validate [--query EXPR] [--view NAME=EXPR ...] [--db FILE]
              check each artifact against the structural invariants of
              src/analysis; prints one `ok` line per artifact, exit 2 with a
              diagnostic naming the offending id otherwise
  rpqi serve [--db FILE] [--threads N] [--queue-depth N] [--plan-cache-mb MB]
             [--plan-cache-dir DIR]
             [--default-timeout-ms MS] [--max-timeout-ms MS]
             [--default-max-states N] [--max-states-cap N]
             [--breaker-failures K] [--breaker-cooldown-ms MS]
             [--reload-retries N] [--reload-backoff-ms MS]
             [--transport stdio|tcp] [--host ADDR] [--port N]
             [--port-file FILE] [--max-conns N] [--max-batch N]
             [--max-line-bytes N]
             [--namespace NAME=DB[:VIEWS[:MAX_INFLIGHT]] ...]
              long-lived server: NDJSON requests in, one response line per
              request out, in request order (protocol reference in README);
              --threads N worker threads (1..256, default 1); exits 0 after
              a clean drain on EOF or {"op":"admin","action":"shutdown"};
              --plan-cache-dir persists compiled eval plans ("RPQIPLAN1")
              to an existing DIR so a restarted server answers repeated
              queries at warm-cache latency.
              On both transports, adjacent lines in one read execute as a
              batch of up to --max-batch lines sharing snapshot pins and
              plan lookups, --queue-depth counts queued batches, and a line
              over --max-line-bytes (default 1 MiB) is answered
              `invalid_request`. --transport tcp serves the same protocol
              over a socket (--port 0 = ephemeral; the bound port goes to
              --port-file and stderr); past --max-conns connections new
              ones are shed with one `overloaded` line. --namespace mounts a
              named snapshot with an optional view file ('NAME=EXPR' lines)
              and admission quota; requests select it with "ns":"NAME"
  rpqi loadgen --port N [--host ADDR] [--qps N] [--duration-ms MS]
               [--connections N] [--mode closed|open]
               [--scenario modules|hard] [--seed N]
               [--emit-db FILE] [--out FILE]
              replay a src/workload scenario over TCP against `rpqi serve
              --transport tcp` and report client-side latency percentiles
              (p50/p95/p99), achieved QPS, and per-code error counts as one
              JSON object on stdout (also to --out FILE). closed mode keeps
              one request in flight per connection; open mode sends on an
              absolute schedule so server queueing shows up in the measured
              latency. --emit-db writes the scenario's graph (start the
              server on it); with --emit-db and no --port it only writes the
              graph and exits

global flags (any subcommand):
  --timeout-ms MS     wall-clock deadline; `rewrite` degrades to a certified
                      partial rewriting, other commands fail with exit code 4
  --max-states N      state/node quota shared by all pipeline stages (exit 3)
  --trace-out FILE    write one NDJSON span record per pipeline stage (see
                      DESIGN.md, "Observability"); unusable FILE is exit 2
  --metrics-out FILE  write the process-wide counter/gauge/histogram snapshot
                      as NDJSON when the command finishes; unusable FILE is
                      exit 2
  --fault SPEC        arm deterministic fault injection (testing only):
                      comma-separated site=policy entries, policy one of
                      every:N | once[:N] | prob:P[:SEED], optionally ;ms=N
                      for stall sites; also read from the RPQI_FAULT
                      environment variable (flag entries append to it);
                      a malformed SPEC is exit 2 (see DESIGN.md §13)

expression syntax: identifiers, juxtaposition = concatenation, |, *, +, ?,
^- (inverse), %%eps, %%empty. Example: "(hasSubmodule^-)* (containsVar | hasSubmodule)"
)USAGE");
  return kExitInvalidInput;
}

// FlagMap / ParseFlags / SingleFlag / ParseInt64 live in base/flags.h, shared
// with the other front ends.

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::InvalidArgument("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// NodeName returns a string_view (possibly a slice of an mmapped blob, not
/// NUL-terminated), so answer printing goes through %.*s.
void PrintAnswerPair(std::string_view x, std::string_view y) {
  std::printf("%.*s\t%.*s\n", static_cast<int>(x.size()), x.data(),
              static_cast<int>(y.size()), y.data());
}

StatusOr<RegexPtr> ParseExpr(const std::string& text) {
  StatusOr<RegexPtr> parsed = ParseRegex(text);
  if (!parsed.ok()) {
    return Status::InvalidArgument("in expression '" + text +
                                   "': " + parsed.status().message());
  }
  return parsed;
}

/// The optional execution budget built from --timeout-ms / --max-states.
/// Owns the Budget so `get()` stays valid for the command's lifetime.
struct RunBudget {
  std::optional<Budget> budget;
  Budget* get() { return budget.has_value() ? &budget.value() : nullptr; }
};

StatusOr<RunBudget> BudgetFromFlags(const FlagMap& flags) {
  RunBudget run;
  if (!flags.count("timeout-ms") && !flags.count("max-states")) return run;
  Budget budget;
  if (flags.count("timeout-ms")) {
    RPQI_ASSIGN_OR_RETURN(std::string text, SingleFlag(flags, "timeout-ms"));
    RPQI_ASSIGN_OR_RETURN(
        int64_t ms, ParseInt64(text, "--timeout-ms", 1, int64_t{1} << 40));
    budget.set_deadline(budget.start_time() + std::chrono::milliseconds(ms));
  }
  if (flags.count("max-states")) {
    RPQI_ASSIGN_OR_RETURN(std::string text, SingleFlag(flags, "max-states"));
    RPQI_ASSIGN_OR_RETURN(
        int64_t n, ParseInt64(text, "--max-states", 1, int64_t{1} << 50));
    budget.set_max_states(n);
  }
  run.budget = budget;
  return run;
}

StatusOr<std::pair<int, int>> ParsePair(const std::string& text) {
  size_t comma = text.find(',');
  if (comma == std::string::npos) {
    return Status::InvalidArgument("pair '" + text + "': expected 'a,b'");
  }
  RPQI_ASSIGN_OR_RETURN(
      int64_t a, ParseInt64(text.substr(0, comma), "pair '" + text + "'", 0,
                            int64_t{1} << 30));
  RPQI_ASSIGN_OR_RETURN(
      int64_t b, ParseInt64(text.substr(comma + 1), "pair '" + text + "'", 0,
                            int64_t{1} << 30));
  return std::pair<int, int>{static_cast<int>(a), static_cast<int>(b)};
}

StatusOr<int> CmdEval(const FlagMap& flags) {
  RPQI_ASSIGN_OR_RETURN(RunBudget run, BudgetFromFlags(flags));
  RPQI_ASSIGN_OR_RETURN(std::string db_path, SingleFlag(flags, "db"));
  // Same load-and-validate entry point the serving layer uses.
  RPQI_ASSIGN_OR_RETURN(std::shared_ptr<const service::GraphSnapshot> snapshot,
                        service::LoadGraphSnapshot(db_path));
  RPQI_ASSIGN_OR_RETURN(std::string query_text, SingleFlag(flags, "query"));
  RPQI_ASSIGN_OR_RETURN(RegexPtr expr, ParseExpr(query_text));
  SignedAlphabet alphabet = snapshot->alphabet;
  RegisterRelations({expr}, &alphabet);
  RPQI_ASSIGN_OR_RETURN(Nfa query, CompileRegex(expr, alphabet));
  // The database was loaded before the query may have added relations; the
  // graph only stores relation ids, which remain valid under widening.
  const FlatNfa plan = CompileEvalPlan(query);
  RPQI_ASSIGN_OR_RETURN(
      auto pairs, EvalRpqiAllPairsWithBudget(snapshot->db, plan, run.get()));
  for (const auto& [x, y] : pairs) {
    PrintAnswerPair(snapshot->db.NodeName(x), snapshot->db.NodeName(y));
  }
  return kExitOk;
}

StatusOr<int> CmdRewrite(const FlagMap& flags) {
  RPQI_ASSIGN_OR_RETURN(RunBudget run, BudgetFromFlags(flags));
  RPQI_ASSIGN_OR_RETURN(std::string query_text, SingleFlag(flags, "query"));
  RPQI_ASSIGN_OR_RETURN(RegexPtr query_expr, ParseExpr(query_text));
  std::vector<std::string> view_names;
  std::vector<RegexPtr> view_exprs;
  auto it = flags.find("view");
  if (it == flags.end() || it->second.empty()) return Usage();
  for (const std::string& spec : it->second) {
    size_t eq = spec.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("view '" + spec +
                                     "': expected NAME=EXPR");
    }
    view_names.push_back(spec.substr(0, eq));
    RPQI_ASSIGN_OR_RETURN(RegexPtr expr, ParseExpr(spec.substr(eq + 1)));
    view_exprs.push_back(std::move(expr));
  }

  SignedAlphabet alphabet;
  RegisterRelations({query_expr}, &alphabet);
  RegisterRelations(view_exprs, &alphabet);
  Nfa query = MustCompileRegex(query_expr, alphabet);
  std::vector<Nfa> views;
  for (const RegexPtr& expr : view_exprs) {
    views.push_back(MustCompileRegex(expr, alphabet));
  }

  RewritingOptions options;
  options.budget = run.get();
  if (run.budget.has_value()) {
    options.max_subset_states = run.budget->max_states();
    options.max_product_states = run.budget->max_states();
  }
  RPQI_ASSIGN_OR_RETURN(MaximalRewriting rewriting,
                        ComputeMaximalRewriting(query, views, options));
  RPQI_ASSIGN_OR_RETURN(std::string text,
                        RenderRewriting(rewriting, view_names, run.get()));
  std::printf("rewriting: %s\n", text.c_str());
  if (rewriting.exhaustive && !rewriting.empty) {
    // Out of deadline or quota the verdict is unknown; cancellation ends the
    // command.
    StatusOr<bool> exact =
        IsExactRewriting(query, views, rewriting.dfa, run.get());
    if (exact.ok()) {
      std::printf("exact: %s\n", *exact ? "yes" : "no");
    } else if (exact.status().code() == Status::Code::kCancelled) {
      return exact.status();
    } else {
      std::printf("exact: unknown (%s)\n", exact.status().ToString().c_str());
    }
  }
  if (!rewriting.exhaustive) {
    std::printf(
        "partial: certified under-approximation, all view words up to length "
        "%d examined (%lld certified checks); cause: %s\n",
        rewriting.partial_word_length,
        static_cast<long long>(rewriting.stats.partial_words_checked),
        rewriting.degradation_cause.ToString().c_str());
  }
  std::printf("stats: |A1|=%d |A3|=%d A2-discovered=%lld |A2xA3|=%d |A4|=%d "
              "|R|=%d\n",
              rewriting.stats.a1_states, rewriting.stats.a3_states,
              static_cast<long long>(rewriting.stats.a2_states_discovered),
              rewriting.stats.product_states, rewriting.stats.a4_states,
              rewriting.stats.rewriting_states);

  if (flags.count("db")) {
    RPQI_ASSIGN_OR_RETURN(std::string db_path, SingleFlag(flags, "db"));
    // Same load-and-validate entry point the serving layer uses; passing the
    // query+views alphabet as the base keeps relation ids aligned with the
    // automata compiled above.
    RPQI_ASSIGN_OR_RETURN(
        std::shared_ptr<const service::GraphSnapshot> snapshot,
        service::LoadGraphSnapshot(db_path, alphabet));
    const GraphDb& db = snapshot->db;
    std::vector<std::vector<std::pair<int, int>>> extensions;
    for (const Nfa& view : views) {
      extensions.push_back(MaterializeView(db, view));
    }
    if (rewriting.exhaustive) {
      std::printf("answers from views:\n");
      for (const auto& [x, y] :
           EvaluateRewriting(rewriting.dfa, db.NumNodes(), extensions)) {
        PrintAnswerPair(db.NodeName(x), db.NodeName(y));
      }
    } else {
      // Degraded answering: the materialized rewriting is incomplete, so
      // certify view words directly against the view graph instead. Runs
      // under a grace budget so the overall wall clock stays within ~2x the
      // requested deadline.
      std::optional<Budget> grace;
      DirectViewAnswersOptions direct_options;
      if (run.budget.has_value()) {
        grace = run.budget->GraceBudget(2.0);
        direct_options.budget = &grace.value();
      }
      RPQI_ASSIGN_OR_RETURN(
          DirectViewAnswersResult direct,
          DirectViewAnswers(query, views, db.NumNodes(), extensions,
                            direct_options));
      std::printf("answers from views (direct certification%s):\n",
                  direct.exhaustive_to_length ? "" : ", truncated");
      for (const auto& [x, y] : direct.answers) {
        PrintAnswerPair(db.NodeName(x), db.NodeName(y));
      }
    }
  }
  return kExitOk;
}

StatusOr<int> CmdSatisfies(const FlagMap& flags) {
  RPQI_ASSIGN_OR_RETURN(std::string query_text, SingleFlag(flags, "query"));
  RPQI_ASSIGN_OR_RETURN(RegexPtr query_expr, ParseExpr(query_text));
  SignedAlphabet alphabet;
  RegisterRelations({query_expr}, &alphabet);

  // Parse the word: whitespace-separated atoms, each `name` or `name^-`.
  std::vector<int> word;
  RPQI_ASSIGN_OR_RETURN(std::string word_text, SingleFlag(flags, "word"));
  std::istringstream stream(word_text);
  std::string token;
  while (stream >> token) {
    bool inverse = false;
    if (token.size() > 2 && token.substr(token.size() - 2) == "^-") {
      inverse = true;
      token = token.substr(0, token.size() - 2);
    }
    alphabet.AddRelation(token);
    word.push_back(alphabet.SymbolId(token, inverse));
  }
  Nfa query = MustCompileRegex(query_expr, alphabet);
  bool satisfied = WordSatisfies(query, word);
  std::printf("%s\n", satisfied ? "satisfies" : "does not satisfy");
  return satisfied ? kExitOk : kExitNegative;
}

StatusOr<int> CmdContains(const FlagMap& flags) {
  RPQI_ASSIGN_OR_RETURN(RunBudget run, BudgetFromFlags(flags));
  RPQI_ASSIGN_OR_RETURN(std::string q1_text, SingleFlag(flags, "query"));
  RPQI_ASSIGN_OR_RETURN(std::string q2_text, SingleFlag(flags, "in"));
  RPQI_ASSIGN_OR_RETURN(RegexPtr q1, ParseExpr(q1_text));
  RPQI_ASSIGN_OR_RETURN(RegexPtr q2, ParseExpr(q2_text));
  SignedAlphabet alphabet;
  RegisterRelations({q1, q2}, &alphabet);
  RPQI_ASSIGN_OR_RETURN(
      bool contained,
      RpqiContainedWithBudget(MustCompileRegex(q1, alphabet),
                              MustCompileRegex(q2, alphabet), run.get()));
  std::printf("%s\n", contained ? "contained" : "not contained");
  return contained ? kExitOk : kExitNegative;
}

StatusOr<int> CmdAnswer(const FlagMap& flags) {
  RPQI_ASSIGN_OR_RETURN(RunBudget run, BudgetFromFlags(flags));
  RPQI_ASSIGN_OR_RETURN(std::string mode, SingleFlag(flags, "mode"));
  if (mode != "cda" && mode != "oda") {
    return Status::InvalidArgument("--mode must be 'cda' or 'oda', got '" +
                                   mode + "'");
  }
  RPQI_ASSIGN_OR_RETURN(std::string objects_text,
                        SingleFlag(flags, "objects"));
  RPQI_ASSIGN_OR_RETURN(int64_t num_objects_64,
                        ParseInt64(objects_text, "--objects", 1, 1 << 20));
  int num_objects = static_cast<int>(num_objects_64);
  RPQI_ASSIGN_OR_RETURN(std::string query_text, SingleFlag(flags, "query"));
  RPQI_ASSIGN_OR_RETURN(RegexPtr query_expr, ParseExpr(query_text));

  struct ViewSpec {
    std::string name;
    RegexPtr expr;
    ViewAssumption assumption;
    std::vector<std::pair<int, int>> extension;
  };
  std::vector<ViewSpec> specs;
  auto it = flags.find("view");
  if (it == flags.end()) return Usage();
  for (const std::string& raw : it->second) {
    // NAME=EXPR;assumption;a,b a,b ...
    ViewSpec spec;
    size_t eq = raw.find('=');
    size_t semi1 = raw.find(';');
    size_t semi2 = raw.find(';', semi1 + 1);
    if (eq == std::string::npos || semi1 == std::string::npos ||
        semi2 == std::string::npos || eq > semi1) {
      return Status::InvalidArgument(
          "view '" + raw + "': expected 'NAME=EXPR;assumption;a,b ...'");
    }
    spec.name = raw.substr(0, eq);
    RPQI_ASSIGN_OR_RETURN(spec.expr,
                          ParseExpr(raw.substr(eq + 1, semi1 - eq - 1)));
    std::string assumption = raw.substr(semi1 + 1, semi2 - semi1 - 1);
    if (assumption == "sound") {
      spec.assumption = ViewAssumption::kSound;
    } else if (assumption == "complete") {
      spec.assumption = ViewAssumption::kComplete;
    } else if (assumption == "exact") {
      spec.assumption = ViewAssumption::kExact;
    } else {
      return Status::InvalidArgument("view '" + raw +
                                     "': unknown assumption '" + assumption +
                                     "'");
    }
    std::istringstream pairs(raw.substr(semi2 + 1));
    std::string pair_text;
    while (pairs >> pair_text) {
      RPQI_ASSIGN_OR_RETURN(auto pair, ParsePair(pair_text));
      if (pair.first >= num_objects || pair.second >= num_objects) {
        return Status::InvalidArgument("view '" + spec.name + "': pair '" +
                                       pair_text + "' names an object >= " +
                                       std::to_string(num_objects));
      }
      spec.extension.push_back(pair);
    }
    specs.push_back(std::move(spec));
  }

  SignedAlphabet alphabet;
  RegisterRelations({query_expr}, &alphabet);
  for (const ViewSpec& spec : specs) RegisterRelations({spec.expr}, &alphabet);

  AnsweringInstance instance;
  instance.num_objects = num_objects;
  instance.query = MustCompileRegex(query_expr, alphabet);
  for (const ViewSpec& spec : specs) {
    View view;
    view.definition = MustCompileRegex(spec.expr, alphabet);
    view.extension = spec.extension;
    view.assumption = spec.assumption;
    instance.views.push_back(std::move(view));
  }

  std::vector<std::pair<int, int>> probes;
  if (flags.count("pair")) {
    for (const std::string& pair_text : flags.at("pair")) {
      RPQI_ASSIGN_OR_RETURN(auto pair, ParsePair(pair_text));
      if (pair.first >= num_objects || pair.second >= num_objects) {
        return Status::InvalidArgument("--pair '" + pair_text +
                                       "' names an object >= " +
                                       std::to_string(num_objects));
      }
      probes.push_back(pair);
    }
  } else {
    if (static_cast<int64_t>(num_objects) * num_objects > kMaxAllPairsProbes) {
      return Status::InvalidArgument(
          "all-pairs probing above 2^20 pairs (--objects above 1024) needs "
          "explicit --pair arguments");
    }
    for (int c = 0; c < num_objects; ++c) {
      for (int d = 0; d < num_objects; ++d) probes.push_back({c, d});
    }
  }

  // One solver for every probe, as in the serve `answer` op: CDA compiles
  // its plans and allocates its masks once, ODA builds the view side once.
  std::optional<CdaSolver> cda;
  std::optional<OdaSolver> oda;
  if (mode == "cda") {
    CdaOptions options;
    options.budget = run.get();
    cda.emplace(instance, options);
  } else {
    OdaOptions options;
    options.budget = run.get();
    oda.emplace(instance, options);
  }
  for (const auto& [c, d] : probes) {
    bool certain = false;
    if (cda.has_value()) {
      RPQI_ASSIGN_OR_RETURN(CdaResult result, cda->CertainAnswer(c, d));
      certain = result.certain;
    } else {
      RPQI_ASSIGN_OR_RETURN(OdaResult result, oda->CertainAnswer(c, d));
      certain = result.certain;
    }
    std::printf("(%d,%d): %s\n", c, d, certain ? "certain" : "not certain");
  }
  return kExitOk;
}

StatusOr<int> CmdValidate(const FlagMap& flags) {
  if (!flags.count("query") && !flags.count("view") && !flags.count("db")) {
    return Usage();
  }
  SignedAlphabet alphabet;

  // Parse everything first so the shared Σ± covers all artifacts; relation
  // ids registered later would otherwise make earlier automata look narrow.
  RegexPtr query_expr;
  if (flags.count("query")) {
    RPQI_ASSIGN_OR_RETURN(std::string query_text, SingleFlag(flags, "query"));
    RPQI_ASSIGN_OR_RETURN(query_expr, ParseExpr(query_text));
    RPQI_RETURN_IF_ERROR(ValidateRegexAst(query_expr));
    RegisterRelations({query_expr}, &alphabet);
  }
  std::vector<std::string> view_names;
  std::vector<RegexPtr> view_exprs;
  if (flags.count("view")) {
    for (const std::string& spec : flags.at("view")) {
      size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("view '" + spec +
                                       "': expected NAME=EXPR");
      }
      view_names.push_back(spec.substr(0, eq));
      RPQI_ASSIGN_OR_RETURN(RegexPtr expr, ParseExpr(spec.substr(eq + 1)));
      RPQI_RETURN_IF_ERROR(ValidateRegexAst(expr));
      view_exprs.push_back(std::move(expr));
    }
    RPQI_RETURN_IF_ERROR(ValidateViewNames(view_names, view_names));
    RegisterRelations(view_exprs, &alphabet);
  }

  NfaValidateOptions nfa_options;
  nfa_options.require_initial_state = true;
  nfa_options.require_signed_alphabet = true;
  nfa_options.expected_num_symbols = alphabet.NumSymbols();

  if (query_expr != nullptr) {
    RPQI_ASSIGN_OR_RETURN(Nfa query, CompileRegex(query_expr, alphabet));
    RPQI_RETURN_IF_ERROR(ValidateNfa(query, nfa_options));
    std::printf("query: ok (%d states, %d transitions, %d symbols)\n",
                query.NumStates(), query.NumTransitions(),
                query.num_symbols());
  }
  std::vector<Nfa> views;
  for (size_t i = 0; i < view_exprs.size(); ++i) {
    RPQI_ASSIGN_OR_RETURN(Nfa view, CompileRegex(view_exprs[i], alphabet));
    Status status = ValidateNfa(view, nfa_options);
    if (!status.ok()) {
      return Status::InvalidArgument("view '" + view_names[i] +
                                     "': " + status.message());
    }
    std::printf("view %s: ok (%d states, %d transitions, %d symbols)\n",
                view_names[i].c_str(), view.NumStates(), view.NumTransitions(),
                view.num_symbols());
    views.push_back(std::move(view));
  }
  if (!views.empty()) {
    RPQI_RETURN_IF_ERROR(
        ValidateViewExtensions(alphabet.NumSymbols(), views, {}, 0));
  }

  if (flags.count("db")) {
    RPQI_ASSIGN_OR_RETURN(std::string db_path, SingleFlag(flags, "db"));
    RPQI_ASSIGN_OR_RETURN(std::string db_text, ReadFile(db_path));
    RPQI_ASSIGN_OR_RETURN(GraphDb db, LoadGraphText(db_text, &alphabet));
    RPQI_RETURN_IF_ERROR(ValidateGraphDb(db, alphabet.NumRelations()));
    std::printf("db %s: ok (%d nodes, %lld edges, %d relations)\n",
                db_path.c_str(), db.NumNodes(),
                static_cast<long long>(db.NumEdges()),
                alphabet.NumRelations());
  }
  return kExitOk;
}

/// `rpqi compact --in FILE --out FILE [--validate]` — converts between the
/// text format and the binary columnar snapshot format, sniffing the input's
/// magic bytes to pick the direction. Text -> binary stores the text's
/// content fingerprint in the header, so serving the compacted file keeps the
/// plan cache warm across the format switch. --validate reloads the output
/// and checks semantic round-trip equality (same node-name set, same edge
/// multiset) plus fingerprint agreement.
StatusOr<int> CmdCompact(const FlagMap& flags) {
  RPQI_ASSIGN_OR_RETURN(std::string in_path, SingleFlag(flags, "in"));
  RPQI_ASSIGN_OR_RETURN(std::string out_path, SingleFlag(flags, "out"));
  const bool validate = flags.count("validate") > 0;

  SignedAlphabet alphabet;
  GraphDb db;
  uint64_t fingerprint = 0;
  bool input_is_binary = false;
  {
    RPQI_ASSIGN_OR_RETURN(std::string bytes, ReadFile(in_path));
    if (IsColumnarSnapshot(bytes)) {
      input_is_binary = true;
      RPQI_ASSIGN_OR_RETURN(ColumnarParts parts, OpenColumnarFile(in_path));
      fingerprint = parts.fingerprint;
      db = MakeColumnarGraphDb(parts, &alphabet);
    } else {
      GraphTextLimits limits;
      limits.source_name = in_path;
      RPQI_ASSIGN_OR_RETURN(db, LoadGraphText(bytes, &alphabet, limits));
      fingerprint = FingerprintGraphText(bytes);
    }
    RPQI_RETURN_IF_ERROR(ValidateGraphDb(db, alphabet.NumRelations()));
  }

  if (input_is_binary) {
    // binary -> text: decompact for inspection / re-import.
    std::string text = SaveGraphText(db, alphabet);
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::InvalidArgument("cannot open '" + out_path +
                                     "' for writing");
    }
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out) {
      return Status::InvalidArgument("error writing '" + out_path + "'");
    }
  } else {
    RPQI_RETURN_IF_ERROR(
        WriteColumnarFile(out_path, db, alphabet, fingerprint));
  }

  if (validate) {
    SignedAlphabet reloaded_alphabet;
    GraphDb reloaded;
    uint64_t reloaded_fingerprint = 0;
    if (input_is_binary) {
      RPQI_ASSIGN_OR_RETURN(std::string text, ReadFile(out_path));
      GraphTextLimits limits;
      limits.source_name = out_path;
      RPQI_ASSIGN_OR_RETURN(reloaded,
                            LoadGraphText(text, &reloaded_alphabet, limits));
      // Text has no fingerprint header; recompute from the emitted bytes the
      // way the snapshot loader would.
      reloaded_fingerprint = fingerprint;  // text direction: nothing to compare
    } else {
      RPQI_ASSIGN_OR_RETURN(ColumnarParts parts, OpenColumnarFile(out_path));
      reloaded_fingerprint = parts.fingerprint;
      reloaded = MakeColumnarGraphDb(parts, &reloaded_alphabet);
    }
    RPQI_RETURN_IF_ERROR(
        ValidateGraphDb(reloaded, reloaded_alphabet.NumRelations()));
    RPQI_RETURN_IF_ERROR(
        CheckGraphEquivalence(db, alphabet, reloaded, reloaded_alphabet));
    if (reloaded_fingerprint != fingerprint) {
      return Status::InvalidArgument(
          "round-trip mismatch: fingerprint " +
          std::to_string(reloaded_fingerprint) + " after reload, expected " +
          std::to_string(fingerprint));
    }
    std::printf("validate: ok (round-trip equivalent, fingerprint stable)\n");
  }
  std::printf("compact: %s -> %s (%d nodes, %lld edges, %d relations, %s)\n",
              in_path.c_str(), out_path.c_str(), db.NumNodes(),
              static_cast<long long>(db.NumEdges()), alphabet.NumRelations(),
              input_is_binary ? "binary -> text" : "text -> binary");
  return kExitOk;
}

StatusOr<int> CmdServe(const FlagMap& flags) {
  service::ServerOptions options;
  if (flags.count("db")) {
    RPQI_ASSIGN_OR_RETURN(options.initial_db_path, SingleFlag(flags, "db"));
  }
  if (flags.count("plan-cache-dir")) {
    RPQI_ASSIGN_OR_RETURN(options.plan_cache_dir,
                          SingleFlag(flags, "plan-cache-dir"));
  }
  struct IntFlag {
    const char* name;
    int64_t min;
    int64_t max;
    int64_t* target;
  };
  net::TcpTransportOptions tcp;
  int64_t threads = options.threads;
  int64_t queue_depth = options.admission.queue_depth;
  int64_t plan_cache_mb = options.plan_cache_bytes >> 20;
  int64_t breaker_failures = options.breaker_failure_threshold;
  int64_t reload_retries = options.reload_retry.attempts;
  int64_t max_batch = tcp.max_batch;
  int64_t max_line_bytes = static_cast<int64_t>(tcp.max_line_bytes);
  const IntFlag int_flags[] = {
      {"threads", 1, 256, &threads},
      {"queue-depth", 1, int64_t{1} << 16, &queue_depth},
      {"plan-cache-mb", 0, int64_t{1} << 16, &plan_cache_mb},
      {"default-timeout-ms", 1, int64_t{1} << 40,
       &options.admission.default_timeout_ms},
      {"max-timeout-ms", 1, int64_t{1} << 40,
       &options.admission.max_timeout_ms},
      {"default-max-states", 1, int64_t{1} << 50,
       &options.admission.default_max_states},
      {"max-states-cap", 1, int64_t{1} << 50,
       &options.admission.max_states_cap},
      {"breaker-failures", 0, int64_t{1} << 20, &breaker_failures},
      {"breaker-cooldown-ms", 1, int64_t{1} << 40,
       &options.breaker_cooldown_ms},
      {"reload-retries", 1, 100, &reload_retries},
      {"reload-backoff-ms", 0, int64_t{1} << 20,
       &options.reload_retry.backoff_ms},
      {"max-batch", 1, int64_t{1} << 12, &max_batch},
      {"max-line-bytes", 64, int64_t{1} << 30, &max_line_bytes},
  };
  for (const IntFlag& spec : int_flags) {
    if (!flags.count(spec.name)) continue;
    RPQI_ASSIGN_OR_RETURN(std::string text, SingleFlag(flags, spec.name));
    RPQI_ASSIGN_OR_RETURN(
        *spec.target, ParseInt64(text, std::string("--") + spec.name, spec.min,
                                 spec.max));
  }
  options.threads = static_cast<int>(threads);
  options.admission.queue_depth = static_cast<int>(queue_depth);
  options.plan_cache_bytes = plan_cache_mb << 20;
  options.breaker_failure_threshold = static_cast<int>(breaker_failures);
  options.reload_retry.attempts = static_cast<int>(reload_retries);
  tcp.max_batch = static_cast<int>(max_batch);
  tcp.max_line_bytes = static_cast<size_t>(max_line_bytes);

  // --namespace NAME=DB[:VIEWS[:MAX_INFLIGHT]], repeatable.
  if (auto it = flags.find("namespace"); it != flags.end()) {
    for (const std::string& spec : it->second) {
      size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) {
        return Status::InvalidArgument(
            "--namespace '" + spec +
            "': expected NAME=DB[:VIEWS[:MAX_INFLIGHT]]");
      }
      service::NamespaceOptions ns;
      ns.name = spec.substr(0, eq);
      std::string rest = spec.substr(eq + 1);
      size_t first_colon = rest.find(':');
      ns.db_path = rest.substr(0, first_colon);
      if (first_colon != std::string::npos) {
        std::string tail = rest.substr(first_colon + 1);
        size_t second_colon = tail.find(':');
        ns.views_path = tail.substr(0, second_colon);
        if (second_colon != std::string::npos) {
          RPQI_ASSIGN_OR_RETURN(
              ns.max_inflight,
              ParseInt64(tail.substr(second_colon + 1),
                         "--namespace '" + ns.name + "' max_inflight", 0,
                         int64_t{1} << 20));
        }
      }
      options.namespaces.push_back(std::move(ns));
    }
  }

  std::string transport = "stdio";
  if (flags.count("transport")) {
    RPQI_ASSIGN_OR_RETURN(transport, SingleFlag(flags, "transport"));
  }
  if (transport != "stdio" && transport != "tcp") {
    return Status::InvalidArgument("--transport must be stdio or tcp");
  }

  service::Server server(options);
  RPQI_RETURN_IF_ERROR(server.Init());
  if (transport == "stdio") {
    // stdin/stdout are one more connection of the same request loop.
    net::TcpTransport stdio(&server, tcp);
    RPQI_RETURN_IF_ERROR(stdio.ServeStream(0, 1));
    return kExitOk;
  }

  if (flags.count("host")) {
    RPQI_ASSIGN_OR_RETURN(tcp.bind_address, SingleFlag(flags, "host"));
  }
  int64_t port = 0;
  int64_t max_conns = tcp.max_connections;
  const IntFlag tcp_flags[] = {
      {"port", 0, 65535, &port},
      {"max-conns", 1, int64_t{1} << 16, &max_conns},
  };
  for (const IntFlag& spec : tcp_flags) {
    if (!flags.count(spec.name)) continue;
    RPQI_ASSIGN_OR_RETURN(std::string text, SingleFlag(flags, spec.name));
    RPQI_ASSIGN_OR_RETURN(
        *spec.target, ParseInt64(text, std::string("--") + spec.name, spec.min,
                                 spec.max));
  }
  tcp.port = static_cast<int>(port);
  tcp.max_connections = static_cast<int>(max_conns);

  net::TcpTransport tcp_server(&server, tcp);
  RPQI_RETURN_IF_ERROR(tcp_server.Listen());
  if (flags.count("port-file")) {
    RPQI_ASSIGN_OR_RETURN(std::string port_file,
                          SingleFlag(flags, "port-file"));
    std::ofstream out(port_file, std::ios::trunc);
    out << tcp_server.port() << "\n";
    out.close();
    if (!out) {
      return Status::InvalidArgument("cannot write port file '" + port_file +
                                     "'");
    }
  }
  // Stderr, not stdout: the port announcement must never mix into a piped
  // NDJSON stream.
  std::fprintf(stderr, "listening on %s:%d\n", tcp.bind_address.c_str(),
               tcp_server.port());
  RPQI_RETURN_IF_ERROR(tcp_server.Serve());
  return kExitOk;
}

StatusOr<int> CmdLoadgen(const FlagMap& flags) {
  net::LoadGenOptions options;
  if (flags.count("host")) {
    RPQI_ASSIGN_OR_RETURN(options.host, SingleFlag(flags, "host"));
  }
  if (flags.count("scenario")) {
    RPQI_ASSIGN_OR_RETURN(options.scenario, SingleFlag(flags, "scenario"));
  }
  if (flags.count("emit-db")) {
    RPQI_ASSIGN_OR_RETURN(options.emit_db_path, SingleFlag(flags, "emit-db"));
  }
  if (flags.count("mode")) {
    RPQI_ASSIGN_OR_RETURN(std::string mode, SingleFlag(flags, "mode"));
    if (mode != "open" && mode != "closed") {
      return Status::InvalidArgument("--mode must be open or closed");
    }
    options.open_loop = mode == "open";
  }
  if (flags.count("qps")) {
    RPQI_ASSIGN_OR_RETURN(std::string text, SingleFlag(flags, "qps"));
    char* end = nullptr;
    options.qps = std::strtod(text.c_str(), &end);
    if (end == nullptr || *end != '\0' || !(options.qps > 0)) {
      return Status::InvalidArgument("--qps must be a positive number");
    }
  }
  struct IntFlag {
    const char* name;
    int64_t min;
    int64_t max;
    int64_t* target;
  };
  int64_t port = 0;
  int64_t connections = options.connections;
  int64_t seed = static_cast<int64_t>(options.seed);
  const IntFlag int_flags[] = {
      {"port", 1, 65535, &port},
      {"duration-ms", 1, int64_t{1} << 30, &options.duration_ms},
      {"connections", 1, 1024, &connections},
      {"seed", 0, int64_t{1} << 50, &seed},
  };
  for (const IntFlag& spec : int_flags) {
    if (!flags.count(spec.name)) continue;
    RPQI_ASSIGN_OR_RETURN(std::string text, SingleFlag(flags, spec.name));
    RPQI_ASSIGN_OR_RETURN(
        *spec.target, ParseInt64(text, std::string("--") + spec.name, spec.min,
                                 spec.max));
  }
  options.port = static_cast<int>(port);
  options.connections = static_cast<int>(connections);
  options.seed = static_cast<uint64_t>(seed);

  if (options.port == 0 && !options.emit_db_path.empty()) {
    // Emit-only mode: write the scenario graph so a server can be started on
    // it, then exit without generating load.
    RPQI_RETURN_IF_ERROR(net::EmitScenarioDb(options.scenario, options.seed,
                                             options.emit_db_path));
    std::printf("{\"emitted_db\":\"%s\"}\n", options.emit_db_path.c_str());
    return kExitOk;
  }

  RPQI_ASSIGN_OR_RETURN(net::LoadGenReport report, net::RunLoadGen(options));
  std::string json = net::LoadGenReportJson(report);
  if (flags.count("out")) {
    RPQI_ASSIGN_OR_RETURN(std::string out_path, SingleFlag(flags, "out"));
    std::ofstream out(out_path, std::ios::trunc);
    out << json << "\n";
    out.close();
    if (!out) {
      return Status::InvalidArgument("cannot write report to '" + out_path +
                                     "'");
    }
  }
  std::printf("%s\n", json.c_str());
  return kExitOk;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  StatusOr<FlagMap> flags = ParseFlags(argc, argv, 2);
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n", flags.status().ToString().c_str());
    return ExitCodeForStatus(flags.status());
  }
  if (flags->count("trace-out")) {
    StatusOr<std::string> path = SingleFlag(*flags, "trace-out");
    if (!path.ok()) {
      std::fprintf(stderr, "error: %s\n", path.status().ToString().c_str());
      return ExitCodeForStatus(path.status());
    }
    if (!obs::Tracer::StartToFile(*path)) {
      std::fprintf(stderr, "error: cannot open trace output '%s'\n",
                   path->c_str());
      return kExitInvalidInput;
    }
    flags->erase("trace-out");
  }
  {
    // RPQI_FAULT arms the fault-injection layer for the whole process; a
    // --fault flag appends to (never replaces) the environment's spec so a
    // wrapper script's faults survive ad-hoc additions.
    const char* env_spec = std::getenv("RPQI_FAULT");
    std::string fault_spec = env_spec == nullptr ? "" : env_spec;
    if (flags->count("fault")) {
      StatusOr<std::string> spec = SingleFlag(*flags, "fault");
      if (!spec.ok()) {
        std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
        return ExitCodeForStatus(spec.status());
      }
      if (!fault_spec.empty()) fault_spec += ",";
      fault_spec += *spec;
      flags->erase("fault");
    }
    if (!fault_spec.empty()) {
      Status configured = fault::Configure(fault_spec);
      if (!configured.ok()) {
        std::fprintf(stderr, "error: %s\n", configured.ToString().c_str());
        return ExitCodeForStatus(configured);
      }
    }
  }
  std::string metrics_out;
  if (flags->count("metrics-out")) {
    StatusOr<std::string> path = SingleFlag(*flags, "metrics-out");
    if (!path.ok()) {
      std::fprintf(stderr, "error: %s\n", path.status().ToString().c_str());
      return ExitCodeForStatus(path.status());
    }
    metrics_out = *path;
    flags->erase("metrics-out");
  }
  StatusOr<int> code = Status::InvalidArgument("unknown command");
  // An allocation failure is a resource limit like the state quota: one
  // error line and exit 3, not an abort.
  try {
    if (command == "eval") {
      code = CmdEval(*flags);
    } else if (command == "rewrite") {
      code = CmdRewrite(*flags);
    } else if (command == "satisfies") {
      code = CmdSatisfies(*flags);
    } else if (command == "contains") {
      code = CmdContains(*flags);
    } else if (command == "answer") {
      code = CmdAnswer(*flags);
    } else if (command == "validate") {
      code = CmdValidate(*flags);
    } else if (command == "compact") {
      code = CmdCompact(*flags);
    } else if (command == "serve") {
      code = CmdServe(*flags);
    } else if (command == "loadgen") {
      code = CmdLoadgen(*flags);
    } else {
      return Usage();
    }
  } catch (const std::bad_alloc&) {
    code = Status::ResourceExhausted("out of memory running '" + command +
                                     "'");
  }
  int exit_code;
  if (code.ok()) {
    exit_code = *code;
  } else {
    std::fprintf(stderr, "error: %s\n", code.status().ToString().c_str());
    exit_code = ExitCodeForStatus(code.status());
  }
  // Flush observability sinks even when the command failed: a trace of the
  // failing run is precisely the interesting one.
  obs::Tracer::Stop();
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (out) obs::TakeMetricsSnapshot().WriteNdjson(out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write metrics output '%s'\n",
                   metrics_out.c_str());
      return kExitInvalidInput;
    }
  }
  return exit_code;
}

}  // namespace
}  // namespace rpqi

int main(int argc, char** argv) { return rpqi::Main(argc, argv); }
