#include "rewrite/rewriter.h"

#include <utility>

#include "analysis/validate.h"
#include "automata/lazy.h"
#include "automata/ops.h"
#include "automata/state_elim.h"
#include "automata/table_dfa.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "regex/printer.h"
#include "rpq/compile.h"
#include "rpq/satisfaction.h"

namespace rpqi {

namespace {

RewritingAlphabet MakeAlphabet(const Nfa& query, const std::vector<Nfa>& views) {
  RewritingAlphabet alphabet;
  alphabet.sigma_symbols = query.num_symbols();
  alphabet.num_views = static_cast<int>(views.size());
  for (const Nfa& view : views) {
    RPQI_CHECK_EQ(view.num_symbols(), query.num_symbols())
        << "query and views must share the signed alphabet";
  }
  RPQI_VALIDATE_STAGE(ValidateViewExtensions(query.num_symbols(), views,
                                             /*extensions=*/{},
                                             /*num_objects=*/0));
  return alphabet;
}

/// A1 (Section 4): the Section 3 satisfaction automaton for the query over
/// the combined alphabet, with view symbols transparent and $ as terminator.
TwoWayNfa BuildA1(const Nfa& query, const RewritingAlphabet& alphabet) {
  SatisfactionOptions options;
  options.total_symbols = alphabet.TotalSymbols();
  options.dollar_symbol = alphabet.DollarSymbol();
  for (int view = 0; view < alphabet.num_views; ++view) {
    options.transparent.push_back(alphabet.ViewSymbol(view, false));
    options.transparent.push_back(alphabet.ViewSymbol(view, true));
  }
  return BuildSatisfactionAutomaton(query, options);
}

/// A3 (Section 4): accepts exactly the well-formed words
/// $e₁w₁$e₂w₂$…$eₘwₘ$ with wᵢ ∈ L(def(eᵢ)), where def(e⁻) = inv(def(e)).
Nfa BuildA3(const std::vector<Nfa>& views, const RewritingAlphabet& alphabet) {
  Nfa a3(alphabet.TotalSymbols());
  int start = a3.AddState();
  int chooser = a3.AddState();  // reached after each $; also the end state
  a3.SetInitial(start);
  a3.SetAccepting(chooser);
  a3.AddTransition(start, alphabet.DollarSymbol(), chooser);

  for (int view = 0; view < alphabet.num_views; ++view) {
    for (bool inverse : {false, true}) {
      Nfa definition =
          inverse ? InverseAutomaton(views[view]) : views[view];
      definition = RemoveEpsilon(definition);
      int offset = a3.NumStates();
      // lint: allow-unbudgeted linear in the view definitions
      for (int s = 0; s < definition.NumStates(); ++s) a3.AddState();
      for (int s = 0; s < definition.NumStates(); ++s) {
        for (const Nfa::Transition& t : definition.TransitionsFrom(s)) {
          a3.AddTransition(offset + s, t.symbol, offset + t.to);
        }
        if (definition.IsInitial(s)) {
          a3.AddTransition(chooser, alphabet.ViewSymbol(view, inverse),
                           offset + s);
        }
        if (definition.IsAccepting(s)) {
          a3.AddTransition(offset + s, alphabet.DollarSymbol(), chooser);
        }
      }
    }
  }
  return a3;
}

/// Symbol mapping for the projection onto Σ_E± (view symbols keep their
/// Σ_E± id, everything else is erased).
std::vector<int> ProjectionMapping(const RewritingAlphabet& alphabet) {
  std::vector<int> mapping(alphabet.TotalSymbols(), kEpsilon);
  for (int view = 0; view < alphabet.num_views; ++view) {
    for (bool inverse : {false, true}) {
      int symbol = alphabet.ViewSymbol(view, inverse);
      mapping[symbol] = alphabet.ViewAlphabetId(symbol);
    }
  }
  return mapping;
}

/// R as a regex over the view names, by state elimination.
RegexPtr RewritingToRegex(const Dfa& rewriting,
                          const std::vector<std::string>& view_names) {
  RPQI_CHECK_EQ(static_cast<int>(view_names.size()) * 2,
                rewriting.num_symbols());
  std::vector<RegexPtr> atoms;
  atoms.reserve(rewriting.num_symbols());
  for (size_t view = 0; view < view_names.size(); ++view) {
    atoms.push_back(RAtom(view_names[view], false));
    atoms.push_back(RAtom(view_names[view], true));
  }
  return NfaToRegex(DfaToNfa(rewriting), atoms);
}

/// The exact Theorem 7 pipeline. `stats` is an out-parameter so a failed run
/// still reports the sizes of the stages it completed.
StatusOr<MaximalRewriting> ComputeExactRewriting(
    const Nfa& query, const std::vector<Nfa>& views,
    const RewritingOptions& options, const RewritingAlphabet& alphabet,
    RewritingStats* stats) {
  static const obs::Counter runs("rewrite.exact_runs");
  obs::Span pipeline_span("rewrite.pipeline");
  runs.Increment();
  RPQI_RETURN_IF_ERROR(BudgetCheck(options.budget));

  TwoWayNfa a1(0);
  Nfa a3(0);
  {
    obs::Span span("rewrite.A1");
    a1 = BuildA1(query, alphabet);
    span.Note("states", a1.NumStates());
  }
  {
    obs::Span span("rewrite.A3");
    a3 = BuildA3(views, alphabet);
    span.Note("states", a3.NumStates());
  }
  stats->a1_states = a1.NumStates();
  stats->a3_states = a3.NumStates();
  // A1 must keep its final state stuck (satisfaction.cc group 3) and A3 must
  // be an ε-free conformance automaton over the combined alphabet; a violation
  // here silently corrupts the complement/intersection stages downstream.
  {
    TwoWayValidateOptions a1_options;
    a1_options.require_stuck_accepting = true;
    a1_options.expected_num_symbols = alphabet.TotalSymbols();
    RPQI_VALIDATE_STAGE(ValidateTwoWay(a1, a1_options));
    NfaValidateOptions a3_options;
    a3_options.require_epsilon_free = true;
    a3_options.require_initial_state = true;
    a3_options.expected_num_symbols = alphabet.TotalSymbols();
    RPQI_VALIDATE_STAGE(ValidateNfa(a3, a3_options));
  }

  // A2 ∩ A3 materialized lazily: A2 is the complement of A1 obtained by
  // flipping the deterministic table translation.
  LazyTableDfa a2(a1, /*complement=*/true);
  LazySubsetDfa a3_dfa(a3);
  LazyProductDfa product({&a2, &a3_dfa});
  StatusOr<Dfa> product_dfa = [&] {
    obs::Span span("rewrite.A2xA3");
    auto result = MaterializeLazyDfa(&product, options.max_product_states,
                                     options.budget);
    span.Note("a2_states_discovered", a2.NumDiscoveredStates());
    if (result.ok()) span.Note("states", result->NumStates());
    return result;
  }();
  stats->a2_states_discovered = a2.NumDiscoveredStates();
  if (!product_dfa.ok()) return product_dfa.status();
  stats->product_states = product_dfa->NumStates();
  {
    DfaValidateOptions product_options;
    product_options.expected_num_symbols = alphabet.TotalSymbols();
    RPQI_VALIDATE_STAGE(ValidateDfa(*product_dfa, product_options));
  }

  // A4: the projection onto Σ_E±, so it accepts exactly the *bad* view
  // words. It is never built: this stage marks the product states A4 keeps,
  // and R's subset construction reads the product table through them.
  const DfaProjection a4 = [&] {
    obs::Span span("rewrite.A4");
    DfaProjection projection(*product_dfa, ProjectionMapping(alphabet),
                             2 * alphabet.num_views);
    span.Note("states", projection.NumStates());
    return projection;
  }();
  stats->a4_states = a4.NumStates();

  // R = complement of A4.
  obs::Span r_span("rewrite.R");
  StatusOr<Dfa> a4_dfa =
      DeterminizeWithLimit(a4, options.max_subset_states, options.budget);
  if (!a4_dfa.ok()) return a4_dfa.status();
  RPQI_RETURN_IF_ERROR(BudgetCheck(options.budget));
  Dfa rewriting = Minimize(ComplementDfa(*a4_dfa));
  stats->rewriting_states = rewriting.NumStates();
  r_span.Note("states", rewriting.NumStates());
  {
    // The rewriting must be a *complete* DFA over Σ_E±: complementation is
    // only correct when no (state, symbol) edge is missing.
    DfaValidateOptions rewriting_options;
    rewriting_options.require_total = true;
    rewriting_options.expected_num_symbols = 2 * alphabet.num_views;
    RPQI_VALIDATE_STAGE(ValidateDfa(rewriting, rewriting_options));
  }

  MaximalRewriting result;
  result.dfa = std::move(rewriting);
  result.stats = *stats;
  result.empty = IsEmpty(result.dfa);
  return result;
}

/// Graceful degradation (motivated by the approximate-rewriting line of work):
/// certify view words one at a time with the on-the-fly membership check and
/// return a DFA accepting exactly the certified words. Sound by construction —
/// every accepted word passed IsWordInMaximalRewriting — merely incomplete.
StatusOr<MaximalRewriting> ComputePartialRewriting(
    const Nfa& query, const std::vector<Nfa>& views,
    const RewritingOptions& options, const RewritingAlphabet& alphabet,
    Status cause, RewritingStats stats) {
  static const obs::Counter fallbacks("rewrite.partial_fallbacks");
  obs::Span span("rewrite.partial");
  fallbacks.Increment();
  // The fallback runs on a grace budget: the same cancellation flag, a reset
  // state quota, and a deadline of 2x the originally granted window — so a
  // caller that asked for T ms observes a hard bound of ~2T overall.
  Budget grace_storage;
  Budget* grace = nullptr;
  if (options.budget != nullptr) {
    grace_storage = options.budget->GraceBudget(2.0);
    grace = &grace_storage;
  }

  const int num_view_symbols = 2 * alphabet.num_views;
  std::vector<std::vector<int>> certified;
  std::vector<std::vector<int>> frontier = {{}};  // words of current length
  int completed_length = -1;
  bool truncated = false;
  for (int length = 0; length <= options.partial_max_word_length && !truncated;
       ++length) {
    for (const std::vector<int>& word : frontier) {
      if (stats.partial_words_checked >= options.partial_max_words) {
        truncated = true;
        break;
      }
      ++stats.partial_words_checked;
      StatusOr<bool> in_rewriting = IsWordInMaximalRewritingWithBudget(
          query, views, word, options.max_subset_states, grace);
      if (!in_rewriting.ok()) {
        // Cancellation always aborts; any other exhaustion keeps the words
        // certified so far (still a sound under-approximation).
        if (in_rewriting.status().code() == Status::Code::kCancelled) {
          return in_rewriting.status();
        }
        truncated = true;
        break;
      }
      if (*in_rewriting) certified.push_back(word);
    }
    if (truncated) break;
    completed_length = length;
    if (length == options.partial_max_word_length) break;
    std::vector<std::vector<int>> next;
    next.reserve(frontier.size() * num_view_symbols);
    for (const std::vector<int>& word : frontier) {
      for (int symbol = 0; symbol < num_view_symbols; ++symbol) {
        std::vector<int> extended = word;
        extended.push_back(symbol);
        next.push_back(std::move(extended));
      }
    }
    frontier = std::move(next);
  }

  // Assemble the finite certified language as a DFA over Σ_E±.
  Nfa language(num_view_symbols);
  if (certified.empty()) {
    int state = language.AddState();
    language.SetInitial(state);
  }
  for (const std::vector<int>& word : certified) {
    language = UnionNfa(language, SingleWordNfa(num_view_symbols, word));
  }
  // A finite language of ≤ partial_max_words short words determinizes in
  // O(total length) states; no limit needed.
  StatusOr<Dfa> dfa =
      DeterminizeWithLimit(language, int64_t{1} << 24, /*budget=*/nullptr);
  if (!dfa.ok()) return dfa.status();

  MaximalRewriting result;
  result.dfa = Minimize(*dfa);
  result.empty = certified.empty();
  result.exhaustive = false;
  result.partial_word_length = completed_length < 0 ? 0 : completed_length;
  result.degradation_cause = std::move(cause);
  stats.rewriting_states = result.dfa.NumStates();
  result.stats = stats;
  return result;
}

}  // namespace

StatusOr<MaximalRewriting> ComputeMaximalRewriting(
    const Nfa& query, const std::vector<Nfa>& views,
    const RewritingOptions& options) {
  RewritingAlphabet alphabet = MakeAlphabet(query, views);
  RewritingStats stats;
  StatusOr<MaximalRewriting> exact =
      ComputeExactRewriting(query, views, options, alphabet, &stats);
  if (exact.ok()) return exact;
  const Status& cause = exact.status();
  // Degrade only on resource/deadline exhaustion: cancellation means the
  // caller no longer wants an answer, and invalid input has no partial form.
  if (!options.allow_partial ||
      cause.code() == Status::Code::kCancelled ||
      cause.code() == Status::Code::kInvalidArgument) {
    return exact;
  }
  return ComputePartialRewriting(query, views, options, alphabet, cause,
                                 stats);
}

StatusOr<bool> IsWordInMaximalRewritingWithBudget(
    const Nfa& query, const std::vector<Nfa>& views,
    const std::vector<int>& view_word, int64_t max_states, Budget* budget) {
  RewritingAlphabet alphabet = MakeAlphabet(query, views);
  const int total = alphabet.TotalSymbols();
  const int dollar = alphabet.DollarSymbol();

  // W = $ e₁ L(def(e₁)) $ … $ eₘ L(def(eₘ)) $ for this specific view word.
  Nfa w = SingleWordNfa(total, {dollar});
  for (int e : view_word) {
    RPQI_CHECK(0 <= e && e < 2 * alphabet.num_views);
    int view = e / 2;
    bool inverse = (e % 2) != 0;
    Nfa definition = inverse ? InverseAutomaton(views[view]) : views[view];
    w = Concat(w, SingleWordNfa(total, {alphabet.ViewSymbol(view, inverse)}));
    w = Concat(w, WidenAlphabet(definition, total));
    w = Concat(w, SingleWordNfa(total, {dollar}));
  }

  // e₁…eₘ ∈ R iff every word of W satisfies the query, i.e. W ∩ comp(A1) = ∅.
  TwoWayNfa a1 = BuildA1(query, alphabet);
  LazySubsetDfa w_dfa(w);
  LazyTableDfa not_a1(a1, /*complement=*/true);
  EmptinessResult result =
      FindAcceptedWord({&w_dfa, &not_a1}, max_states, budget);
  if (result.outcome == EmptinessResult::Outcome::kLimitExceeded) {
    return result.status;
  }
  return result.outcome == EmptinessResult::Outcome::kEmpty;
}

bool IsWordInMaximalRewriting(const Nfa& query, const std::vector<Nfa>& views,
                              const std::vector<int>& view_word) {
  StatusOr<bool> result = IsWordInMaximalRewritingWithBudget(
      query, views, view_word, /*max_states=*/int64_t{1} << 24);
  RPQI_CHECK(result.ok()) << result.status().ToString();
  return result.value();
}

StatusOr<bool> MaximalRewritingNonEmpty(const Nfa& query,
                                        const std::vector<Nfa>& views,
                                        const RewritingOptions& options) {
  RewritingAlphabet alphabet = MakeAlphabet(query, views);

  // Fully on the fly: R ≠ ∅ iff A4 is not universal over Σ_E±, i.e. the
  // complemented lazy image-subset automaton of (A2 ∩ A3) accepts some word.
  TwoWayNfa a1 = BuildA1(query, alphabet);
  Nfa a3 = BuildA3(views, alphabet);
  LazyTableDfa a2(a1, /*complement=*/true);
  LazySubsetDfa a3_dfa(a3);
  LazyProductDfa product({&a2, &a3_dfa});
  LazyImageSubsetDfa not_a4(&product, ProjectionMapping(alphabet),
                            2 * alphabet.num_views, /*complement=*/true);

  EmptinessResult result =
      FindAcceptedWord({&not_a4}, options.max_subset_states, options.budget);
  if (result.outcome == EmptinessResult::Outcome::kLimitExceeded) {
    return result.status;
  }
  return result.outcome == EmptinessResult::Outcome::kFoundWord;
}

std::string RewritingToString(const Dfa& rewriting,
                              const std::vector<std::string>& view_names) {
  return RegexToString(RewritingToRegex(rewriting, view_names));
}

StatusOr<std::string> RenderRewriting(
    const MaximalRewriting& rewriting,
    const std::vector<std::string>& view_names, Budget* budget) {
  if (rewriting.empty) return std::string("%empty");
  return RegexToString(RewritingToRegex(rewriting.dfa, view_names),
                       rewriting.exhaustive ? budget : nullptr);
}

}  // namespace rpqi
