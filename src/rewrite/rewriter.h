#ifndef RPQI_REWRITE_REWRITER_H_
#define RPQI_REWRITE_REWRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "automata/nfa.h"
#include "base/budget.h"
#include "base/status.h"

namespace rpqi {

/// Describes the combined word alphabet used by the Section 4 constructions:
/// Σ± first, then the signed view alphabet Σ_E±, then the $ separator.
/// For k views, view i owns symbols base+2i (e_i) and base+2i+1 (e_i⁻) where
/// base = |Σ±|; the final symbol is $.
struct RewritingAlphabet {
  int sigma_symbols = 0;  // |Σ±|
  int num_views = 0;      // k

  int TotalSymbols() const { return sigma_symbols + 2 * num_views + 1; }
  int DollarSymbol() const { return sigma_symbols + 2 * num_views; }
  int ViewSymbol(int view, bool inverse) const {
    return sigma_symbols + 2 * view + (inverse ? 1 : 0);
  }
  bool IsViewSymbol(int symbol) const {
    return symbol >= sigma_symbols && symbol < DollarSymbol();
  }
  /// Maps a combined-alphabet view symbol to its id in Σ_E± ([0, 2k)).
  int ViewAlphabetId(int symbol) const { return symbol - sigma_symbols; }
};

/// Resource limits for the (provably worst-case doubly exponential)
/// constructions. Exceeding a limit yields Status::ResourceExhausted rather
/// than unbounded memory use; a Budget additionally enforces a wall-clock
/// deadline and cooperative cancellation across every pipeline stage.
struct RewritingOptions {
  int64_t max_product_states = int64_t{1} << 20;
  int64_t max_subset_states = int64_t{1} << 20;
  /// Optional execution budget (borrowed, may be null). Shared by all stages:
  /// deadline/cancellation are checked in every exponential loop and
  /// discovered states are charged against its quota.
  Budget* budget = nullptr;
  /// Graceful degradation: when the exact pipeline exhausts its budget (state
  /// cap or deadline — not cancellation), fall back to a *certified
  /// under-approximation* instead of failing dry: every view word of length
  /// ≤ partial_max_word_length is validated with the on-the-fly
  /// IsWordInMaximalRewriting check, and the returned DFA accepts exactly the
  /// certified words (flagged `exhaustive = false`).
  bool allow_partial = true;
  int partial_max_word_length = 3;
  int64_t partial_max_words = 2048;
};

/// Sizes of the pipeline's objects (Theorem 7). Per-stage wall time lives in
/// the `rewrite.A1/A3/A2xA3/A4/R/partial` trace spans.
struct RewritingStats {
  int a1_states = 0;                 // two-way automaton A1
  int a3_states = 0;                 // structure/conformance NFA A3
  int64_t a2_states_discovered = 0;  // lazily discovered states of A2
  int product_states = 0;            // materialized A2 ∩ A3
  int a4_states = 0;                 // after projection onto Σ_E±
  int rewriting_states = 0;          // final DFA for the maximal rewriting
  int64_t partial_words_checked = 0;  // words probed by the fallback
};

/// The maximal rewriting R_{E,E0} of Theorem 6: a DFA over Σ_E± (2k symbols,
/// view i forward = 2i, inverse = 2i+1) accepting exactly the view words all
/// of whose expansions satisfy the query.
struct MaximalRewriting {
  Dfa dfa{0, 1};
  bool empty = false;  // true iff the rewriting language is empty
  /// False when the budget ran out and `dfa` is only a certified
  /// under-approximation: L(dfa) ⊆ L(maximal rewriting), with every accepted
  /// word individually validated by IsWordInMaximalRewriting. All words up to
  /// `partial_word_length` letters were examined (longer words are absent).
  bool exhaustive = true;
  int partial_word_length = 0;
  /// Why the exact pipeline stopped (Ok when exhaustive).
  Status degradation_cause;
  RewritingStats stats;
};

/// Computes the maximal rewriting of `query` w.r.t. `views` (Theorems 6/7).
/// All automata are over the same Σ±. The pipeline follows the paper:
///   A1: two-way automaton accepting $e₁w₁$…$eₘwₘ$ whose payload w₁…wₘ
///       satisfies the query (built from the Section 3 construction with
///       view symbols transparent);
///   A2: its complement, via the deterministic table translation, on the fly;
///   A3: one-way automaton enforcing the block structure and wᵢ ∈ L(def(eᵢ));
///   A4: projection of A2 ∩ A3 onto the view symbols (the *bad* view words);
///   R : complement of A4.
StatusOr<MaximalRewriting> ComputeMaximalRewriting(
    const Nfa& query, const std::vector<Nfa>& views,
    const RewritingOptions& options = {});

/// Decides membership of a single view word in the maximal rewriting without
/// materializing it: e₁…eₘ ∈ R iff L($e₁·def(e₁)·$…$) ⊆ L(A1). Symbols of
/// `view_word` are in Σ_E± ids ([0, 2k)). Used for cross-validation and for
/// the on-the-fly ablation.
bool IsWordInMaximalRewriting(const Nfa& query, const std::vector<Nfa>& views,
                              const std::vector<int>& view_word);

/// Budgeted form of the on-the-fly membership check: returns the budget's
/// status (DeadlineExceeded/Cancelled/ResourceExhausted) instead of aborting
/// when the lazily explored product outgrows `max_states` or the budget.
StatusOr<bool> IsWordInMaximalRewritingWithBudget(
    const Nfa& query, const std::vector<Nfa>& views,
    const std::vector<int>& view_word, int64_t max_states,
    Budget* budget = nullptr);

/// Theorem 8 check, fully on the fly: is the maximal rewriting nonempty?
/// Searches for a view word rejected by A4 through a lazy subset construction
/// over the lazy projected product — no automaton is materialized.
StatusOr<bool> MaximalRewritingNonEmpty(const Nfa& query,
                                        const std::vector<Nfa>& views,
                                        const RewritingOptions& options = {});

/// Pretty-prints the rewriting as an RPQI expression over the view names.
std::string RewritingToString(const Dfa& rewriting,
                              const std::vector<std::string>& view_names);

/// The `rewriting` text a response carries: "%empty" when R is empty, else
/// RewritingToString's. The expression can be exponentially longer than R,
/// so an exhaustive rewriting renders under `budget` and yields the budget's
/// status once it runs out. A partial rewriting exists because the budget
/// already ran out; its few short certified words bound its text, so it
/// renders unbudgeted. Render before any later step that may spend the
/// budget (the exactness check), or a spent budget fails the rendering.
StatusOr<std::string> RenderRewriting(
    const MaximalRewriting& rewriting,
    const std::vector<std::string>& view_names, Budget* budget);

}  // namespace rpqi

#endif  // RPQI_REWRITE_REWRITER_H_
