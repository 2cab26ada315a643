#ifndef RPQI_ANALYSIS_VALIDATE_H_
#define RPQI_ANALYSIS_VALIDATE_H_

#include <string>
#include <utility>
#include <vector>

#include "automata/dfa.h"
#include "automata/flat.h"
#include "automata/nfa.h"
#include "automata/two_way.h"
#include "base/bitset.h"
#include "base/status.h"
#include "graphdb/graph.h"
#include "regex/ast.h"

namespace rpqi {

/// Structural-invariant validators for every intermediate of the rewriting and
/// answering pipelines (A1 two-way → A2 complement → A3 conformance → A4
/// projection → R, Theorems 6/7). The constructions are fragile: a single
/// silently malformed intermediate — a transition out of range, an alphabet
/// not closed under inverse, a "DFA" with a missing or duplicate edge —
/// produces *wrong rewritings*, not crashes. Each validator returns
/// Status::InvalidArgument with a diagnostic naming the offending state /
/// transition / symbol id, so a violation points at the stage that broke.
///
/// Validators are pure readers: they never mutate, never abort, and depend
/// only on header-inline accessors (analysis links nothing but base, so every
/// library may call into it without cycles). At stage boundaries they are
/// invoked through RPQI_VALIDATE_STAGE below, which compiles to nothing unless
/// the build enables -DRPQI_VALIDATE=ON (default ON in Debug, OFF in Release).

// ---------------------------------------------------------------------------
// One-way NFAs.

struct NfaValidateOptions {
  /// Reject ε-transitions (required after RemoveEpsilon, for A3 fragments,
  /// and for any automaton fed to a subset construction that assumes
  /// ε-freedom).
  bool require_epsilon_free = false;
  /// Require at least one initial state (an automaton with none accepts
  /// nothing and usually indicates a lost SetInitial).
  bool require_initial_state = false;
  /// Require the alphabet to be a signed alphabet Σ±: an even number of
  /// symbols, so every symbol s has its inverse partner s^1 in range
  /// (SignedAlphabet pairs relation k as 2k / 2k+1).
  bool require_signed_alphabet = false;
  /// If >= 0, the automaton's alphabet must have exactly this many symbols
  /// (stage-boundary agreement, e.g. A3 over TotalSymbols, A4 over 2·|views|).
  int expected_num_symbols = -1;
};

/// Checks dense-range transitions (symbol within the alphabet or ε, target
/// within [0, NumStates())) plus the options above, and that the O(1) cached
/// transition / ε-transition counters agree with the transition lists (the
/// subset-construction hot paths and budget charging trust these caches).
Status ValidateNfa(const Nfa& nfa, const NfaValidateOptions& options = {});

/// Checks that a Bitset's cached 64-bit hash (used by the interning hot
/// paths) matches its words — i.e. no mutation bypassed the invalidation.
Status ValidateBitsetHash(const Bitset& bits);

/// Validates an NFA that is *claimed* deterministic (the edge-list view of a
/// DFA): ε-free, exactly one initial state, and at most one transition per
/// (state, symbol) — a duplicate edge is reported with both target ids. With
/// `require_total`, every (state, symbol) must have exactly one successor.
Status ValidateDeterministic(const Nfa& nfa, bool require_total = false);

// ---------------------------------------------------------------------------
// Flat compiled plans.

/// Structural invariants of the flat plan form (automata/flat.h): offset
/// table shaped NumStates()+1 / starts at 0 / monotone / ends at NumEdges();
/// every edge's symbol in [0, num_symbols) (ε is banned — the flat form is
/// ε-closure-free by construction) and target in [0, NumStates()); per-state
/// spans strictly increasing by (symbol, target); initial/accepting bitset
/// words sized ceil(states/64) with zero tail bits; and the initial-state
/// list sorted, duplicate-free, and set-equal to the initial bitset. This is
/// the admission gate for deserialized plans, so it reads only the raw part
/// vectors — never the span accessors, which assume these invariants. With
/// `expected_num_symbols >= 0` the alphabet width must match exactly.
Status ValidateFlatNfa(const FlatNfa& flat, int expected_num_symbols = -1);

// ---------------------------------------------------------------------------
// Raw (untrusted) automaton descriptions.

/// An automaton as it arrives from outside the type system — a deserializer,
/// an external tool, a test vector. Unlike Nfa::AddTransition, nothing here is
/// range-checked at construction; ValidateRawNfa is the admission gate.
struct RawNfa {
  struct Edge {
    int from = 0;
    int symbol = 0;  // kEpsilon allowed
    int to = 0;
  };
  int num_symbols = 0;
  int num_states = 0;
  std::vector<int> initial;    // state ids
  std::vector<int> accepting;  // state ids
  std::vector<Edge> transitions;
};

/// Checks every id in `raw` against its declared ranges; diagnostics name the
/// transition index and the offending id.
Status ValidateRawNfa(const RawNfa& raw, const NfaValidateOptions& options = {});

/// ValidateRawNfa, then builds the Nfa. The only path from untrusted data
/// into the automaton types.
StatusOr<Nfa> BuildValidatedNfa(const RawNfa& raw,
                                const NfaValidateOptions& options = {});

// ---------------------------------------------------------------------------
// DFAs.

struct DfaValidateOptions {
  /// Require totality: every (state, symbol) has a successor. The Theorem 6/7
  /// complement stages are only correct on *complete* DFAs (a missing edge
  /// silently shrinks the complement's language).
  bool require_total = true;
  int expected_num_symbols = -1;
};

/// Checks the initial state and every successor entry for range validity
/// (entries may be -1 = missing only when totality is not required).
Status ValidateDfa(const Dfa& dfa, const DfaValidateOptions& options = {});

// ---------------------------------------------------------------------------
// Two-way automata (Section 3).

struct TwoWayValidateOptions {
  bool require_initial_state = false;
  /// Require accepting states to have no outgoing transitions. The Section 3
  /// satisfaction automaton A1 relies on its final state being stuck: a
  /// premature $ firing must die rather than continue (satisfaction.cc,
  /// group 3).
  bool require_stuck_accepting = false;
  int expected_num_symbols = -1;
};

/// Checks state/symbol ranges and direction consistency: every transition's
/// Move must be one of kLeft/kStay/kRight (TwoWayNfa::AddTransition does not
/// range-check the enum, so a casted garbage value survives until here).
Status ValidateTwoWay(const TwoWayNfa& automaton,
                      const TwoWayValidateOptions& options = {});

// ---------------------------------------------------------------------------
// Regular-expression ASTs.

/// Structural validity of a regex DAG: non-null children where the node kind
/// requires them (kConcat/kUnion both, kStar left only), no children on
/// leaves, non-empty atom names. Nodes are identified in diagnostics by their
/// preorder index from `root`.
Status ValidateRegexAst(const RegexPtr& root);

// ---------------------------------------------------------------------------
// Graph databases.

/// Checks the label index: offsets monotone from 0 to the edge count,
/// targets in range and sorted within each span, no edges on a relation id
/// outside [0, num_relations) — GraphBuilder only enforces relation >= 0
/// because it does not know the alphabet — and the out/in mirror (every
/// out-edge has its in-edge twin, with equal multiplicities).
Status ValidateGraphDb(const GraphDb& db, int num_relations);

// ---------------------------------------------------------------------------
// Views (Section 5 answering instances; Section 4 rewriting inputs).

/// Alphabet agreement and extension ranges for a view-based answering
/// instance, unpacked so analysis does not depend on answer/:
///   * every definition is over exactly `query_num_symbols` symbols (the
///     shared signed alphabet Σ±), and structurally valid as an NFA;
///   * `extensions` (if non-empty) parallels `definitions`, and every pair
///     names objects in [0, num_objects).
Status ValidateViewExtensions(
    int query_num_symbols, const std::vector<Nfa>& definitions,
    const std::vector<std::vector<std::pair<int, int>>>& extensions,
    int num_objects);

/// Name binding between view definitions and view extensions: every
/// referenced extension name must be defined, and definitions must be
/// duplicate-free. A dangling name is reported verbatim.
Status ValidateViewNames(const std::vector<std::string>& definition_names,
                         const std::vector<std::string>& extension_names);

}  // namespace rpqi

/// Stage-boundary assertion. In validating builds (-DRPQI_VALIDATE=ON; the
/// default for Debug and the CI Debug job) a failed validator aborts with the
/// validator's diagnostic; in other builds the expression is not evaluated at
/// all, so hot paths pay nothing.
#ifdef RPQI_VALIDATE_ENABLED
#define RPQI_VALIDATE_STAGE(expr)                      \
  do {                                                 \
    ::rpqi::Status _rpqi_validate_status_ = (expr);    \
    RPQI_CHECK(_rpqi_validate_status_.ok())            \
        << "stage invariant violated: "                \
        << _rpqi_validate_status_.ToString();          \
  } while (0)
#else
#define RPQI_VALIDATE_STAGE(expr) \
  do {                            \
  } while (0)
#endif

#endif  // RPQI_ANALYSIS_VALIDATE_H_
