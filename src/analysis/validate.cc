#include "analysis/validate.h"

#include <algorithm>
#include <span>
#include <unordered_set>

namespace rpqi {

namespace {

std::string Id(int64_t value) { return std::to_string(value); }

/// Shared range checks for one transition of a one-way automaton, `where`
/// names the transition ("state 2, transition 3" / "transition 7").
Status CheckEdge(const std::string& where, int symbol, int to, int num_symbols,
                 int num_states, bool allow_epsilon) {
  if (symbol == kEpsilon) {
    if (!allow_epsilon) {
      return Status::InvalidArgument(where +
                                     ": ε-transition in a context that "
                                     "requires ε-freedom");
    }
  } else if (symbol < 0 || symbol >= num_symbols) {
    return Status::InvalidArgument(where + ": symbol " + Id(symbol) +
                                   " out of alphabet range [0, " +
                                   Id(num_symbols) + ")");
  }
  if (to < 0 || to >= num_states) {
    return Status::InvalidArgument(where + ": target state " + Id(to) +
                                   " out of range [0, " + Id(num_states) + ")");
  }
  return Status::Ok();
}

Status CheckAlphabetShape(const std::string& what, int num_symbols,
                          const NfaValidateOptions& options) {
  if (options.expected_num_symbols >= 0 &&
      num_symbols != options.expected_num_symbols) {
    return Status::InvalidArgument(
        what + ": alphabet has " + Id(num_symbols) + " symbols, stage expects " +
        Id(options.expected_num_symbols));
  }
  if (options.require_signed_alphabet && num_symbols % 2 != 0) {
    return Status::InvalidArgument(
        what + ": alphabet of " + Id(num_symbols) +
        " symbols is not closed under inverse: symbol " + Id(num_symbols - 1) +
        " has no ± partner (signed alphabets pair 2k with 2k+1)");
  }
  return Status::Ok();
}

}  // namespace

Status ValidateNfa(const Nfa& nfa, const NfaValidateOptions& options) {
  RPQI_RETURN_IF_ERROR(CheckAlphabetShape("nfa", nfa.num_symbols(), options));
  bool has_initial = false;
  int64_t transitions = 0;
  int64_t epsilon_transitions = 0;
  for (int s = 0; s < nfa.NumStates(); ++s) {
    has_initial = has_initial || nfa.IsInitial(s);
    int index = 0;
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      RPQI_RETURN_IF_ERROR(CheckEdge(
          "nfa: state " + Id(s) + ", transition " + Id(index), t.symbol, t.to,
          nfa.num_symbols(), nfa.NumStates(),
          /*allow_epsilon=*/!options.require_epsilon_free));
      ++index;
      ++transitions;
      if (t.symbol == kEpsilon) ++epsilon_transitions;
    }
  }
  // Coherence of the O(1) cached counters against the transition lists (the
  // hot paths branch on these instead of recounting; a stale cache silently
  // skips ε-closure or mischarges budgets).
  if (transitions != nfa.NumTransitions()) {
    return Status::InvalidArgument(
        "nfa: cached transition count " + Id(nfa.NumTransitions()) +
        " != actual " + Id(static_cast<int>(transitions)));
  }
  if (epsilon_transitions != nfa.NumEpsilonTransitions()) {
    return Status::InvalidArgument(
        "nfa: cached ε-transition count " + Id(nfa.NumEpsilonTransitions()) +
        " != actual " + Id(static_cast<int>(epsilon_transitions)));
  }
  if (options.require_initial_state && !has_initial) {
    return Status::InvalidArgument(
        "nfa: no initial state among " + Id(nfa.NumStates()) +
        " states (the automaton accepts nothing)");
  }
  return Status::Ok();
}

Status ValidateFlatNfa(const FlatNfa& flat, int expected_num_symbols) {
  const int num_symbols = flat.num_symbols();
  if (num_symbols < 0) {
    return Status::InvalidArgument("flat: negative alphabet size " +
                                   Id(num_symbols));
  }
  if (expected_num_symbols >= 0 && num_symbols != expected_num_symbols) {
    return Status::InvalidArgument(
        "flat: alphabet has " + Id(num_symbols) + " symbols, stage expects " +
        Id(expected_num_symbols));
  }
  const std::vector<uint32_t>& offsets = flat.offsets();
  const std::vector<FlatNfa::Edge>& edges = flat.edges();
  if (offsets.empty()) {
    if (!edges.empty() || !flat.initial_list().empty()) {
      return Status::InvalidArgument(
          "flat: empty offset table but " + Id(static_cast<int>(edges.size())) +
          " edges / " + Id(static_cast<int>(flat.initial_list().size())) +
          " initial states");
    }
    return Status::Ok();
  }
  const int num_states = static_cast<int>(offsets.size()) - 1;
  if (offsets[0] != 0) {
    return Status::InvalidArgument("flat: offsets start at " +
                                   Id(static_cast<int>(offsets[0])) +
                                   ", expected 0");
  }
  if (offsets[num_states] != edges.size()) {
    return Status::InvalidArgument(
        "flat: offsets end at " + Id(static_cast<int>(offsets[num_states])) +
        " but the edge array holds " + Id(static_cast<int>(edges.size())));
  }
  for (int s = 0; s < num_states; ++s) {
    if (offsets[s + 1] < offsets[s]) {
      return Status::InvalidArgument("flat: state " + Id(s) +
                                     ": offset table decreases (" +
                                     Id(static_cast<int>(offsets[s])) + " -> " +
                                     Id(static_cast<int>(offsets[s + 1])) +
                                     ")");
    }
    for (uint32_t i = offsets[s]; i < offsets[s + 1]; ++i) {
      const FlatNfa::Edge& e = edges[i];
      // ε is banned outright: the flat form is defined as ε-closure-free,
      // so kEpsilon (or any negative symbol) is malformed, not a transition.
      if (e.symbol < 0 || e.symbol >= num_symbols) {
        return Status::InvalidArgument(
            "flat: state " + Id(s) + ", edge " + Id(static_cast<int>(i)) +
            ": symbol " + Id(e.symbol) + " out of range [0, " +
            Id(num_symbols) + ")");
      }
      if (e.to < 0 || e.to >= num_states) {
        return Status::InvalidArgument(
            "flat: state " + Id(s) + ", edge " + Id(static_cast<int>(i)) +
            ": target state " + Id(e.to) + " out of range [0, " +
            Id(num_states) + ")");
      }
      if (i > offsets[s] && !(edges[i - 1] < e)) {
        return Status::InvalidArgument(
            "flat: state " + Id(s) + ", edge " + Id(static_cast<int>(i)) +
            ": span not strictly (symbol, target)-sorted at symbol " +
            Id(e.symbol) + " -> " + Id(e.to));
      }
    }
  }
  const size_t expected_words = static_cast<size_t>((num_states + 63) / 64);
  auto check_words = [&](const std::vector<uint64_t>& words,
                         const char* what) -> Status {
    if (words.size() != expected_words) {
      return Status::InvalidArgument(
          "flat: " + std::string(what) + " bitset holds " +
          Id(static_cast<int>(words.size())) + " words, expected " +
          Id(static_cast<int>(expected_words)));
    }
    const int tail = num_states & 63;
    if (tail != 0 && !words.empty() &&
        (words.back() & (~uint64_t{0} << tail)) != 0) {
      return Status::InvalidArgument("flat: " + std::string(what) +
                                     " bitset has bits set beyond state " +
                                     Id(num_states - 1));
    }
    return Status::Ok();
  };
  RPQI_RETURN_IF_ERROR(check_words(flat.initial_words(), "initial"));
  RPQI_RETURN_IF_ERROR(check_words(flat.accepting_words(), "accepting"));
  // The explicit initial list must be exactly the bitset's set, in order:
  // the BFS seeds from the list while membership tests read the bitset, so
  // disagreement between them is a wrong-answer bug, not a style issue.
  int64_t listed = 0;
  int32_t previous = -1;
  for (int32_t s : flat.initial_list()) {
    if (s < 0 || s >= num_states) {
      return Status::InvalidArgument("flat: initial list names state " +
                                     Id(s) + " out of range [0, " +
                                     Id(num_states) + ")");
    }
    if (s <= previous) {
      return Status::InvalidArgument(
          "flat: initial list not strictly ascending at state " + Id(s));
    }
    if (((flat.initial_words()[s >> 6] >> (s & 63)) & 1) == 0) {
      return Status::InvalidArgument("flat: initial list names state " +
                                     Id(s) +
                                     " but the initial bitset does not");
    }
    previous = s;
    ++listed;
  }
  int64_t set_bits = 0;
  for (uint64_t w : flat.initial_words()) set_bits += __builtin_popcountll(w);
  if (set_bits != listed) {
    return Status::InvalidArgument(
        "flat: initial bitset has " + Id(static_cast<int>(set_bits)) +
        " states but the initial list names " + Id(static_cast<int>(listed)));
  }
  return Status::Ok();
}

Status ValidateBitsetHash(const Bitset& bits) {
  if (!bits.CachedHashCoherent()) {
    return Status::InvalidArgument(
        "bitset: cached hash is stale (a mutation bypassed the "
        "invalidation path)");
  }
  return Status::Ok();
}

Status ValidateDeterministic(const Nfa& nfa, bool require_total) {
  NfaValidateOptions base;
  base.require_epsilon_free = true;
  RPQI_RETURN_IF_ERROR(ValidateNfa(nfa, base));

  int initial = -1;
  for (int s = 0; s < nfa.NumStates(); ++s) {
    if (!nfa.IsInitial(s)) continue;
    if (initial >= 0) {
      return Status::InvalidArgument("deterministic nfa: states " +
                                     Id(initial) + " and " + Id(s) +
                                     " are both initial");
    }
    initial = s;
  }
  if (initial < 0) {
    return Status::InvalidArgument("deterministic nfa: no initial state");
  }

  std::vector<int> successor(nfa.num_symbols(), -1);
  for (int s = 0; s < nfa.NumStates(); ++s) {
    successor.assign(nfa.num_symbols(), -1);
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      if (successor[t.symbol] >= 0) {
        return Status::InvalidArgument(
            "deterministic nfa: duplicate edge on state " + Id(s) +
            ", symbol " + Id(t.symbol) + ": targets " +
            Id(successor[t.symbol]) + " and " + Id(t.to));
      }
      successor[t.symbol] = t.to;
    }
    if (require_total) {
      for (int a = 0; a < nfa.num_symbols(); ++a) {
        if (successor[a] < 0) {
          return Status::InvalidArgument(
              "deterministic nfa: state " + Id(s) +
              " has no successor on symbol " + Id(a) +
              " (totality required)");
        }
      }
    }
  }
  return Status::Ok();
}

Status ValidateRawNfa(const RawNfa& raw, const NfaValidateOptions& options) {
  if (raw.num_symbols < 0) {
    return Status::InvalidArgument("raw nfa: negative alphabet size " +
                                   Id(raw.num_symbols));
  }
  if (raw.num_states < 0) {
    return Status::InvalidArgument("raw nfa: negative state count " +
                                   Id(raw.num_states));
  }
  RPQI_RETURN_IF_ERROR(
      CheckAlphabetShape("raw nfa", raw.num_symbols, options));
  for (size_t i = 0; i < raw.transitions.size(); ++i) {
    const RawNfa::Edge& edge = raw.transitions[i];
    std::string where = "raw nfa: transition " + Id(static_cast<int>(i));
    if (edge.from < 0 || edge.from >= raw.num_states) {
      return Status::InvalidArgument(where + ": source state " + Id(edge.from) +
                                     " out of range [0, " + Id(raw.num_states) +
                                     ")");
    }
    RPQI_RETURN_IF_ERROR(
        CheckEdge(where, edge.symbol, edge.to, raw.num_symbols, raw.num_states,
                  /*allow_epsilon=*/!options.require_epsilon_free));
  }
  for (int s : raw.initial) {
    if (s < 0 || s >= raw.num_states) {
      return Status::InvalidArgument("raw nfa: initial state " + Id(s) +
                                     " out of range [0, " + Id(raw.num_states) +
                                     ")");
    }
  }
  for (int s : raw.accepting) {
    if (s < 0 || s >= raw.num_states) {
      return Status::InvalidArgument("raw nfa: accepting state " + Id(s) +
                                     " out of range [0, " + Id(raw.num_states) +
                                     ")");
    }
  }
  if (options.require_initial_state && raw.initial.empty()) {
    return Status::InvalidArgument("raw nfa: no initial state");
  }
  return Status::Ok();
}

StatusOr<Nfa> BuildValidatedNfa(const RawNfa& raw,
                                const NfaValidateOptions& options) {
  RPQI_RETURN_IF_ERROR(ValidateRawNfa(raw, options));
  Nfa nfa(raw.num_symbols);
  // lint: allow-unbudgeted linear in the validated description
  for (int s = 0; s < raw.num_states; ++s) nfa.AddState();
  for (const RawNfa::Edge& edge : raw.transitions) {
    nfa.AddTransition(edge.from, edge.symbol, edge.to);
  }
  for (int s : raw.initial) nfa.SetInitial(s);
  for (int s : raw.accepting) nfa.SetAccepting(s);
  return nfa;
}

Status ValidateDfa(const Dfa& dfa, const DfaValidateOptions& options) {
  if (options.expected_num_symbols >= 0 &&
      dfa.num_symbols() != options.expected_num_symbols) {
    return Status::InvalidArgument(
        "dfa: alphabet has " + Id(dfa.num_symbols()) +
        " symbols, stage expects " + Id(options.expected_num_symbols));
  }
  if (dfa.initial() < 0 || dfa.initial() >= dfa.NumStates()) {
    return Status::InvalidArgument("dfa: initial state " + Id(dfa.initial()) +
                                   " out of range [0, " + Id(dfa.NumStates()) +
                                   ")");
  }
  for (int s = 0; s < dfa.NumStates(); ++s) {
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      int to = dfa.Next(s, a);
      if (to < 0) {
        if (options.require_total) {
          return Status::InvalidArgument(
              "dfa: state " + Id(s) + " has no successor on symbol " + Id(a) +
              " (complement stages require a complete DFA)");
        }
        continue;
      }
      if (to >= dfa.NumStates()) {
        return Status::InvalidArgument(
            "dfa: state " + Id(s) + ", symbol " + Id(a) + ": target state " +
            Id(to) + " out of range [0, " + Id(dfa.NumStates()) + ")");
      }
    }
  }
  return Status::Ok();
}

Status ValidateTwoWay(const TwoWayNfa& automaton,
                      const TwoWayValidateOptions& options) {
  if (options.expected_num_symbols >= 0 &&
      automaton.num_symbols() != options.expected_num_symbols) {
    return Status::InvalidArgument(
        "two-way nfa: alphabet has " + Id(automaton.num_symbols()) +
        " symbols, stage expects " + Id(options.expected_num_symbols));
  }
  bool has_initial = false;
  for (int s = 0; s < automaton.NumStates(); ++s) {
    has_initial = has_initial || automaton.IsInitial(s);
    for (int a = 0; a < automaton.num_symbols(); ++a) {
      for (const TwoWayNfa::Transition& t : automaton.TransitionsOn(s, a)) {
        std::string where =
            "two-way nfa: state " + Id(s) + ", symbol " + Id(a);
        if (t.to < 0 || t.to >= automaton.NumStates()) {
          return Status::InvalidArgument(
              where + ": target state " + Id(t.to) + " out of range [0, " +
              Id(automaton.NumStates()) + ")");
        }
        int move = static_cast<int>(t.move);
        if (move < -1 || move > 1) {
          return Status::InvalidArgument(
              where + ", target " + Id(t.to) + ": head move " + Id(move) +
              " is not a direction (must be -1 left, 0 stay, or 1 right)");
        }
        if (options.require_stuck_accepting && automaton.IsAccepting(s)) {
          return Status::InvalidArgument(
              "two-way nfa: accepting state " + Id(s) +
              " has an outgoing transition on symbol " + Id(a) +
              " (A1's final state must be stuck so premature $ firings die)");
        }
      }
    }
  }
  if (options.require_initial_state && !has_initial) {
    return Status::InvalidArgument("two-way nfa: no initial state among " +
                                   Id(automaton.NumStates()) + " states");
  }
  return Status::Ok();
}

Status ValidateRegexAst(const RegexPtr& root) {
  if (root == nullptr) {
    return Status::InvalidArgument("regex: root node is null");
  }
  // Preorder indices identify nodes in diagnostics. Iterative traversal: the
  // AST is a shared-pointer DAG, and adversarial sharing can make it
  // exponentially larger than its pointer graph — cap the walk.
  constexpr int kMaxVisited = 1 << 20;
  std::vector<const Regex*> stack = {root.get()};
  int preorder = -1;
  while (!stack.empty()) {
    const Regex* node = stack.back();
    stack.pop_back();
    if (++preorder >= kMaxVisited) {
      return Status::InvalidArgument(
          "regex: traversal exceeded " + Id(kMaxVisited) +
          " nodes (cyclic or pathologically shared AST)");
    }
    const std::string where = "regex: node " + Id(preorder);
    const bool wants_left =
        node->kind == RegexKind::kConcat || node->kind == RegexKind::kUnion ||
        node->kind == RegexKind::kStar;
    const bool wants_right =
        node->kind == RegexKind::kConcat || node->kind == RegexKind::kUnion;
    switch (node->kind) {
      case RegexKind::kEmptySet:
      case RegexKind::kEpsilon:
      case RegexKind::kAtom:
        if (node->left != nullptr || node->right != nullptr) {
          return Status::InvalidArgument(where + ": leaf kind has children");
        }
        if (node->kind == RegexKind::kAtom && node->atom_name.empty()) {
          return Status::InvalidArgument(where + ": atom with empty name");
        }
        break;
      case RegexKind::kConcat:
      case RegexKind::kUnion:
      case RegexKind::kStar:
        if (node->left == nullptr) {
          return Status::InvalidArgument(where + ": missing left operand");
        }
        if (wants_right && node->right == nullptr) {
          return Status::InvalidArgument(where + ": missing right operand");
        }
        if (!wants_right && node->right != nullptr) {
          return Status::InvalidArgument(where +
                                         ": star node with a right operand");
        }
        break;
      default:
        return Status::InvalidArgument(
            where + ": unknown node kind " +
            Id(static_cast<int>(node->kind)));
    }
    // Push right before left so preorder indices read left-to-right.
    if (wants_right && node->right != nullptr) stack.push_back(node->right.get());
    if (wants_left && node->left != nullptr) stack.push_back(node->left.get());
  }
  return Status::Ok();
}

namespace {

/// Invariants of a LabelCsr (built in memory or mapped from a columnar
/// snapshot): offsets start at 0, never decrease, and end at the edge count;
/// targets are in range and sorted within each span; relation ids beyond the
/// alphabet have no edges; and the two directions mirror each other. The
/// mirror check counts each out-run (from, r, to)×k against the in-span of
/// `to` — containment with equal multiplicities plus equal totals is full
/// multiset equality, without materializing a hash map of triples.
Status ValidateLabelCsr(const GraphDb& db, int num_relations) {
  const LabelCsr& csr = db.label_csr();
  const int n = db.NumNodes();
  if (csr.num_nodes != n) {
    return Status::InvalidArgument("graphdb: label index covers " +
                                   Id(csr.num_nodes) + " nodes, database has " +
                                   Id(n));
  }
  const uint64_t rows = static_cast<uint64_t>(csr.num_relations) * n;
  const uint64_t num_edges = static_cast<uint64_t>(db.NumEdges());
  struct Direction {
    const char* what;
    const uint64_t* offsets;
    const uint32_t* targets;
  };
  const Direction directions[2] = {
      {"out", csr.out_offsets(), csr.out_targets()},
      {"in", csr.in_offsets(), csr.in_targets()},
  };
  for (const Direction& d : directions) {
    if (d.offsets[0] != 0 || d.offsets[rows] != num_edges) {
      return Status::InvalidArgument(
          "graphdb: " + std::string(d.what) + " label index spans [" +
          Id(static_cast<int64_t>(d.offsets[0])) + ", " +
          Id(static_cast<int64_t>(d.offsets[rows])) + "), expected [0, " +
          Id(static_cast<int64_t>(num_edges)) + ")");
    }
    for (uint64_t row = 0; row < rows; ++row) {
      if (d.offsets[row + 1] < d.offsets[row]) {
        return Status::InvalidArgument("graphdb: " + std::string(d.what) +
                                       " label index offsets decrease at row " +
                                       Id(static_cast<int64_t>(row)));
      }
      for (uint64_t i = d.offsets[row]; i < d.offsets[row + 1]; ++i) {
        if (d.targets[i] >= static_cast<uint64_t>(n)) {
          return Status::InvalidArgument(
              "graphdb: " + std::string(d.what) + " label index target " +
              Id(d.targets[i]) + " out of range [0, " + Id(n) + ")");
        }
        if (i > d.offsets[row] && d.targets[i] < d.targets[i - 1]) {
          return Status::InvalidArgument(
              "graphdb: " + std::string(d.what) + " label index row " +
              Id(static_cast<int64_t>(row)) + " is not sorted");
        }
      }
      if (row >= static_cast<uint64_t>(num_relations) * n &&
          d.offsets[row + 1] > d.offsets[row]) {
        return Status::InvalidArgument(
            "graphdb: label index names relation id " +
            Id(static_cast<int64_t>(row / n)) + ", out of the alphabet's [0, " +
            Id(num_relations) + ")");
      }
    }
  }
  for (int r = 0; r < csr.num_relations; ++r) {
    for (int node = 0; node < n; ++node) {
      std::span<const uint32_t> out = csr.Out(node, r);
      for (size_t i = 0; i < out.size();) {
        uint32_t to = out[i];
        size_t run = i;
        while (run < out.size() && out[run] == to) ++run;
        std::span<const uint32_t> mirror = csr.In(static_cast<int>(to), r);
        auto range = std::equal_range(mirror.begin(), mirror.end(),
                                      static_cast<uint32_t>(node));
        if (static_cast<size_t>(range.second - range.first) != run - i) {
          return Status::InvalidArgument(
              "graphdb: edge node " + Id(node) + " --" + Id(r) + "--> node " +
              Id(to) + " out of sync between the label index directions");
        }
        i = run;
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status ValidateGraphDb(const GraphDb& db, int num_relations) {
  if (num_relations <= 0 && db.NumEdges() > 0) {
    return Status::InvalidArgument(
        "graphdb: edges present but the alphabet declares " +
        Id(num_relations) + " relations");
  }
  return ValidateLabelCsr(db, num_relations);
}

Status ValidateViewExtensions(
    int query_num_symbols, const std::vector<Nfa>& definitions,
    const std::vector<std::vector<std::pair<int, int>>>& extensions,
    int num_objects) {
  if (query_num_symbols < 0 || query_num_symbols % 2 != 0) {
    return Status::InvalidArgument(
        "views: query alphabet of " + Id(query_num_symbols) +
        " symbols is not a signed alphabet (must be even, pairing 2k/2k+1)");
  }
  if (!extensions.empty() && extensions.size() != definitions.size()) {
    return Status::InvalidArgument(
        "views: " + Id(static_cast<int>(definitions.size())) +
        " definitions but " + Id(static_cast<int>(extensions.size())) +
        " extensions");
  }
  for (size_t i = 0; i < definitions.size(); ++i) {
    const std::string where = "views: view " + Id(static_cast<int>(i));
    if (definitions[i].num_symbols() != query_num_symbols) {
      return Status::InvalidArgument(
          where + ": definition alphabet has " +
          Id(definitions[i].num_symbols()) + " symbols, query has " +
          Id(query_num_symbols) +
          " (query and views must share the signed alphabet)");
    }
    NfaValidateOptions nfa_options;
    nfa_options.require_signed_alphabet = true;
    Status definition_ok = ValidateNfa(definitions[i], nfa_options);
    if (!definition_ok.ok()) {
      return Status::InvalidArgument(where + ": " + definition_ok.message());
    }
    if (i < extensions.size()) {
      for (size_t p = 0; p < extensions[i].size(); ++p) {
        const auto& [a, b] = extensions[i][p];
        if (a < 0 || a >= num_objects || b < 0 || b >= num_objects) {
          return Status::InvalidArgument(
              where + ": extension pair " + Id(static_cast<int>(p)) + " (" +
              Id(a) + ", " + Id(b) + ") names an object outside [0, " +
              Id(num_objects) + ")");
        }
      }
    }
  }
  return Status::Ok();
}

Status ValidateViewNames(const std::vector<std::string>& definition_names,
                         const std::vector<std::string>& extension_names) {
  std::unordered_set<std::string> defined;
  for (const std::string& name : definition_names) {
    if (!defined.insert(name).second) {
      return Status::InvalidArgument("views: view '" + name +
                                     "' is defined twice");
    }
  }
  for (const std::string& name : extension_names) {
    if (defined.find(name) == defined.end()) {
      return Status::InvalidArgument(
          "views: extension references undefined view '" + name +
          "' (dangling view name)");
    }
  }
  return Status::Ok();
}

}  // namespace rpqi
