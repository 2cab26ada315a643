// Tests for src/analysis: every validator must reject a deliberately
// corrupted input with Status::kInvalidArgument and a diagnostic that names
// the offending state / transition / symbol id, and must accept the healthy
// counterpart. The corruption table exercises exactly the breakages the
// pipeline stages are gated against (wrong rewritings, not crashes).

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/validate.h"
#include "automata/ops.h"
#include "graphdb/graph.h"
#include "gtest/gtest.h"
#include "regex/ast.h"
#include "rpq/satisfaction.h"

namespace rpqi {
namespace {

void ExpectRejected(const Status& status,
                    const std::vector<std::string>& name_fragments,
                    const std::string& what) {
  ASSERT_FALSE(status.ok()) << what << ": corruption was not detected";
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument) << what;
  for (const std::string& fragment : name_fragments) {
    EXPECT_NE(status.message().find(fragment), std::string::npos)
        << what << ": diagnostic \"" << status.message()
        << "\" does not name \"" << fragment << "\"";
  }
}

Nfa TwoStateNfa(int num_symbols) {
  Nfa nfa(num_symbols);
  int a = nfa.AddState();
  int b = nfa.AddState();
  nfa.SetInitial(a);
  nfa.SetAccepting(b);
  nfa.AddTransition(a, 0, b);
  return nfa;
}

// ---------------------------------------------------------------------------
// Corruption table. Each row builds a broken artifact through a public API
// and says which ids its diagnostic must mention.

struct CorruptionCase {
  std::string name;
  std::function<Status()> validate;
  std::vector<std::string> expect_named;
};

std::vector<CorruptionCase> CorruptionTable() {
  std::vector<CorruptionCase> table;

  table.push_back(
      {"raw nfa target state out of range",
       [] {
         RawNfa raw;
         raw.num_symbols = 2;
         raw.num_states = 3;
         raw.initial = {0};
         raw.accepting = {2};
         raw.transitions = {{0, 1, 2}, {1, 0, 7}};  // state 7 does not exist
         return ValidateRawNfa(raw);
       },
       {"transition 1", "target state 7", "[0, 3)"}});

  table.push_back(
      {"raw nfa symbol out of alphabet range",
       [] {
         RawNfa raw;
         raw.num_symbols = 2;
         raw.num_states = 2;
         raw.initial = {0};
         raw.transitions = {{0, 9, 1}};  // symbol 9 in a 2-symbol alphabet
         return ValidateRawNfa(raw);
       },
       {"transition 0", "symbol 9", "[0, 2)"}});

  table.push_back(
      {"raw nfa initial state out of range",
       [] {
         RawNfa raw;
         raw.num_symbols = 2;
         raw.num_states = 2;
         raw.initial = {5};
         return ValidateRawNfa(raw);
       },
       {"initial state 5", "[0, 2)"}});

  table.push_back(
      {"duplicate dfa edge",
       [] {
         // An Nfa claiming determinism, with two successors on (0, symbol 0).
         Nfa nfa(1);
         int s0 = nfa.AddState();
         int s1 = nfa.AddState();
         int s2 = nfa.AddState();
         nfa.SetInitial(s0);
         nfa.AddTransition(s0, 0, s1);
         nfa.AddTransition(s0, 0, s2);
         return ValidateDeterministic(nfa);
       },
       {"state 0", "symbol 0", "targets 1 and 2"}});

  table.push_back(
      {"non-total dfa",
       [] {
         Dfa dfa(2, 2);  // next entries default to -1 (missing)
         dfa.SetInitial(0);
         dfa.SetNext(0, 0, 1);
         DfaValidateOptions options;
         options.require_total = true;
         return ValidateDfa(dfa, options);
       },
       {"state 0", "no successor on symbol 1"}});

  table.push_back(
      {"unpaired inverse symbol",
       [] {
         // A 3-symbol alphabet cannot be Σ±: symbol 2 has no ± partner.
         NfaValidateOptions options;
         options.require_signed_alphabet = true;
         return ValidateNfa(TwoStateNfa(3), options);
       },
       {"symbol 2", "no ± partner"}});

  table.push_back(
      {"epsilon where freedom is required",
       [] {
         Nfa nfa(2);
         int a = nfa.AddState();
         int b = nfa.AddState();
         nfa.SetInitial(a);
         nfa.AddTransition(a, kEpsilon, b);
         NfaValidateOptions options;
         options.require_epsilon_free = true;
         return ValidateNfa(nfa, options);
       },
       {"state 0", "ε-transition"}});

  table.push_back(
      {"two-way head move not a direction",
       [] {
         // AddTransition does not range-check the Move enum, so a garbage
         // cast survives construction; the validator is the backstop.
         TwoWayNfa automaton(2);
         int a = automaton.AddState();
         int b = automaton.AddState();
         automaton.SetInitial(a);
         automaton.AddTransition(a, 1, b, static_cast<Move>(3));
         return ValidateTwoWay(automaton);
       },
       {"state 0", "symbol 1", "head move 3"}});

  table.push_back(
      {"two-way accepting state not stuck",
       [] {
         TwoWayNfa automaton(2);
         int a = automaton.AddState();
         int b = automaton.AddState();
         automaton.SetInitial(a);
         automaton.SetAccepting(b);
         automaton.AddTransition(b, 0, a, Move::kRight);
         TwoWayValidateOptions options;
         options.require_stuck_accepting = true;
         return ValidateTwoWay(automaton, options);
       },
       {"accepting state 1", "outgoing transition on symbol 0"}});

  table.push_back(
      {"graphdb relation id out of range",
       [] {
         // GraphBuilder::AddEdge only checks relation >= 0; it cannot know
         // the alphabet, so a stale relation id is representable.
         GraphBuilder builder;
         builder.AddNode("x");
         builder.AddNode("y");
         builder.AddEdge(0, 5, 1);
         return ValidateGraphDb(std::move(builder).Build(),
                                /*num_relations=*/2);
       },
       {"relation id 5", "[0, 2)"}});

  table.push_back(
      {"regex concat missing right operand",
       [] {
         auto node = std::make_shared<Regex>();
         node->kind = RegexKind::kConcat;
         node->left = RAtom("r");
         return ValidateRegexAst(node);
       },
       {"node 0", "missing right operand"}});

  table.push_back(
      {"regex atom with empty name",
       [] {
         auto corrupt = std::make_shared<Regex>();
         corrupt->kind = RegexKind::kAtom;
         RegexPtr root = RConcat(RAtom("r"), corrupt);
         return ValidateRegexAst(root);
       },
       {"node 2", "empty name"}});

  table.push_back(
      {"view definition alphabet mismatch",
       [] {
         // Query over Σ± of 4 symbols, definition over only 2.
         return ValidateViewExtensions(4, {TwoStateNfa(2)}, {}, 0);
       },
       {"view 0", "definition alphabet has 2 symbols", "query has 4"}});

  table.push_back(
      {"view extension pair out of range",
       [] {
         return ValidateViewExtensions(2, {TwoStateNfa(2)}, {{{1, 9}}},
                                       /*num_objects=*/3);
       },
       {"view 0", "pair 0", "(1, 9)", "[0, 3)"}});

  table.push_back(
      {"dangling view name",
       [] { return ValidateViewNames({"reachable"}, {"reachible"}); },
       {"undefined view 'reachible'", "dangling"}});

  table.push_back(
      {"duplicate view definition name",
       [] { return ValidateViewNames({"v", "v"}, {}); },
       {"view 'v'", "defined twice"}});

  table.push_back(
      {"nfa cached transition count out of sync",
       [] {
         Nfa nfa = TwoStateNfa(2);
         nfa.CorruptTransitionCountForTesting();
         return ValidateNfa(nfa, NfaValidateOptions{});
       },
       {"cached", "transition count"}});

  table.push_back(
      {"bitset cached hash stale",
       [] {
         Bitset bits(70);
         bits.Set(3);
         bits.Set(65);
         bits.CorruptCachedHashForTesting();
         return ValidateBitsetHash(bits);
       },
       {"cached hash", "stale"}});

  return table;
}

TEST(AnalysisCorruptionTest, EveryCorruptionIsRejectedAndNamed) {
  for (const CorruptionCase& c : CorruptionTable()) {
    ExpectRejected(c.validate(), c.expect_named, c.name);
  }
}

// ---------------------------------------------------------------------------
// Healthy counterparts: the validators accept what the pipeline produces.

TEST(AnalysisAcceptanceTest, HealthyNfaPasses) {
  NfaValidateOptions options;
  options.require_initial_state = true;
  options.require_signed_alphabet = true;
  options.expected_num_symbols = 2;
  EXPECT_TRUE(ValidateNfa(TwoStateNfa(2), options).ok());
}

TEST(AnalysisAcceptanceTest, DeterminizedDfaIsTotalAndValid) {
  Nfa nfa(2);
  int a = nfa.AddState();
  int b = nfa.AddState();
  nfa.SetInitial(a);
  nfa.SetAccepting(b);
  nfa.AddTransition(a, 0, b);
  nfa.AddTransition(a, 1, a);
  nfa.AddTransition(b, kEpsilon, a);
  Dfa dfa = Determinize(nfa);
  DfaValidateOptions options;
  options.require_total = true;
  options.expected_num_symbols = 2;
  EXPECT_TRUE(ValidateDfa(dfa, options).ok());
  EXPECT_TRUE(ValidateDeterministic(DfaToNfa(dfa)).ok());
}

TEST(AnalysisAcceptanceTest, SatisfactionAutomatonHasStuckFinalState) {
  Nfa query = TwoStateNfa(2);
  SatisfactionOptions options;
  options.total_symbols = query.num_symbols() + 1;
  options.dollar_symbol = query.num_symbols();
  TwoWayNfa a1 = BuildSatisfactionAutomaton(query, options);
  TwoWayValidateOptions validate_options;
  validate_options.require_initial_state = true;
  validate_options.require_stuck_accepting = true;
  validate_options.expected_num_symbols = options.total_symbols;
  EXPECT_TRUE(ValidateTwoWay(a1, validate_options).ok());
}

TEST(AnalysisAcceptanceTest, BuildValidatedNfaRoundTrips) {
  RawNfa raw;
  raw.num_symbols = 2;
  raw.num_states = 2;
  raw.initial = {0};
  raw.accepting = {1};
  raw.transitions = {{0, 0, 1}, {1, 1, 0}};
  StatusOr<Nfa> nfa = BuildValidatedNfa(raw);
  ASSERT_TRUE(nfa.ok()) << nfa.status().ToString();
  EXPECT_EQ(nfa->NumStates(), 2);
  EXPECT_EQ(nfa->NumTransitions(), 2);
  EXPECT_TRUE(nfa->IsInitial(0));
  EXPECT_TRUE(nfa->IsAccepting(1));
}

TEST(AnalysisAcceptanceTest, BuildValidatedNfaRejectsBadDescription) {
  RawNfa raw;
  raw.num_symbols = 2;
  raw.num_states = 2;
  raw.initial = {0};
  raw.transitions = {{0, 0, 3}};
  StatusOr<Nfa> nfa = BuildValidatedNfa(raw);
  ExpectRejected(nfa.status(), {"target state 3"}, "BuildValidatedNfa");
}

TEST(AnalysisAcceptanceTest, HealthyGraphDbPasses) {
  GraphBuilder builder;
  builder.AddNode("x");
  builder.AddNode("y");
  builder.AddEdge(0, 0, 1);
  builder.AddEdge(1, 1, 0);
  GraphDb db = std::move(builder).Build();
  EXPECT_TRUE(ValidateGraphDb(db, 2).ok());
}

TEST(AnalysisAcceptanceTest, HealthyRegexPasses) {
  RegexPtr expr = RStar(RUnion(RConcat(RAtom("r"), RAtom("s", true)),
                               REpsilon()));
  EXPECT_TRUE(ValidateRegexAst(expr).ok());
}

TEST(AnalysisAcceptanceTest, HealthyBitsetHashPasses) {
  Bitset bits(70);
  EXPECT_TRUE(ValidateBitsetHash(bits).ok());  // no cached hash yet
  bits.Set(3);
  bits.Set(65);
  const uint64_t hash = bits.Hash();
  EXPECT_NE(hash, 0u);
  EXPECT_TRUE(ValidateBitsetHash(bits).ok());  // freshly cached
  bits.Reset(3);
  EXPECT_TRUE(ValidateBitsetHash(bits).ok());  // cache invalidated, recomputed
}

TEST(AnalysisAcceptanceTest, NfaTransitionCountStaysExact) {
  // NumTransitions must track AddTransition exactly (it is O(1) cached).
  Nfa nfa(2);
  int a = nfa.AddState();
  int b = nfa.AddState();
  EXPECT_EQ(nfa.NumTransitions(), 0);
  nfa.AddTransition(a, 0, b);
  nfa.AddTransition(b, 1, a);
  nfa.AddTransition(a, kEpsilon, b);
  EXPECT_EQ(nfa.NumTransitions(), 3);
  Nfa copy = nfa;
  EXPECT_EQ(copy.NumTransitions(), 3);
}

}  // namespace
}  // namespace rpqi
