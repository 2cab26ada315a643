#include <gtest/gtest.h>

#include <random>

#include "automata/ops.h"
#include "automata/random.h"
#include "graphdb/eval.h"
#include "regex/parser.h"
#include "rewrite/baseline_rpq.h"
#include "rewrite/eval.h"
#include "rewrite/exactness.h"
#include "rewrite/expansion.h"
#include "rewrite/rewriter.h"
#include "rpq/alphabet.h"
#include "rpq/compile.h"
#include "rpq/containment.h"
#include "rpq/satisfaction.h"
#include "workload/regex_gen.h"
#include "workload/scenario.h"

namespace rpqi {
namespace {

struct RewriteCtx {
  SignedAlphabet alphabet;
  RewriteCtx() {
    alphabet.AddRelation("p");
    alphabet.AddRelation("q");
  }
  Nfa Compile(const std::string& text) {
    return MustCompileRegex(MustParseRegex(text), alphabet);
  }
};

/// All Σ_E± words up to the given length (k views ⇒ 2k symbols).
std::vector<std::vector<int>> AllViewWords(int num_views, int max_length) {
  std::vector<std::vector<int>> words = {{}};
  std::vector<std::vector<int>> frontier = {{}};
  for (int len = 1; len <= max_length; ++len) {
    std::vector<std::vector<int>> next;
    for (const auto& word : frontier) {
      for (int symbol = 0; symbol < 2 * num_views; ++symbol) {
        std::vector<int> extended = word;
        extended.push_back(symbol);
        next.push_back(extended);
        words.push_back(extended);
      }
    }
    frontier = std::move(next);
  }
  return words;
}

TEST(RewriterTest, SingleLetterViewsMirrorSatisfaction) {
  // With views va = p and vb = q, an e-word has exactly one expansion — the
  // matching Σ± word — so membership in the maximal rewriting must coincide
  // with word satisfaction of the query.
  RewriteCtx s;
  Nfa query = s.Compile("p (q^- p)*");
  std::vector<Nfa> views = {s.Compile("p"), s.Compile("q")};
  StatusOr<MaximalRewriting> rewriting = ComputeMaximalRewriting(query, views);
  ASSERT_TRUE(rewriting.ok()) << rewriting.status().ToString();

  for (const auto& view_word : AllViewWords(2, 4)) {
    // View symbol 2i ↦ Σ± symbol 2i here (va=p, vb=q share ids).
    std::vector<int> sigma_word = view_word;
    EXPECT_EQ(rewriting->dfa.Accepts(view_word),
              WordSatisfies(query, sigma_word))
        << "word size " << view_word.size();
  }
}

TEST(RewriterTest, MembershipOracleAgreesWithMaterializedRewriting) {
  RewriteCtx s;
  Nfa query = s.Compile("p q | q p^-");
  std::vector<Nfa> views = {s.Compile("p q"), s.Compile("q"), s.Compile("p^-")};
  StatusOr<MaximalRewriting> rewriting = ComputeMaximalRewriting(query, views);
  ASSERT_TRUE(rewriting.ok());
  for (const auto& view_word : AllViewWords(3, 3)) {
    EXPECT_EQ(rewriting->dfa.Accepts(view_word),
              IsWordInMaximalRewriting(query, views, view_word));
  }
}

TEST(RewriterTest, PaperExample1IsExactlyRewritable) {
  // Example 1 query with the natural navigation views: up = hasSubmodule⁻ and
  // downOrVar = containsVar | hasSubmodule give the exact rewriting
  // up* downOrVar.
  SignedAlphabet alphabet;
  alphabet.AddRelation("hasSubmodule");
  alphabet.AddRelation("containsVar");
  Nfa query = MustCompileRegex(
      MustParseRegex("(hasSubmodule^-)* (containsVar | hasSubmodule)"),
      alphabet);
  std::vector<Nfa> views = {
      MustCompileRegex(MustParseRegex("hasSubmodule^-"), alphabet),
      MustCompileRegex(MustParseRegex("containsVar | hasSubmodule"), alphabet),
  };
  StatusOr<MaximalRewriting> rewriting = ComputeMaximalRewriting(query, views);
  ASSERT_TRUE(rewriting.ok());
  EXPECT_FALSE(rewriting->empty);
  // up* downOrVar ∈ R (symbols: up = 0, up⁻ = 1, downOrVar = 2).
  EXPECT_TRUE(rewriting->dfa.Accepts({2}));
  EXPECT_TRUE(rewriting->dfa.Accepts({0, 2}));
  EXPECT_TRUE(rewriting->dfa.Accepts({0, 0, 2}));
  // A bare up is not a rewriting word (it computes hasSubmodule⁻, not the
  // query), nor is downOrVar followed by up.
  EXPECT_FALSE(rewriting->dfa.Accepts({0}));
  EXPECT_TRUE(IsSoundRewriting(query, views, rewriting->dfa, nullptr).value());
  EXPECT_TRUE(IsExactRewriting(query, views, rewriting->dfa, nullptr).value());
}

TEST(RewriterTest, InverseViewSymbolsAreUsed) {
  // Query p⁻ with the single view v = p: the only rewriting word is v⁻.
  RewriteCtx s;
  Nfa query = s.Compile("p^-");
  std::vector<Nfa> views = {s.Compile("p")};
  StatusOr<MaximalRewriting> rewriting = ComputeMaximalRewriting(query, views);
  ASSERT_TRUE(rewriting.ok());
  EXPECT_FALSE(rewriting->empty);
  EXPECT_TRUE(rewriting->dfa.Accepts({1}));   // v⁻
  EXPECT_FALSE(rewriting->dfa.Accepts({0}));  // v
  EXPECT_TRUE(IsExactRewriting(query, views, rewriting->dfa, nullptr).value());
}

TEST(RewriterTest, EmptyRewritingWhenViewsCannotHelp) {
  RewriteCtx s;
  Nfa query = s.Compile("p");
  std::vector<Nfa> views = {s.Compile("q")};
  StatusOr<MaximalRewriting> rewriting = ComputeMaximalRewriting(query, views);
  ASSERT_TRUE(rewriting.ok());
  EXPECT_TRUE(rewriting->empty);
  EXPECT_FALSE(IsExactRewriting(query, views, rewriting->dfa, nullptr).value());
  StatusOr<bool> nonempty = MaximalRewritingNonEmpty(query, views);
  ASSERT_TRUE(nonempty.ok());
  EXPECT_FALSE(*nonempty);
}

TEST(RewriterTest, NonEmptinessAgreesWithMaterialization) {
  RewriteCtx s;
  struct Case {
    std::string query;
    std::vector<std::string> views;
  };
  std::vector<Case> cases = {
      {"p q", {"p", "q"}},
      {"p q", {"q"}},
      {"(p p)*", {"p p"}},
      {"(p p p)*", {"p p"}},
      {"p^- q", {"p", "q"}},
      {"p", {"p q", "q^-"}},
  };
  for (const Case& c : cases) {
    Nfa query = s.Compile(c.query);
    std::vector<Nfa> views;
    for (const std::string& v : c.views) views.push_back(s.Compile(v));
    StatusOr<MaximalRewriting> rewriting =
        ComputeMaximalRewriting(query, views);
    ASSERT_TRUE(rewriting.ok());
    StatusOr<bool> nonempty = MaximalRewritingNonEmpty(query, views);
    ASSERT_TRUE(nonempty.ok());
    EXPECT_EQ(*nonempty, !rewriting->empty) << c.query;
  }
}

TEST(RewriterTest, SoundnessOnRandomInstances) {
  std::mt19937_64 rng(61);
  RandomRegexOptions regex_options;
  regex_options.relation_names = {"p", "q"};
  regex_options.target_size = 5;
  regex_options.inverse_probability = 0.3;
  SignedAlphabet alphabet;
  alphabet.AddRelation("p");
  alphabet.AddRelation("q");
  for (int trial = 0; trial < 12; ++trial) {
    Nfa query = MustCompileRegex(RandomRegex(rng, regex_options), alphabet);
    std::vector<Nfa> views;
    int num_views = 1 + static_cast<int>(rng() % 2);
    for (int v = 0; v < num_views; ++v) {
      RandomRegexOptions view_options = regex_options;
      view_options.target_size = 3;
      views.push_back(
          MustCompileRegex(RandomRegex(rng, view_options), alphabet));
    }
    StatusOr<MaximalRewriting> rewriting =
        ComputeMaximalRewriting(query, views);
    ASSERT_TRUE(rewriting.ok()) << rewriting.status().ToString();
    EXPECT_TRUE(IsSoundRewriting(query, views, rewriting->dfa, nullptr).value())
        << "trial " << trial;
  }
}

TEST(RewriterTest, MaximalityOnRandomInstances) {
  // Every view word outside R must have some expansion not satisfying the
  // query (Theorem 6); IsWordInMaximalRewriting is the independent oracle.
  std::mt19937_64 rng(67);
  RandomRegexOptions regex_options;
  regex_options.relation_names = {"p"};
  regex_options.target_size = 4;
  regex_options.inverse_probability = 0.35;
  SignedAlphabet alphabet;
  alphabet.AddRelation("p");
  for (int trial = 0; trial < 8; ++trial) {
    Nfa query = MustCompileRegex(RandomRegex(rng, regex_options), alphabet);
    RandomRegexOptions view_options = regex_options;
    view_options.target_size = 2;
    std::vector<Nfa> views = {
        MustCompileRegex(RandomRegex(rng, view_options), alphabet)};
    StatusOr<MaximalRewriting> rewriting =
        ComputeMaximalRewriting(query, views);
    ASSERT_TRUE(rewriting.ok());
    for (const auto& view_word : AllViewWords(1, 3)) {
      EXPECT_EQ(rewriting->dfa.Accepts(view_word),
                IsWordInMaximalRewriting(query, views, view_word))
          << "trial " << trial;
    }
  }
}

TEST(BaselineTest, AgreesWithTwoWayRewriterOnInverseFreeInputs) {
  std::mt19937_64 rng(71);
  RandomRegexOptions regex_options;
  regex_options.relation_names = {"p", "q"};
  regex_options.target_size = 5;
  regex_options.inverse_probability = 0.0;
  SignedAlphabet alphabet;
  alphabet.AddRelation("p");
  alphabet.AddRelation("q");
  for (int trial = 0; trial < 10; ++trial) {
    Nfa query = MustCompileRegex(RandomRegex(rng, regex_options), alphabet);
    RandomRegexOptions view_options = regex_options;
    view_options.target_size = 3;
    std::vector<Nfa> views = {
        MustCompileRegex(RandomRegex(rng, view_options), alphabet),
        MustCompileRegex(RandomRegex(rng, view_options), alphabet)};
    ASSERT_TRUE(IsInverseFree(query));

    StatusOr<MaximalRewriting> two_way = ComputeMaximalRewriting(query, views);
    StatusOr<MaximalRewriting> baseline =
        ComputeBaselineRpqRewriting(query, views);
    ASSERT_TRUE(two_way.ok());
    ASSERT_TRUE(baseline.ok());
    // The baseline covers forward view words only; on those the two must
    // agree exactly (satisfaction = membership for inverse-free data).
    for (const auto& view_word : AllViewWords(2, 3)) {
      bool forward_only = true;
      for (int symbol : view_word) {
        if (symbol % 2 != 0) forward_only = false;
      }
      if (!forward_only) continue;
      EXPECT_EQ(two_way->dfa.Accepts(view_word),
                baseline->dfa.Accepts(view_word))
          << "trial " << trial;
    }
  }
}

TEST(ExpansionTest, SubstitutesDefinitions) {
  RewriteCtx s;
  std::vector<Nfa> views = {s.Compile("p q"), s.Compile("q^-")};
  // Rewriting automaton accepting v0 v1⁻.
  Nfa rewriting(4);
  int s0 = rewriting.AddState();
  int s1 = rewriting.AddState();
  int s2 = rewriting.AddState();
  rewriting.SetInitial(s0);
  rewriting.SetAccepting(s2);
  rewriting.AddTransition(s0, 0, s1);  // v0
  rewriting.AddTransition(s1, 3, s2);  // v1⁻
  Nfa expansion = ExpandRewriting(rewriting, views);
  // v0 v1⁻ expands to (p q)(inv(q⁻)) = p q q.
  const int kP = 0, kQ = 2;
  EXPECT_TRUE(Accepts(expansion, {kP, kQ, kQ}));
  EXPECT_FALSE(Accepts(expansion, {kP, kQ}));
  EXPECT_FALSE(Accepts(expansion, {kP, kQ, kQ + 1}));
}

TEST(RewriteEvalTest, RewritingAnswersAreSoundOverViewGraph) {
  // Evaluate the Example-1 rewriting over exact extensions and compare with
  // direct evaluation of the query.
  std::mt19937_64 rng(73);
  SoftwareModulesScenario scenario = MakeSoftwareModulesScenario(rng, 5, 3);
  Nfa query = MustCompileRegex(scenario.visibility_query, scenario.alphabet);
  std::vector<Nfa> views;
  for (const RegexPtr& def : scenario.view_definitions) {
    views.push_back(MustCompileRegex(def, scenario.alphabet));
  }
  StatusOr<MaximalRewriting> rewriting = ComputeMaximalRewriting(query, views);
  ASSERT_TRUE(rewriting.ok());

  std::vector<std::vector<std::pair<int, int>>> extensions;
  for (const Nfa& view : views) {
    extensions.push_back(EvalRpqiAllPairs(scenario.db, CompileEvalPlan(view)));
  }
  auto from_views = EvaluateRewriting(rewriting->dfa, scenario.db.NumNodes(),
                                      extensions);
  auto direct = EvalRpqiAllPairs(scenario.db, CompileEvalPlan(query));
  // Soundness: every pair computed from the views is a real answer.
  for (const auto& pair : from_views) {
    EXPECT_TRUE(std::find(direct.begin(), direct.end(), pair) != direct.end());
  }
  // This rewriting is exact and the extensions cover all nodes, so the two
  // answer sets coincide.
  EXPECT_EQ(from_views, direct);
}

TEST(RewriterTest, StatsArePopulated) {
  RewriteCtx s;
  Nfa query = s.Compile("p q");
  std::vector<Nfa> views = {s.Compile("p"), s.Compile("q")};
  StatusOr<MaximalRewriting> rewriting = ComputeMaximalRewriting(query, views);
  ASSERT_TRUE(rewriting.ok());
  EXPECT_GT(rewriting->stats.a1_states, 0);
  EXPECT_GT(rewriting->stats.a3_states, 0);
  EXPECT_GT(rewriting->stats.a2_states_discovered, 0);
  EXPECT_GT(rewriting->stats.product_states, 0);
  EXPECT_GT(rewriting->stats.a4_states, 0);
  EXPECT_GT(rewriting->stats.rewriting_states, 0);
}

TEST(RewriterTest, ResourceLimitsAreEnforced) {
  RewriteCtx s;
  Nfa query = s.Compile("(p | q)* p (p | q) (p | q) (p | q)");
  std::vector<Nfa> views = {s.Compile("p"), s.Compile("q")};
  RewritingOptions options;
  options.max_product_states = 3;
  options.allow_partial = false;
  StatusOr<MaximalRewriting> rewriting =
      ComputeMaximalRewriting(query, views, options);
  EXPECT_FALSE(rewriting.ok());
  EXPECT_EQ(rewriting.status().code(), Status::Code::kResourceExhausted);

  // With graceful degradation (the default) the same limit yields a certified
  // partial rewriting instead of a dry failure.
  options.allow_partial = true;
  StatusOr<MaximalRewriting> partial =
      ComputeMaximalRewriting(query, views, options);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_FALSE(partial->exhaustive);
  EXPECT_EQ(partial->degradation_cause.code(),
            Status::Code::kResourceExhausted);
}

TEST(RewritingToStringTest, ProducesViewNames) {
  RewriteCtx s;
  Nfa query = s.Compile("p^-");
  std::vector<Nfa> views = {s.Compile("p")};
  StatusOr<MaximalRewriting> rewriting = ComputeMaximalRewriting(query, views);
  ASSERT_TRUE(rewriting.ok());
  std::string text = RewritingToString(rewriting->dfa, {"v"});
  EXPECT_NE(text.find("v^-"), std::string::npos) << text;
}

}  // namespace
}  // namespace rpqi
