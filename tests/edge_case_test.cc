// Boundary behaviour: empty languages, ε-only queries, zero views, single
// objects, and other corners the main suites do not reach.

#include <gtest/gtest.h>

#include "answer/cda.h"
#include "answer/oda.h"
#include "automata/ops.h"
#include "regex/parser.h"
#include "rewrite/exactness.h"
#include "rewrite/rewriter.h"
#include "rpq/alphabet.h"
#include "rpq/compile.h"
#include "rpq/containment.h"
#include "rpq/satisfaction.h"

namespace rpqi {
namespace {

struct Fixture {
  SignedAlphabet alphabet;
  Fixture() { alphabet.AddRelation("p"); }
  Nfa Compile(const std::string& text) {
    return MustCompileRegex(MustParseRegex(text), alphabet);
  }
};

TEST(EdgeCaseTest, EmptyLanguageQuery) {
  Fixture f;
  Nfa empty = f.Compile("%empty");
  EXPECT_TRUE(IsEmpty(empty));
  EXPECT_FALSE(WordSatisfies(empty, {}));
  EXPECT_FALSE(WordSatisfies(empty, {0}));
  // ∅ is contained in everything; nothing nonempty is contained in ∅.
  EXPECT_TRUE(RpqiContained(empty, f.Compile("p")));
  EXPECT_FALSE(RpqiContained(f.Compile("p"), empty));
  EXPECT_TRUE(RpqiContained(empty, empty));
}

TEST(EdgeCaseTest, EmptyQueryRewriting) {
  Fixture f;
  // The maximal rewriting of ∅: only view words with NO expansion at all may
  // appear (their expansion set is vacuously contained). With the total view
  // p every word has an expansion, so only… the empty view word? No: ε
  // expands to {ε}, and ε does not satisfy ∅. The rewriting is empty.
  Nfa query = f.Compile("%empty");
  std::vector<Nfa> views = {f.Compile("p")};
  StatusOr<MaximalRewriting> rewriting = ComputeMaximalRewriting(query, views);
  ASSERT_TRUE(rewriting.ok());
  EXPECT_TRUE(rewriting->empty);
}

TEST(EdgeCaseTest, EmptyLanguageView) {
  Fixture f;
  // A view with empty language: any view word USING it has no expansion and
  // is therefore vacuously in every rewriting (Definition 3).
  Nfa query = f.Compile("p");
  std::vector<Nfa> views = {f.Compile("p"), f.Compile("%empty")};
  StatusOr<MaximalRewriting> rewriting = ComputeMaximalRewriting(query, views);
  ASSERT_TRUE(rewriting.ok());
  EXPECT_TRUE(rewriting->dfa.Accepts({0}));     // v0 = p
  EXPECT_TRUE(rewriting->dfa.Accepts({2}));     // v1: no expansion, vacuous
  EXPECT_TRUE(rewriting->dfa.Accepts({2, 2}));  // still no expansion
  EXPECT_FALSE(rewriting->dfa.Accepts({0, 0}));
  // Still a sound and (because v0 = query) exact rewriting.
  EXPECT_TRUE(IsSoundRewriting(query, views, rewriting->dfa, nullptr).value());
  EXPECT_TRUE(IsExactRewriting(query, views, rewriting->dfa, nullptr).value());
}

TEST(EdgeCaseTest, EpsilonQueryRewriting) {
  Fixture f;
  // Query ε: the empty view word ε always expands to {ε} which satisfies ε,
  // so ε ∈ R and the rewriting is exact… only if no other word slips in.
  Nfa query = f.Compile("%eps");
  std::vector<Nfa> views = {f.Compile("p")};
  StatusOr<MaximalRewriting> rewriting = ComputeMaximalRewriting(query, views);
  ASSERT_TRUE(rewriting.ok());
  EXPECT_FALSE(rewriting->empty);
  EXPECT_TRUE(rewriting->dfa.Accepts({}));
  EXPECT_FALSE(rewriting->dfa.Accepts({0}));
  // v v⁻ expands to p p⁻ words, which relate x to x… but also to other
  // nodes with the same p-successor, so it is NOT below ε. Stays out.
  EXPECT_FALSE(rewriting->dfa.Accepts({0, 1}));
  EXPECT_TRUE(IsExactRewriting(query, views, rewriting->dfa, nullptr).value());
}

TEST(EdgeCaseTest, SingleObjectAnswering) {
  Fixture f;
  AnsweringInstance instance;
  instance.num_objects = 1;
  instance.query = f.Compile("p*");
  View view;
  view.definition = f.Compile("p");
  view.extension = {};
  view.assumption = ViewAssumption::kExact;  // no p-edges anywhere
  instance.views.push_back(view);

  StatusOr<CdaResult> cda = CertainAnswerCda(instance, 0, 0);
  ASSERT_TRUE(cda.ok());
  EXPECT_TRUE(cda->certain);  // ε-path
  StatusOr<OdaResult> oda = CertainAnswerOda(instance, 0, 0);
  ASSERT_TRUE(oda.ok());
  EXPECT_TRUE(oda->certain);

  instance.query = f.Compile("p");
  StatusOr<CdaResult> cda_p = CertainAnswerCda(instance, 0, 0);
  ASSERT_TRUE(cda_p.ok());
  EXPECT_FALSE(cda_p->certain);
  StatusOr<OdaResult> oda_p = CertainAnswerOda(instance, 0, 0);
  ASSERT_TRUE(oda_p.ok());
  EXPECT_FALSE(oda_p->certain);
  EXPECT_FALSE(PossibleAnswerOda(instance, 0, 0)->certain);
}

TEST(EdgeCaseTest, ViewWithEmptyExtensionStillConstrainsWhenExact) {
  Fixture f;
  AnsweringInstance instance;
  instance.num_objects = 2;
  instance.query = f.Compile("p");
  View view;
  view.definition = f.Compile("p");
  view.extension = {};
  view.assumption = ViewAssumption::kExact;
  instance.views.push_back(view);
  // Exact empty extension: no p-edge exists in any consistent database.
  EXPECT_FALSE(PossibleAnswerCda(instance, 0, 1)->certain);
  EXPECT_FALSE(PossibleAnswerOda(instance, 0, 1)->certain);
  // But as a *sound* view an empty extension constrains nothing.
  instance.views[0].assumption = ViewAssumption::kSound;
  EXPECT_TRUE(PossibleAnswerCda(instance, 0, 1)->certain);
  EXPECT_TRUE(PossibleAnswerOda(instance, 0, 1)->certain);
}

TEST(EdgeCaseTest, SatisfactionOfLongBackAndForthWords) {
  Fixture f;
  // Deep nesting of detours collapses to a single edge.
  Nfa query = f.Compile("p");
  std::vector<int> word = {0};
  Nfa zigzag = f.Compile("p p^- p p^- p");
  EXPECT_TRUE(WordSatisfies(zigzag, word));
  Nfa wrong_parity = f.Compile("p p^-");
  EXPECT_FALSE(WordSatisfies(wrong_parity, word));  // ends at the start node
}

TEST(EdgeCaseTest, ContainmentWithUniversalQuery) {
  Fixture f;
  Nfa universal = f.Compile("(p | p^-)*");
  EXPECT_TRUE(RpqiContained(f.Compile("p p^- | p*"), universal));
  EXPECT_FALSE(RpqiContained(universal, f.Compile("p*")));
  // ε is in the universal query, and ε only connects x to x, so the
  // universal query is NOT contained in p — but p IS contained in it.
  EXPECT_TRUE(RpqiContained(f.Compile("p"), universal));
  EXPECT_FALSE(RpqiContained(universal, f.Compile("p")));
}

TEST(EdgeCaseTest, RewritingOptionsZeroBudgetFailsCleanly) {
  Fixture f;
  Nfa query = f.Compile("p p");
  std::vector<Nfa> views = {f.Compile("p")};
  RewritingOptions options;
  options.max_product_states = 1;
  options.allow_partial = false;
  StatusOr<MaximalRewriting> rewriting =
      ComputeMaximalRewriting(query, views, options);
  EXPECT_FALSE(rewriting.ok());
  EXPECT_EQ(rewriting.status().code(), Status::Code::kResourceExhausted);
}

}  // namespace
}  // namespace rpqi
