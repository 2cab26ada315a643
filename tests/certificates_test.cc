#include <gtest/gtest.h>

#include <random>

#include "answer/certificates.h"
#include "answer/linearize.h"
#include "answer/oda.h"
#include "answer/views.h"
#include "graphdb/eval.h"
#include "regex/parser.h"
#include "rpq/alphabet.h"
#include "rpq/compile.h"
#include "workload/regex_gen.h"

namespace rpqi {
namespace {

/// Random canonical word over the given alphabet, with all objects mentioned.
std::vector<int> RandomCanonicalWord(std::mt19937_64& rng,
                                     const LinearAlphabet& alphabet) {
  std::vector<CanonicalBlock> blocks;
  for (int object = 0; object < alphabet.num_objects; ++object) {
    blocks.push_back({object, {}, object});
  }
  int extra = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < extra; ++i) {
    CanonicalBlock block;
    block.from = static_cast<int>(rng() % alphabet.num_objects);
    block.to = static_cast<int>(rng() % alphabet.num_objects);
    int len = 1 + static_cast<int>(rng() % 3);
    for (int j = 0; j < len; ++j) {
      block.labels.push_back(static_cast<int>(rng() % alphabet.sigma_symbols));
    }
    blocks.push_back(block);
  }
  return CanonicalDbToWord(blocks, alphabet);
}

// The heart of Theorem 17: on canonical words, the minimal uniform
// certificate of the search-FREE automaton proves rejection exactly when the
// search-FULL automaton rejects — i.e., exactly when (c,d) ∉ ans(Q, B).
TEST(CertificatesTest, UniformCertificateMatchesSearchModeAutomaton) {
  std::mt19937_64 rng(107);
  SignedAlphabet sigma;
  sigma.AddRelation("p");
  sigma.AddRelation("q");
  LinearAlphabet alphabet{sigma.NumSymbols(), 3};

  RandomRegexOptions regex_options;
  regex_options.relation_names = {"p", "q"};
  regex_options.target_size = 3;
  regex_options.inverse_probability = 0.3;

  int rejected_seen = 0, accepted_seen = 0;
  for (int trial = 0; trial < 30; ++trial) {
    Nfa query = MustCompileRegex(RandomRegex(rng, regex_options), sigma);
    std::vector<int> word = RandomCanonicalWord(rng, alphabet);
    for (int c = 0; c < alphabet.num_objects; ++c) {
      for (int d = 0; d < alphabet.num_objects; ++d) {
        LinearEvalSpec full_spec;
        full_spec.start = LinearEvalSpec::Start::kAtConstant;
        full_spec.start_constant = c;
        full_spec.end = LinearEvalSpec::End::kAtConstant;
        full_spec.end_constant = d;
        TwoWayNfa full = BuildLinearizedEvalAutomaton(query, alphabet, full_spec);
        bool accepted = SimulateTwoWay(full, word);

        TwoWayNfa search_free =
            BuildSearchFreeQueryAutomaton(query, alphabet, c, d);
        std::optional<UniformCertificate> certificate =
            ComputeMinimalUniformCertificate(search_free, alphabet, word);
        EXPECT_EQ(certificate.has_value(), !accepted)
            << "trial " << trial << " pair (" << c << "," << d << ")";
        (accepted ? accepted_seen : rejected_seen)++;
      }
    }
  }
  EXPECT_GT(rejected_seen, 0);
  EXPECT_GT(accepted_seen, 0);
}

TEST(CertificatesTest, CertificateAgreesWithGraphEvaluation) {
  // Same as above but validated against the independent graphdb evaluator
  // (Theorem 14 + Theorem 17 composed).
  std::mt19937_64 rng(109);
  SignedAlphabet sigma;
  sigma.AddRelation("p");
  LinearAlphabet alphabet{sigma.NumSymbols(), 2};
  Nfa query = MustCompileRegex(MustParseRegex("p p"), sigma);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> word = RandomCanonicalWord(rng, alphabet);
    StatusOr<GraphDb> db = WordToCanonicalDb(word, alphabet);
    ASSERT_TRUE(db.ok());
    for (int c = 0; c < 2; ++c) {
      for (int d = 0; d < 2; ++d) {
        TwoWayNfa search_free =
            BuildSearchFreeQueryAutomaton(query, alphabet, c, d);
        std::optional<UniformCertificate> certificate =
            ComputeMinimalUniformCertificate(search_free, alphabet, word);
        EXPECT_EQ(certificate.has_value(),
                  !EvalRpqiPair(*db, CompileEvalPlan(query), c, d))
            << "trial " << trial;
      }
    }
  }
}

TEST(CertificatesTest, LabelingFromWitnessYieldsWord) {
  // NP-witness round trip: take the counterexample from the main ODA
  // pipeline, extract its uniform labeling, and ask the certificate engine
  // for a word realizing that labeling under the same sound views. The word
  // it finds must itself be a valid counterexample.
  SignedAlphabet sigma;
  sigma.AddRelation("p");
  AnsweringInstance instance;
  instance.num_objects = 2;
  instance.query = MustCompileRegex(MustParseRegex("p"), sigma);
  View view;
  view.definition = MustCompileRegex(MustParseRegex("p p"), sigma);
  view.extension = {{0, 1}};
  view.assumption = ViewAssumption::kSound;
  instance.views.push_back(view);

  StatusOr<OdaResult> oda = CertainAnswerOda(instance, 0, 1);
  ASSERT_TRUE(oda.ok());
  ASSERT_FALSE(oda->certain);
  ASSERT_TRUE(oda->counterexample_word.has_value());

  LinearAlphabet alphabet{sigma.NumSymbols(), 2};
  TwoWayNfa search_free =
      BuildSearchFreeQueryAutomaton(instance.query, alphabet, 0, 1);
  std::optional<UniformCertificate> labeling = ComputeMinimalUniformCertificate(
      search_free, alphabet, *oda->counterexample_word);
  ASSERT_TRUE(labeling.has_value());

  LinearEvalSpec view_spec;
  view_spec.start = LinearEvalSpec::Start::kAtConstant;
  view_spec.start_constant = 0;
  view_spec.end = LinearEvalSpec::End::kAtConstant;
  view_spec.end_constant = 1;
  TwoWayNfa view_automaton =
      BuildLinearizedEvalAutomaton(view.definition, alphabet, view_spec);

  StatusOr<std::optional<std::vector<int>>> word = FindWordForLabeling(
      search_free, alphabet, *labeling, {}, {&view_automaton},
      /*max_states=*/int64_t{1} << 22);
  ASSERT_TRUE(word.ok()) << word.status().ToString();
  ASSERT_TRUE(word->has_value());

  // Soundness of anything found: it decodes to a DB consistent with the view
  // that excludes (0,1) from the query answer.
  StatusOr<GraphDb> db = WordToCanonicalDb(**word, alphabet);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(VerifyOdaCounterexample(instance, 0, 1, *db));
}

TEST(CertificatesTest, EmptyLabelingFindsNoWordWhenPairIsCertain) {
  // (0,1) is certain here (the view def is the query itself); in particular
  // the all-empty labeling must not produce any counterexample word.
  SignedAlphabet sigma;
  sigma.AddRelation("p");
  AnsweringInstance instance;
  instance.num_objects = 2;
  instance.query = MustCompileRegex(MustParseRegex("p"), sigma);
  View view;
  view.definition = MustCompileRegex(MustParseRegex("p"), sigma);
  view.extension = {{0, 1}};
  view.assumption = ViewAssumption::kSound;
  instance.views.push_back(view);

  LinearAlphabet alphabet{sigma.NumSymbols(), 2};
  TwoWayNfa search_free =
      BuildSearchFreeQueryAutomaton(instance.query, alphabet, 0, 1);
  UniformCertificate empty_labeling;
  empty_labeling.object_labels.assign(2, Bitset(search_free.NumStates()));

  LinearEvalSpec view_spec;
  view_spec.start = LinearEvalSpec::Start::kAtConstant;
  view_spec.start_constant = 0;
  view_spec.end = LinearEvalSpec::End::kAtConstant;
  view_spec.end_constant = 1;
  TwoWayNfa view_automaton =
      BuildLinearizedEvalAutomaton(view.definition, alphabet, view_spec);

  StatusOr<std::optional<std::vector<int>>> word = FindWordForLabeling(
      search_free, alphabet, empty_labeling, {}, {&view_automaton},
      /*max_states=*/int64_t{1} << 22);
  ASSERT_TRUE(word.ok()) << word.status().ToString();
  EXPECT_FALSE(word->has_value());
}

}  // namespace
}  // namespace rpqi
