// Tests for the execution-governance layer: Budget deadlines, cooperative
// cancellation, state quotas, and the certified-partial degradation of the
// rewriting pipeline.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "answer/cda.h"
#include "answer/oda.h"
#include "automata/ops.h"
#include "base/budget.h"
#include "base/status.h"
#include "graphdb/eval.h"
#include "graphdb/io.h"
#include "regex/parser.h"
#include "rewrite/rewriter.h"
#include "rpq/compile.h"
#include "rpq/containment.h"
#include "workload/scenario.h"

namespace rpqi {
namespace {

using Clock = Budget::Clock;
using std::chrono::milliseconds;

int64_t ElapsedMs(Clock::time_point start) {
  return std::chrono::duration_cast<milliseconds>(Clock::now() - start)
      .count();
}

/// The classic subset blowup (a|b)* a (a|b)^n: the minimal DFA needs 2^n
/// states, so determinization runs long enough to observe cancellation.
Nfa BlowupNfa(int n) {
  Nfa nfa(2);
  int start = nfa.AddState();
  nfa.SetInitial(start);
  nfa.AddTransition(start, 0, start);
  nfa.AddTransition(start, 1, start);
  int previous = start;
  for (int i = 0; i <= n; ++i) {
    int state = nfa.AddState();
    if (i == 0) {
      nfa.AddTransition(previous, 0, state);
    } else {
      nfa.AddTransition(previous, 0, state);
      nfa.AddTransition(previous, 1, state);
    }
    previous = state;
  }
  nfa.SetAccepting(previous);
  return nfa;
}

struct CompiledHardInstance {
  Nfa query{0};
  std::vector<Nfa> views;
};

CompiledHardInstance CompileHardInstance(int k) {
  HardRewritingInstance instance = MakeHardRewritingInstance(k);
  CompiledHardInstance compiled;
  compiled.query = MustCompileRegex(instance.query, instance.alphabet);
  for (const RegexPtr& def : instance.view_definitions) {
    compiled.views.push_back(MustCompileRegex(def, instance.alphabet));
  }
  return compiled;
}

// --- Status plumbing -------------------------------------------------------

TEST(StatusTest, NewCodesRoundTrip) {
  Status deadline = Status::DeadlineExceeded("too slow");
  EXPECT_EQ(deadline.code(), Status::Code::kDeadlineExceeded);
  EXPECT_NE(deadline.ToString().find("DeadlineExceeded"), std::string::npos);
  Status cancelled = Status::Cancelled("stop");
  EXPECT_EQ(cancelled.code(), Status::Code::kCancelled);
  EXPECT_NE(cancelled.ToString().find("Cancelled"), std::string::npos);
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto passthrough = [](Status status) -> Status {
    RPQI_RETURN_IF_ERROR(status);
    return Status::Ok();
  };
  EXPECT_TRUE(passthrough(Status::Ok()).ok());
  EXPECT_EQ(passthrough(Status::Cancelled("x")).code(),
            Status::Code::kCancelled);
}

TEST(StatusTest, AssignOrReturnUnwrapsAndPropagates) {
  auto doubler = [](StatusOr<int> input) -> StatusOr<int> {
    RPQI_ASSIGN_OR_RETURN(int value, input);
    return 2 * value;
  };
  StatusOr<int> ok = doubler(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  StatusOr<int> error = doubler(Status::ResourceExhausted("full"));
  EXPECT_EQ(error.status().code(), Status::Code::kResourceExhausted);
}

// --- Budget primitives -----------------------------------------------------

TEST(BudgetTest, UnlimitedBudgetAlwaysPasses) {
  Budget budget = Budget::Unlimited();
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(budget.Check().ok());
  }
  EXPECT_TRUE(budget.ChargeStates(int64_t{1} << 40).ok());
}

TEST(BudgetTest, DeadlineExpiresAndIsSticky) {
  Budget budget = Budget::WithDeadline(milliseconds(1));
  std::this_thread::sleep_for(milliseconds(10));
  // The clock is consulted every kStride calls, so loop well past the stride.
  Status status = Status::Ok();
  for (int i = 0; i < 10000 && status.ok(); ++i) status = budget.Check();
  EXPECT_EQ(status.code(), Status::Code::kDeadlineExceeded);
  // Sticky: the very next call fails without any stride delay.
  EXPECT_EQ(budget.Check().code(), Status::Code::kDeadlineExceeded);
}

TEST(BudgetTest, StateQuotaExhausts) {
  Budget budget;
  budget.set_max_states(10);
  EXPECT_TRUE(budget.ChargeStates(10).ok());
  EXPECT_EQ(budget.RemainingStates(), 0);
  EXPECT_EQ(budget.ChargeStates(1).code(), Status::Code::kResourceExhausted);
  EXPECT_EQ(budget.Check().code(), Status::Code::kResourceExhausted);
}

TEST(BudgetTest, CancellationFlagIsObservedImmediately) {
  std::atomic<bool> cancel{false};
  Budget budget;
  budget.set_cancel_flag(&cancel);
  EXPECT_TRUE(budget.Check().ok());
  cancel.store(true);
  EXPECT_EQ(budget.Check().code(), Status::Code::kCancelled);
}

TEST(BudgetTest, GraceBudgetExtendsTheWindow) {
  Budget budget = Budget::WithDeadline(milliseconds(1));
  std::this_thread::sleep_for(milliseconds(10));
  Status status = Status::Ok();
  for (int i = 0; i < 10000 && status.ok(); ++i) status = budget.Check();
  ASSERT_EQ(status.code(), Status::Code::kDeadlineExceeded);
  // A generous grace factor re-opens the window (1ms * 100 = 100ms total,
  // of which only ~10ms have elapsed).
  Budget grace = budget.GraceBudget(100.0);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(grace.Check().ok());
  }
}

TEST(BudgetTest, NullSafeHelpers) {
  EXPECT_TRUE(BudgetCheck(nullptr).ok());
  EXPECT_TRUE(BudgetCharge(nullptr, int64_t{1} << 50).ok());
}

// --- Determinization and containment ---------------------------------------

TEST(BudgetDeterminizeTest, PresetCancellationStopsImmediately) {
  std::atomic<bool> cancel{true};
  Budget budget;
  budget.set_cancel_flag(&cancel);
  StatusOr<Dfa> dfa =
      DeterminizeWithLimit(BlowupNfa(20), int64_t{1} << 30, &budget);
  ASSERT_FALSE(dfa.ok());
  EXPECT_EQ(dfa.status().code(), Status::Code::kCancelled);
}

TEST(BudgetDeterminizeTest, MidFlightCancellationStopsPromptly) {
  // 2^24 subsets would take far longer than the cancellation delay; the
  // determinization must stop within a small multiple of the delay instead
  // of running to completion.
  std::atomic<bool> cancel{false};
  Budget budget;
  budget.set_cancel_flag(&cancel);
  Clock::time_point start = Clock::now();
  std::thread canceller([&] {
    std::this_thread::sleep_for(milliseconds(20));
    cancel.store(true);
  });
  StatusOr<Dfa> dfa =
      DeterminizeWithLimit(BlowupNfa(24), int64_t{1} << 30, &budget);
  canceller.join();
  ASSERT_FALSE(dfa.ok());
  EXPECT_EQ(dfa.status().code(), Status::Code::kCancelled);
  EXPECT_LT(ElapsedMs(start), 5000) << "cancellation was not prompt";
}

TEST(BudgetDeterminizeTest, StateQuotaYieldsResourceExhausted) {
  Budget budget;
  budget.set_max_states(16);
  StatusOr<Dfa> dfa =
      DeterminizeWithLimit(BlowupNfa(10), int64_t{1} << 30, &budget);
  ASSERT_FALSE(dfa.ok());
  EXPECT_EQ(dfa.status().code(), Status::Code::kResourceExhausted);
}

TEST(BudgetContainmentTest, CancellationPropagates) {
  SignedAlphabet alphabet;
  alphabet.AddRelation("a");
  alphabet.AddRelation("b");
  Nfa q1 = MustCompileRegex(MustParseRegex("(a | b)* a"), alphabet);
  Nfa q2 = MustCompileRegex(MustParseRegex("(a | b)*"), alphabet);
  std::atomic<bool> cancel{true};
  Budget budget;
  budget.set_cancel_flag(&cancel);
  StatusOr<bool> contained = RpqiContainedWithBudget(q1, q2, &budget);
  ASSERT_FALSE(contained.ok());
  EXPECT_EQ(contained.status().code(), Status::Code::kCancelled);
  // Unbudgeted, the same check succeeds.
  EXPECT_TRUE(RpqiContained(q1, q2));
}

// --- Rewriting pipeline ----------------------------------------------------

TEST(BudgetRewritingTest, TightDeadlineFailsFastWithoutPartial) {
  CompiledHardInstance hard = CompileHardInstance(14);
  Budget budget = Budget::WithDeadline(milliseconds(1));
  RewritingOptions options;
  options.budget = &budget;
  options.allow_partial = false;
  Clock::time_point start = Clock::now();
  StatusOr<MaximalRewriting> rewriting =
      ComputeMaximalRewriting(hard.query, hard.views, options);
  ASSERT_FALSE(rewriting.ok());
  EXPECT_EQ(rewriting.status().code(), Status::Code::kDeadlineExceeded);
  // Generous CI bound; the point is "milliseconds, not the full 2EXPTIME run".
  EXPECT_LT(ElapsedMs(start), 5000);
}

TEST(BudgetRewritingTest, TightDeadlineDegradesToFlaggedPartial) {
  CompiledHardInstance hard = CompileHardInstance(14);
  Budget budget = Budget::WithDeadline(milliseconds(50));
  RewritingOptions options;
  options.budget = &budget;
  options.allow_partial = true;
  Clock::time_point start = Clock::now();
  StatusOr<MaximalRewriting> rewriting =
      ComputeMaximalRewriting(hard.query, hard.views, options);
  int64_t elapsed_ms = ElapsedMs(start);
  ASSERT_TRUE(rewriting.ok()) << rewriting.status().ToString();
  EXPECT_FALSE(rewriting->exhaustive);
  EXPECT_FALSE(rewriting->degradation_cause.ok());
  // The acceptance bar is ~2x the requested deadline; allow slack for slow CI.
  EXPECT_LT(elapsed_ms, 5000);
  // Everything the partial rewriting accepts must be individually certified.
  for (const std::vector<int>& word :
       {std::vector<int>{}, {0}, {1}, {0, 0}, {0, 1}, {1, 0}, {1, 1}}) {
    if (rewriting->dfa.Accepts(word)) {
      EXPECT_TRUE(IsWordInMaximalRewriting(hard.query, hard.views, word));
    }
  }
}

TEST(BudgetRewritingTest, PartialRewritingIsSoundAndCompleteUpToLength) {
  // Feasible instance (va = p, vb = q): force degradation through a tiny
  // product-state cap, then compare against the exact rewriting word by word.
  SignedAlphabet alphabet;
  alphabet.AddRelation("p");
  alphabet.AddRelation("q");
  Nfa query = MustCompileRegex(MustParseRegex("p (q^- p)*"), alphabet);
  std::vector<Nfa> views = {MustCompileRegex(MustParseRegex("p"), alphabet),
                            MustCompileRegex(MustParseRegex("q"), alphabet)};

  StatusOr<MaximalRewriting> exact = ComputeMaximalRewriting(query, views);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(exact->exhaustive);

  RewritingOptions options;
  options.max_product_states = 4;  // guaranteed to trip
  options.allow_partial = true;
  StatusOr<MaximalRewriting> partial =
      ComputeMaximalRewriting(query, views, options);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_FALSE(partial->exhaustive);
  EXPECT_EQ(partial->degradation_cause.code(),
            Status::Code::kResourceExhausted);
  EXPECT_EQ(partial->partial_word_length, options.partial_max_word_length);
  EXPECT_GT(partial->stats.partial_words_checked, 0);

  // Enumerate all view words up to one past the certified length.
  std::vector<std::vector<int>> words = {{}};
  std::vector<std::vector<int>> frontier = {{}};
  for (int len = 1; len <= partial->partial_word_length + 1; ++len) {
    std::vector<std::vector<int>> next;
    for (const std::vector<int>& word : frontier) {
      for (int symbol = 0; symbol < 4; ++symbol) {
        std::vector<int> extended = word;
        extended.push_back(symbol);
        next.push_back(extended);
        words.push_back(extended);
      }
    }
    frontier = std::move(next);
  }
  for (const std::vector<int>& word : words) {
    bool in_partial = partial->dfa.Accepts(word);
    bool in_exact = exact->dfa.Accepts(word);
    // Soundness: the partial rewriting is an under-approximation everywhere.
    EXPECT_LE(in_partial, in_exact) << "word size " << word.size();
    // Completeness up to the certified length.
    if (static_cast<int>(word.size()) <= partial->partial_word_length) {
      EXPECT_EQ(in_partial, in_exact) << "word size " << word.size();
    } else {
      EXPECT_FALSE(in_partial);  // longer words were never examined
    }
  }
}

TEST(BudgetRewritingTest, CancellationNeverDegradesToPartial) {
  CompiledHardInstance hard = CompileHardInstance(10);
  std::atomic<bool> cancel{true};
  Budget budget;
  budget.set_cancel_flag(&cancel);
  RewritingOptions options;
  options.budget = &budget;
  options.allow_partial = true;
  StatusOr<MaximalRewriting> rewriting =
      ComputeMaximalRewriting(hard.query, hard.views, options);
  ASSERT_FALSE(rewriting.ok());
  EXPECT_EQ(rewriting.status().code(), Status::Code::kCancelled);
}

TEST(BudgetRewritingTest, NonEmptinessHonorsBudget) {
  CompiledHardInstance hard = CompileHardInstance(12);
  Budget budget = Budget::WithDeadline(milliseconds(1));
  std::this_thread::sleep_for(milliseconds(5));
  RewritingOptions options;
  options.budget = &budget;
  StatusOr<bool> nonempty =
      MaximalRewritingNonEmpty(hard.query, hard.views, options);
  ASSERT_FALSE(nonempty.ok());
  EXPECT_EQ(nonempty.status().code(), Status::Code::kDeadlineExceeded);
}

// --- Graph evaluation and answering ----------------------------------------

TEST(BudgetEvalTest, QuotaAndParityWithUnbudgetedEval) {
  SignedAlphabet alphabet;
  StatusOr<GraphDb> db = LoadGraphText(
      "n0 r n1\nn1 r n2\nn2 r n0\nn0 s n2\n", &alphabet);
  ASSERT_TRUE(db.ok());
  Nfa query = MustCompileRegex(MustParseRegex("r* s"), alphabet);

  StatusOr<std::vector<std::pair<int, int>>> budgeted =
      EvalRpqiAllPairsWithBudget(*db, CompileEvalPlan(query), nullptr);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_EQ(*budgeted, EvalRpqiAllPairs(*db, CompileEvalPlan(query)));

  Budget tiny;
  tiny.set_max_states(1);
  StatusOr<Bitset> from =
      EvalRpqiFromWithBudget(*db, CompileEvalPlan(query), 0, &tiny);
  ASSERT_FALSE(from.ok());
  EXPECT_EQ(from.status().code(), Status::Code::kResourceExhausted);
}

AnsweringInstance SmallAnsweringInstance() {
  SignedAlphabet alphabet;
  alphabet.AddRelation("p");
  AnsweringInstance instance;
  instance.num_objects = 2;
  instance.query = MustCompileRegex(MustParseRegex("p"), alphabet);
  View view;
  view.definition = MustCompileRegex(MustParseRegex("p"), alphabet);
  view.extension = {{0, 1}};
  view.assumption = ViewAssumption::kSound;
  instance.views.push_back(std::move(view));
  return instance;
}

TEST(BudgetAnswerTest, CdaPropagatesCancellation) {
  AnsweringInstance instance = SmallAnsweringInstance();
  std::atomic<bool> cancel{true};
  Budget budget;
  budget.set_cancel_flag(&cancel);
  CdaOptions options;
  options.budget = &budget;
  StatusOr<CdaResult> result = CertainAnswerCda(instance, 0, 1, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCancelled);
  // Unbudgeted, the probe decides (sound view p with (0,1) forces certainty).
  StatusOr<CdaResult> plain = CertainAnswerCda(instance, 0, 1);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->certain);
}

TEST(BudgetAnswerTest, OdaPropagatesCancellation) {
  AnsweringInstance instance = SmallAnsweringInstance();
  std::atomic<bool> cancel{true};
  Budget budget;
  budget.set_cancel_flag(&cancel);
  OdaOptions options;
  options.budget = &budget;
  StatusOr<OdaResult> result = CertainAnswerOda(instance, 0, 1, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCancelled);
  StatusOr<OdaResult> plain = CertainAnswerOda(instance, 0, 1);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->certain);
}

}  // namespace
}  // namespace rpqi
