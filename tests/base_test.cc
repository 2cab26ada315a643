#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "base/bitset.h"
#include "base/flags.h"
#include "base/interner.h"
#include "base/status.h"
#include "base/strings.h"
#include "base/thread_pool.h"
#include "fault/fault.h"
#include "obs/metrics.h"

namespace rpqi {
namespace {

TEST(BitsetTest, SetTestReset) {
  Bitset bits(130);
  EXPECT_EQ(bits.size(), 130);
  EXPECT_TRUE(bits.None());
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_EQ(bits.Count(), 3);
  bits.Reset(64);
  EXPECT_FALSE(bits.Test(64));
  EXPECT_EQ(bits.Count(), 2);
}

TEST(BitsetTest, IterationVisitsAllSetBits) {
  Bitset bits(200);
  std::vector<int> expected = {0, 1, 63, 64, 65, 127, 128, 199};
  for (int i : expected) bits.Set(i);
  std::vector<int> seen;
  for (int i = bits.NextSetBit(0); i >= 0; i = bits.NextSetBit(i + 1)) {
    seen.push_back(i);
  }
  EXPECT_EQ(seen, expected);
}

TEST(BitsetTest, SetAllRespectsSize) {
  Bitset bits(70);
  bits.SetAll();
  EXPECT_EQ(bits.Count(), 70);
  EXPECT_EQ(bits.NextSetBit(69), 69);
  EXPECT_EQ(bits.NextSetBit(70), -1);
}

TEST(BitsetTest, BulkOperations) {
  Bitset a(100), b(100);
  a.Set(3);
  a.Set(50);
  b.Set(50);
  b.Set(99);
  EXPECT_TRUE(a.Intersects(b));
  Bitset u = a;
  u |= b;
  EXPECT_EQ(u.Count(), 3);
  Bitset i = a;
  i &= b;
  EXPECT_EQ(i.Count(), 1);
  EXPECT_TRUE(i.Test(50));
  Bitset d = a;
  d -= b;
  EXPECT_EQ(d.Count(), 1);
  EXPECT_TRUE(d.Test(3));
  EXPECT_TRUE(i.IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(b));
}

TEST(BitsetTest, EqualityAndToString) {
  Bitset a(10), b(10);
  a.Set(2);
  b.Set(2);
  EXPECT_EQ(a, b);
  b.Set(7);
  EXPECT_FALSE(a == b);
  EXPECT_EQ(b.ToString(), "{2,7}");
}

TEST(WordVectorInternerTest, DeduplicatesKeys) {
  WordVectorInterner interner;
  EXPECT_EQ(interner.Intern({1, 2, 3}), 0);
  EXPECT_EQ(interner.Intern({4}), 1);
  EXPECT_EQ(interner.Intern({1, 2, 3}), 0);
  EXPECT_EQ(interner.size(), 2);
  EXPECT_EQ(interner.KeyOf(1), (std::vector<uint64_t>{4}));
  EXPECT_EQ(interner.Find({1, 2, 3}), 0);
  EXPECT_EQ(interner.Find({9}), -1);
}

TEST(WordVectorInternerTest, FullHashCollisionsSpillToOverflow) {
  // Two distinct keys forced onto the same 64-bit hash: the second must get
  // its own id through the overflow map, and both must keep resolving by
  // full-key comparison afterwards.
  WordVectorInterner interner;
  const std::vector<uint64_t> first = {1, 2};
  const std::vector<uint64_t> second = {3, 4};
  constexpr uint64_t kHash = 0xdeadbeefcafe1234;
  int first_id = interner.InternHashed(first, kHash);
  int second_id = interner.InternHashed(second, kHash);
  EXPECT_NE(first_id, second_id);
  EXPECT_EQ(interner.size(), 2);
  EXPECT_EQ(interner.InternHashed(first, kHash), first_id);
  EXPECT_EQ(interner.InternHashed(second, kHash), second_id);
  EXPECT_EQ(interner.FindHashed(first, kHash), first_id);
  EXPECT_EQ(interner.FindHashed(second, kHash), second_id);
  EXPECT_EQ(interner.FindHashed({5, 6}, kHash), -1);
  EXPECT_EQ(interner.KeyOf(first_id), first);
  EXPECT_EQ(interner.KeyOf(second_id), second);
}

TEST(WordVectorInternerTest, OverflowEntriesSurviveRehash) {
  // Force a collision pair early, then intern enough distinct keys to cross
  // several Grow() rehashes (initial capacity 64): the overflow entry and
  // every primary-table entry must still resolve to their original ids.
  WordVectorInterner interner;
  const std::vector<uint64_t> first = {100};
  const std::vector<uint64_t> second = {200};
  constexpr uint64_t kHash = 42;
  int first_id = interner.InternHashed(first, kHash);
  int second_id = interner.InternHashed(second, kHash);
  std::vector<int> ids;
  for (uint64_t i = 0; i < 300; ++i) {
    ids.push_back(interner.Intern({i, i + 1}));
  }
  EXPECT_EQ(interner.InternHashed(first, kHash), first_id);
  EXPECT_EQ(interner.InternHashed(second, kHash), second_id);
  EXPECT_EQ(interner.FindHashed(second, kHash), second_id);
  for (uint64_t i = 0; i < 300; ++i) {
    EXPECT_EQ(interner.Find({i, i + 1}), ids[i]);
  }
  EXPECT_EQ(interner.size(), 302);
}

TEST(StringInternerTest, NamesRoundTrip) {
  StringInterner interner;
  EXPECT_EQ(interner.Intern("alpha"), 0);
  EXPECT_EQ(interner.Intern("beta"), 1);
  EXPECT_EQ(interner.Intern("alpha"), 0);
  EXPECT_EQ(interner.NameOf(1), "beta");
  EXPECT_EQ(interner.Find("gamma"), -1);
}

TEST(StringsTest, SplitDropsEmptyPieces) {
  EXPECT_EQ(StrSplit("a  b c", ' '),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("", ' '), (std::vector<std::string>{}));
  EXPECT_EQ(StrSplit("one", ','), (std::vector<std::string>{"one"}));
}

TEST(StringsTest, JoinAndStrip) {
  EXPECT_EQ(StrJoin({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(StripWhitespace("  x y\t\n"), "x y");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status bad = Status::InvalidArgument("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.ToString(), "InvalidArgument: nope");
  Status exhausted = Status::ResourceExhausted("limit");
  EXPECT_EQ(exhausted.code(), Status::Code::kResourceExhausted);
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> value(42);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);
  StatusOr<int> error(Status::InvalidArgument("bad"));
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), Status::Code::kInvalidArgument);
}

TEST(StatusTest, ExitCodesDistinguishEveryFailureClass) {
  EXPECT_EQ(ExitCodeForStatus(Status::Ok()), 0);
  EXPECT_EQ(ExitCodeForStatus(Status::InvalidArgument("x")), 2);
  EXPECT_EQ(ExitCodeForStatus(Status::ResourceExhausted("x")), 3);
  EXPECT_EQ(ExitCodeForStatus(Status::DeadlineExceeded("x")), 4);
  // Cancellation used to share exit code 4 with deadline expiry; it must be
  // its own code so retry-on-timeout wrappers do not retry interrupts.
  EXPECT_EQ(ExitCodeForStatus(Status::Cancelled("x")), 5);
}

std::vector<char*> Argv(const std::vector<std::string>& args) {
  // ParseFlags takes argv as char**; the strings outlive the call.
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  return argv;
}

TEST(ParseFlagsTest, CollectsRepeatedFlags) {
  std::vector<std::string> args = {"prog", "cmd",  "--query", "a b",
                                   "--view", "v1=a", "--view",  "v2=b"};
  std::vector<char*> argv = Argv(args);
  StatusOr<FlagMap> flags =
      ParseFlags(static_cast<int>(argv.size()), argv.data(), 2);
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->at("query"), std::vector<std::string>{"a b"});
  EXPECT_EQ(flags->at("view"), (std::vector<std::string>{"v1=a", "v2=b"}));
}

TEST(ParseFlagsTest, TrailingFlagWithoutValueSaysRequiresAValue) {
  // Regression test: `rpqi eval --db` used to fall through to the misleading
  // "unexpected argument '--db'" diagnostic.
  std::vector<std::string> args = {"prog", "eval", "--db"};
  std::vector<char*> argv = Argv(args);
  StatusOr<FlagMap> flags =
      ParseFlags(static_cast<int>(argv.size()), argv.data(), 2);
  ASSERT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(flags.status().message(), "flag --db requires a value");
}

TEST(ParseFlagsTest, TrailingFlagAfterValidFlagsStillDiagnosed) {
  std::vector<std::string> args = {"prog", "eval", "--query", "a", "--db"};
  std::vector<char*> argv = Argv(args);
  StatusOr<FlagMap> flags =
      ParseFlags(static_cast<int>(argv.size()), argv.data(), 2);
  ASSERT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().message(), "flag --db requires a value");
}

TEST(ParseFlagsTest, PositionalsAndBareDashesStayUnexpectedArguments) {
  for (const char* bad : {"positional", "-x", "--"}) {
    std::vector<std::string> args = {"prog", "cmd", bad, "value"};
    std::vector<char*> argv = Argv(args);
    StatusOr<FlagMap> flags =
        ParseFlags(static_cast<int>(argv.size()), argv.data(), 2);
    ASSERT_FALSE(flags.ok()) << bad;
    EXPECT_EQ(flags.status().message(),
              std::string("unexpected argument '") + bad + "'");
  }
}

TEST(WorkerPoolTest, RunsEveryAcceptedTaskExactlyOnce) {
  WorkerPool pool(4, 1024);
  std::atomic<int> ran{0};
  int accepted = 0;
  for (int i = 0; i < 500; ++i) {
    if (pool.TrySubmit([&] { ran.fetch_add(1); })) ++accepted;
  }
  pool.Drain();
  EXPECT_EQ(ran.load(), accepted);
  EXPECT_EQ(accepted, 500);
}

TEST(WorkerPoolTest, RejectsWhenQueueFull) {
  WorkerPool pool(1, 2);
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  // Occupy the single worker so subsequent tasks pile up in the queue.
  ASSERT_TRUE(pool.TrySubmit([&] {
    while (!release.load()) std::this_thread::yield();
    ran.fetch_add(1);
  }));
  // The worker may not have dequeued the blocker yet, so the queue has room
  // for at least one more task and rejects once it holds two.
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (pool.TrySubmit([&] { ran.fetch_add(1); })) ++accepted;
  }
  EXPECT_LE(accepted, 3);  // blocker possibly still queued + 2 slots
  EXPECT_LT(accepted, 10);
  release.store(true);
  pool.Drain();
  EXPECT_EQ(ran.load(), 1 + accepted);
  // After Drain, admission is closed for good.
  EXPECT_FALSE(pool.TrySubmit([] {}));
}

TEST(WorkerPoolTest, DrainIsIdempotentAndImmediateWhenIdle) {
  WorkerPool pool(2, 4);
  pool.Drain();
  pool.Drain();
  EXPECT_FALSE(pool.TrySubmit([] {}));
  EXPECT_EQ(pool.QueuedNow(), 0);
}

TEST(WorkerPoolTest, DrainRacingSubmittersAndStatsReaders) {
  // Pins the swap-under-lock fix in Drain: it used to clear() the worker
  // vector off-lock, racing concurrent num_threads()/TrySubmit readers of
  // `threads_` (a data race TSan flags; on libstdc++ a size() read during
  // clear() could also return garbage). Drain now swaps the vector out under
  // queue_mu_ and joins the detached handles lock-free.
  for (int round = 0; round < 20; ++round) {
    WorkerPool pool(3, 64);
    std::atomic<bool> stop{false};
    std::atomic<int> ran{0};
    std::vector<std::thread> hammers;
    for (int t = 0; t < 2; ++t) {
      hammers.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          pool.TrySubmit([&ran] { ran.fetch_add(1); });
          // Stats reads must stay well-defined mid-drain: 0..3 workers,
          // non-negative queue depth, never garbage.
          int n = pool.num_threads();
          EXPECT_GE(n, 0);
          EXPECT_LE(n, 3);
          EXPECT_GE(pool.QueuedNow(), 0);
        }
      });
    }
    pool.Drain();  // races the hammer threads by design
    EXPECT_EQ(pool.num_threads(), 0);
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : hammers) th.join();
    EXPECT_FALSE(pool.TrySubmit([] {}));
  }
}

// ---------------------------------------------------------------------------
// Spawn-failure degradation (fault-injected; satellite of the fault layer)

struct FaultGuard {
  FaultGuard() { fault::DisarmAll(); }
  ~FaultGuard() { fault::DisarmAll(); }
};

TEST(WorkerPoolTest, TotalSpawnFailureRunsTasksInlineOnSubmitter) {
  FaultGuard guard;
  ASSERT_TRUE(fault::Configure("worker_pool.spawn=every:1").ok());
  WorkerPool pool(3, 4);
  EXPECT_EQ(pool.num_threads(), 0);
  // Degraded to inline execution: TrySubmit still accepts and runs every
  // task (on this thread), so the serving loop stays live instead of
  // wedging with an always-full queue.
  std::atomic<int> ran{0};
  std::thread::id submitter = std::this_thread::get_id();
  std::thread::id ran_on;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(pool.TrySubmit([&ran, &ran_on] {
      ran.fetch_add(1, std::memory_order_relaxed);
      ran_on = std::this_thread::get_id();
    }));
  }
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(ran_on, submitter);
  pool.Drain();
  EXPECT_FALSE(pool.TrySubmit([] {}));  // drained pools stay closed
}

TEST(WorkerPoolTest, PartialSpawnFailureStillUsesWorkers) {
  FaultGuard guard;
  ASSERT_TRUE(fault::Configure("worker_pool.spawn=once:2").ok());
  WorkerPool pool(3, 16);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    while (!pool.TrySubmit(
        [&ran] { ran.fetch_add(1, std::memory_order_relaxed); })) {
      std::this_thread::yield();  // bounded queue may momentarily fill
    }
  }
  pool.Drain();
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace rpqi
