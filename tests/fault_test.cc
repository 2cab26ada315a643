// Tests for src/fault: policy determinism (every/once/prob), spec parsing
// and its whole-spec atomicity, disabled-path inertness, tally/obs mirroring,
// and the site catalog that tools/rpqi_lint.py checks every RPQI_FAULT_*
// site in src/ against.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <string>
#include <vector>

#include "base/status.h"
#include "fault/fault.h"
#include "obs/metrics.h"

namespace rpqi {
namespace fault {
namespace {

// Every injection site in src/, one entry per RPQI_FAULT_POINT /
// RPQI_FAULT_FIRED / RPQI_FAULT_STALL occurrence. tools/rpqi_lint.py
// (fault-site rule) fails the build when a site exists in code but not here,
// or vice versa — this catalog is the documentation of record.
const char* const kKnownSites[] = {
    "automata.determinize_state",
    "automata.materialize_state",
    "cda.mask_alloc",
    "graphdb.compact_write",
    "graphdb.parse_io",
    "net.accept",
    "net.read",
    "net.write",
    "plan_cache.disk_io",
    "plan_cache.insert",
    "service.queue_full",
    "service.request_truncate",
    "snapshot.mmap_open",
    "snapshot.open",
    "snapshot.read",
    "snapshot.reload_swap",
    "worker_pool.spawn",
    "worker_pool.task_start",
};

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { DisarmAll(); }
  void TearDown() override { DisarmAll(); }
};

// The macros live in functions so each test exercises the real function-local
// slot caching, not a shared slot.
bool TestSiteFired() { return RPQI_FAULT_FIRED("test.site"); }

Status TestPoint() {
  RPQI_FAULT_POINT("test.point",
                   Status::ResourceExhausted("injected by test"));
  return Status::Ok();
}

void TestStall() { RPQI_FAULT_STALL("test.stall"); }

TEST_F(FaultTest, DisabledLayerIsInert) {
  EXPECT_FALSE(Enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(TestSiteFired());
    EXPECT_TRUE(TestPoint().ok());
  }
  // Disabled hits tally nothing: the fast path is the single atomic load.
  EXPECT_EQ(HitCount("test.site"), 0);
  EXPECT_EQ(HitCount("test.point"), 0);
}

TEST_F(FaultTest, EveryNFiresOnEveryNthHit) {
  ASSERT_TRUE(Configure("test.site=every:3").ok());
  EXPECT_TRUE(Enabled());
  std::vector<int> fired_at;
  for (int hit = 1; hit <= 9; ++hit) {
    if (TestSiteFired()) fired_at.push_back(hit);
  }
  EXPECT_EQ(fired_at, (std::vector<int>{3, 6, 9}));
  EXPECT_EQ(HitCount("test.site"), 9);
  EXPECT_EQ(FireCount("test.site"), 3);
}

TEST_F(FaultTest, OnceFiresExactlyOnceOnTheNthHit) {
  ASSERT_TRUE(Configure("test.site=once:2").ok());
  EXPECT_FALSE(TestSiteFired());
  EXPECT_TRUE(TestSiteFired());
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(TestSiteFired());
  EXPECT_EQ(FireCount("test.site"), 1);

  // Bare `once` means the first hit.
  ASSERT_TRUE(Configure("test.other=once").ok());
  EXPECT_EQ(FireCount("test.other"), 0);
}

TEST_F(FaultTest, StatusPointReturnsTheInjectedStatus) {
  ASSERT_TRUE(Configure("test.point=once").ok());
  Status injected = TestPoint();
  EXPECT_EQ(injected.code(), Status::Code::kResourceExhausted);
  EXPECT_EQ(injected.message(), "injected by test");
  EXPECT_TRUE(TestPoint().ok());  // one-shot spent
}

TEST_F(FaultTest, ProbIsDeterministicGivenSeed) {
  auto run = [&](const std::string& spec) {
    DisarmAll();
    EXPECT_TRUE(Configure(spec).ok());
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) pattern.push_back(TestSiteFired());
    return pattern;
  };
  std::vector<bool> first = run("test.site=prob:0.3:42");
  std::vector<bool> second = run("test.site=prob:0.3:42");
  EXPECT_EQ(first, second);
  // A different seed gives a different stream (overwhelmingly likely for
  // 200 draws at p=0.3; this is deterministic, not statistical, since both
  // streams are fixed by the seeds).
  std::vector<bool> other = run("test.site=prob:0.3:43");
  EXPECT_NE(first, other);

  EXPECT_TRUE(std::none_of(run("test.site=prob:0:1").begin(),
                           run("test.site=prob:0:1").end(),
                           [](bool b) { return b; }));
  std::vector<bool> always = run("test.site=prob:1:1");
  EXPECT_TRUE(std::all_of(always.begin(), always.end(),
                          [](bool b) { return b; }));
}

TEST_F(FaultTest, RearmingResetsPolicyStateButNotTallies) {
  ASSERT_TRUE(Configure("test.site=once").ok());
  EXPECT_TRUE(TestSiteFired());
  ASSERT_TRUE(Configure("test.site=once").ok());  // re-arm: one-shot refilled
  EXPECT_TRUE(TestSiteFired());
  EXPECT_EQ(HitCount("test.site"), 2);
  EXPECT_EQ(FireCount("test.site"), 2);
}

TEST_F(FaultTest, DisarmAllResetsEverything) {
  ASSERT_TRUE(Configure("test.site=every:1").ok());
  EXPECT_TRUE(TestSiteFired());
  DisarmAll();
  EXPECT_FALSE(Enabled());
  EXPECT_FALSE(TestSiteFired());
  EXPECT_EQ(HitCount("test.site"), 0);
  EXPECT_EQ(FireCount("test.site"), 0);
}

TEST_F(FaultTest, StallSleepsTheConfiguredDuration) {
  ASSERT_TRUE(Configure("test.stall=every:1;ms=10").ok());
  auto start = std::chrono::steady_clock::now();
  TestStall();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 10);
  EXPECT_EQ(FireCount("test.stall"), 1);
}

TEST_F(FaultTest, ConfigureRejectsMalformedSpecs) {
  EXPECT_FALSE(Configure("no_policy").ok());
  EXPECT_FALSE(Configure("site=unknown:1").ok());
  EXPECT_FALSE(Configure("site=every:0").ok());
  EXPECT_FALSE(Configure("site=every:x").ok());
  EXPECT_FALSE(Configure("site=prob:1.5").ok());
  EXPECT_FALSE(Configure("site=prob:-0.1").ok());
  EXPECT_FALSE(Configure("Bad.Name=once").ok());
  EXPECT_FALSE(Configure("site=once;ms=x").ok());
  EXPECT_FALSE(Configure("=once").ok());
}

TEST_F(FaultTest, ConfigureIsAtomicAcrossTheWholeSpec) {
  // One bad entry rejects the whole spec: nothing is armed, the layer stays
  // disabled, so a typo cannot half-arm a chaos run.
  EXPECT_FALSE(Configure("test.site=once,bogus").ok());
  EXPECT_FALSE(Enabled());
  EXPECT_FALSE(TestSiteFired());
}

TEST_F(FaultTest, ConfigureIsAdditiveAcrossCalls) {
  ASSERT_TRUE(Configure("test.site=every:1").ok());
  ASSERT_TRUE(Configure("test.point=once").ok());
  EXPECT_TRUE(TestSiteFired());
  EXPECT_FALSE(TestPoint().ok());
}

TEST_F(FaultTest, TalliesMirrorIntoObsCounters) {
  ASSERT_TRUE(Configure("test.site=every:2").ok());
  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  for (int i = 0; i < 4; ++i) TestSiteFired();
  obs::MetricsSnapshot delta =
      obs::TakeMetricsSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("fault.hit.test.site"), 4);
  EXPECT_EQ(delta.CounterValue("fault.fired.test.site"), 2);
  EXPECT_EQ(delta.CounterValue("fault.hits"), 4);
  EXPECT_EQ(delta.CounterValue("fault.fires"), 2);
}

TEST_F(FaultTest, ListSitesReportsArmedPolicyAndTallies) {
  ASSERT_TRUE(Configure("test.site=every:2").ok());
  TestSiteFired();
  TestSiteFired();
  bool found = false;
  for (const SiteInfo& site : ListSites()) {
    if (site.name != "test.site") continue;
    found = true;
    EXPECT_TRUE(site.armed);
    EXPECT_EQ(site.policy, "every:2");
    EXPECT_EQ(site.hits, 2);
    EXPECT_EQ(site.fires, 1);
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Site catalog

TEST_F(FaultTest, CatalogSiteNamesFollowTheGrammar) {
  for (const char* name : kKnownSites) {
    for (const char* p = name; *p != '\0'; ++p) {
      EXPECT_TRUE(std::islower(static_cast<unsigned char>(*p)) ||
                  std::isdigit(static_cast<unsigned char>(*p)) || *p == '_' ||
                  *p == '.')
          << "site '" << name << "' breaks the [a-z0-9_.]+ grammar";
    }
  }
}

TEST_F(FaultTest, EveryCatalogSiteIsConfigurable) {
  for (const char* name : kKnownSites) {
    EXPECT_TRUE(Configure(std::string(name) + "=once").ok()) << name;
  }
  std::vector<SiteInfo> sites = ListSites();
  for (const char* name : kKnownSites) {
    bool found = false;
    for (const SiteInfo& site : sites) found |= site.name == name;
    EXPECT_TRUE(found) << name;
  }
}

}  // namespace
}  // namespace fault
}  // namespace rpqi
