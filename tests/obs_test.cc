// Tests for the observability layer: the metrics registry (cross-thread
// counter sums, gauges, histograms, snapshot deltas, NDJSON emission) and the
// stage-span tracer (record shape, parent links, counter attribution, notes,
// and the disabled-by-default contract).

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace rpqi {
namespace obs {
namespace {

// The registry is process-global and other tests bump shared counters, so
// every assertion here is on deltas between snapshots, never on absolutes.

TEST(MetricsTest, CounterAddsAreVisibleInSnapshots) {
  static const Counter counter("obs_test.basic");
  MetricsSnapshot before = TakeMetricsSnapshot();
  counter.Add(5);
  counter.Increment();
  counter.Add(0);  // documented no-op
  MetricsSnapshot delta = TakeMetricsSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("obs_test.basic"), 6);
  EXPECT_EQ(delta.CounterValue("obs_test.never_registered"), 0);
}

TEST(MetricsTest, CountersSumAcrossThreads) {
  static const Counter counter("obs_test.cross_thread");
  MetricsSnapshot before = TakeMetricsSnapshot();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  MetricsSnapshot delta = TakeMetricsSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("obs_test.cross_thread"),
            int64_t{kThreads} * kPerThread);
}

TEST(MetricsTest, ExitedThreadCountsAreRetained) {
  static const Counter counter("obs_test.retired");
  MetricsSnapshot before = TakeMetricsSnapshot();
  // The thread's shard is recycled on exit; its tally must survive into
  // later snapshots (the "retired" aggregation).
  std::thread worker([&] { counter.Add(17); });
  worker.join();
  std::thread second([&] { counter.Add(3); });
  second.join();
  MetricsSnapshot delta = TakeMetricsSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("obs_test.retired"), 20);
}

TEST(MetricsTest, GaugeKeepsLastWrite) {
  static const Gauge gauge("obs_test.gauge");
  gauge.Set(41);
  gauge.Set(42);
  EXPECT_EQ(TakeMetricsSnapshot().GaugeValue("obs_test.gauge"), 42);
}

TEST(MetricsTest, HistogramBucketsAndSum) {
  static const Histogram histogram("obs_test.histogram");
  MetricsSnapshot before = TakeMetricsSnapshot();
  histogram.RecordUs(0);
  histogram.RecordUs(1);
  histogram.RecordUs(1000);
  MetricsSnapshot delta = TakeMetricsSnapshot().DeltaSince(before);
  const auto it = delta.histograms().find("obs_test.histogram");
  ASSERT_NE(it, delta.histograms().end());
  EXPECT_EQ(it->second.count, 3);
  EXPECT_EQ(it->second.sum_us, 1001);
  int64_t bucket_total = 0;
  for (int64_t bucket : it->second.buckets) bucket_total += bucket;
  EXPECT_EQ(bucket_total, 3);
}

TEST(MetricsTest, NdjsonContainsEveryKind) {
  static const Counter counter("obs_test.ndjson_counter");
  static const Gauge gauge("obs_test.ndjson_gauge");
  static const Histogram histogram("obs_test.ndjson_histogram");
  counter.Increment();
  gauge.Set(7);
  histogram.RecordUs(12);
  std::ostringstream out;
  TakeMetricsSnapshot().WriteNdjson(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("{\"type\":\"counter\",\"name\":"
                      "\"obs_test.ndjson_counter\""),
            std::string::npos);
  EXPECT_NE(
      text.find("{\"type\":\"gauge\",\"name\":\"obs_test.ndjson_gauge\""),
      std::string::npos);
  EXPECT_NE(text.find("{\"type\":\"histogram\",\"name\":"
                      "\"obs_test.ndjson_histogram\""),
            std::string::npos);
  // NDJSON: every line is a complete JSON object.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

TEST(TraceTest, DisabledSpanEmitsNothing) {
  ASSERT_FALSE(Tracer::IsEnabled());
  std::ostringstream out;
  {
    Span span("obs_test.disabled");
    span.Note("ignored", 1);
  }
  EXPECT_TRUE(out.str().empty());
}

TEST(TraceTest, SpanRecordsNameDurationCountersAndNotes) {
  static const Counter counter("obs_test.span_counter");
  std::ostringstream out;
  Tracer::StartToStream(&out);
  {
    Span span("obs_test.outer");
    counter.Add(4);
    span.Note("answer", 42);
  }
  Tracer::Stop();
  const std::string text = out.str();
  EXPECT_NE(text.find("\"name\":\"obs_test.outer\""), std::string::npos);
  EXPECT_NE(text.find("\"dur_us\":"), std::string::npos);
  EXPECT_NE(text.find("\"obs_test.span_counter\":4"), std::string::npos);
  EXPECT_NE(text.find("\"notes\":{\"answer\":42}"), std::string::npos);
}

TEST(TraceTest, NestedSpansLinkParentIds) {
  std::ostringstream out;
  Tracer::StartToStream(&out);
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  {
    Span outer("obs_test.parent");
    outer_id = outer.id();
    {
      Span inner("obs_test.child");
      inner_id = inner.id();
    }
  }
  Tracer::Stop();
  const std::string text = out.str();
  ASSERT_NE(outer_id, 0u);
  ASSERT_NE(inner_id, 0u);
  // The child closes (and is emitted) first, referencing the parent's id.
  EXPECT_NE(text.find("\"name\":\"obs_test.child\",\"id\":" +
                      std::to_string(inner_id) +
                      ",\"parent\":" + std::to_string(outer_id)),
            std::string::npos);
  EXPECT_NE(text.find("\"name\":\"obs_test.parent\",\"id\":" +
                      std::to_string(outer_id) + ",\"parent\":0"),
            std::string::npos);
  EXPECT_LT(text.find("obs_test.child"), text.find("obs_test.parent"));
}

TEST(TraceTest, OtherThreadsCountersAreNotAttributed) {
  static const Counter counter("obs_test.other_thread");
  std::ostringstream out;
  Tracer::StartToStream(&out);
  {
    Span span("obs_test.attribution");
    std::thread other([&] { counter.Add(100); });
    other.join();
  }
  Tracer::Stop();
  // The span only sees deltas from its own thread's shard.
  EXPECT_EQ(out.str().find("\"obs_test.other_thread\""), std::string::npos);
}

TEST(TraceTest, StartToFileFailsOnUnwritablePath) {
  EXPECT_FALSE(Tracer::StartToFile("/nonexistent-dir/trace.ndjson"));
  EXPECT_FALSE(Tracer::IsEnabled());
}

TEST(TraceTest, StopIsIdempotentAndDisables) {
  std::ostringstream out;
  Tracer::StartToStream(&out);
  EXPECT_TRUE(Tracer::IsEnabled());
  Tracer::Stop();
  EXPECT_FALSE(Tracer::IsEnabled());
  Tracer::Stop();  // second Stop must be harmless
  {
    Span span("obs_test.after_stop");
  }
  EXPECT_EQ(out.str().find("obs_test.after_stop"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace rpqi
