// Tests for the benchmark's own statistics (stats.h): percentile choice,
// p99 omission below 1000 samples, self time under overlapping child spans,
// and open-loop timing from the due time with generator lateness.
#include "stats.h"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

std::vector<double> Iota(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile({5.0}, 50.0), 5.0);
  EXPECT_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.0);  // lower middle
  EXPECT_EQ(Percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
  EXPECT_EQ(Percentile(Iota(100), 99.0), 99.0);
  EXPECT_EQ(Percentile(Iota(1000), 99.0), 990.0);
  EXPECT_EQ(Percentile(Iota(1000), 100.0), 1000.0);
  EXPECT_EQ(Percentile(Iota(10), 0.0), 1.0);
  EXPECT_THROW(Percentile({}, 50.0), std::invalid_argument);
}

TEST(Summarize, OmitsTailsWithoutTenSamplesBeyond) {
  const Summary tiny = Summarize(Iota(99));
  EXPECT_FALSE(tiny.p90.has_value());
  EXPECT_FALSE(tiny.p99.has_value());
  const Summary hundred = Summarize(Iota(100));
  ASSERT_TRUE(hundred.p90.has_value());
  EXPECT_EQ(*hundred.p90, 90.0);

  const Summary small = Summarize(Iota(999));
  EXPECT_EQ(small.n, 999u);
  EXPECT_EQ(small.p50, 500.0);
  ASSERT_TRUE(small.p90.has_value());
  EXPECT_EQ(*small.p90, 900.0);
  EXPECT_FALSE(small.p99.has_value());
  EXPECT_EQ(small.max, 999.0);

  const Summary enough = Summarize(Iota(1000));
  ASSERT_TRUE(enough.p99.has_value());
  EXPECT_EQ(*enough.p99, 990.0);
  // Ten samples lie strictly beyond the reported p99.
  std::size_t beyond = 0;
  for (double v : Iota(1000)) beyond += v > *enough.p99 ? 1 : 0;
  EXPECT_EQ(beyond, 10u);

  const Summary none = Summarize({});
  EXPECT_EQ(none.n, 0u);
  EXPECT_FALSE(none.p90.has_value());
  EXPECT_FALSE(none.p99.has_value());
}

TEST(SelfTimes, LeafAndNestedSpans) {
  // root [0,100) with one child [10,30) which has a child [15,20).
  const std::vector<Span> spans = {
      {0, -1, 0, 100}, {1, 0, 10, 30}, {2, 1, 15, 20}};
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self[0], 80);
  EXPECT_EQ(self[1], 15);
  EXPECT_EQ(self[2], 5);
}

TEST(SelfTimes, OverlappingChildrenAreSubtractedOnce) {
  // Two children run concurrently: [10,50) and [30,70) cover [10,70) = 60,
  // not 40 + 40 = 80. A third, disjoint child [80,90) adds 10.
  const std::vector<Span> spans = {
      {0, -1, 0, 100}, {1, 0, 10, 50}, {1, 0, 30, 70}, {1, 0, 80, 90}};
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 60 - 10);
  const auto by_name = SelfTimeByName(spans, 2);
  EXPECT_EQ(by_name[0], 30);
  EXPECT_EQ(by_name[1], 40 + 40 + 10);
}

TEST(SelfTimes, ChildrenAreClippedToTheParent) {
  // A child that outlives its parent only covers the overlap; a child
  // contained in another child adds nothing.
  const std::vector<Span> spans = {
      {0, -1, 0, 100}, {1, 0, 90, 130}, {1, 0, 20, 60}, {1, 0, 30, 40}};
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 10 - 40);
}

TEST(OpenLoop, LatencyFromDueTimeAndLateness) {
  // Frames due every 10 ns. The second one starts 7 ns late because the
  // first overran; its latency counts that wait. A start before the due
  // time is not negative lateness.
  const std::vector<OpenLoopSample> samples = {
      {0, 0, 17},   // latency 17, on time
      {10, 17, 25}, // latency 15, 7 late
      {20, 19, 22}, // latency 2, early start
  };
  const OpenLoopSummary s = SummarizeOpenLoop(samples, /*deadline_ms=*/16e-6);
  EXPECT_EQ(s.latency_ms.n, 3u);
  EXPECT_DOUBLE_EQ(s.latency_ms.p50, 15e-6);
  EXPECT_DOUBLE_EQ(s.latency_ms.max, 17e-6);
  EXPECT_DOUBLE_EQ(s.lateness_ms.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.lateness_ms.max, 7e-6);
  EXPECT_DOUBLE_EQ(s.miss_frac, 1.0 / 3.0);
}

TEST(SpanLog, RecordsNestedSpans) {
  SpanLog log;
  const auto root = log.Begin(0);
  const auto child = log.Begin(1, root);
  log.End(child);
  log.End(root);
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, root);
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
  log.Clear();
  EXPECT_TRUE(log.spans().empty());
}

}  // namespace
}  // namespace perfbench
