#include <gtest/gtest.h>

#include "analytics/stats.h"
#include "common/rng.h"

namespace arbd::analytics {
namespace {

TEST(StreamingStatsTest, MatchesClosedForm) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StreamingStatsTest, MergeEqualsSequential) {
  Rng rng(4);
  StreamingStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Gaussian(3.0, 2.0);
    whole.Add(x);
    (i < 500 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-6);
  EXPECT_EQ(left.count(), whole.count());
}

TEST(CorrelatorTest, PerfectLinearCorrelation) {
  Correlator c;
  for (int i = 0; i < 100; ++i) c.Add(i, 2.0 * i + 1.0);
  EXPECT_NEAR(c.Correlation(), 1.0, 1e-9);
}

TEST(CorrelatorTest, AntiCorrelation) {
  Correlator c;
  for (int i = 0; i < 100; ++i) c.Add(i, -3.0 * i);
  EXPECT_NEAR(c.Correlation(), -1.0, 1e-9);
}

TEST(CorrelatorTest, IndependentNearZero) {
  Correlator c;
  Rng rng(5);
  for (int i = 0; i < 20'000; ++i) c.Add(rng.Gaussian(), rng.Gaussian());
  EXPECT_NEAR(c.Correlation(), 0.0, 0.03);
}

TEST(CorrelatorTest, UndefinedIsZero) {
  Correlator c;
  c.Add(1.0, 1.0);
  EXPECT_DOUBLE_EQ(c.Correlation(), 0.0);
  Correlator flat;
  for (int i = 0; i < 10; ++i) flat.Add(5.0, static_cast<double>(i));
  EXPECT_DOUBLE_EQ(flat.Correlation(), 0.0);
}

TEST(ExpDecay, HalvesPerHalfLife) {
  ExpDecayCounter c(Duration::Seconds(10));
  c.Add(TimePoint::FromSeconds(0.0), 8.0);
  EXPECT_NEAR(c.ValueAt(TimePoint::FromSeconds(10.0)), 4.0, 1e-9);
  EXPECT_NEAR(c.ValueAt(TimePoint::FromSeconds(30.0)), 1.0, 1e-9);
}

TEST(ExpDecay, AccumulatesRecentEvents) {
  ExpDecayCounter c(Duration::Seconds(10));
  c.Add(TimePoint::FromSeconds(0.0));
  c.Add(TimePoint::FromSeconds(0.0));
  EXPECT_NEAR(c.ValueAt(TimePoint::FromSeconds(0.0)), 2.0, 1e-9);
}

TEST(IncrementalWindowTest, MatchesBatchOnRandomStream) {
  // The E4 core invariant: incremental and batch answers are identical.
  IncrementalWindow inc(Duration::Seconds(10));
  BatchWindow batch(Duration::Seconds(10));
  Rng rng(6);
  TimePoint t;
  for (int i = 0; i < 5000; ++i) {
    t += Duration::Millis(static_cast<std::int64_t>(rng.NextBelow(50)));
    const double v = rng.Gaussian(10.0, 5.0);
    inc.Add(t, v);
    batch.Add(t, v);
    if (i % 97 == 0) {
      const auto a = inc.Query(t);
      const auto b = batch.Query(t);
      ASSERT_EQ(a.count, b.count) << "at i=" << i;
      ASSERT_NEAR(a.sum, b.sum, 1e-6);
      ASSERT_NEAR(a.min, b.min, 1e-12);
      ASSERT_NEAR(a.max, b.max, 1e-12);
    }
  }
}

TEST(IncrementalWindowTest, EvictsOldSamples) {
  IncrementalWindow w(Duration::Seconds(1));
  w.Add(TimePoint::FromSeconds(0.0), 100.0);
  w.Add(TimePoint::FromSeconds(2.0), 5.0);
  const auto s = w.Query(TimePoint::FromSeconds(2.0));
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_EQ(w.buffered(), 1u);
}

TEST(IncrementalWindowTest, EmptyWindowIsZero) {
  IncrementalWindow w(Duration::Seconds(1));
  const auto s = w.Query(TimePoint::FromSeconds(5.0));
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(BatchWindowTest, CompactDropsOldRetainsWindow) {
  BatchWindow w(Duration::Seconds(10));
  for (int i = 0; i < 100; ++i) w.Add(TimePoint::FromSeconds(i), 1.0);
  w.Compact(TimePoint::FromSeconds(99.0));
  EXPECT_LE(w.buffered(), 11u);
  EXPECT_EQ(w.Query(TimePoint::FromSeconds(99.0)).count, 10u);
}

TEST(ZScoreDetectorTest, WarmupNeverFires) {
  analytics::ZScoreDetector det;
  Rng rng(1);
  for (int i = 0; i < 29; ++i) {
    EXPECT_FALSE(det.Observe("k", rng.Gaussian(70.0, 2.0))) << i;
  }
}

TEST(ZScoreDetectorTest, LearnsBaselineAndFlagsSpikes) {
  analytics::ZScoreDetector det;
  Rng rng(2);
  for (int i = 0; i < 200; ++i) det.Observe("k", rng.Gaussian(70.0, 2.0));
  const auto [mean, sigma] = det.Baseline("k");
  EXPECT_NEAR(mean, 70.0, 1.0);
  EXPECT_NEAR(sigma, 2.0, 1.0);
  EXPECT_TRUE(det.Observe("k", 140.0));
  EXPECT_FALSE(det.Observe("k", 71.0));
}

TEST(ZScoreDetectorTest, AnomaliesDoNotPoisonBaseline) {
  analytics::ZScoreDetector det;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) det.Observe("k", rng.Gaussian(70.0, 2.0));
  // A long anomalous episode: every sample must keep firing because the
  // frozen baseline doesn't chase it.
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(det.Observe("k", rng.Gaussian(140.0, 2.0))) << i;
  }
  EXPECT_NEAR(det.Baseline("k").first, 70.0, 2.0);
}

TEST(ZScoreDetectorTest, PerKeyBaselines) {
  analytics::ZScoreDetector det;
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    det.Observe("athlete", rng.Gaussian(50.0, 2.0));
    det.Observe("stressed", rng.Gaussian(95.0, 2.0));
  }
  // 95 bpm is normal for one and a full-blown anomaly for the other.
  EXPECT_TRUE(det.Observe("athlete", 95.0));
  EXPECT_FALSE(det.Observe("stressed", 95.0));
}

TEST(ZScoreDetectorTest, UnknownKeyBaselineIsZero) {
  const analytics::ZScoreDetector det;
  EXPECT_EQ(det.Baseline("ghost"), (std::pair<double, double>{0.0, 0.0}));
}

TEST(KeyedWindowsTest, IsolatesKeys) {
  KeyedWindows kw(Duration::Seconds(10));
  kw.Add("a", TimePoint::FromSeconds(1.0), 10.0);
  kw.Add("b", TimePoint::FromSeconds(1.0), 99.0);
  EXPECT_DOUBLE_EQ(kw.Query("a", TimePoint::FromSeconds(2.0)).mean, 10.0);
  EXPECT_DOUBLE_EQ(kw.Query("b", TimePoint::FromSeconds(2.0)).mean, 99.0);
  EXPECT_EQ(kw.Query("missing", TimePoint::FromSeconds(2.0)).count, 0u);
  EXPECT_EQ(kw.key_count(), 2u);
}

// Property: incremental window min/max monotone deques stay correct under
// varying window sizes.
class WindowEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(WindowEquivalence, IncrementalEqualsBatch) {
  const Duration window = Duration::Millis(GetParam());
  IncrementalWindow inc(window);
  BatchWindow batch(window);
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  TimePoint t;
  for (int i = 0; i < 2000; ++i) {
    t += Duration::Millis(static_cast<std::int64_t>(rng.NextBelow(20)));
    const double v = rng.Uniform(-100.0, 100.0);
    inc.Add(t, v);
    batch.Add(t, v);
  }
  const auto a = inc.Query(t);
  const auto b = batch.Query(t);
  EXPECT_EQ(a.count, b.count);
  EXPECT_NEAR(a.mean, b.mean, 1e-9);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, WindowEquivalence,
                         ::testing::Values(10, 100, 500, 2000, 10'000));

}  // namespace
}  // namespace arbd::analytics
