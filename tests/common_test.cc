#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/runtime.h"
#include "common/serialize.h"
#include "common/status.h"

namespace arbd {
namespace {

TEST(Duration, ConstructorsAndAccessors) {
  EXPECT_EQ(Duration::Millis(5).nanos(), 5'000'000);
  EXPECT_EQ(Duration::Micros(3).nanos(), 3'000);
  EXPECT_EQ(Duration::Seconds(1.5).millis(), 1500);
  EXPECT_DOUBLE_EQ(Duration::Millis(250).seconds(), 0.25);
}

TEST(Duration, Arithmetic) {
  const Duration a = Duration::Millis(100);
  const Duration b = Duration::Millis(40);
  EXPECT_EQ((a + b).millis(), 140);
  EXPECT_EQ((a - b).millis(), 60);
  EXPECT_EQ((a * 2.5).millis(), 250);
  EXPECT_EQ((a / 4).millis(), 25);
  EXPECT_LT(b, a);
  EXPECT_EQ(-a, Duration::Millis(-100));
}

TEST(TimePoint, ArithmeticWithDurations) {
  const TimePoint t = TimePoint::FromMillis(1000);
  EXPECT_EQ((t + Duration::Millis(500)).millis(), 1500);
  EXPECT_EQ((t - Duration::Millis(500)).millis(), 500);
  EXPECT_EQ((t + Duration::Millis(500)) - t, Duration::Millis(500));
}

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.Now().nanos(), 0);
  clock.Advance(Duration::Millis(10));
  EXPECT_EQ(clock.Now().millis(), 10);
  clock.AdvanceTo(TimePoint::FromMillis(50));
  EXPECT_EQ(clock.Now().millis(), 50);
}

TEST(SimClock, RefusesTimeTravel) {
  SimClock clock(TimePoint::FromMillis(100));
  EXPECT_THROW(clock.AdvanceTo(TimePoint::FromMillis(50)), std::invalid_argument);
}

TEST(Mix64, SplitMix64ReferenceVectors) {
  // The first two outputs of the SplitMix64 reference generator seeded 0.
  static_assert(Mix64(0) == 0xe220a8397b1dcdafULL);
  EXPECT_EQ(Mix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(Mix64(0x9e3779b97f4a7c15ULL), 0x6e789e6aa1b965f4ULL);
}

TEST(Rng, SeedOneStreamIsPinned) {
  // Every seeded workload and digest starts from this stream; a change to
  // the seeding or the generator moves all of them.
  Rng rng(1);
  EXPECT_EQ(rng.NextU64(), 0xb3f2af6d0fc710c5ULL);
  EXPECT_EQ(rng.NextU64(), 0x853b559647364ceaULL);
  EXPECT_EQ(rng.NextU64(), 0x92f89756082a4514ULL);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.UniformInt(1, 6);
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 6);
    saw_lo |= x == 1;
    saw_hi |= x == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gaussian();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(13);
  for (double mean : {0.5, 3.0, 20.0, 120.0}) {
    double total = 0.0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) total += static_cast<double>(rng.Poisson(mean));
    EXPECT_NEAR(total / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double total = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) total += rng.Exponential(4.0);
  EXPECT_NEAR(total / n, 0.25, 0.01);
}

TEST(Zipf, SkewConcentratesMass) {
  Rng rng(19);
  ZipfGenerator zipf(100, 1.2);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 20'000; ++i) counts[zipf.Next(rng)]++;
  // Rank 0 should dominate rank 10 heavily under skew 1.2.
  EXPECT_GT(counts[0], counts[10] * 5);
  // All draws must be in range.
  for (const auto& [k, _] : counts) EXPECT_LT(k, 100u);
}

TEST(Zipf, RejectsEmptyDomain) {
  EXPECT_THROW(ZipfGenerator(0, 1.0), std::invalid_argument);
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  const Status s = Status::NotFound("thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: thing");
}

TEST(Expected, HoldsValue) {
  Expected<int> e = 42;
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*e, 42);
  EXPECT_TRUE(e.status().ok());
}

TEST(Expected, HoldsError) {
  Expected<int> e = Status::InvalidArgument("bad");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(e.value_or(-1), -1);
  EXPECT_THROW(e.value(), std::runtime_error);
}

TEST(Expected, RejectsOkStatus) {
  EXPECT_THROW((Expected<int>(Status::Ok())), std::logic_error);
}

TEST(Histogram, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_NEAR(h.mean(), 50.5, 0.01);
}

TEST(Histogram, QuantilesApproximate) {
  Histogram h;
  for (int i = 0; i < 10'000; ++i) h.Record(i);
  // Log-bucketing gives ~6% relative error.
  EXPECT_NEAR(static_cast<double>(h.p50()), 5000.0, 5000.0 * 0.08);
  EXPECT_NEAR(static_cast<double>(h.p99()), 9900.0, 9900.0 * 0.08);
}

TEST(Histogram, QuantileMatchesExactWithinHalfBucket) {
  // Log-uniform sample spanning 1..1e6 exercises many major buckets and
  // matches the within-bucket distribution the log-midpoint assumes.
  constexpr int kN = 20'000;
  std::vector<std::int64_t> xs;
  xs.reserve(kN);
  Histogram h;
  for (int i = 0; i < kN; ++i) {
    const double v = std::exp(std::log(1e6) * (i + 0.5) / kN);
    const auto x = static_cast<std::int64_t>(std::llround(v));
    xs.push_back(x);
    h.Record(x);
  }
  std::sort(xs.begin(), xs.end());
  double bias = 0.0;
  int samples = 0;
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(kN)));
    const double exact = static_cast<double>(xs[rank - 1]);
    const double est = static_cast<double>(h.Quantile(q));
    // Each estimate lands within half a minor bucket (~±3.2%) of exact.
    EXPECT_NEAR(est, exact, exact * 0.04) << "q=" << q;
    bias += (est - exact) / exact;
    ++samples;
  }
  // The old bucket-upper-bound rule over-reported every quantile (~+3%
  // mean signed error); the log-midpoint keeps the error centered.
  EXPECT_LT(std::abs(bias / static_cast<double>(samples)), 0.02);
}

TEST(Histogram, QuantileExactForSmallValues) {
  // Values below kMinor (16) live in width-1 buckets: quantiles are exact.
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(i);
  EXPECT_EQ(h.Quantile(0.1), 0);
  EXPECT_EQ(h.p50(), 4);
  EXPECT_EQ(h.Quantile(1.0), 9);
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
}

TEST(Histogram, NegativeClampedToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.min(), 0);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0);
}

TEST(MetricRegistry, CountersAndHists) {
  MetricRegistry reg;
  reg.Add("x");
  reg.Add("x", 2.0);
  reg.Set("y", 7.0);
  reg.Hist("lat").Record(100);
  EXPECT_DOUBLE_EQ(reg.Get("x"), 3.0);
  EXPECT_DOUBLE_EQ(reg.Get("y"), 7.0);
  EXPECT_DOUBLE_EQ(reg.Get("missing"), 0.0);
  EXPECT_EQ(reg.Hist("lat").count(), 1u);
}

TEST(SampleStats, ComputesMoments) {
  const auto s = SampleStats::Of({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, 1.29099, 1e-4);
}

TEST(SampleStats, EmptyIsZero) {
  const auto s = SampleStats::Of({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Serialize, ScalarRoundTrip) {
  BinaryWriter w;
  w.WriteU8(7);
  w.WriteU32(123456);
  w.WriteU64(1ULL << 60);
  w.WriteI64(-42);
  w.WriteF64(3.14159);
  const Bytes buf = w.Take();

  BinaryReader r(buf);
  EXPECT_EQ(*r.ReadU8(), 7);
  EXPECT_EQ(*r.ReadU32(), 123456u);
  EXPECT_EQ(*r.ReadU64(), 1ULL << 60);
  EXPECT_EQ(*r.ReadI64(), -42);
  EXPECT_DOUBLE_EQ(*r.ReadF64(), 3.14159);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serialize, StringAndBytesRoundTrip) {
  BinaryWriter w;
  w.WriteString("hello ARBD");
  w.WriteBytes(Bytes{1, 2, 3});
  BinaryReader r(w.bytes());
  EXPECT_EQ(*r.ReadString(), "hello ARBD");
  EXPECT_EQ(*r.ReadBytes(), (Bytes{1, 2, 3}));
}

TEST(Serialize, TruncationDetected) {
  BinaryWriter w;
  w.WriteString("some payload");
  Bytes buf = w.Take();
  buf.resize(buf.size() - 3);
  BinaryReader r(buf);
  auto s = r.ReadString();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kDataLoss);
}

TEST(Fnv1a, StableAndDistinct) {
  EXPECT_EQ(Fnv1a(std::string("abc")), Fnv1a(std::string("abc")));
  EXPECT_NE(Fnv1a(std::string("abc")), Fnv1a(std::string("abd")));
  EXPECT_NE(Fnv1a(std::string("")), Fnv1a(std::string("a")));
}

// The ARBD_* knobs RuntimeConfig::FromEnv parses, one row per input: the
// row's variable is set (or unset, for a null value), FromEnv runs, and
// the field that variable feeds must read `want`. The tests below are
// the only ones that touch the environment; each restores every variable
// it set.
struct EnvRow {
  const char* var;
  const char* value;  // nullptr = unset
  std::int64_t want;
};

void ExpectFromEnv(const std::vector<EnvRow>& rows) {
  using Field = std::int64_t (*)(const RuntimeConfig&);
  const std::map<std::string, Field> fields = {
      {"ARBD_EXEC_WORKERS", [](const RuntimeConfig& c) -> std::int64_t { return c.exec_workers; }},
      {"ARBD_TRACE", [](const RuntimeConfig& c) -> std::int64_t { return c.trace; }},
      {"ARBD_TRACE_RING", [](const RuntimeConfig& c) -> std::int64_t { return c.trace_ring; }},
      {"ARBD_TRACE_SEED",
       [](const RuntimeConfig& c) { return static_cast<std::int64_t>(c.trace_seed); }},
      {"ARBD_CLUSTER", [](const RuntimeConfig& c) -> std::int64_t { return c.cluster_brokers; }},
      {"ARBD_AUTOSCALE", [](const RuntimeConfig& c) -> std::int64_t { return c.autoscale; }},
      {"ARBD_HEALTH", [](const RuntimeConfig& c) -> std::int64_t { return c.health; }},
      {"ARBD_REPLICAS", [](const RuntimeConfig& c) -> std::int64_t { return c.replicas; }},
      {"ARBD_SEGMENT_BYTES",
       [](const RuntimeConfig& c) -> std::int64_t { return c.segment_bytes; }},
  };
  std::map<std::string, std::optional<std::string>> saved;
  for (const EnvRow& r : rows) {
    if (saved.contains(r.var)) continue;
    const char* old = std::getenv(r.var);
    saved[r.var] = old ? std::optional<std::string>(old) : std::nullopt;
  }
  for (const EnvRow& r : rows) {
    if (r.value == nullptr) {
      unsetenv(r.var);
    } else {
      setenv(r.var, r.value, 1);
    }
    EXPECT_EQ(fields.at(r.var)(RuntimeConfig::FromEnv()), r.want)
        << r.var << "=" << (r.value ? '"' + std::string(r.value) + '"' : "(unset)");
  }
  for (const auto& [var, old] : saved) {
    if (old) {
      setenv(var.c_str(), old->c_str(), 1);
    } else {
      unsetenv(var.c_str());
    }
  }
}

const std::int64_t kDefaultSeed = static_cast<std::int64_t>(RuntimeConfig{}.trace_seed);

// Anything but a whole decimal number leaves a numeric field at its default.
constexpr const char* kNotWholeNumbers[] = {
    "", "64k", "3x", "4x", "1.5", " 4", "4 ", "+4", "0x10", "-", "99999999999999999999"};

TEST(EnvTest, FlagAcceptsOneTrueOn) {
  std::vector<EnvRow> rows;
  for (const char* on : {"1", "true", "on"}) rows.push_back({"ARBD_TRACE", on, 1});
  for (const char* off : {"0", "", "false", "off", "yes", "ON", "1 ", "2"}) {
    rows.push_back({"ARBD_TRACE", off, 0});
  }
  rows.push_back({"ARBD_TRACE", nullptr, 0});
  ExpectFromEnv(rows);
}

TEST(EnvTest, IntAcceptsOnlyWholeDecimalNumbers) {
  // ARBD_TRACE_SEED keeps any nonzero value, so it shows exactly which
  // inputs parse.
  std::vector<EnvRow> rows = {{"ARBD_TRACE_SEED", "1024", 1024},
                              {"ARBD_TRACE_SEED", "-3", -3},
                              {"ARBD_TRACE_SEED", "0", kDefaultSeed}};
  for (const char* bad : kNotWholeNumbers) rows.push_back({"ARBD_TRACE_SEED", bad, kDefaultSeed});
  rows.push_back({"ARBD_TRACE_SEED", nullptr, kDefaultSeed});
  ExpectFromEnv(rows);
}

TEST(EnvTest, ReplicasWithSuffixFallsBackToOne) {
  ExpectFromEnv({{"ARBD_REPLICAS", "3", 3}, {"ARBD_REPLICAS", "3x", 1}, {"ARBD_REPLICAS", "99", 8}});
}

TEST(EnvTest, ExecWorkersWithSuffixKeepsOneWorker) {
  ExpectFromEnv({{"ARBD_EXEC_WORKERS", "4", 4}, {"ARBD_EXEC_WORKERS", "64", 64},
                 {"ARBD_EXEC_WORKERS", "4x", 1}, {"ARBD_EXEC_WORKERS", "65", 1},
                 {"ARBD_EXEC_WORKERS", "0", 1}, {"ARBD_EXEC_WORKERS", nullptr, 1}});
}

TEST(EnvTest, TraceOnEnablesTracing) {
  ExpectFromEnv({{"ARBD_TRACE", "on", 1}, {"ARBD_TRACE", "0", 0}});
}

TEST(BrokerCluster, EnvSizeParsesAndClamps) {
  std::vector<EnvRow> rows = {{"ARBD_CLUSTER", "4", 4},
                              {"ARBD_CLUSTER", "99", 16},
                              {"ARBD_CLUSTER", "bogus", 1},
                              {"ARBD_CLUSTER", "0", 1},
                              {"ARBD_CLUSTER", nullptr, 1}};
  for (const char* bad : kNotWholeNumbers) rows.push_back({"ARBD_CLUSTER", bad, 1});
  ExpectFromEnv(rows);
}

TEST(Replication, FactorFromEnvClampsAndDefaults) {
  ExpectFromEnv({{"ARBD_REPLICAS", nullptr, 1}, {"ARBD_REPLICAS", "3", 3},
                 {"ARBD_REPLICAS", "99", 8}, {"ARBD_REPLICAS", "0", 1},
                 {"ARBD_REPLICAS", "garbage", 1}});
}

TEST(Autoscale, EnvGateParsesAndDefaultsOff) {
  ExpectFromEnv({{"ARBD_AUTOSCALE", nullptr, 0}, {"ARBD_AUTOSCALE", "1", 1},
                 {"ARBD_AUTOSCALE", "true", 1}, {"ARBD_AUTOSCALE", "0", 0}});
}

// The knobs without a test of their own above.
TEST(RuntimeConfig, FromEnv) {
  const auto ring = static_cast<std::int64_t>(RuntimeConfig{}.trace_ring);
  ExpectFromEnv({{"ARBD_HEALTH", "on", 1}, {"ARBD_HEALTH", nullptr, 0},
                 {"ARBD_TRACE_RING", "128", 128}, {"ARBD_TRACE_RING", "0", ring},
                 {"ARBD_TRACE_RING", "-1", ring}, {"ARBD_TRACE_RING", "4k", ring},
                 {"ARBD_SEGMENT_BYTES", "1024", 1024}, {"ARBD_SEGMENT_BYTES", "64k", 0},
                 {"ARBD_SEGMENT_BYTES", "-3", 0}, {"ARBD_SEGMENT_BYTES", "0", 0},
                 {"ARBD_SEGMENT_BYTES", nullptr, 0}});
}

}  // namespace
}  // namespace arbd
