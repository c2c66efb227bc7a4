// Cross-worker-count determinism regression tests: whole-scenario
// final-state digests must be identical at workers ∈ {1, 4} for every
// seed.
#include <gtest/gtest.h>

#include "common/runtime.h"
#include "scenarios/digest.h"

namespace arbd {
namespace {

// The process configuration at `workers` executor workers.
RuntimeConfig AtWorkers(std::size_t workers) {
  RuntimeConfig rc = RuntimeConfig::Process();
  rc.exec_workers = workers;
  return rc;
}

TEST(ExecDeterminism, TourismDigestInvariantAcrossWorkerCounts) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::uint64_t d1 = scenarios::TourismDigest(seed, AtWorkers(1));
    const std::uint64_t d4 = scenarios::TourismDigest(seed, AtWorkers(4));
    EXPECT_EQ(d1, d4) << "seed=" << seed;
    // Same config run twice is bit-identical (no wall-clock leakage).
    EXPECT_EQ(d4, scenarios::TourismDigest(seed, AtWorkers(4))) << "seed=" << seed;
  }
}

TEST(ExecDeterminism, OverloadDigestInvariantAcrossWorkerCounts) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::uint64_t d1 = scenarios::OverloadDigest(seed, AtWorkers(1));
    const std::uint64_t d4 = scenarios::OverloadDigest(seed, AtWorkers(4));
    EXPECT_EQ(d1, d4) << "seed=" << seed;
    EXPECT_EQ(d4, scenarios::OverloadDigest(seed, AtWorkers(4))) << "seed=" << seed;
  }
}

TEST(ExecDeterminism, DigestsAreSeedSensitive) {
  // Sanity: the digest actually observes the run (different seeds differ).
  EXPECT_NE(scenarios::TourismDigest(1, AtWorkers(1)), scenarios::TourismDigest(2, AtWorkers(1)));
  EXPECT_NE(scenarios::OverloadDigest(1, AtWorkers(1)), scenarios::OverloadDigest(2, AtWorkers(1)));
}

}  // namespace
}  // namespace arbd
