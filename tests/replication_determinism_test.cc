// Tier-1 determinism contract for the replication layer (ISSUE 5
// acceptance): (a) a seeded failover soak replays bit-for-bit — fault
// logs, high-watermark histories, replication stats, recovery stats, and
// the committed-log digest; (b) the committed digest is invariant across
// crash schedules and replication factors — crashes cost retries and
// elections, never content; (c) replication is inert at factor 1: the
// Tourism and Overload scenario digests are byte-identical at the
// process default factor, at 1, and (since their workloads never hit an
// unavailable replica) at 3.
#include <gtest/gtest.h>

#include "common/runtime.h"
#include "scenarios/digest.h"
#include "scenarios/failover.h"

namespace arbd {
namespace {

// The process configuration with the worker count and replication factor
// overridden.
RuntimeConfig Cfg(std::size_t workers,
                  std::uint32_t replicas = RuntimeConfig::Process().replicas) {
  RuntimeConfig rc = RuntimeConfig::Process();
  rc.exec_workers = workers;
  rc.replicas = replicas;
  return rc;
}

scenarios::FailoverConfig SoakCfg(std::uint64_t seed) {
  scenarios::FailoverConfig cfg;
  cfg.records = 400;
  cfg.replication_factor = 3;
  cfg.seed = 21;  // one workload; the fault seed varies the schedule
  cfg.fault_seed = seed;
  cfg.fault_spec = "nodecrash@p=0.01,x=10;torn@p=0.01";
  cfg.kill_p = 0.04;
  cfg.kill_restore_ops = 8;
  cfg.producer_attempts = 40;
  return cfg;
}

TEST(ReplicationDeterminism, FailoverSoakReplaysBitForBit) {
  const auto cfg = SoakCfg(3);
  auto a = scenarios::RunFailoverSoak(cfg);
  auto b = scenarios::RunFailoverSoak(cfg);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_FALSE(a->wedged);
  // The run must actually exercise failover for the replay to mean much.
  EXPECT_GT(a->replication.node_crashes, 0u);
  EXPECT_GT(a->replication.failovers, 0u);
  EXPECT_EQ(a->fault_log, b->fault_log);
  EXPECT_EQ(a->hw_histories, b->hw_histories);
  EXPECT_EQ(a->replication, b->replication);
  EXPECT_EQ(a->job, b->job);
  EXPECT_EQ(a->results, b->results);
  EXPECT_EQ(a->committed_digest, b->committed_digest);
  EXPECT_EQ(a->acked, b->acked);
  EXPECT_EQ(a->producer_retries, b->producer_retries);
}

TEST(ReplicationDeterminism, CommittedDigestInvariantAcrossSchedulesAndFactors) {
  // Reference: same workload, single copy, no faults.
  scenarios::FailoverConfig base = SoakCfg(0);
  base.replication_factor = 1;
  base.fault_spec.clear();
  base.kill_p = 0.0;
  auto reference = scenarios::RunFailoverSoak(base);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->acked, reference->offered);

  for (std::uint32_t factor : {1u, 3u}) {
    for (std::uint64_t fault_seed : {5ull, 6ull, 7ull}) {
      scenarios::FailoverConfig cfg = SoakCfg(fault_seed);
      cfg.replication_factor = factor;
      auto run = scenarios::RunFailoverSoak(cfg);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ASSERT_FALSE(run->wedged) << "factor=" << factor << " fs=" << fault_seed;
      EXPECT_EQ(run->committed_loss, 0u) << "factor=" << factor << " fs=" << fault_seed;
      EXPECT_EQ(run->log_duplicates, 0u) << "factor=" << factor << " fs=" << fault_seed;
      EXPECT_EQ(run->committed_digest, reference->committed_digest)
          << "factor=" << factor << " fs=" << fault_seed;
      EXPECT_EQ(run->results, reference->results)
          << "factor=" << factor << " fs=" << fault_seed;
    }
  }
}

// --- Inertness gates: pre-replication scenario digests are untouched. ---

TEST(ReplicationDeterminism, TourismDigestInertAtFactorOne) {
  EXPECT_EQ(scenarios::TourismDigest(11, Cfg(1, 1)), scenarios::TourismDigest(11, Cfg(1)));
}

TEST(ReplicationDeterminism, TourismDigestUnchangedAtFactorThree) {
  // No fault plan and no kills: every quorum append succeeds, so the
  // replicated path must commit the exact same log as the single copy.
  EXPECT_EQ(scenarios::TourismDigest(11, Cfg(4, 3)), scenarios::TourismDigest(11, Cfg(4, 1)));
}

TEST(ReplicationDeterminism, OverloadDigestInertAtFactorOne) {
  EXPECT_EQ(scenarios::OverloadDigest(17, Cfg(1, 1)), scenarios::OverloadDigest(17, Cfg(1)));
}

TEST(ReplicationDeterminism, OverloadDigestUnchangedAtFactorThree) {
  EXPECT_EQ(scenarios::OverloadDigest(17, Cfg(4, 3)), scenarios::OverloadDigest(17, Cfg(4, 1)));
}

}  // namespace
}  // namespace arbd
