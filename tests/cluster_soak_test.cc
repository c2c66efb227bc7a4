// Soak-labeled stacked-profile suite (ctest -L soak): 300 seeded runs of
// the one cluster soak driver. Each run stacks a pair of fault profiles
// on one config:
//   - rolling kill: every broker killed once (seed-varied spacing and
//     restore windows, sometimes overlapping outages), sometimes a
//     mid-run netsplit, sometimes injected killbroker/netsplit faults;
//   - autoscale: a flash-crowd surge, seed-varied split/merge thresholds
//     and, on a third of the runs, forced autosplit/automerge rules,
//     under the rolling-kill schedule;
//   - brownout: a slow broker, often a lossy link and an overlapping
//     fail-stop kill, sometimes injected gray faults, hedged overlay
//     reads and health demotion seed-varied on and off.
// Each of the three instantiations anchors one profile and stacks it with
// one of the other two by seed parity, so every pair appears 100 times.
// Frames run with an unlimited budget (Zero), so the committed workload
// is schedule-independent and the audits must hold exactly:
//   - zero committed loss and zero log duplicates;
//   - zero duplicate delivery and zero gaps (generation-fenced commits
//     across kill-, split- and merge-driven rebalances);
//   - controller consistency: the metadata log replays to the live
//     routing table digest, key-range routers included;
//   - the run drains (no wedge) and nothing is deadline-dropped.
// Every tenth autoscale-stacked run also checks that an armed but idle
// autoscaler reproduces the autoscaler-off run bit for bit — the
// ARBD_AUTOSCALE=1 passthrough contract.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/rng.h"
#include "scenarios/cluster.h"

namespace arbd {
namespace {

enum class Profile { kRollingKill = 0, kAutoscale = 1, kBrownout = 2 };

void AddRule(scenarios::ClusterSoakConfig& cfg, const std::string& rule) {
  if (!cfg.fault_spec.empty()) cfg.fault_spec += ";";
  cfg.fault_spec += rule;
}

void StackRollingKill(Rng& rng, scenarios::ClusterSoakConfig& cfg) {
  cfg.rolling_kill = true;
  if (rng.Bernoulli(0.3) && cfg.brokers >= 3) {
    cfg.netsplit_at_turn = 8 + rng.NextBelow(10);
    cfg.netsplit_heal_ticks = 4 + rng.NextBelow(5);
  }
  if (rng.Bernoulli(0.25)) AddRule(cfg, "killbroker@p=0.05,x=4;netsplit@p=0.02,x=4");
}

void StackAutoscale(Rng& rng, scenarios::ClusterSoakConfig& cfg) {
  cfg.rolling_kill = true;  // split/merge under kills
  // Flash crowd over the top POIs mid-period — the hotspot the
  // autoscaler is there to absorb.
  cfg.fleet.surge_start_tick = 3 + static_cast<std::uint32_t>(rng.NextBelow(4));
  cfg.fleet.surge_ticks = 3 + static_cast<std::uint32_t>(rng.NextBelow(4));
  cfg.fleet.surge_boost = 1.0 + 0.5 * static_cast<double>(rng.NextBelow(4));
  cfg.fleet.surge_pois = 2 + static_cast<std::uint32_t>(rng.NextBelow(4));
  cfg.autoscale.enabled = true;
  cfg.autoscale.split_rate_threshold = 24 + rng.NextBelow(64);
  cfg.autoscale.merge_rate_threshold = 1 + rng.NextBelow(3);
  cfg.autoscale.merge_cold_ticks = 4 + static_cast<std::uint32_t>(rng.NextBelow(8));
  cfg.autoscale.max_partitions = 24 + static_cast<std::uint32_t>(rng.NextBelow(24));
  // A third of the runs force splits/merges on top of the thresholds (and
  // some add killbroker draws), so handoffs land at adversarial times.
  if (rng.Bernoulli(0.33)) {
    AddRule(cfg, "autosplit@p=0.08;automerge@p=0.05");
    const bool extra_kills = rng.Bernoulli(0.5);
    if (extra_kills && cfg.fault_spec.find("killbroker") == std::string::npos) {
      AddRule(cfg, "killbroker@p=0.04,x=4");
    }
  }
}

void StackBrownout(Rng& rng, scenarios::ClusterSoakConfig& cfg) {
  const auto victim = [&] {
    return static_cast<cluster::BrokerId>(rng.NextBelow(cfg.brokers));
  };
  // Every brownout-stacked run browns out one broker; the victim, depth
  // and window vary by seed.
  cfg.slow_at_tick = 1 + rng.NextBelow(4);
  cfg.slow_broker = victim();
  cfg.slow_factor = 2.0 + static_cast<double>(rng.NextBelow(15));  // 2..16x
  cfg.slow_ticks = 4 + rng.NextBelow(20);
  if (rng.Bernoulli(0.6)) {
    cfg.lossy_at_tick = 1 + rng.NextBelow(6);
    cfg.lossy_broker = victim();
    cfg.lossy_drop_p = 0.1 + 0.05 * static_cast<double>(rng.NextBelow(8));
    cfg.lossy_ticks = 2 + rng.NextBelow(8);
  }
  // Sometimes a fail-stop kill lands mid-brownout: the E27 overlap regime.
  if (rng.Bernoulli(0.4)) {
    cfg.kill_at_tick = 2 + rng.NextBelow(6);
    cfg.kill_broker = victim();
  }
  if (rng.Bernoulli(0.25)) {
    AddRule(cfg, "slowbroker@p=0.08,x=6,ms=4;lossylink@p=0.05,x=0.3,ms=3");
  }
  cfg.hedge.enabled = rng.Bernoulli(0.5);
  cfg.health.enabled = rng.Bernoulli(0.5);
  cfg.read_batch = 32;
}

class StackedSoak : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // Stacks `primary` with one of the other two profiles (by seed parity)
  // over a seed-varied cluster shape, runs it, and audits.
  void RunStack(Profile primary) {
    const auto p = static_cast<std::uint64_t>(primary);
    const std::uint64_t seed = GetParam() * 3 + p;  // distinct across suites
    const std::uint64_t partner = (p + 1 + GetParam() % 2) % 3;
    const bool stacked[3] = {p == 0 || partner == 0, p == 1 || partner == 1,
                             p == 2 || partner == 2};

    Rng rng(seed ^ 0x57ac'4ed5'5eedULL);
    scenarios::ClusterSoakConfig cfg;
    cfg.seed = seed;
    cfg.brokers = static_cast<std::uint32_t>(2 + rng.NextBelow(7));  // 2..8
    cfg.partitions = static_cast<std::uint32_t>(2 + rng.NextBelow(9));
    cfg.replication_factor = static_cast<std::uint32_t>(2 + rng.NextBelow(3));
    cfg.consumers = static_cast<std::uint32_t>(2 + rng.NextBelow(5));
    cfg.fleet.users = 2000;
    cfg.fleet.hotspots = 32;
    cfg.fleet.ticks = 12;
    cfg.fleet.peak_events_per_tick = 60;
    cfg.fleet.seed = seed * 31 + 7;
    // The rolling-kill schedule, armed by the kill and autoscale profiles.
    // Restore windows sometimes outlast the spacing: overlapping outages.
    cfg.rolling_kill = false;
    cfg.kill_start_tick = 1 + rng.NextBelow(4);
    cfg.kill_spacing_ticks = 2 + rng.NextBelow(5);
    cfg.restore_ticks = 3 + rng.NextBelow(7);
    cfg.fault_seed = seed + 1;
    // Each profile draws from its own stream, so its draws do not depend
    // on what it is stacked with.
    Rng kill_rng(seed ^ 0xc105'7e12'5eedULL);
    Rng scale_rng(seed ^ 0xa5ca'1e5e'edULL);
    Rng gray_rng(seed ^ 0xb407'7e12'5eedULL);
    if (stacked[0]) StackRollingKill(kill_rng, cfg);
    if (stacked[1]) StackAutoscale(scale_rng, cfg);
    if (stacked[2]) StackBrownout(gray_rng, cfg);

    auto report = scenarios::RunClusterSoak(cfg);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->AuditClean())
        << "brokers=" << cfg.brokers << " faults=\"" << cfg.fault_spec
        << "\" loss=" << report->committed_loss << " log_dups=" << report->log_duplicates
        << " deliv_dups=" << report->delivered_duplicates
        << " gaps=" << report->delivery_gaps << " wedged=" << report->wedged
        << " controller_consistent=" << report->controller_consistent;
    // With an unlimited budget nothing may be deadline-dropped.
    EXPECT_EQ(report->deadline_misses, 0u);

    // Each stacked profile actually fired. (Some seed-varied schedules
    // drain the workload before the last brokers' kill ticks arrive —
    // bench_cluster's E24 gate covers the full kill-every-broker schedule
    // — but every kill-stacked run must see real kills and rebalances.)
    if (stacked[0] || stacked[1] || cfg.kill_at_tick != 0) {
      EXPECT_GT(report->cluster.kills, 0u);
    }
    if (stacked[0]) {
      EXPECT_GT(report->rebalances, 0u);
    }
    if (stacked[2]) {
      EXPECT_GT(report->cluster.slow_brownouts, 0u);
    }

    // Passthrough spot check: with injected faults cleared, an armed
    // autoscaler no rate can trip reproduces the autoscaler-off run.
    if (stacked[1] && GetParam() % 10 == 0) {
      scenarios::ClusterSoakConfig off = cfg;
      off.fault_spec.clear();
      off.autoscale.enabled = false;
      scenarios::ClusterSoakConfig idle = off;
      idle.autoscale.enabled = true;
      idle.autoscale.split_rate_threshold = std::numeric_limits<std::uint64_t>::max();
      auto off_rep = scenarios::RunClusterSoak(off);
      auto idle_rep = scenarios::RunClusterSoak(idle);
      ASSERT_TRUE(off_rep.ok() && idle_rep.ok());
      EXPECT_EQ(idle_rep->committed_digest, off_rep->committed_digest);
      EXPECT_EQ(idle_rep->acked, off_rep->acked);
      EXPECT_EQ(idle_rep->cluster.splits, 0u);
      EXPECT_EQ(idle_rep->producer_handoffs, 0u);
    }
  }
};

// One suite body, instantiated under the three historical suite names;
// each anchors the profile its old suite soaked.
class ClusterRebalance : public StackedSoak {};
class AutoscaleChurn : public StackedSoak {};
class BrownoutChurn : public StackedSoak {};

TEST_P(ClusterRebalance, RollingKillsDeliverExactlyOnce) {
  RunStack(Profile::kRollingKill);
}
TEST_P(AutoscaleChurn, SplitMergeUnderKillsDeliversExactlyOnce) {
  RunStack(Profile::kAutoscale);
}
TEST_P(BrownoutChurn, GrayFailuresStayExactlyOnce) { RunStack(Profile::kBrownout); }

INSTANTIATE_TEST_SUITE_P(HundredSeeds, ClusterRebalance,
                         ::testing::Range<std::uint64_t>(1, 101));
INSTANTIATE_TEST_SUITE_P(HundredSeeds, AutoscaleChurn,
                         ::testing::Range<std::uint64_t>(1, 101));
INSTANTIATE_TEST_SUITE_P(HundredSeeds, BrownoutChurn,
                         ::testing::Range<std::uint64_t>(1, 101));

}  // namespace
}  // namespace arbd
