// Unit tests for the modeled multi-broker cluster (src/cluster):
// consistent-hash placement and leader balance, replication-factor
// clamping (live-broker and [1,8] boundaries), the metadata controller's
// rebuild-from-log invariant, broker kill/restore failover with routing,
// netsplit minority fencing, the size-1 platform passthrough, and the
// rolling-kill soak's zero-loss / zero-duplicate contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cluster/cluster.h"
#include "cluster/controller.h"
#include "cluster/placement.h"
#include "core/platform.h"
#include "geo/city.h"
#include "scenarios/cluster.h"
#include "stream/log.h"

namespace arbd {
namespace {

using cluster::BrokerId;

TEST(Placement, RingIsDeterministicAndDistinct) {
  const cluster::HashRing a(4, 64, 99), b(4, 64, 99), other_seed(4, 64, 100);
  for (std::uint64_t item = 0; item < 50; ++item) {
    const auto sa = a.ReplicaSet(item * 0x9e3779b97f4a7c15ULL, 3);
    EXPECT_EQ(sa, b.ReplicaSet(item * 0x9e3779b97f4a7c15ULL, 3));
    ASSERT_EQ(sa.size(), 3u);
    EXPECT_EQ(std::set<BrokerId>(sa.begin(), sa.end()).size(), 3u)
        << "replica set must land on distinct brokers";
  }
  // A different seed is a different ring (statistically certain for 50 items).
  bool any_diff = false;
  for (std::uint64_t item = 0; item < 50 && !any_diff; ++item) {
    any_diff = a.ReplicaSet(item, 2) != other_seed.ReplicaSet(item, 2);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Placement, LeadersBalanceAcrossBrokers) {
  const cluster::HashRing ring(4, 64, 7);
  // factor == brokers: every set holds all brokers, so fewest-leaders-first
  // balances exactly — max and min leader counts differ by at most 1.
  const auto placement = cluster::PlaceTopic(ring, "balance", 32, 4);
  std::vector<int> leaders(4, 0);
  for (std::uint32_t p = 0; p < 32; ++p) ++leaders[placement.broker_of(p, 0)];
  const auto [lo, hi] = std::minmax_element(leaders.begin(), leaders.end());
  EXPECT_LE(*hi - *lo, 1) << "leader counts must be near-uniform";
}

TEST(Placement, FactorClampsToLiveBrokersWithFlag) {
  const cluster::HashRing ring(4, 32, 1);
  const auto clamped = cluster::PlaceTopic(ring, "t", 4, 8);
  EXPECT_EQ(clamped.factor, 4u);
  EXPECT_TRUE(clamped.clamped);
  const auto exact = cluster::PlaceTopic(ring, "t", 4, 3);
  EXPECT_EQ(exact.factor, 3u);
  EXPECT_FALSE(exact.clamped);
  // Single-broker cluster: everything collapses to factor 1 on broker 0.
  const cluster::HashRing solo(1, 32, 1);
  const auto single = cluster::PlaceTopic(solo, "t", 4, 8);
  EXPECT_EQ(single.factor, 1u);
  EXPECT_TRUE(single.clamped);
  for (std::uint32_t p = 0; p < 4; ++p) EXPECT_EQ(single.broker_of(p, 0), 0u);
}

TEST(Placement, EncodeDecodeRoundtrip) {
  const cluster::HashRing ring(5, 32, 3);
  const auto placement = cluster::PlaceTopic(ring, "roundtrip", 7, 3);
  auto decoded = cluster::TopicPlacement::Decode(placement.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->factor, placement.factor);
  EXPECT_EQ(decoded->replicas, placement.replicas);
  EXPECT_FALSE(cluster::TopicPlacement::Decode("1,x|0").ok());
  EXPECT_FALSE(cluster::TopicPlacement::Decode("").ok());
}

TEST(Placement, ExplicitFactorAboveEightClampsInTopic) {
  // The [1,8] boundary: an explicit factor of 12 is not an invitation to
  // model 12 replicas — the topic clamps to 8 like the env path does.
  SimClock clock;
  stream::Broker broker(clock);
  stream::TopicConfig tc;
  tc.partitions = 1;
  tc.replication_factor = 12;
  ASSERT_TRUE(broker.CreateTopic("wide", tc).ok());
  auto rp = broker.Replication("wide", 0);
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ((*rp)->factor(), 8u);
}

TEST(Controller, ReplayRebuildsLiveState) {
  cluster::MetadataController ctl(4, 3, 11, stream::DefaultSegmentBytes());
  ASSERT_TRUE(ctl.Append({.kind = cluster::MetaEventKind::kBrokerUp, .broker = 0,
                          .epoch = 1}).ok());
  const cluster::HashRing ring(4, 32, 11);
  cluster::MetaEvent placed{.kind = cluster::MetaEventKind::kTopicPlaced, .topic = "t"};
  placed.placement = cluster::PlaceTopic(ring, "t", 4, 3).Encode();
  ASSERT_TRUE(ctl.Append(placed).ok());
  cluster::MetaEvent moved{.kind = cluster::MetaEventKind::kLeaderMoved, .topic = "t"};
  moved.partition = 2;
  moved.leader = 3;
  ASSERT_TRUE(ctl.Append(moved).ok());

  auto route = ctl.Route("t", 2);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, 3u);
  auto replay = ctl.ReplayDigest();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(*replay, ctl.StateDigest());
  EXPECT_EQ(ctl.appended(), 3u);
}

TEST(Controller, SurvivesItsOwnLeaderCrash) {
  cluster::MetadataController ctl(4, 3, 5, stream::DefaultSegmentBytes());
  ASSERT_TRUE(ctl.Append({.kind = cluster::MetaEventKind::kBrokerUp, .broker = 0,
                          .epoch = 1}).ok());
  // Kill the metadata log's own leader: the next append must ride the
  // synchronous election and still commit, and replay must still match.
  ctl.log().CrashNode(ctl.log().leader(), 0);
  ASSERT_TRUE(ctl.Append({.kind = cluster::MetaEventKind::kBrokerDown, .broker = 1,
                          .epoch = 2}).ok());
  EXPECT_FALSE(ctl.state().brokers.at(1).up);
  auto replay = ctl.ReplayDigest();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(*replay, ctl.StateDigest());
}

TEST(BrokerCluster, KillDrainsLeadershipAndRoutesFollow) {
  SimClock clock;
  stream::Broker broker(clock);
  cluster::ClusterConfig cc;
  cc.brokers = 4;
  cluster::BrokerCluster cl(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 8;
  tc.replication_factor = 3;
  ASSERT_TRUE(cl.CreateTopic("t", tc).ok());

  // Kill broker 0: every partition must end up led by a surviving broker,
  // and the controller's routing table must agree with the live leaders.
  ASSERT_TRUE(cl.KillBroker(0, 4).ok());
  EXPECT_FALSE(cl.BrokerUp(0));
  for (stream::PartitionId p = 0; p < 8; ++p) {
    auto leader = cl.LeaderBroker("t", p);
    ASSERT_TRUE(leader.ok()) << "factor 3 absorbs one broker loss";
    EXPECT_NE(*leader, 0u);
    auto route = cl.controller().Route("t", p);
    ASSERT_TRUE(route.ok());
    EXPECT_EQ(*route, *leader);
  }
  // Produces reroute through the retry loop; ticks restore the broker.
  cluster::ClusterProducer producer(cl, broker, "t");
  for (int i = 0; i < 32; ++i) {
    auto sent = producer.Send(stream::Record::MakeText(
        "k" + std::to_string(i), "v", TimePoint::FromMillis(i)));
    ASSERT_TRUE(sent.ok());
  }
  for (std::uint64_t i = 0; i < 6; ++i) cl.Tick();
  EXPECT_TRUE(cl.BrokerUp(0)) << "restore window must have expired";
  EXPECT_EQ(cl.stats().kills, 1u);
  EXPECT_EQ(cl.stats().restores, 1u);
  auto replay = cl.controller().ReplayDigest();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(*replay, cl.controller().StateDigest());
}

TEST(BrokerCluster, NetSplitFencesMinorityMajorityCommits) {
  SimClock clock;
  stream::Broker broker(clock);
  cluster::ClusterConfig cc;
  cc.brokers = 5;
  cluster::BrokerCluster cl(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 8;
  tc.replication_factor = 3;
  ASSERT_TRUE(cl.CreateTopic("t", tc).ok());

  ASSERT_TRUE(cl.NetSplit(4).ok());
  const auto minority = cl.MinoritySide();
  ASSERT_EQ(minority.size(), 2u) << "minority of 5 brokers is 2";
  // The majority keeps committing: every partition has a reachable leader
  // outside the minority, so every send lands.
  cluster::ClusterProducer producer(cl, broker, "t");
  for (int i = 0; i < 32; ++i) {
    auto sent = producer.Send(stream::Record::MakeText(
        "k" + std::to_string(i), "v", TimePoint::FromMillis(i)));
    ASSERT_TRUE(sent.ok());
    auto leader = cl.LeaderBroker("t", sent->first);
    ASSERT_TRUE(leader.ok());
    EXPECT_TRUE(std::find(minority.begin(), minority.end(), *leader) == minority.end());
  }
  for (std::uint64_t i = 0; i < 5; ++i) cl.Tick();
  EXPECT_TRUE(cl.MinoritySide().empty()) << "split must heal after its window";
  EXPECT_EQ(cl.stats().netsplits, 1u);
  EXPECT_EQ(cl.stats().heals, 1u);
}

TEST(BrokerCluster, DigestMatchesUnclusteredBroker) {
  // The tentpole's digest-equality argument in miniature: placement moves
  // replica slots across brokers but never the record -> partition
  // routing, so a kill-free clustered broker commits bit-identically to a
  // bare one.
  auto run = [](std::uint32_t brokers) {
    SimClock clock;
    stream::Broker broker(clock);
    stream::TopicConfig tc;
    tc.partitions = 4;
    tc.replication_factor = 2;
    std::unique_ptr<cluster::BrokerCluster> cl;
    if (brokers > 1) {
      cluster::ClusterConfig cc;
      cc.brokers = brokers;
      cl = std::make_unique<cluster::BrokerCluster>(broker, cc);
      EXPECT_TRUE(cl->CreateTopic("t", tc).ok());
    } else {
      EXPECT_TRUE(broker.CreateTopic("t", tc).ok());
    }
    for (int i = 0; i < 200; ++i) {
      auto r = broker.Produce("t", stream::Record::MakeText(
                                       "k" + std::to_string(i % 17), "v" + std::to_string(i),
                                       TimePoint::FromMillis(i)));
      EXPECT_TRUE(r.ok());
    }
    auto t = broker.GetTopic("t");
    EXPECT_TRUE(t.ok());
    return stream::CommittedTopicDigest(**t);
  };
  const auto bare = run(1);
  EXPECT_EQ(run(2), bare);
  EXPECT_EQ(run(4), bare);
  EXPECT_EQ(run(8), bare);
}

TEST(BrokerCluster, PlatformPassthroughAtSizeOne) {
  const geo::CityModel city = geo::CityModel::Generate(geo::CityConfig{}, 51);
  SimClock clock;
  core::PlatformConfig pc;
  pc.cluster_brokers = 1;
  core::Platform passthrough(pc, city, clock);
  EXPECT_EQ(passthrough.cluster(), nullptr) << "size 1 builds no cluster at all";

  core::PlatformConfig clustered_cfg;
  clustered_cfg.cluster_brokers = 4;
  SimClock clock2;
  core::Platform clustered(clustered_cfg, city, clock2);
  ASSERT_NE(clustered.cluster(), nullptr);
  EXPECT_EQ(clustered.cluster()->brokers(), 4u);

  // Same publishes, same committed digest — the structural passthrough.
  auto publish = [](core::Platform& p) {
    for (int i = 0; i < 100; ++i) {
      stream::Event e;
      e.key = "poi" + std::to_string(i % 7);
      e.attribute = "report";
      e.value = i;
      e.event_time = TimePoint::FromMillis(i);
      EXPECT_TRUE(p.Publish(e).ok());
    }
    auto t = p.broker().GetTopic("arbd.events");
    EXPECT_TRUE(t.ok());
    return stream::CommittedTopicDigest(**t);
  };
  EXPECT_EQ(publish(passthrough), publish(clustered));
}

TEST(ClusterSoak, RollingKillZeroLossZeroDuplicates) {
  scenarios::ClusterSoakConfig cfg;
  cfg.fleet.users = 500;
  cfg.fleet.peak_events_per_tick = 40;
  auto report = scenarios::RunClusterSoak(cfg);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->wedged);
  EXPECT_EQ(report->committed_loss, 0u);
  EXPECT_EQ(report->log_duplicates, 0u);
  EXPECT_EQ(report->delivered_duplicates, 0u);
  EXPECT_EQ(report->delivery_gaps, 0u);
  EXPECT_EQ(report->cluster.kills, 4u) << "rolling schedule kills every broker once";
  EXPECT_GT(report->evictions, 0u);
  EXPECT_EQ(report->evictions, report->rejoins);
  EXPECT_TRUE(report->controller_consistent);
  // Factor 3 over 4 brokers absorbs the staggered kills without ever
  // going leaderless, so produce needs no retries — the disruption shows
  // up as drained leaderships and fenced in-flight commits instead.
  EXPECT_GT(report->cluster.leader_moves, 0u);
  EXPECT_GT(report->fenced_commits, 0u)
      << "kills with polls in flight must trip the generation fence";
}

TEST(ClusterSoak, NetSplitMinorityFencesMajorityCommits) {
  scenarios::ClusterSoakConfig cfg;
  cfg.fleet.users = 500;
  cfg.fleet.peak_events_per_tick = 40;
  cfg.rolling_kill = false;
  cfg.netsplit_at_turn = 3;
  auto report = scenarios::RunClusterSoak(cfg);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->wedged);
  EXPECT_TRUE(report->minority_fenced);
  EXPECT_GT(report->acked_during_split, 0u) << "majority keeps committing";
  EXPECT_EQ(report->committed_loss, 0u);
  EXPECT_EQ(report->log_duplicates, 0u);
  EXPECT_EQ(report->delivered_duplicates, 0u);
  EXPECT_EQ(report->delivery_gaps, 0u);
  EXPECT_EQ(report->cluster.netsplits, 1u);
  EXPECT_TRUE(report->controller_consistent);
}

TEST(ClusterSoak, InjectedFaultKindsFire) {
  scenarios::ClusterSoakConfig cfg;
  cfg.fleet.users = 300;
  cfg.fleet.peak_events_per_tick = 30;
  cfg.rolling_kill = false;
  cfg.fault_spec = "killbroker@p=0.2,x=4;netsplit@p=0.1,x=4";
  cfg.producer_attempts = 48;
  auto report = scenarios::RunClusterSoak(cfg);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->wedged);
  EXPECT_GT(report->cluster.kills + report->cluster.netsplits, 0u)
      << "seeded plan must fire at these probabilities";
  EXPECT_EQ(report->committed_loss, 0u);
  EXPECT_EQ(report->delivered_duplicates, 0u);
  EXPECT_EQ(report->delivery_gaps, 0u);
  EXPECT_TRUE(report->controller_consistent);
}

}  // namespace
}  // namespace arbd
