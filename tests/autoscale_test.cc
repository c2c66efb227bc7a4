// Partition autoscaling (ISSUE 9): the key-range router's prefix-free
// cover, metadata-log replay across split/merge, the exactly-once
// split/merge handoff (sealed fences, inherited dedup tables, producer
// rerouting, consumer drain of parent + children), the threshold-driven
// autoscaler, children inheriting the parent topic's seal target — plus
// the three companion regressions: atomic SeekToTimestamp,
// cluster-rerouted historical queries after a leader kill, and the
// round-robin cursor reset on rebalance.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/controller.h"
#include "cluster/placement.h"
#include "common/serialize.h"
#include "scenarios/cluster.h"
#include "stream/consumer.h"
#include "stream/log.h"
#include "stream/replication.h"

namespace arbd {
namespace {

using cluster::TopicRouter;
using stream::PartitionId;

std::vector<std::string> PoiKeys(std::size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back("poi" + std::to_string(i));
  return keys;
}

TEST(TopicRouter, IdentityMatchesBaseHashing) {
  const TopicRouter router = TopicRouter::Identity(8);
  EXPECT_EQ(router.LiveLeaves().size(), 8u);
  for (const std::string& key : PoiKeys(200)) {
    const std::uint64_t h = Fnv1a(key);
    EXPECT_EQ(router.RouteHash(h), static_cast<PartitionId>(h % 8));
  }
}

TEST(TopicRouter, SplitMovesOnlyTheParentsKeys) {
  TopicRouter router = TopicRouter::Identity(4);
  // Route everything pre-split, split one bucket's leaf, re-route: keys
  // outside the parent keep their partition; the parent's keys land on
  // exactly the two children (and both children get traffic for a large
  // enough key set).
  const auto keys = PoiKeys(400);
  std::map<std::string, PartitionId> before;
  for (const auto& k : keys) before[k] = router.RouteHash(Fnv1a(k));
  ASSERT_TRUE(router.Split(1, 4, 5).ok());
  EXPECT_TRUE(router.sealed.contains(1));
  EXPECT_FALSE(router.IsLeaf(1));
  std::set<PartitionId> child_hits;
  for (const auto& k : keys) {
    const PartitionId now = router.RouteHash(Fnv1a(k));
    if (before[k] == 1) {
      ASSERT_TRUE(now == 4 || now == 5) << k;
      child_hits.insert(now);
    } else {
      EXPECT_EQ(now, before[k]) << k;
    }
  }
  EXPECT_EQ(child_hits.size(), 2u) << "refinement bit must separate the hot keys";
  // Routing still covers every key with a live leaf (prefix-free cover).
  const auto leaves = router.LiveLeaves();
  for (const auto& k : keys) {
    const PartitionId p = router.RouteHash(Fnv1a(k));
    EXPECT_NE(std::find(leaves.begin(), leaves.end(), p), leaves.end());
  }
}

TEST(TopicRouter, MergeRestoresTheParentsRange) {
  TopicRouter router = TopicRouter::Identity(2);
  ASSERT_TRUE(router.Split(0, 2, 3).ok());
  auto sib = router.SiblingOf(2);
  ASSERT_TRUE(sib.ok());
  EXPECT_EQ(*sib, 3u);
  ASSERT_TRUE(router.Merge(2, 3, 4).ok());
  EXPECT_TRUE(router.sealed.contains(2));
  EXPECT_TRUE(router.sealed.contains(3));
  // The merged partition now owns exactly what partition 0 owned.
  for (const auto& k : PoiKeys(300)) {
    const std::uint64_t h = Fnv1a(k);
    const PartitionId p = router.RouteHash(h);
    EXPECT_EQ(p, h % 2 == 0 ? 4u : 1u) << k;
  }
  // Depth-0 leaves have no sibling; double-merge of sealed leaves fails.
  EXPECT_FALSE(router.SiblingOf(1).ok());
  EXPECT_FALSE(router.Merge(2, 3, 5).ok());
}

TEST(TopicRouter, EncodeIsCanonical) {
  TopicRouter a = TopicRouter::Identity(2);
  ASSERT_TRUE(a.Split(1, 2, 3).ok());
  TopicRouter b = TopicRouter::Identity(2);
  ASSERT_TRUE(b.Split(1, 2, 3).ok());
  EXPECT_EQ(a.Encode(), b.Encode());
  ASSERT_TRUE(a.Merge(2, 3, 4).ok());
  EXPECT_NE(a.Encode(), b.Encode());
}

TEST(Autoscale, SplitAndMergeReplayConsistently) {
  // Every split/merge lands in the metadata log before live state moves,
  // so replaying the log through a fresh state machine must reproduce the
  // live digest — routers included.
  SimClock clock;
  stream::Broker broker(clock);
  cluster::ClusterConfig cc;
  cc.brokers = 3;
  cluster::BrokerCluster cluster(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 2;
  tc.replication_factor = 2;
  ASSERT_TRUE(cluster.CreateTopic("scale", tc).ok());

  ASSERT_TRUE(cluster.SplitPartition("scale", 1).ok());
  EXPECT_TRUE(cluster.IsSealed("scale", 1));
  EXPECT_EQ(cluster.LiveLeaves("scale"), (std::vector<PartitionId>{0, 2, 3}));
  ASSERT_TRUE(cluster.MergePartitions("scale", 2, 3).ok());
  EXPECT_EQ(cluster.LiveLeaves("scale"), (std::vector<PartitionId>{0, 4}));
  EXPECT_EQ(cluster.stats().splits, 1u);
  EXPECT_EQ(cluster.stats().merges, 1u);

  auto replay = cluster.controller().ReplayDigest();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(*replay, cluster.controller().StateDigest());

  // Invalid transitions are rejected without touching the log.
  const std::uint64_t events = cluster.controller().appended();
  EXPECT_FALSE(cluster.SplitPartition("scale", 1).ok());  // sealed parent
  EXPECT_FALSE(cluster.MergePartitions("scale", 0, 4).ok());  // not siblings
  EXPECT_EQ(cluster.controller().appended(), events);
}

TEST(Autoscale, SealedParentKeepsDedupButRejectsNewRecords) {
  SimClock clock;
  stream::Broker broker(clock);
  cluster::ClusterConfig cc;
  cc.brokers = 2;
  cluster::BrokerCluster cluster(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 1;
  tc.replication_factor = 2;
  ASSERT_TRUE(cluster.CreateTopic("fence", tc).ok());

  const stream::ProducerId pid = broker.AllocateProducerId();
  auto first = broker.ProduceIdempotent(
      "fence", 0, pid, 1, stream::Record::Make("k", {1}, TimePoint() + Duration::Millis(1)));
  ASSERT_TRUE(first.ok());

  ASSERT_TRUE(cluster.SplitPartition("fence", 0).ok());

  // A retry of the committed (pid, seq) still dedups to the original
  // offset — the sealed fence must not turn an ack-lost retry into loss.
  auto retry = broker.ProduceIdempotent(
      "fence", 0, pid, 1, stream::Record::Make("k", {1}, TimePoint() + Duration::Millis(1)));
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, *first);
  // A fresh record is turned away.
  auto fresh = broker.ProduceIdempotent(
      "fence", 0, pid, 2, stream::Record::Make("k", {2}, TimePoint() + Duration::Millis(2)));
  ASSERT_FALSE(fresh.ok());
  EXPECT_EQ(fresh.status().code(), StatusCode::kFailedPrecondition);
  // The children inherited the committed floor.
  EXPECT_EQ(cluster.DedupFloor("fence", 1, pid), 1u);
  EXPECT_EQ(cluster.DedupFloor("fence", 2, pid), 1u);
}

TEST(Autoscale, ProducerHandsOffAcrossSplitExactlyOnce) {
  // The handoff race: a send is already routed (sequence drawn) when the
  // autoscaler seals its target. Forced here with a chaos rule that
  // splits on every cluster tick — the ticks a send's own backoff loop
  // drives while it waits out a killed leader broker. The retry must
  // migrate to the child that now owns the key, exactly once.
  SimClock clock;
  stream::Broker broker(clock);
  cluster::ClusterConfig cc;
  cc.brokers = 2;
  cc.autoscale.enabled = true;
  cc.autoscale.split_rate_threshold = 0;  // forced splits only
  cc.autoscale.merge_cold_ticks = 1000000;
  cluster::BrokerCluster cluster(broker, cc);
  auto plan = fault::FaultPlan::Parse("autosplit@p=1");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(*plan, 7);
  cluster.set_fault_injector(&injector);

  stream::TopicConfig tc;
  tc.partitions = 1;
  tc.replication_factor = 1;  // no failover replica: the kill blocks sends
  ASSERT_TRUE(cluster.CreateTopic("handoff", tc).ok());
  fault::RetryPolicy retry;
  retry.max_attempts = 32;
  cluster::ClusterProducer producer(cluster, broker, "handoff", retry, 3);

  const auto keys = PoiKeys(8);
  std::int64_t id = 0;
  auto send = [&](const std::string& key) {
    ++id;
    auto sent = producer.Send(
        stream::Record::Make(key, {1}, TimePoint() + Duration::Millis(id)));
    ASSERT_TRUE(sent.ok()) << sent.status().message();
  };
  for (const auto& k : keys) send(k);

  // Kill partition 0's only host: the next send backs off, its ticks fire
  // the forced split, and the retry lands on the child.
  auto leader = cluster.LeaderBroker("handoff", 0);
  ASSERT_TRUE(leader.ok());
  ASSERT_TRUE(cluster.KillBroker(*leader, 2).ok());
  for (const auto& k : keys) send(k);
  EXPECT_GT(producer.handoffs(), 0u);
  EXPECT_GT(cluster.stats().splits, 0u);
  for (const auto& k : keys) send(k);

  // Exactly-once audit: every identity exactly once across parent +
  // children, none lost, none doubled.
  auto topic = broker.GetTopic("handoff");
  ASSERT_TRUE(topic.ok());
  std::map<std::int64_t, int> copies;
  for (PartitionId p = 0; p < (*topic)->partition_count(); ++p) {
    const auto& part = (*topic)->partition(p);
    auto rows = part.Fetch(part.log_start_offset(), part.size());
    ASSERT_TRUE(rows.ok());
    for (const auto& sr : *rows) ++copies[sr.record.event_time.nanos()];
  }
  EXPECT_EQ(copies.size(), static_cast<std::size_t>(id));
  for (const auto& [ident, n] : copies) EXPECT_EQ(n, 1) << ident;
}

TEST(Autoscale, HandoffOntoMergedPartitionNeverFalseAcks) {
  // Regression: a merged partition's dedup table is the max over TWO
  // sibling seq streams. A send that was in flight to sibling A (low seq)
  // when the merge sealed it must NOT be replayed onto the merged
  // partition with its A-stream number: if sibling B's stream ran ahead,
  // that number dedups against one of B's records and the producer acks a
  // record that was never committed anywhere. The handoff must instead
  // draw a fresh seq on the merged partition's own stream — the sealed
  // parent's kFailedPrecondition (dedup check runs before the seal check)
  // has already proven the record uncommitted.
  SimClock clock;
  stream::Broker broker(clock);
  cluster::ClusterConfig cc;
  cc.brokers = 2;
  cc.autoscale.enabled = true;
  cc.autoscale.split_rate_threshold = 0;   // no threshold splits
  cc.autoscale.merge_cold_ticks = 1000000; // forced merges only
  cluster::BrokerCluster cluster(broker, cc);
  auto plan = fault::FaultPlan::Parse("automerge@p=1");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(*plan, 11);
  cluster.set_fault_injector(&injector);

  stream::TopicConfig tc;
  tc.partitions = 1;
  tc.replication_factor = 1;  // no failover: the kill opens the race window
  ASSERT_TRUE(cluster.CreateTopic("mergecol", tc).ok());
  ASSERT_TRUE(cluster.SplitPartition("mergecol", 0).ok());  // children 1, 2

  // One key per child of the split.
  std::string ka, kb;
  for (const auto& k : PoiKeys(64)) {
    auto p = cluster.RoutePartition("mergecol", k);
    ASSERT_TRUE(p.ok());
    if (*p == 1 && ka.empty()) ka = k;
    if (*p == 2 && kb.empty()) kb = k;
  }
  ASSERT_FALSE(ka.empty());
  ASSERT_FALSE(kb.empty());

  fault::RetryPolicy retry;
  retry.max_attempts = 64;
  cluster::ClusterProducer producer(cluster, broker, "mergecol", retry, 3);
  std::int64_t id = 0;
  auto send = [&](const std::string& key) {
    ++id;
    auto sent = producer.Send(
        stream::Record::Make(key, {1}, TimePoint() + Duration::Millis(id)));
    ASSERT_TRUE(sent.ok()) << sent.status().message();
  };
  // Run sibling 2's seq stream well past sibling 1's.
  send(ka);                                  // partition 1: seqs up to 1
  for (int i = 0; i < 9; ++i) send(kb);      // partition 2: seqs up to 9

  // Kill partition 1's only host, then send to it: the backoff ticks fire
  // the forced merge (sealing 1 and 2 into a merged partition whose
  // inherited last-seq is sibling 2's 9), and the retry must hand the
  // record off as seq 10 — not replay seq 2 into a dedup false-positive.
  auto leader = cluster.LeaderBroker("mergecol", 1);
  ASSERT_TRUE(leader.ok());
  ASSERT_TRUE(cluster.KillBroker(*leader, 4).ok());
  send(ka);
  EXPECT_GE(cluster.stats().merges, 1u);
  EXPECT_EQ(producer.handoffs(), 1u);

  // Every identity committed exactly once; in particular the handed-off
  // record exists (a false ack leaves it missing everywhere).
  auto topic = broker.GetTopic("mergecol");
  ASSERT_TRUE(topic.ok());
  std::map<std::int64_t, int> copies;
  for (PartitionId p = 0; p < (*topic)->partition_count(); ++p) {
    const auto& part = (*topic)->partition(p);
    auto rows = part.Fetch(part.log_start_offset(), part.size());
    ASSERT_TRUE(rows.ok());
    for (const auto& sr : *rows) ++copies[sr.record.event_time.nanos()];
  }
  EXPECT_EQ(copies.size(), static_cast<std::size_t>(id));
  for (const auto& [ident, n] : copies) EXPECT_EQ(n, 1) << ident;
}

TEST(Autoscale, ConsumerGroupDrainsParentAndChildren) {
  SimClock clock;
  stream::Broker broker(clock);
  cluster::ClusterConfig cc;
  cc.brokers = 2;
  cluster::BrokerCluster cluster(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 2;
  tc.replication_factor = 2;
  ASSERT_TRUE(cluster.CreateTopic("drain", tc).ok());
  cluster::ClusterProducer producer(cluster, broker, "drain");
  stream::ConsumerGroup group(broker, "g", "drain");
  auto joined = group.Join("m0");
  ASSERT_TRUE(joined.ok());

  std::set<std::int64_t> acked;
  std::int64_t id = 0;
  auto send_all = [&] {
    for (const auto& k : PoiKeys(6)) {
      ++id;
      auto sent = producer.Send(
          stream::Record::Make(k, {1}, TimePoint() + Duration::Millis(id)));
      ASSERT_TRUE(sent.ok());
      acked.insert(id * 1000000);  // Millis -> nanos
    }
  };
  for (int round = 0; round < 5; ++round) send_all();
  ASSERT_TRUE(cluster.SplitPartition("drain", 0).ok());
  // The group sees the new partitions on its next sync and rebalances.
  EXPECT_TRUE(group.SyncPartitions());
  EXPECT_FALSE(group.SyncPartitions()) << "second sync must be a no-op";
  for (int round = 0; round < 5; ++round) send_all();

  std::multiset<std::int64_t> delivered;
  while (group.TotalLag() > 0) {
    const auto rows = (*joined)->Poll(64);
    for (const auto& sr : rows) delivered.insert(sr.record.event_time.nanos());
    ASSERT_TRUE((*joined)->Commit().ok());
    if (rows.empty()) break;
  }
  EXPECT_EQ(delivered.size(), acked.size());
  for (const std::int64_t ident : acked) {
    EXPECT_EQ(delivered.count(ident), 1u) << ident;
  }
}

TEST(Autoscale, ThresholdDrivenSplitFiresFromTick) {
  SimClock clock;
  stream::Broker broker(clock);
  cluster::ClusterConfig cc;
  cc.brokers = 2;
  cc.autoscale.enabled = true;
  cc.autoscale.split_rate_threshold = 16;
  cc.autoscale.merge_cold_ticks = 1000;  // no merges in this test
  cluster::BrokerCluster cluster(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 2;
  tc.replication_factor = 2;
  ASSERT_TRUE(cluster.CreateTopic("hot", tc).ok());
  cluster::ClusterProducer producer(cluster, broker, "hot");

  // Several hot keys (a single key is one hash and cannot be split apart)
  // hammered between ticks until the rate threshold trips.
  const auto keys = PoiKeys(8);
  std::int64_t id = 0;
  for (int tick = 0; tick < 6; ++tick) {
    for (int n = 0; n < 8; ++n) {
      for (const auto& k : keys) {
        ++id;
        ASSERT_TRUE(producer
                        .Send(stream::Record::Make(
                            k, {1}, TimePoint() + Duration::Millis(id)))
                        .ok());
      }
    }
    cluster.Tick();
  }
  EXPECT_GT(cluster.stats().splits, 0u);
  EXPECT_TRUE(cluster.HasRouter("hot"));
  auto replay = cluster.controller().ReplayDigest();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(*replay, cluster.controller().StateDigest());
}

TEST(Autoscale, ColdSiblingsMergeBack) {
  SimClock clock;
  stream::Broker broker(clock);
  cluster::ClusterConfig cc;
  cc.brokers = 2;
  cc.autoscale.enabled = true;
  cc.autoscale.split_rate_threshold = 0;  // disabled: 0 never trips
  cc.autoscale.merge_rate_threshold = 2;
  cc.autoscale.merge_cold_ticks = 3;
  cluster::BrokerCluster cluster(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 1;
  tc.replication_factor = 2;
  ASSERT_TRUE(cluster.CreateTopic("cold", tc).ok());
  ASSERT_TRUE(cluster.SplitPartition("cold", 0).ok());
  ASSERT_EQ(cluster.LiveLeaves("cold").size(), 2u);
  // Idle ticks: both children stay under the merge rate long enough.
  for (int tick = 0; tick < 6; ++tick) cluster.Tick();
  EXPECT_EQ(cluster.stats().merges, 1u);
  EXPECT_EQ(cluster.LiveLeaves("cold").size(), 1u);
  auto replay = cluster.controller().ReplayDigest();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(*replay, cluster.controller().StateDigest());
}

TEST(Autoscale, SplitChildrenSealAtTheParentsTarget) {
  // The seal target is a topic setting captured by every partition when
  // it is built, so the children a split creates seal where the parent
  // topic does — here every 8 rows of 16 key+payload bytes — and a flat
  // topic's children stay flat, whatever the process default.
  SimClock clock;
  stream::Broker broker(clock);
  cluster::ClusterConfig cc;
  cc.brokers = 2;
  cluster::BrokerCluster cluster(broker, cc);
  for (const std::size_t target : {128u, 0u}) {
    const std::string name = "segsplit" + std::to_string(target);
    stream::TopicConfig tc;
    tc.partitions = 1;
    tc.replication_factor = 1;
    tc.segment_bytes = target;
    ASSERT_TRUE(cluster.CreateTopic(name, tc).ok());
    ASSERT_TRUE(cluster.SplitPartition(name, 0).ok());
    ASSERT_EQ(cluster.LiveLeaves(name), (std::vector<PartitionId>{1, 2}));
    auto topic = broker.GetTopic(name);
    ASSERT_TRUE(topic.ok());
    for (const PartitionId child : {PartitionId{1}, PartitionId{2}}) {
      for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(broker
                        .ProduceToPartition(name, child,
                                            stream::Record::MakeText(
                                                "k" + std::to_string(i % 10),
                                                std::string(14, 'v'), TimePoint::FromMillis(i)))
                        .ok());
      }
      EXPECT_EQ((*topic)->partition(child).sealed_segment_count(), target == 0 ? 0u : 8u)
          << name << " child " << child;
    }
  }
}

TEST(Autoscale, ArmedButIdleMatchesFlatDigest) {
  // An armed autoscaler whose split threshold no per-tick rate reaches
  // must be byte-identical to the flat soak: same records, same draws,
  // same committed digest, no split, no handoff.
  scenarios::ClusterSoakConfig flat_cfg;
  flat_cfg.brokers = 3;
  flat_cfg.partitions = 4;
  flat_cfg.consumers = 2;
  flat_cfg.fleet.users = 500;
  flat_cfg.fleet.hotspots = 16;
  flat_cfg.fleet.ticks = 8;
  flat_cfg.fleet.peak_events_per_tick = 40;
  auto flat = scenarios::RunClusterSoak(flat_cfg);
  ASSERT_TRUE(flat.ok());
  scenarios::ClusterSoakConfig idle_cfg = flat_cfg;
  idle_cfg.autoscale.enabled = true;
  idle_cfg.autoscale.split_rate_threshold = std::numeric_limits<std::uint64_t>::max();
  auto idle = scenarios::RunClusterSoak(idle_cfg);
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(idle->committed_digest, flat->committed_digest);
  EXPECT_EQ(idle->acked, flat->acked);
  EXPECT_EQ(idle->cluster.splits, 0u);
  EXPECT_EQ(idle->producer_handoffs, 0u);
}

// --- regression: Consumer::SeekToTimestamp must be atomic -------------

// A gate that denies fetches (and thus OffsetForTimestamp) on one
// partition — the shape of a dead leader broker mid-seek.
class DenyFetchGate : public stream::ClusterGate {
 public:
  explicit DenyFetchGate(PartitionId deny) : deny_(deny) {}
  Status AdmitProduceRequest(const std::string&, PartitionId, std::uint64_t) override {
    return Status::Ok();
  }
  Status AdmitFetchRequest(const std::string&, PartitionId p, std::uint64_t) override {
    if (p == deny_) return Status::Unavailable("leader broker down");
    return Status::Ok();
  }

 private:
  PartitionId deny_;
};

TEST(SeekRegression, FailedSeekLeavesEveryPositionUntouched) {
  SimClock clock;
  stream::Broker broker(clock);
  stream::TopicConfig tc;
  tc.partitions = 2;
  ASSERT_TRUE(broker.CreateTopic("seek", tc).ok());
  // Ten records per partition, event times 1..10ms and 11..20ms.
  std::int64_t id = 0;
  for (PartitionId p = 0; p < 2; ++p) {
    for (int n = 0; n < 10; ++n) {
      ++id;
      ASSERT_TRUE(broker
                      .ProduceToPartition("seek", p,
                                          stream::Record::Make(
                                              "k", {1}, TimePoint() + Duration::Millis(id)))
                      .ok());
    }
  }
  stream::ConsumerGroup group(broker, "g", "seek");
  auto joined = group.Join("m0");
  ASSERT_TRUE(joined.ok());

  // Partition 1's timestamp lookup is denied: the seek must fail as a
  // whole. Before the fix, partition 0 (iterated first) had already been
  // repositioned to the 8ms offset, silently skipping its first seven
  // records.
  DenyFetchGate gate(1);
  broker.set_cluster_gate(&gate);
  auto seek = (*joined)->SeekToTimestamp(TimePoint() + Duration::Millis(8));
  EXPECT_FALSE(seek.ok());
  EXPECT_EQ(seek.code(), StatusCode::kUnavailable);
  broker.set_cluster_gate(nullptr);

  std::set<std::int64_t> delivered;
  while (group.TotalLag() > 0) {
    const auto rows = (*joined)->Poll(64);
    if (rows.empty()) break;
    for (const auto& sr : rows) delivered.insert(sr.record.event_time.nanos());
    ASSERT_TRUE((*joined)->Commit().ok());
  }
  EXPECT_EQ(delivered.size(), 20u)
      << "a failed seek must not move any partition's position";
}

// --- regression: historical queries must survive a leader kill --------

TEST(QueryRerouteRegression, ClusterQueryCompletesReplayAfterLeaderKill) {
  SimClock clock;
  stream::Broker broker(clock);
  cluster::ClusterConfig cc;
  cc.brokers = 3;
  cluster::BrokerCluster cluster(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 2;
  // Factor 1: no failover replica, so the kill leaves the partition
  // unreachable until the restore window drains — the regime where the
  // old direct query path failed a session replay outright.
  tc.replication_factor = 1;
  ASSERT_TRUE(cluster.CreateTopic("replay", tc).ok());
  cluster::ClusterProducer producer(cluster, broker, "replay");
  std::int64_t id = 0;
  for (int n = 0; n < 30; ++n) {
    ++id;
    ASSERT_TRUE(producer
                    .Send(stream::Record::Make("poi" + std::to_string(n % 5), {1},
                                               TimePoint() + Duration::Millis(id)))
                    .ok());
  }

  // Kill partition 0's leader broker mid-session. The raw broker query
  // surfaces the gate rejection directly — the defect this regression
  // pins — while the cluster-aware query retries through ticks until the
  // window drains and a successor leads.
  auto leader = cluster.LeaderBroker("replay", 0);
  ASSERT_TRUE(leader.ok());
  ASSERT_TRUE(cluster.KillBroker(*leader, 4).ok());

  auto direct = broker.QueryRange("replay", 0, 0, 1000);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kUnavailable);

  fault::RetryPolicy retry;
  retry.max_attempts = 16;
  cluster::ClusterQuery query(cluster, broker, "replay", retry);
  auto topic = broker.GetTopic("replay");
  ASSERT_TRUE(topic.ok());
  std::size_t replayed = 0;
  for (PartitionId p = 0; p < (*topic)->partition_count(); ++p) {
    auto rows = query.QueryRange(p, 0, 1000);
    ASSERT_TRUE(rows.ok()) << "partition " << p << ": " << rows.status().message();
    replayed += rows->rows.size();
  }
  EXPECT_EQ(replayed, 30u);
  EXPECT_GT(query.retries(), 0u);
  EXPECT_EQ(query.exhausted(), 0u);

  // The timestamp path reroutes the same way.
  auto off = query.OffsetForTimestamp(0, TimePoint());
  EXPECT_TRUE(off.ok());
}

// --- regression: round-robin cursor reset on rebalance ----------------

TEST(CursorRegression, RebalanceRestartsPollRotationAtFirstPartition) {
  SimClock clock;
  stream::Broker broker(clock);
  stream::TopicConfig tc;
  tc.partitions = 4;
  ASSERT_TRUE(broker.CreateTopic("rr", tc).ok());
  for (PartitionId p = 0; p < 4; ++p) {
    ASSERT_TRUE(broker
                    .ProduceToPartition("rr", p,
                                        stream::Record::Make(
                                            "k", {1}, TimePoint() + Duration::Millis(p + 1)))
                    .ok());
  }
  stream::ConsumerGroup group(broker, "g", "rr");
  auto joined = group.Join("m0");
  ASSERT_TRUE(joined.ok());

  // One poll advances the rotation cursor past partition 0.
  auto first = (*joined)->Poll(1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].partition, 0u);

  // A rebalance (here: the assignment grows by a split-created partition)
  // rebuilds the assignment list. The carried-over cursor used to start
  // the next poll mid-list — on a shrink it could skip a partition for a
  // full rotation. Post-rebalance rotation must restart at the list head.
  auto topic = broker.GetTopic("rr");
  ASSERT_TRUE(topic.ok());
  (*topic)->AddPartitions(1);
  ASSERT_TRUE(group.SyncPartitions());
  auto again = (*joined)->Poll(1);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].partition, 0u)
      << "poll rotation must restart at the assignment head after a rebalance";

  // And a full PollBatches sweep visits each partition at most once.
  const auto batches = (*joined)->PollBatches(64);
  std::set<PartitionId> seen;
  for (const auto& b : batches) {
    EXPECT_TRUE(seen.insert(b.partition()).second)
        << "partition " << b.partition() << " visited twice in one poll";
  }
}

}  // namespace
}  // namespace arbd
