// Gray-failure tolerance (ISSUE 10): brownout fault kinds, deadline
// propagation through the cluster producer/consumer, hedged reads, and
// health-driven leadership demotion. The recurring shape: every feature
// is off by default and byte-identical to the pre-gray-failure build
// (digest-proven via the cluster soak), and on, it is deterministic —
// drops are pure hashes frozen within a tick, hedge picks are pure
// hashes over slot-ordered ISR candidates, health verdicts fold
// driver-serially once per tick.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.h"
#include "cluster/hedge.h"
#include "common/deadline.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "scenarios/cluster.h"
#include "scenarios/replay.h"
#include "stream/consumer.h"
#include "stream/log.h"

namespace arbd {
namespace {

using cluster::BrokerCluster;
using cluster::ClusterConfig;
using cluster::HedgedReader;

stream::Record Rec(int i) {
  return stream::Record::MakeText("k" + std::to_string(i % 7),
                                  "v" + std::to_string(i),
                                  TimePoint::FromMillis(i + 1));
}

// --- gray fault kinds ---------------------------------------------------

TEST(GrayFaults, SlowBrokerAndLossyLinkParse) {
  auto plan = fault::FaultPlan::Parse(
      "slowbroker@p=0.5,x=8,ms=6;lossylink@p=0.4,x=0.35,ms=4");
  ASSERT_TRUE(plan.ok());
  const auto* slow = plan->Find(fault::FaultKind::kSlowBroker);
  ASSERT_NE(slow, nullptr);
  EXPECT_DOUBLE_EQ(slow->probability, 0.5);
  EXPECT_DOUBLE_EQ(slow->magnitude, 8.0);
  EXPECT_EQ(slow->duration.millis(), 6);
  const auto* lossy = plan->Find(fault::FaultKind::kLossyLink);
  ASSERT_NE(lossy, nullptr);
  EXPECT_DOUBLE_EQ(lossy->magnitude, 0.35);
  // Round-trips through the canonical spec string.
  auto reparsed = fault::FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_NE(reparsed->Find(fault::FaultKind::kSlowBroker), nullptr);
  EXPECT_NE(reparsed->Find(fault::FaultKind::kLossyLink), nullptr);
}

TEST(GrayFaults, SlowBrokerInflatesOpLatencyUntilExpiry) {
  SimClock clock;
  stream::Broker broker(clock);
  ClusterConfig cc;
  cc.brokers = 2;
  BrokerCluster cluster(broker, cc);
  const Duration base = cc.base_op_latency;

  EXPECT_EQ(cluster.OpLatency(0).nanos(), base.nanos());
  ASSERT_TRUE(cluster.SlowBroker(0, 8.0, 3).ok());
  EXPECT_EQ(cluster.OpLatency(0).nanos(), base.nanos() * 8);
  EXPECT_EQ(cluster.OpLatency(1).nanos(), base.nanos());  // only the victim
  EXPECT_EQ(cluster.stats().slow_brownouts, 1u);

  for (int i = 0; i < 3; ++i) cluster.Tick();
  EXPECT_EQ(cluster.OpLatency(0).nanos(), base.nanos()) << "brownout must expire";

  // Invalid arms are rejected.
  EXPECT_FALSE(cluster.SlowBroker(0, 0.5, 3).ok()) << "factor < 1 is not a brownout";
  EXPECT_FALSE(cluster.SlowBroker(9, 2.0, 3).ok()) << "broker out of range";
  EXPECT_FALSE(cluster.LossyLink(0, 1.5, 3).ok()) << "drop probability > 1";
}

TEST(GrayFaults, LossyDropsAreTickFrozenRetriableAndExpire) {
  SimClock clock;
  stream::Broker broker(clock);
  ClusterConfig cc;
  cc.brokers = 2;
  cc.seed = 11;
  BrokerCluster cluster(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 2;
  tc.replication_factor = 1;
  ASSERT_TRUE(cluster.CreateTopic("t", tc).ok());

  auto leader = cluster.LeaderBroker("t", 0);
  ASSERT_TRUE(leader.ok());
  ASSERT_TRUE(cluster.LossyLink(*leader, 0.5, 4).ok());

  // Within a tick the drop verdict for a request id is frozen: parallel
  // fan-outs and immediate retries of the same identity agree.
  std::vector<bool> first;
  int drops = 0, admits = 0;
  for (std::uint64_t id = 0; id < 200; ++id) {
    const Status s1 = cluster.AdmitProduceRequest("t", 0, id);
    const Status s2 = cluster.AdmitProduceRequest("t", 0, id);
    EXPECT_EQ(s1.code(), s2.code()) << id;
    first.push_back(s1.ok());
    if (s1.ok()) {
      ++admits;
    } else {
      ++drops;
      EXPECT_EQ(s1.code(), StatusCode::kUnavailable) << "drops must be retriable";
    }
  }
  EXPECT_GT(drops, 0);
  EXPECT_GT(admits, 0);
  EXPECT_GT(cluster.stats().lossy_drops, 0u);

  // Across a tick the schedule re-draws: a retry that waited out the tick
  // can make progress even at high drop rates.
  cluster.Tick();
  int changed = 0;
  for (std::uint64_t id = 0; id < 200; ++id) {
    if (cluster.AdmitProduceRequest("t", 0, id).ok() != first[id]) ++changed;
  }
  EXPECT_GT(changed, 0) << "drop schedule must re-draw across ticks";

  // And the window expires.
  for (int i = 0; i < 4; ++i) cluster.Tick();
  for (std::uint64_t id = 0; id < 50; ++id) {
    EXPECT_TRUE(cluster.AdmitProduceRequest("t", 0, id).ok()) << id;
  }
}

TEST(GrayFaults, InjectedBrownoutKindsFireFromAPlan) {
  SimClock clock;
  stream::Broker broker(clock);
  ClusterConfig cc;
  cc.brokers = 3;
  BrokerCluster cluster(broker, cc);
  auto plan =
      fault::FaultPlan::Parse("slowbroker@p=1,x=4,ms=2;lossylink@p=1,x=0.5,ms=2");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(*plan, 3);
  cluster.set_fault_injector(&injector);

  cluster.Tick();
  const auto stats = cluster.stats();
  EXPECT_GE(stats.slow_brownouts, 1u);
  EXPECT_GE(stats.lossy_brownouts, 1u);
  bool some_slow = false;
  for (cluster::BrokerId b = 0; b < cc.brokers; ++b) {
    if (cluster.OpLatency(b).nanos() == cc.base_op_latency.nanos() * 4) some_slow = true;
  }
  EXPECT_TRUE(some_slow) << "the injected slowbroker must inflate a victim's latency";
}

// --- deadline propagation ----------------------------------------------

TEST(DeadlineProp, ExhaustedBudgetShortCircuitsTheProducer) {
  SimClock clock;
  stream::Broker broker(clock);
  ClusterConfig cc;
  cc.brokers = 2;
  BrokerCluster cluster(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 2;
  ASSERT_TRUE(cluster.CreateTopic("t", tc).ok());
  cluster::ClusterProducer producer(cluster, broker, "t");

  Deadline spent = Deadline::WithBudget(Duration::Zero());
  auto sent = producer.Send(Rec(0), &spent);
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(producer.deadline_exhausted(), 1u);
  // Nothing was appended: the frame dropped the record at the producer.
  auto t = broker.GetTopic("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->partition(0).size() + (*t)->partition(1).size(), 0u);
}

TEST(DeadlineProp, SendChargesModeledOpLatencyAgainstTheBudget) {
  SimClock clock;
  stream::Broker broker(clock);
  ClusterConfig cc;
  cc.brokers = 2;
  BrokerCluster cluster(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 2;
  ASSERT_TRUE(cluster.CreateTopic("t", tc).ok());
  cluster::ClusterProducer producer(cluster, broker, "t");

  Deadline d = Deadline::WithBudget(Duration::Millis(10));
  ASSERT_TRUE(producer.Send(Rec(0), &d).ok());
  EXPECT_EQ(d.spent().nanos(), cc.base_op_latency.nanos())
      << "a clean send costs exactly one op on the leader";
  // A browned-out leader charges its inflated latency.
  auto leader = cluster.LeaderBroker("t", (*broker.GetTopic("t"))->PartitionFor(Rec(1).key));
  ASSERT_TRUE(leader.ok());
  ASSERT_TRUE(cluster.SlowBroker(*leader, 8.0, 10).ok());
  const Duration before = d.spent();
  ASSERT_TRUE(producer.Send(Rec(1), &d).ok());
  EXPECT_EQ((d.spent() - before).nanos(), cc.base_op_latency.nanos() * 8);
}

TEST(DeadlineProp, ConsumerPollStopsAtTheBudget) {
  SimClock clock;
  stream::Broker broker(clock);
  stream::TopicConfig tc;
  tc.partitions = 2;
  ASSERT_TRUE(broker.CreateTopic("t", tc).ok());
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(broker.Produce("t", Rec(i)).ok());

  stream::ConsumerGroup group(broker, "g", "t");
  auto consumer = group.Join("c0");
  ASSERT_TRUE(consumer.ok());

  // An exhausted budget polls nothing; a null deadline is the original
  // unbounded poll, byte for byte.
  Deadline gone = Deadline::WithBudget(Duration::Zero());
  EXPECT_TRUE((*consumer)->Poll(100, &gone).empty());
  EXPECT_EQ((*consumer)->Poll(100).size(), 20u);
}

// --- hedged reads -------------------------------------------------------

TEST(Hedging, SecondaryWinsUnderBrownoutAndMatchesThePrimaryBytes) {
  SimClock clock;
  stream::Broker broker(clock);
  ClusterConfig cc;
  cc.brokers = 3;
  BrokerCluster cluster(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 2;
  tc.replication_factor = 3;
  ASSERT_TRUE(cluster.CreateTopic("t", tc).ok());
  cluster::ClusterProducer producer(cluster, broker, "t");
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(producer.Send(Rec(i)).ok());

  auto leader = cluster.LeaderBroker("t", 0);
  ASSERT_TRUE(leader.ok());
  ASSERT_TRUE(cluster.SlowBroker(*leader, 16.0, 100).ok());

  // Hedging off: reads still work (the brownout is slow, not dead), and
  // no secondary ever fires.
  HedgedReader off(cluster, broker, "t");
  auto baseline = off.Fetch(0, 0, 1000);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(off.stats().hedged, 0u);
  EXPECT_EQ(off.stats().primary_wins, 1u);

  // Hedging on: the slow primary loses the race to an ISR secondary, and
  // the rows are byte-identical (the secondary reads the quorum-acked
  // prefix the leader would have served).
  cluster::HedgeConfig hc;
  hc.enabled = true;
  HedgedReader on(cluster, broker, "t", hc);
  auto hedged = on.Fetch(0, 0, 1000);
  ASSERT_TRUE(hedged.ok());
  EXPECT_GE(on.stats().hedged, 1u);
  EXPECT_GE(on.stats().secondary_wins, 1u);
  ASSERT_EQ(hedged->size(), baseline->size());
  for (std::size_t i = 0; i < hedged->size(); ++i) {
    EXPECT_EQ((*hedged)[i].offset, (*baseline)[i].offset);
    EXPECT_EQ((*hedged)[i].record.TextPayload(), (*baseline)[i].record.TextPayload());
  }

  // Deterministic: a same-seeded reader repeats the identical race.
  HedgedReader again(cluster, broker, "t", hc);
  auto replay = again.Fetch(0, 0, 1000);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(again.stats().hedged, on.stats().hedged);
  EXPECT_EQ(again.stats().secondary_wins, on.stats().secondary_wins);
}

TEST(Hedging, HealthyLeaderNeverHedges) {
  SimClock clock;
  stream::Broker broker(clock);
  ClusterConfig cc;
  cc.brokers = 3;
  BrokerCluster cluster(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 2;
  tc.replication_factor = 3;
  ASSERT_TRUE(cluster.CreateTopic("t", tc).ok());
  cluster::ClusterProducer producer(cluster, broker, "t");
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(producer.Send(Rec(i)).ok());

  cluster::HedgeConfig hc;
  hc.enabled = true;
  HedgedReader reader(cluster, broker, "t", hc);
  for (stream::PartitionId p = 0; p < 2; ++p) {
    ASSERT_TRUE(reader.Fetch(p, 0, 1000).ok());
  }
  // Base latency never exceeds the warmed-up hedge delay (a >= p95
  // quantile of itself), so healthy traffic pays zero hedging overhead.
  EXPECT_EQ(reader.stats().hedged, 0u);
  EXPECT_EQ(reader.stats().primary_wins, 2u);
}

TEST(Hedging, QueryEntryPointsHedgeToo) {
  SimClock clock;
  stream::Broker broker(clock);
  ClusterConfig cc;
  cc.brokers = 3;
  BrokerCluster cluster(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 1;
  tc.replication_factor = 3;
  ASSERT_TRUE(cluster.CreateTopic("t", tc).ok());
  cluster::ClusterProducer producer(cluster, broker, "t");
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(producer.Send(Rec(i)).ok());
  auto leader = cluster.LeaderBroker("t", 0);
  ASSERT_TRUE(leader.ok());
  ASSERT_TRUE(cluster.SlowBroker(*leader, 16.0, 100).ok());

  cluster::HedgeConfig hc;
  hc.enabled = true;
  HedgedReader reader(cluster, broker, "t", hc);
  auto range = reader.QueryRange(0, 0, 1000);
  ASSERT_TRUE(range.ok());
  auto time = reader.QueryTime(0, TimePoint::FromMillis(0), TimePoint::FromMillis(1000));
  ASSERT_TRUE(time.ok());
  EXPECT_EQ(reader.stats().issued, 2u);
  EXPECT_EQ(reader.stats().hedged, 2u);
  EXPECT_EQ(reader.stats().secondary_wins, 2u);
  // Both read the same committed prefix the gate-admitted path serves.
  auto direct = broker.QueryRange("t", 0, 0, 1000);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(range->rows.size(), direct->rows.size());
}

// --- health-driven demotion ---------------------------------------------

TEST(Health, BrownoutDemotesLeadershipsAndRecoveryRestores) {
  SimClock clock;
  stream::Broker broker(clock);
  ClusterConfig cc;
  cc.brokers = 3;
  cc.health.enabled = true;
  cc.health.recover_ticks = 2;
  BrokerCluster cluster(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 4;
  tc.replication_factor = 3;
  ASSERT_TRUE(cluster.CreateTopic("t", tc).ok());
  cluster::ClusterProducer producer(cluster, broker, "t");

  auto victim = cluster.LeaderBroker("t", 0);
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(cluster.SlowBroker(*victim, 8.0, 8).ok());

  // Drive traffic + ticks until the verdict lands.
  int rec = 0;
  for (int turn = 0; turn < 6 && cluster.stats().demotions == 0; ++turn) {
    for (int i = 0; i < 16; ++i) ASSERT_TRUE(producer.Send(Rec(rec++)).ok());
    cluster.Tick();
  }
  ASSERT_GT(cluster.stats().demotions, 0u) << "the browned-out broker must demote";
  EXPECT_TRUE(cluster.BrokerDegraded(*victim));
  // Every leadership drained off the degraded broker.
  for (stream::PartitionId p = 0; p < 4; ++p) {
    auto leader = cluster.LeaderBroker("t", p);
    ASSERT_TRUE(leader.ok()) << p;
    EXPECT_NE(*leader, *victim) << "partition " << p << " still led by the victim";
  }
  // Metadata-first: the demotion is replayable from the log alone.
  auto mid_replay = cluster.controller().ReplayDigest();
  ASSERT_TRUE(mid_replay.ok());
  EXPECT_EQ(*mid_replay, cluster.controller().StateDigest());

  // After the brownout expires, the per-tick health probes pull the EWMA
  // back down and the broker recovers.
  for (int turn = 0; turn < 30 && cluster.stats().recoveries == 0; ++turn) {
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(producer.Send(Rec(rec++)).ok());
    cluster.Tick();
  }
  EXPECT_GT(cluster.stats().recoveries, 0u) << "recovery must restore the broker";
  EXPECT_FALSE(cluster.BrokerDegraded(*victim));

  auto replay = cluster.controller().ReplayDigest();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(*replay, cluster.controller().StateDigest())
      << "controller replay must track every degrade/restore cycle";
}

TEST(Health, DisabledTrackerNeverDemotes) {
  SimClock clock;
  stream::Broker broker(clock);
  ClusterConfig cc;
  cc.brokers = 3;  // health.enabled stays false
  BrokerCluster cluster(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 4;
  tc.replication_factor = 3;
  ASSERT_TRUE(cluster.CreateTopic("t", tc).ok());
  cluster::ClusterProducer producer(cluster, broker, "t");
  auto victim = cluster.LeaderBroker("t", 0);
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(cluster.SlowBroker(*victim, 16.0, 50).ok());
  int rec = 0;
  for (int turn = 0; turn < 8; ++turn) {
    for (int i = 0; i < 16; ++i) ASSERT_TRUE(producer.Send(Rec(rec++)).ok());
    cluster.Tick();
  }
  EXPECT_EQ(cluster.stats().demotions, 0u);
  EXPECT_FALSE(cluster.BrokerDegraded(*victim));
  auto leader = cluster.LeaderBroker("t", 0);
  ASSERT_TRUE(leader.ok());
  EXPECT_EQ(*leader, *victim) << "without health the slow broker keeps leading";
}

// --- brownout soak: passthrough digests + audits -------------------------

TEST(BrownoutSoak, DigestInvariantUnderHedgingAndHealth) {
  scenarios::ClusterSoakConfig base;
  base.rolling_kill = false;
  base.consumers = 2;
  base.fleet.users = 800;
  base.fleet.hotspots = 32;
  base.fleet.ticks = 8;
  base.fleet.peak_events_per_tick = 40;
  base.read_batch = 32;
  base.frame_budget = Duration::Zero();  // unlimited: nothing dropped
  base.slow_at_tick = 2;
  base.slow_factor = 8.0;
  base.slow_ticks = 12;

  auto off = scenarios::RunClusterSoak(base);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  ASSERT_TRUE(off->AuditClean());
  EXPECT_EQ(off->hedge.hedged, 0u);
  EXPECT_EQ(off->cluster.demotions, 0u);

  auto hedge_cfg = base;
  hedge_cfg.hedge.enabled = true;
  auto hedged = scenarios::RunClusterSoak(hedge_cfg);
  ASSERT_TRUE(hedged.ok()) << hedged.status().ToString();
  ASSERT_TRUE(hedged->AuditClean());
  EXPECT_GT(hedged->hedge.hedged, 0u);
  EXPECT_EQ(hedged->committed_digest, off->committed_digest)
      << "hedged reads must not perturb the committed log";

  auto full = hedge_cfg;
  full.health.enabled = true;
  auto health = scenarios::RunClusterSoak(full);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  ASSERT_TRUE(health->AuditClean());
  EXPECT_GT(health->cluster.demotions, 0u);
  EXPECT_EQ(health->committed_digest, off->committed_digest)
      << "demotion moves leaders, never records";
}

TEST(BrownoutSoak, TightFrameBudgetDropsAtTheProducerNotInTheLog) {
  scenarios::ClusterSoakConfig cfg;
  cfg.rolling_kill = false;
  cfg.consumers = 2;
  cfg.fleet.users = 800;
  cfg.fleet.hotspots = 32;
  cfg.fleet.ticks = 8;
  cfg.fleet.peak_events_per_tick = 40;
  cfg.read_batch = 32;
  cfg.frame_budget = Duration::Millis(4);  // tight against an 8x brownout
  cfg.slow_at_tick = 1;
  cfg.slow_factor = 8.0;
  cfg.slow_ticks = 40;

  auto rep = scenarios::RunClusterSoak(cfg);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_GT(rep->deadline_misses, 0u) << "the budget must actually bite";
  EXPECT_LT(rep->frame_hit_rate, 1.0);
  // Deadline-dropped records were never acked, so the exactly-once audit
  // still holds exactly.
  EXPECT_TRUE(rep->AuditClean());
  EXPECT_EQ(rep->acked, rep->committed_records);
}

TEST(BrownoutSoak, BrownoutPlusKillStaysExactlyOnce) {
  scenarios::ClusterSoakConfig cfg;
  cfg.rolling_kill = false;
  cfg.consumers = 2;
  cfg.fleet.users = 800;
  cfg.fleet.hotspots = 32;
  cfg.fleet.ticks = 8;
  cfg.fleet.peak_events_per_tick = 40;
  cfg.read_batch = 32;
  cfg.frame_budget = Duration::Zero();
  cfg.slow_at_tick = 2;
  cfg.slow_ticks = 10;
  cfg.lossy_at_tick = 3;
  cfg.lossy_drop_p = 0.4;
  cfg.lossy_ticks = 6;
  cfg.kill_at_tick = 4;
  cfg.kill_broker = 1;
  cfg.hedge.enabled = true;
  cfg.health.enabled = true;

  auto rep = scenarios::RunClusterSoak(cfg);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep->AuditClean());
  EXPECT_GT(rep->cluster.kills, 0u);
  EXPECT_GT(rep->cluster.slow_brownouts, 0u);
  EXPECT_GT(rep->cluster.lossy_brownouts, 0u);
}

// --- anomaly replay (healthcare driver) ----------------------------------

TEST(AnomalyReplay, WindowsCrossSessionsAndVerify) {
  scenarios::AnomalyReplayConfig cfg;
  cfg.patients = 8;
  cfg.samples_per_patient = 120;
  auto rep = scenarios::RunAnomalyReplay(cfg);
  EXPECT_EQ(rep.produced, cfg.patients * cfg.samples_per_patient);
  EXPECT_EQ(rep.episodes, cfg.patients * cfg.episodes_per_patient);
  EXPECT_TRUE(rep.AllVerified())
      << "verified " << rep.episodes_verified << "/" << rep.episodes
      << " mismatches=" << rep.mismatches;
  EXPECT_GT(rep.cross_session_rows, 0u)
      << "replay windows must cross co-resident sessions";
  EXPECT_GT(rep.anomalous_rows, 0u);
}

TEST(AnomalyReplay, DigestIndependentOfSegmentation) {
  scenarios::AnomalyReplayConfig flat;
  flat.patients = 8;
  flat.samples_per_patient = 120;
  flat.segment_bytes = 0;  // unsegmented
  scenarios::AnomalyReplayConfig segmented = flat;
  segmented.segment_bytes = 1024;

  const auto a = scenarios::RunAnomalyReplay(flat);
  const auto b = scenarios::RunAnomalyReplay(segmented);
  ASSERT_TRUE(a.AllVerified());
  ASSERT_TRUE(b.AllVerified());
  EXPECT_EQ(a.digest, b.digest)
      << "replay output must not depend on segment structure";
  EXPECT_EQ(a.sealed_segments, 0u);
  EXPECT_GT(b.sealed_segments, 0u) << "the segmented run must actually seal";
}

}  // namespace
}  // namespace arbd
