// Unit tests for the replicated-partition layer (stream/replication.h):
// quorum commit, leader epochs and fencing, deterministic failover,
// divergent-suffix truncation, idempotent-producer dedup, and the
// exactly-once transactional sink on CheckpointedJob.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/runtime.h"
#include "fault/injector.h"
#include "stream/log.h"
#include "stream/recovery.h"
#include "stream/replication.h"

namespace arbd {
namespace {

using stream::Record;

Record Rec(const std::string& key, int i) {
  return Record::MakeText(key, "v" + std::to_string(i), TimePoint::FromMillis(i));
}

TEST(Replication, FactorOneIsAPassthrough) {
  SimClock clock;
  stream::Broker broker(clock);
  stream::TopicConfig tc;
  tc.partitions = 1;
  tc.replication_factor = 1;
  ASSERT_TRUE(broker.CreateTopic("t", tc).ok());
  for (int i = 0; i < 5; ++i) {
    auto r = broker.Produce("t", Rec("k", i));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->second, i);
  }
  auto rp = broker.Replication("t", 0);
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ((*rp)->factor(), 1u);
  EXPECT_EQ((*rp)->leader(), 0u);
  EXPECT_EQ((*rp)->epoch(), 1u);
  EXPECT_EQ((*rp)->high_watermark(), 5);
  EXPECT_TRUE((*rp)->hw_history().empty());  // not recorded on the fast path
}

TEST(Replication, QuorumCommitAdvancesHighWatermark) {
  stream::Partition committed(stream::DefaultSegmentBytes());
  stream::ReplicatedPartition rp(3, 42, committed);
  for (int i = 0; i < 3; ++i) {
    auto off = rp.Produce(Rec("k", i), TimePoint::FromMillis(i), 1, i + 1);
    ASSERT_TRUE(off.ok());
    EXPECT_EQ(*off, i);
  }
  EXPECT_EQ(rp.high_watermark(), 3);
  EXPECT_EQ(committed.size(), 3u);
  EXPECT_EQ(rp.Isr().size(), 3u);
  // Between produces every online replica's tail is empty (synchronous
  // commit), and each commit advanced the high-watermark by one.
  for (const auto& info : rp.Replicas()) EXPECT_EQ(info.tail_entries, 0u);
  const auto hist = rp.hw_history();
  ASSERT_EQ(hist.size(), 3u);
  for (std::size_t i = 0; i < hist.size(); ++i) {
    EXPECT_EQ(hist[i].epoch, 1u);
    EXPECT_EQ(hist[i].hw, static_cast<stream::Offset>(i + 1));
  }
}

TEST(Replication, FailoverIsDeterministic) {
  auto run = []() {
    stream::Partition committed(stream::DefaultSegmentBytes());
    stream::ReplicatedPartition rp(3, 7, committed);
    std::vector<stream::NodeId> leaders;
    std::uint64_t seq = 0;
    for (int round = 0; round < 3; ++round) {
      (void)rp.Produce(Rec("k", round), TimePoint::FromMillis(round), 1, ++seq);
      EXPECT_TRUE(rp.CrashLeader(/*restore_after_ops=*/2).ok());
      leaders.push_back(rp.leader());
      (void)rp.Produce(Rec("k", 100 + round), TimePoint::FromMillis(100 + round), 1, ++seq);
    }
    return std::make_tuple(leaders, rp.epoch(), rp.hw_history(), rp.stats());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_EQ(std::get<3>(a), std::get<3>(b));
  EXPECT_GE(std::get<3>(a).failovers, 3u);
}

TEST(Replication, MidProduceCrashNeverLosesOrDuplicatesAckedRecords) {
  // The torn-failover window: the leader dies after replicating to an
  // unknown subset. Whatever happened, the producer's retry with the same
  // (pid, seq) must leave exactly one copy in the committed log.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    stream::Partition committed(stream::DefaultSegmentBytes());
    stream::ReplicatedPartition rp(3, seed, committed);
    auto first = rp.Produce(Rec("k", 0), TimePoint::FromMillis(0), 1, 1,
                            {/*crash_leader=*/true, /*restore_after_ops=*/3});
    EXPECT_FALSE(first.ok());
    EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
    auto retry = rp.Produce(Rec("k", 0), TimePoint::FromMillis(0), 1, 1);
    ASSERT_TRUE(retry.ok()) << "seed=" << seed;
    EXPECT_EQ(committed.size(), 1u) << "seed=" << seed;
    EXPECT_EQ(*retry, 0) << "seed=" << seed;
    const auto stats = rp.stats();
    EXPECT_EQ(stats.node_crashes, 1u);
    EXPECT_EQ(stats.failovers, 1u);
  }
}

TEST(Replication, StaleEpochAppendIsFenced) {
  stream::Partition committed(stream::DefaultSegmentBytes());
  stream::ReplicatedPartition rp(3, 1, committed);
  const stream::Epoch old_epoch = rp.epoch();
  ASSERT_TRUE(rp.Produce(Rec("k", 0), TimePoint::FromMillis(0), 1, 1).ok());
  ASSERT_TRUE(rp.CrashLeader().ok());
  EXPECT_GT(rp.epoch(), old_epoch);
  auto fenced = rp.LeaderAppend(old_epoch, Rec("k", 1), TimePoint::FromMillis(1), 1, 2);
  ASSERT_FALSE(fenced.ok());
  EXPECT_EQ(fenced.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(rp.stats().fenced_appends, 1u);
  EXPECT_EQ(committed.size(), 1u);  // nothing landed anywhere
  for (const auto& info : rp.Replicas()) EXPECT_EQ(info.tail_entries, 0u);
  // The same append with the current epoch goes through.
  auto ok = rp.LeaderAppend(rp.epoch(), Rec("k", 1), TimePoint::FromMillis(1), 1, 2);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(committed.size(), 2u);
}

TEST(Replication, DivergentSuffixTruncatedOnRestore) {
  // Factor 2: down the follower, crash the leader mid-produce with no one
  // to replicate to — its unacked entry must be truncated when it rejoins
  // a group whose epoch moved past it, and the retried record commits
  // exactly once through the new leader.
  stream::Partition committed(stream::DefaultSegmentBytes());
  stream::ReplicatedPartition rp(2, 3, committed);
  ASSERT_TRUE(rp.CrashNode(1).ok());
  ASSERT_TRUE(rp.Produce(Rec("k", 0), TimePoint::FromMillis(0), 1, 1).ok());

  auto torn = rp.Produce(Rec("k", 1), TimePoint::FromMillis(1), 1, 2,
                         {/*crash_leader=*/true, /*restore_after_ops=*/0});
  EXPECT_EQ(torn.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(rp.leader(), stream::kNoLeader);  // both nodes down
  auto rejected = rp.Produce(Rec("k", 2), TimePoint::FromMillis(2), 1, 3);
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(rp.stats().unavailable_rejects, 1u);

  ASSERT_TRUE(rp.RestoreNode(1).ok());  // empty-tailed follower takes over
  EXPECT_EQ(rp.leader(), 1u);
  auto retry = rp.Produce(Rec("k", 1), TimePoint::FromMillis(1), 1, 2);
  ASSERT_TRUE(retry.ok());  // not a dedup: the entry never committed
  EXPECT_EQ(*retry, 1);

  const auto before = rp.stats().truncated_entries;
  ASSERT_TRUE(rp.RestoreNode(0).ok());
  EXPECT_GT(rp.stats().truncated_entries, before);  // divergent suffix dropped
  EXPECT_EQ(rp.Isr().size(), 2u);
  ASSERT_TRUE(rp.Produce(Rec("k", 3), TimePoint::FromMillis(3), 1, 4).ok());
  EXPECT_EQ(committed.size(), 3u);  // k0, k1 (retried), k3 — each exactly once
}

TEST(Replication, DedupSurvivesFailover) {
  stream::Partition committed(stream::DefaultSegmentBytes());
  stream::ReplicatedPartition rp(3, 9, committed);
  auto off = rp.Produce(Rec("k", 0), TimePoint::FromMillis(0), 7, 1);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(rp.CrashLeader().ok());
  auto dup = rp.Produce(Rec("k", 0), TimePoint::FromMillis(0), 7, 1);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(*dup, *off);  // the new leader still knows the committed seq
  EXPECT_EQ(rp.stats().dedup_hits, 1u);
  EXPECT_EQ(committed.size(), 1u);
}

TEST(Replication, IsrShrinksOnFollowerCrashAndRejoins) {
  stream::Partition committed(stream::DefaultSegmentBytes());
  stream::ReplicatedPartition rp(3, 5, committed);
  const stream::NodeId leader = rp.leader();
  const stream::NodeId follower = leader == 2 ? 0 : 2;
  ASSERT_TRUE(rp.CrashNode(follower).ok());
  EXPECT_EQ(rp.Isr().size(), 2u);
  EXPECT_EQ(rp.leader(), leader);          // follower loss: no election
  EXPECT_EQ(rp.stats().failovers, 0u);
  ASSERT_TRUE(rp.Produce(Rec("k", 0), TimePoint::FromMillis(0), 1, 1).ok());
  EXPECT_EQ(rp.high_watermark(), 1);       // commits continue on the smaller ISR
  ASSERT_TRUE(rp.RestoreNode(follower).ok());
  EXPECT_EQ(rp.Isr().size(), 3u);
  ASSERT_TRUE(rp.Produce(Rec("k", 1), TimePoint::FromMillis(1), 1, 2).ok());
  EXPECT_EQ(rp.high_watermark(), 2);
}

TEST(Replication, CrashedLeaderAutoRestoresAfterWindow) {
  stream::Partition committed(stream::DefaultSegmentBytes());
  stream::ReplicatedPartition rp(1, 1, committed);
  ASSERT_TRUE(rp.CrashLeader(/*restore_after_ops=*/3).ok());
  std::uint64_t seq = 0;
  int denied = 0;
  for (int i = 0; i < 5; ++i) {
    auto r = rp.Produce(Rec("k", i), TimePoint::FromMillis(i), 1, ++seq);
    if (!r.ok()) ++denied;
  }
  EXPECT_EQ(denied, 2);  // down for the first two attempts, back on the third
  EXPECT_EQ(committed.size(), 3u);
  EXPECT_EQ(rp.stats().node_restores, 1u);
}

TEST(Replication, IdempotentProducerAbsorbsTornAcks) {
  // Torn appends persist the record but lose the ack. A plain retrying
  // producer duplicates (at-least-once); the idempotent producer's retry
  // dedups broker-side, so the log holds each record exactly once.
  SimClock clock;
  stream::Broker broker(clock);
  stream::TopicConfig tc;
  tc.partitions = 2;
  tc.replication_factor = 1;
  ASSERT_TRUE(broker.CreateTopic("t", tc).ok());
  auto plan = fault::FaultPlan::Parse("torn@p=0.3");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(*plan, 11);
  broker.set_fault_injector(&injector);

  fault::RetryPolicy retry;
  retry.max_attempts = 8;
  stream::IdempotentProducer producer(broker, "t", retry);
  for (int i = 0; i < 200; ++i) {
    auto r = producer.Send(Rec("k" + std::to_string(i % 7), i));
    ASSERT_TRUE(r.ok()) << i;
  }
  EXPECT_GT(producer.retries(), 0u);  // the plan actually tore some acks

  std::map<std::string, int> copies;
  auto topic = broker.GetTopic("t");
  ASSERT_TRUE(topic.ok());
  std::size_t total = 0;
  for (stream::PartitionId p = 0; p < 2; ++p) {
    const auto& part = (*topic)->partition(p);
    auto fetched = part.Fetch(part.log_start_offset(), part.size());
    ASSERT_TRUE(fetched.ok());
    for (const auto& sr : *fetched) ++copies[sr.record.TextPayload()], ++total;
  }
  EXPECT_EQ(total, 200u);
  for (const auto& [payload, n] : copies) EXPECT_EQ(n, 1) << payload;
  auto rp = broker.Replication("t", 0);
  ASSERT_TRUE(rp.ok());
  EXPECT_GT((*rp)->stats().dedup_hits + broker.Replication("t", 1).value()->stats().dedup_hits,
            0u);
}

TEST(Replication, TransactionalSinkDeliversEachWindowExactlyOnce) {
  SimClock clock;
  stream::Broker broker(clock);
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  // 60 events at 300ms spacing: ~18 one-second windows, firing mid-run as
  // the watermark advances.
  for (int i = 0; i < 60; ++i) {
    stream::Event e;
    e.key = "k";
    e.attribute = "a";
    e.value = 1.0;
    e.event_time = TimePoint::FromMillis(300 * (i + 1));
    ASSERT_TRUE(broker.Produce("t", Record::Make(e.key, e.Encode(), e.event_time)).ok());
  }
  auto factory = []() {
    auto p = std::make_unique<stream::Pipeline>(Duration::Zero());
    p->WindowAggregate(stream::WindowSpec::Tumbling(Duration::Seconds(1)),
                       stream::AggKind::kSum);
    return p;
  };

  std::map<std::string, int> delivered;
  stream::CheckpointedJob job(broker, "t", "g", factory, /*checkpoint_every=*/1000);
  job.SetTransactionalSink([&](const stream::WindowResult& r) {
    ++delivered[r.key + "|" + std::to_string(r.window_start.millis())];
  });

  // Pump half the stream: windows fire into the buffer, nothing reaches
  // the sink (no checkpoint yet), then the crash discards the buffer.
  ASSERT_TRUE(job.Pump(30).ok());
  EXPECT_TRUE(delivered.empty());
  job.InjectCrash();
  EXPECT_GT(job.stats().outputs_discarded, 0u);

  // Recovery replays from offset 0 (nothing was committed) and regenerates
  // the same windows; Finish flushes and checkpoints, publishing each
  // exactly once. Lag() is measured against *committed* offsets, which only
  // move at checkpoints — so pump a bounded number of rounds rather than
  // draining on Lag.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(job.Pump(30).ok());
  }
  ASSERT_TRUE(job.Finish().ok());
  EXPECT_EQ(job.Lag(), 0);
  ASSERT_FALSE(delivered.empty());
  for (const auto& [w, n] : delivered) EXPECT_EQ(n, 1) << w;
  EXPECT_EQ(job.stats().outputs_committed, delivered.size());
}

TEST(Replication, TopicConfigZeroDefersToEnv) {
  // Factor 0 takes the process default, RuntimeConfig::replicas
  // (ARBD_REPLICAS).
  SimClock clock;
  stream::Broker broker(clock);
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 2}).ok());
  auto rp = broker.Replication("t", 0);
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ((*rp)->factor(), RuntimeConfig::Process().replicas);
  // An explicit factor wins over the process default.
  stream::TopicConfig tc;
  tc.partitions = 1;
  tc.replication_factor = RuntimeConfig::Process().replicas == 2 ? 3 : 2;
  ASSERT_TRUE(broker.CreateTopic("u", tc).ok());
  EXPECT_EQ(broker.Replication("u", 0).value()->factor(), tc.replication_factor);
}

}  // namespace
}  // namespace arbd
