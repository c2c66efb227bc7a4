#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/metrics.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "stream/consumer.h"

namespace arbd::stream {
namespace {

class ConsumerGroupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(broker_.CreateTopic("t", TopicConfig{.partitions = 4}).ok());
  }

  void ProduceN(int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(broker_
                      .Produce("t", Record::MakeText("key-" + std::to_string(i % 16),
                                                     std::to_string(i), TimePoint{}))
                      .ok());
    }
  }

  SimClock clock_;
  Broker broker_{clock_};
};

TEST_F(ConsumerGroupTest, SingleConsumerGetsAllPartitions) {
  ConsumerGroup group(broker_, "g", "t");
  auto c = group.Join("c0");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)->Assignment().size(), 4u);
}

TEST_F(ConsumerGroupTest, SingleConsumerReadsEverything) {
  ProduceN(100);
  ConsumerGroup group(broker_, "g", "t");
  auto c = group.Join("c0");
  ASSERT_TRUE(c.ok());
  std::size_t total = 0;
  while (true) {
    const auto batch = (*c)->Poll(32);
    if (batch.empty()) break;
    total += batch.size();
  }
  EXPECT_EQ(total, 100u);
}

TEST_F(ConsumerGroupTest, TwoConsumersSplitPartitionsDisjointly) {
  ProduceN(200);
  ConsumerGroup group(broker_, "g", "t");
  auto a = group.Join("a");
  auto b = group.Join("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)->Assignment().size(), 2u);
  EXPECT_EQ((*b)->Assignment().size(), 2u);
  const auto a_parts = (*a)->Assignment();
  const std::set<PartitionId> pa(a_parts.begin(), a_parts.end());
  for (PartitionId p : (*b)->Assignment()) EXPECT_FALSE(pa.contains(p));

  std::size_t total = 0;
  for (auto* c : {*a, *b}) {
    while (true) {
      const auto batch = c->Poll(64);
      if (batch.empty()) break;
      total += batch.size();
    }
  }
  EXPECT_EQ(total, 200u);
}

TEST_F(ConsumerGroupTest, DuplicateJoinRejected) {
  ConsumerGroup group(broker_, "g", "t");
  ASSERT_TRUE(group.Join("c").ok());
  EXPECT_EQ(group.Join("c").status().code(), StatusCode::kAlreadyExists);
}

TEST_F(ConsumerGroupTest, JoinUnknownTopicFails) {
  ConsumerGroup group(broker_, "g", "missing");
  EXPECT_FALSE(group.Join("c").ok());
}

TEST_F(ConsumerGroupTest, LeaveUnknownConsumerFails) {
  ConsumerGroup group(broker_, "g", "t");
  EXPECT_EQ(group.Leave("ghost").code(), StatusCode::kNotFound);
}

TEST_F(ConsumerGroupTest, CommitPersistsProgressAcrossRebalance) {
  ProduceN(40);
  ConsumerGroup group(broker_, "g", "t");
  auto a = group.Join("a");
  ASSERT_TRUE(a.ok());
  // Read everything and commit.
  std::size_t first_read = 0;
  while (true) {
    const auto batch = (*a)->Poll(16);
    if (batch.empty()) break;
    first_read += batch.size();
  }
  (*a)->Commit();
  EXPECT_EQ(first_read, 40u);
  EXPECT_EQ(group.TotalLag(), 0);

  // A new member joining triggers rebalance; neither re-reads old data.
  auto b = group.Join("b");
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE((*a)->Poll(16).empty());
  EXPECT_TRUE((*b)->Poll(16).empty());

  // New data flows to the group exactly once.
  ProduceN(20);
  std::size_t second_read = 0;
  for (auto* c : {*a, *b}) {
    while (true) {
      const auto batch = c->Poll(16);
      if (batch.empty()) break;
      second_read += batch.size();
    }
  }
  EXPECT_EQ(second_read, 20u);
}

TEST_F(ConsumerGroupTest, UncommittedWorkIsRedeliveredAfterRebalance) {
  ProduceN(40);
  ConsumerGroup group(broker_, "g", "t");
  auto a = group.Join("a");
  ASSERT_TRUE(a.ok());
  // Read without committing.
  std::size_t uncommitted = 0;
  while (true) {
    const auto batch = (*a)->Poll(16);
    if (batch.empty()) break;
    uncommitted += batch.size();
  }
  EXPECT_EQ(uncommitted, 40u);

  // Rebalance rewinds to committed offsets (none) — at-least-once.
  auto b = group.Join("b");
  ASSERT_TRUE(b.ok());
  std::size_t redelivered = 0;
  for (auto* c : {*a, *b}) {
    while (true) {
      const auto batch = c->Poll(16);
      if (batch.empty()) break;
      redelivered += batch.size();
    }
  }
  EXPECT_EQ(redelivered, 40u);
}

TEST_F(ConsumerGroupTest, LeaveCommitsDepartingMember) {
  ProduceN(40);
  ConsumerGroup group(broker_, "g", "t");
  auto a = group.Join("a");
  ASSERT_TRUE(a.ok());
  while (!(*a)->Poll(16).empty()) {
  }
  ASSERT_TRUE(group.Leave("a").ok());

  auto b = group.Join("b");
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE((*b)->Poll(64).empty()) << "departing member's progress must be committed";
}

TEST_F(ConsumerGroupTest, LatestResetSkipsHistory) {
  ProduceN(50);
  ConsumerGroup group(broker_, "g", "t", ResetPolicy::kLatest);
  auto c = group.Join("c");
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE((*c)->Poll(64).empty());
  ProduceN(5);
  std::size_t got = 0;
  while (true) {
    const auto batch = (*c)->Poll(8);
    if (batch.empty()) break;
    got += batch.size();
  }
  EXPECT_EQ(got, 5u);
}

TEST_F(ConsumerGroupTest, LagTracksOutstandingRecords) {
  ProduceN(30);
  ConsumerGroup group(broker_, "g", "t");
  auto c = group.Join("c");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(group.TotalLag(), 30);
  while (!(*c)->Poll(16).empty()) {
  }
  (*c)->Commit();
  EXPECT_EQ(group.TotalLag(), 0);
}

TEST_F(ConsumerGroupTest, RebalanceCountIncrements) {
  ConsumerGroup group(broker_, "g", "t");
  ASSERT_TRUE(group.Join("a").ok());
  ASSERT_TRUE(group.Join("b").ok());
  ASSERT_TRUE(group.Leave("a").ok());
  EXPECT_EQ(group.rebalance_count(), 3u);
}

TEST_F(ConsumerGroupTest, SkipsOverTruncatedOffsets) {
  TopicConfig cfg;
  cfg.partitions = 1;
  cfg.retention_records = 5;
  ASSERT_TRUE(broker_.CreateTopic("small", cfg).ok());
  ConsumerGroup group(broker_, "g", "small");
  auto c = group.Join("c");
  ASSERT_TRUE(c.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(broker_.Produce("small", Record::MakeText("", std::to_string(i), TimePoint{})).ok());
  }
  broker_.RunRetention();
  // Consumer starts at committed offset 0, which was truncated; it must
  // jump forward to the retained range instead of erroring forever.
  std::size_t got = 0;
  for (int rounds = 0; rounds < 10; ++rounds) {
    const auto batch = (*c)->Poll(8);
    got += batch.size();
    if (batch.empty() && got > 0) break;
  }
  EXPECT_EQ(got, 5u);
}

// --- structured auto-reset regression --------------------------------------
// A consumer whose position falls below the retained window used to learn
// the new log start from a side lookup and return an empty batch for the
// round. The structured out-of-range payload lets Poll reposition by the
// group's reset policy and refetch immediately — surviving records arrive
// in the SAME Poll, and the reset is counted.

TEST_F(ConsumerGroupTest, TruncationRecoveryDeliversInSamePoll) {
  ProduceN(40);
  ConsumerGroup group(broker_, "g", "t");
  auto c = group.Join("c0");
  ASSERT_TRUE(c.ok());

  // Keep only the newest two records of each partition.
  auto topic = broker_.GetTopic("t");
  ASSERT_TRUE(topic.ok());
  std::size_t retained = 0;
  for (PartitionId p = 0; p < 4; ++p) {
    Partition& part = (*topic)->partition(p);
    part.TruncateBefore(part.end_offset() - 2);
    retained += part.size();
  }
  ASSERT_GT(retained, 0u);

  const auto batch = (*c)->Poll(64);
  EXPECT_EQ(batch.size(), retained) << "retained records must arrive in the same Poll";
  EXPECT_EQ(group.auto_reset_count(), 4u);
}

TEST_F(ConsumerGroupTest, LatestResetPolicySkipsRetainedBacklog) {
  ConsumerGroup group(broker_, "g", "t", ResetPolicy::kLatest);
  auto c = group.Join("c0");  // topic empty: every position starts at 0
  ASSERT_TRUE(c.ok());
  ProduceN(40);
  auto topic = broker_.GetTopic("t");
  ASSERT_TRUE(topic.ok());
  for (PartitionId p = 0; p < 4; ++p) {
    Partition& part = (*topic)->partition(p);
    part.TruncateBefore(part.end_offset() - 2);
  }
  // kLatest jumps past the retained backlog to the log end...
  EXPECT_TRUE((*c)->Poll(64).empty());
  EXPECT_EQ(group.auto_reset_count(), 4u);
  // ...so only records produced after the reset are delivered.
  ProduceN(8);
  std::size_t got = 0;
  for (int i = 0; i < 10 && got < 8; ++i) got += (*c)->Poll(64).size();
  EXPECT_EQ(got, 8u);
}

// --- generation fencing (broker-loss zombies and stale commits) -------------
// A member evicted from the group (its modeled host broker died) becomes a
// zombie: its handle survives but nothing it does may move the group's
// committed offsets until it rejoins.

TEST_F(ConsumerGroupTest, FencedMemberCommitRejected) {
  ProduceN(12);
  ConsumerGroup group(broker_, "g", "t");
  auto a = group.Join("a");
  auto b = group.Join("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  ASSERT_TRUE(group.Evict("b").ok());
  EXPECT_TRUE((*b)->fenced());
  EXPECT_TRUE((*b)->Assignment().empty());
  EXPECT_TRUE((*b)->Poll(64).empty()) << "a zombie must not receive records";
  const Status st = (*b)->Commit();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(group.fenced_commit_count(), 1u);

  // The survivor owns everything and commits normally.
  std::size_t got = 0;
  while (true) {
    const auto batch = (*a)->Poll(16);
    if (batch.empty()) break;
    got += batch.size();
  }
  EXPECT_EQ(got, 12u);
  EXPECT_TRUE((*a)->Commit().ok());

  // Rejoining lifts the fence: the member participates again and new data
  // flows to the group exactly once.
  ASSERT_TRUE(group.Rejoin("b").ok());
  EXPECT_FALSE((*b)->fenced());
  ProduceN(8);
  std::size_t fresh = 0;
  for (auto* c : {*a, *b}) {
    while (true) {
      const auto batch = c->Poll(16);
      if (batch.empty()) break;
      fresh += batch.size();
    }
  }
  EXPECT_EQ(fresh, 8u);
  EXPECT_TRUE((*b)->Commit().ok());
}

TEST_F(ConsumerGroupTest, StaleGenerationCommitRejectedAfterRebalance) {
  ProduceN(40);
  ConsumerGroup group(broker_, "g", "t");
  auto a = group.Join("a");
  ASSERT_TRUE(a.ok());
  // Poll everything but do not commit yet — the rows are in flight.
  std::size_t polled = 0;
  while (true) {
    const auto batch = (*a)->Poll(16);
    if (batch.empty()) break;
    polled += batch.size();
  }
  EXPECT_EQ(polled, 40u);

  // A rebalance intervenes between the poll and the commit: the polled
  // generation is dead, and the commit — which would silently skip records
  // the new owners have yet to deliver — must be rejected.
  auto b = group.Join("b");
  ASSERT_TRUE(b.ok());
  const Status st = (*a)->Commit();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(group.fenced_commit_count(), 1u);

  // Every record is redelivered from the committed offsets — exactly once
  // across the group (identity = the unique payload text).
  std::map<std::string, int> seen;
  for (auto* c : {*a, *b}) {
    while (true) {
      const auto batch = c->Poll(16);
      if (batch.empty()) break;
      for (const auto& sr : batch) ++seen[sr.record.TextPayload()];
    }
  }
  EXPECT_EQ(seen.size(), 40u);
  for (const auto& [payload, n] : seen) {
    EXPECT_EQ(n, 1) << "payload '" << payload << "' delivered " << n << " times";
  }
  // Current-generation commits from both owners land.
  EXPECT_TRUE((*a)->Commit().ok());
  EXPECT_TRUE((*b)->Commit().ok());
  EXPECT_EQ(group.TotalLag(), 0);
}

TEST_F(ConsumerGroupTest, RebalanceDuringInFlightPollBatchesResumesAtCommitted) {
  ProduceN(40);
  ConsumerGroup group(broker_, "g", "t");
  auto a = group.Join("a");
  ASSERT_TRUE(a.ok());
  // Drain and commit the backlog through the batch path.
  std::size_t drained = 0;
  while (true) {
    const auto batches = (*a)->PollBatches(16);
    if (batches.empty()) break;
    for (const auto& b : batches) drained += b.size();
  }
  EXPECT_EQ(drained, 40u);
  ASSERT_TRUE((*a)->Commit().ok());

  // Twenty fresh records with payloads disjoint from the backlog's.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(broker_
                    .Produce("t", Record::MakeText("key-" + std::to_string(i % 16),
                                                   "x-" + std::to_string(i), TimePoint{}))
                    .ok());
  }

  // Partial batch poll leaves rows in flight; the rebalance rewinds the
  // member's positions to the committed offsets and opens a new generation.
  const auto inflight = (*a)->PollBatches(8);
  std::size_t inflight_rows = 0;
  for (const auto& b : inflight) inflight_rows += b.size();
  ASSERT_GT(inflight_rows, 0u);
  auto b = group.Join("b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)->Commit().code(), StatusCode::kFailedPrecondition);

  // Resuming from the committed offsets delivers exactly the 20 fresh
  // records across the group: none of the committed backlog replays (no
  // position fell below a committed offset) and none of the in-flight rows
  // are lost (their positions were rewound, so they come around again).
  std::map<std::string, int> seen;
  for (auto* c : {*a, *b}) {
    while (true) {
      const auto batches = c->PollBatches(16);
      if (batches.empty()) break;
      for (const auto& rb : batches) {
        for (std::size_t i = 0; i < rb.size(); ++i) {
          StoredRecord row;
          rb.MaterializeStored(i, row);
          ++seen[row.record.TextPayload()];
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), 20u);
  for (const auto& [payload, n] : seen) {
    EXPECT_EQ(n, 1) << "payload '" << payload << "' delivered " << n << " times";
    EXPECT_EQ(payload.rfind("x-", 0), 0u) << "committed backlog replayed: " << payload;
  }
  EXPECT_TRUE((*a)->Commit().ok());
  EXPECT_TRUE((*b)->Commit().ok());
  EXPECT_EQ(group.auto_reset_count(), 0u);
  EXPECT_EQ(group.TotalLag(), 0);
}

// --- depth/byte gauge freshness ---------------------------------------------
// Regressions for stale per-partition observability: qos.depth.* and
// qos.bytes.* used to be refreshed only on successful produce, so any path
// that shrank the log (retention, truncation) or grew it
// without an ack (leader crash mid-replication, torn append) left the
// gauges reading a size the partition no longer had.

TEST_F(ConsumerGroupTest, DepthGaugeRefreshedByRetentionAndTruncation) {
  MetricRegistry metrics;
  broker_.set_metrics(&metrics);
  TopicConfig cfg;
  cfg.partitions = 1;
  cfg.retention_records = 5;
  ASSERT_TRUE(broker_.CreateTopic("small", cfg).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        broker_.Produce("small", Record::MakeText("", std::to_string(i), TimePoint{})).ok());
  }
  EXPECT_EQ(metrics.Get("qos.depth.small.p0"), 20.0);

  broker_.RunRetention();
  auto topic = broker_.GetTopic("small");
  ASSERT_TRUE(topic.ok());
  EXPECT_EQ((*topic)->partition(0).size(), 5u);
  EXPECT_EQ(metrics.Get("qos.depth.small.p0"), 5.0)
      << "retention must refresh the depth gauge";
  EXPECT_EQ(metrics.Get("qos.bytes.small"),
            static_cast<double>((*topic)->TotalBytes()));

  auto dropped = broker_.TruncateBefore("small", 0, (*topic)->partition(0).end_offset() - 2);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(metrics.Get("qos.depth.small.p0"), 2.0)
      << "truncation must refresh the depth gauge";
  EXPECT_EQ(metrics.Get("qos.bytes.small"),
            static_cast<double>((*topic)->TotalBytes()));
}

TEST_F(ConsumerGroupTest, DepthGaugeFreshAcrossLeaderCrashHandoff) {
  MetricRegistry metrics;
  broker_.set_metrics(&metrics);
  TopicConfig cfg;
  cfg.partitions = 1;
  cfg.replication_factor = 3;
  ASSERT_TRUE(broker_.CreateTopic("r", cfg).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        broker_.Produce("r", Record::MakeText("", std::to_string(i), TimePoint{})).ok());
  }
  EXPECT_EQ(metrics.Get("qos.depth.r.p0"), 4.0);

  // Every produce now crashes the current leader mid-replication: the ack
  // is lost, but the record may still commit through the elected successor.
  // Whatever the outcome, the gauge must track the partition's true size —
  // the handoff window is exactly where a success-only refresh goes stale.
  auto plan = fault::FaultPlan::Parse("nodecrash@p=1,x=1");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(*plan, 3);
  broker_.set_fault_injector(&injector);

  auto topic = broker_.GetTopic("r");
  ASSERT_TRUE(topic.ok());
  bool grew_during_lost_ack = false;
  for (int i = 0; i < 6; ++i) {
    const std::size_t before = (*topic)->partition(0).size();
    const auto off =
        broker_.Produce("r", Record::MakeText("", "crash-" + std::to_string(i), TimePoint{}));
    const std::size_t after = (*topic)->partition(0).size();
    EXPECT_EQ(metrics.Get("qos.depth.r.p0"), static_cast<double>(after))
        << "gauge stale after produce attempt " << i << " (ok=" << off.ok() << ")";
    if (!off.ok() && after > before) grew_during_lost_ack = true;
  }
  // The interesting window must actually have occurred, or this test would
  // pass vacuously: at least one failed ack whose record a successor
  // committed (deterministic under the fixed seeds above).
  EXPECT_TRUE(grew_during_lost_ack);
  broker_.set_fault_injector(nullptr);
}

}  // namespace
}  // namespace arbd::stream
