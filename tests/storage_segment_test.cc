// Segmented-log coverage (ISSUE 8): fetch/poll straddling segment seams,
// structured OutOfRange below dropped segments, depth/byte gauge freshness
// across whole-segment and partial-front drops, the query tier
// (QueryRange/QueryTime/OffsetForTimestamp/SeekToTimestamp) checked
// against a brute-force reference model, and a
// differential harness proving segmentation is a pure storage-layout
// change: every scenario digest, failover committed digest, cluster soak
// committed digest, and session-replay digest is bit-identical with
// segments on vs off, across worker counts and replication factors.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/runtime.h"
#include "scenarios/cluster.h"
#include "scenarios/digest.h"
#include "scenarios/failover.h"
#include "scenarios/replay.h"
#include "stream/consumer.h"
#include "stream/log.h"
#include "stream/query.h"

namespace arbd::stream {
namespace {

class SegmentedLogTest : public ::testing::Test {
 protected:
  // Creates the one-partition topic "seg" with seal target `segment_bytes`.
  void CreateSeg(std::size_t segment_bytes) {
    ASSERT_TRUE(
        broker_.CreateTopic("seg", TopicConfig{.partitions = 1, .segment_bytes = segment_bytes})
            .ok());
  }

  // ~16 bytes per record (key "k<id%8>" + payload "v<id>", event time
  // id ms); ids keep counting across calls so payloads stay unique.
  void ProduceN(int n, int key_mod = 8) {
    for (int i = 0; i < n; ++i) {
      const int id = produced_++;
      ASSERT_TRUE(broker_
                      .Produce("seg", Record::MakeText("k" + std::to_string(id % key_mod),
                                                       "v" + std::to_string(id),
                                                       TimePoint::FromMillis(id)))
                      .ok());
    }
  }

  const Partition& P0() {
    auto topic = broker_.GetTopic("seg");
    EXPECT_TRUE(topic.ok());
    return (*topic)->partition(0);
  }

  SimClock clock_;
  Broker broker_{clock_};
  int produced_ = 0;
};

// --- seam coverage ----------------------------------------------------------

TEST_F(SegmentedLogTest, SmallTargetSealsManySegments) {
  CreateSeg(128);
  ProduceN(200);
  EXPECT_GE(P0().sealed_segment_count(), 8u);
  EXPECT_EQ(P0().size(), 200u);
  EXPECT_EQ(P0().log_start_offset(), 0);
  EXPECT_EQ(P0().end_offset(), 200);
}

TEST_F(SegmentedLogTest, FetchStraddlesEverySeamAndTheActiveHead) {
  CreateSeg(128);
  ProduceN(200);
  ASSERT_GE(P0().sealed_segment_count(), 2u);
  // One fetch spanning the whole log crosses every sealed->sealed seam and
  // the sealed->active seam; rows must be dense and in produce order.
  auto all = broker_.Fetch("seg", 0, 0, 1000);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ((*all)[i].offset, i);
    EXPECT_EQ((*all)[i].partition, 0u);
    EXPECT_EQ((*all)[i].record.TextPayload(), "v" + std::to_string(i));
  }
  // Fetches starting mid-segment at every offset agree with the full scan.
  for (Offset from = 0; from < 200; from += 7) {
    auto part = broker_.Fetch("seg", 0, from, 5);
    ASSERT_TRUE(part.ok()) << "from=" << from;
    ASSERT_EQ(part->size(), std::min<std::size_t>(5, 200 - from));
    for (std::size_t i = 0; i < part->size(); ++i) {
      EXPECT_EQ((*part)[i].offset, from + static_cast<Offset>(i));
      EXPECT_EQ((*part)[i].record.TextPayload(),
                (*all)[static_cast<std::size_t>(from) + i].record.TextPayload());
    }
  }
}

TEST_F(SegmentedLogTest, FetchBatchStraddlesSeamsMatchesAppendedRecords) {
  CreateSeg(128);
  ProduceN(150);
  ASSERT_GE(P0().sealed_segment_count(), 2u);
  // Record id `id` was appended at offset id with key "k<id%8>", payload
  // "v<id>" and event time id ms (ProduceN); every column of every row a
  // seam-straddling fetch returns must match that record.
  for (Offset from : {0, 30, 63, 64, 65, 100, 149}) {
    auto batch = broker_.FetchBatch("seg", 0, from, 40);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), std::min<std::size_t>(40, 150 - from)) << "from=" << from;
    EXPECT_EQ(batch->base_offset(), from);
    EXPECT_EQ(batch->partition(), 0u);
    for (std::size_t i = 0; i < batch->size(); ++i) {
      const Offset id = from + static_cast<Offset>(i);
      const Record want = Record::MakeText("k" + std::to_string(id % 8),
                                           "v" + std::to_string(id),
                                           TimePoint::FromMillis(id));
      EXPECT_EQ(batch->key(i), want.key) << "offset " << id;
      const std::string payload(reinterpret_cast<const char*>(batch->payload_data(i)),
                                batch->payload_size(i));
      EXPECT_EQ(payload, want.TextPayload()) << "offset " << id;
      EXPECT_EQ(batch->checksum(i), want.checksum) << "offset " << id;
      EXPECT_EQ(batch->event_time(i), want.event_time) << "offset " << id;
      EXPECT_EQ(batch->ingest_time(i), clock_.Now()) << "offset " << id;
    }
  }
}

TEST_F(SegmentedLogTest, PollBatchesDeliversAcrossSeamsExactlyOnce) {
  CreateSeg(96);
  ProduceN(160);
  ASSERT_GE(P0().sealed_segment_count(), 2u);
  ConsumerGroup group(broker_, "g", "seg");
  auto c = group.Join("c0");
  ASSERT_TRUE(c.ok());
  std::vector<std::string> polled;
  while (true) {
    const auto batches = (*c)->PollBatches(24);
    if (batches.empty()) break;
    for (const auto& rb : batches) {
      for (std::size_t i = 0; i < rb.size(); ++i) {
        StoredRecord row;
        rb.MaterializeStored(i, row);
        polled.push_back(row.record.TextPayload());
      }
    }
  }
  ASSERT_EQ(polled.size(), 160u);
  for (int i = 0; i < 160; ++i) {
    EXPECT_EQ(polled[static_cast<std::size_t>(i)], "v" + std::to_string(i));
  }
  EXPECT_TRUE((*c)->Commit().ok());
  EXPECT_EQ(group.TotalLag(), 0);
}

TEST_F(SegmentedLogTest, FetchBelowDroppedSegmentIsStructuredOutOfRange) {
  CreateSeg(128);
  ProduceN(200);
  ASSERT_GE(P0().sealed_segment_count(), 2u);
  // Truncate past the first few sealed segments entirely.
  auto dropped = broker_.TruncateBefore("seg", 0, 120);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 120u);
  EXPECT_EQ(P0().log_start_offset(), 120);

  for (const auto* fetcher : {"fetch", "batch"}) {
    const Status st = std::string(fetcher) == "fetch"
                          ? broker_.Fetch("seg", 0, 3, 10).status()
                          : broker_.FetchBatch("seg", 0, 3, 10).status();
    EXPECT_EQ(st.code(), StatusCode::kOutOfRange) << fetcher;
    ASSERT_TRUE(st.has_range()) << fetcher;
    EXPECT_EQ(st.range_lo(), 120) << fetcher;
    EXPECT_EQ(st.range_hi(), 200) << fetcher;
  }
  // Beyond-end keeps the same structured contract.
  const Status beyond = broker_.Fetch("seg", 0, 500, 10).status();
  EXPECT_EQ(beyond.code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(beyond.has_range());
  EXPECT_EQ(beyond.range_lo(), 120);
  EXPECT_EQ(beyond.range_hi(), 200);
  // The surviving window still reads cleanly across remaining seams.
  auto rows = broker_.Fetch("seg", 0, 120, 1000);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 80u);
  EXPECT_EQ((*rows)[0].record.TextPayload(), "v120");
}

TEST_F(SegmentedLogTest, ConsumerAutoResetsAboveDroppedSegments) {
  CreateSeg(128);
  ConsumerGroup group(broker_, "g", "seg");
  auto c = group.Join("c0");
  ASSERT_TRUE(c.ok());
  ProduceN(200);
  ASSERT_TRUE(broker_.TruncateBefore("seg", 0, 150).ok());
  // The consumer's position (0) now sits below several dropped segments;
  // the structured OutOfRange range must reset it to the log start, not
  // wedge it or skip to the end.
  std::size_t total = 0;
  Offset first = -1;
  while (true) {
    const auto rows = (*c)->Poll(64);
    if (rows.empty()) break;
    if (first < 0) first = rows.front().offset;
    total += rows.size();
  }
  EXPECT_EQ(first, 150);
  EXPECT_EQ(total, 50u);
  EXPECT_EQ(group.auto_reset_count(), 1u);
}

// --- depth/byte gauge freshness across segment drops (satellite a) ----------

TEST_F(SegmentedLogTest, GaugesRefreshedByWholeSegmentRetentionDrops) {
  MetricRegistry metrics;
  broker_.set_metrics(&metrics);
  TopicConfig cfg;
  cfg.partitions = 1;
  cfg.retention_records = 40;
  cfg.segment_bytes = 128;
  ASSERT_TRUE(broker_.CreateTopic("small", cfg).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(broker_
                    .Produce("small", Record::MakeText("k", "v" + std::to_string(i),
                                                       TimePoint::FromMillis(i)))
                    .ok());
  }
  auto topic = broker_.GetTopic("small");
  ASSERT_TRUE(topic.ok());
  ASSERT_GE((*topic)->partition(0).sealed_segment_count(), 2u);
  EXPECT_EQ(metrics.Get("qos.depth.small.p0"), 200.0);

  broker_.RunRetention();
  EXPECT_EQ((*topic)->partition(0).size(), 40u);
  EXPECT_EQ(metrics.Get("qos.depth.small.p0"), 40.0)
      << "whole-segment retention drops must refresh the depth gauge";
  // bytes() must count live rows only — dropped segments and any dead
  // prefix inside the surviving front segment are gone from the gauge.
  EXPECT_EQ(metrics.Get("qos.bytes.small"),
            static_cast<double>((*topic)->TotalBytes()));
  const std::size_t live_bytes = (*topic)->partition(0).bytes();
  auto live = broker_.Fetch("small", 0, (*topic)->partition(0).log_start_offset(), 1000);
  ASSERT_TRUE(live.ok());
  std::size_t expect_bytes = 0;
  for (const auto& sr : *live) {
    expect_bytes += sr.record.key.size() + sr.record.payload.size();
  }
  EXPECT_EQ(live_bytes, expect_bytes)
      << "partition bytes must equal the sum over live rows after drops";
}

TEST_F(SegmentedLogTest, GaugesRefreshedByPartialFrontSegmentTruncation) {
  CreateSeg(256);
  MetricRegistry metrics;
  broker_.set_metrics(&metrics);
  ProduceN(200);
  ASSERT_GE(P0().sealed_segment_count(), 2u);
  // Pick a truncation point strictly inside a sealed segment, so the
  // front segment survives with a dead prefix (front_dead_bytes_ path).
  const auto snap = P0().Snapshot(0, P0().end_offset());
  ASSERT_GE(snap.sealed.size(), 2u);
  const Offset mid = snap.sealed[0]->base_offset() +
                     static_cast<Offset>(snap.sealed[0]->rows() / 2);
  ASSERT_GT(mid, 0);
  ASSERT_LT(mid, snap.sealed[0]->end_offset());

  ASSERT_TRUE(broker_.TruncateBefore("seg", 0, mid).ok());
  EXPECT_EQ(P0().log_start_offset(), mid);
  EXPECT_EQ(metrics.Get("qos.depth.seg.p0"), static_cast<double>(200 - mid))
      << "partial-front truncation must refresh the depth gauge";
  auto topic = broker_.GetTopic("seg");
  ASSERT_TRUE(topic.ok());
  EXPECT_EQ(metrics.Get("qos.bytes.seg"), static_cast<double>((*topic)->TotalBytes()));
  // Live bytes exclude the dead prefix retained inside the front segment.
  std::size_t expect_bytes = 0;
  auto live = broker_.Fetch("seg", 0, mid, 1000);
  ASSERT_TRUE(live.ok());
  for (const auto& sr : *live) {
    expect_bytes += sr.record.key.size() + sr.record.payload.size();
  }
  EXPECT_EQ(P0().bytes(), expect_bytes);

  // Truncating the rest of that segment away finishes the partial drop.
  const Offset seg_end = snap.sealed[0]->end_offset();
  ASSERT_TRUE(broker_.TruncateBefore("seg", 0, seg_end).ok());
  EXPECT_EQ(metrics.Get("qos.depth.seg.p0"), static_cast<double>(200 - seg_end));
  EXPECT_EQ(metrics.Get("qos.bytes.seg"), static_cast<double>((*topic)->TotalBytes()));
}

// --- query tier -------------------------------------------------------------

TEST_F(SegmentedLogTest, QueryRangeClampsAndMatchesFetch) {
  CreateSeg(128);
  ProduceN(200);
  ASSERT_TRUE(broker_.TruncateBefore("seg", 0, 30).ok());
  // Bounds straddling the dropped prefix and the end clamp instead of
  // erroring — the replay contract.
  auto res = broker_.QueryRange("seg", 0, 0, 10'000);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 170u);
  auto fetched = broker_.Fetch("seg", 0, 30, 1000);
  ASSERT_TRUE(fetched.ok());
  for (std::size_t i = 0; i < res->rows.size(); ++i) {
    EXPECT_EQ(res->rows[i].offset, (*fetched)[i].offset);
    EXPECT_EQ(res->rows[i].partition, (*fetched)[i].partition);
    EXPECT_EQ(res->rows[i].record.TextPayload(), (*fetched)[i].record.TextPayload());
  }
  EXPECT_GT(res->stats.segments_considered, 0u);
  EXPECT_GT(res->stats.rows_returned, 0u);
  // An interior window straddling a seam returns exactly [lo, hi).
  auto mid = broker_.QueryRange("seg", 0, 60, 70);
  ASSERT_TRUE(mid.ok());
  ASSERT_EQ(mid->rows.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(mid->rows[static_cast<std::size_t>(i)].offset, 60 + i);
  }
  // Empty and inverted windows are empty, not errors.
  EXPECT_TRUE(broker_.QueryRange("seg", 0, 50, 50).ok());
  auto inverted = broker_.QueryRange("seg", 0, 80, 40);
  ASSERT_TRUE(inverted.ok());
  EXPECT_TRUE(inverted->rows.empty());
}

TEST_F(SegmentedLogTest, QueryTimePrunesSegmentsAndBlocks) {
  CreateSeg(256);
  ProduceN(512);  // event time = i ms, strictly increasing
  ASSERT_GE(P0().sealed_segment_count(), 4u);
  // A narrow window deep in the log: every row in [100ms, 110ms).
  auto res = broker_.QueryTime("seg", 0, TimePoint::FromMillis(100),
                               TimePoint::FromMillis(110));
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(res->rows[static_cast<std::size_t>(i)].record.event_time.nanos(),
              TimePoint::FromMillis(100 + i).nanos());
  }
  // The sparse time index must have pruned: with monotone event times a
  // 10ms window lives in one segment, so most segments never open and
  // most blocks of the one that does are skipped.
  EXPECT_GT(res->stats.segments_pruned, 0u);
  EXPECT_LT(res->stats.rows_examined, 512u / 2);
  // Rows below the log start are excluded after truncation.
  ASSERT_TRUE(broker_.TruncateBefore("seg", 0, 105).ok());
  auto after = broker_.QueryTime("seg", 0, TimePoint::FromMillis(100),
                                 TimePoint::FromMillis(110));
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->rows.size(), 5u);
  EXPECT_EQ(after->rows[0].offset, 105);
}

TEST_F(SegmentedLogTest, OffsetForTimestampAndSeekAcrossSegments) {
  CreateSeg(128);
  ProduceN(300);
  ASSERT_GE(P0().sealed_segment_count(), 2u);
  auto off = broker_.OffsetForTimestamp("seg", 0, TimePoint::FromMillis(217));
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(*off, 217);
  // Past the newest event -> log end; before the oldest -> log start.
  auto end = broker_.OffsetForTimestamp("seg", 0, TimePoint::FromMillis(10'000));
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(*end, 300);
  auto start = broker_.OffsetForTimestamp("seg", 0, TimePoint::FromMillis(-5));
  ASSERT_TRUE(start.ok());
  EXPECT_EQ(*start, 0);

  ConsumerGroup group(broker_, "g", "seg");
  auto c = group.Join("c0");
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE((*c)->SeekToTimestamp(TimePoint::FromMillis(250)).ok());
  std::size_t total = 0;
  Offset first = -1;
  while (true) {
    const auto rows = (*c)->Poll(64);
    if (rows.empty()) break;
    if (first < 0) first = rows.front().offset;
    total += rows.size();
  }
  EXPECT_EQ(first, 250);
  EXPECT_EQ(total, 50u);
}

// Reference model for the query tier: QueryTime and QueryRange must equal
// a brute-force filter over Partition::Fetch(log_start, ∞), row for row
// and in order. Event times are seeded out of order, so the active rows
// matching a time window are not contiguous; the log start is truncated
// into the front sealed segment and, separately, into the active batch;
// windows straddle the seal boundary, and empty and inverted windows ride
// along. Every window is queried twice: repeated queries answer the same.
void ExpectSameRows(const std::vector<StoredRecord>& got,
                    const std::vector<StoredRecord>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Record& g = got[i].record;
    const Record& w = want[i].record;
    EXPECT_EQ(got[i].offset, want[i].offset) << what << " row " << i;
    EXPECT_EQ(g.key, w.key) << what << " row " << i;
    EXPECT_EQ(g.payload, w.payload) << what << " row " << i;
    EXPECT_EQ(g.event_time, w.event_time) << what << " row " << i;
    EXPECT_EQ(g.ingest_time, w.ingest_time) << what << " row " << i;
    EXPECT_EQ(g.checksum, w.checksum) << what << " row " << i;
  }
}

void CheckQueriesAgainstModel(std::size_t seal_target, bool truncate_in_active,
                              std::uint64_t seed) {
  SimClock clock;
  Broker broker(clock);
  ASSERT_TRUE(
      broker.CreateTopic("ref", TopicConfig{.partitions = 1, .segment_bytes = seal_target})
          .ok());
  auto topic = broker.GetTopic("ref");
  ASSERT_TRUE(topic.ok());
  const Partition& part = (*topic)->partition(0);
  Rng rng(seed);
  // Event time drifts forward with ±40 ms of jitter around 1 ms per row.
  const auto produce = [&](int i) {
    const std::int64_t ms = i + static_cast<std::int64_t>(rng.NextBelow(81)) - 40;
    ASSERT_TRUE(broker
                    .Produce("ref", Record::MakeText("k" + std::to_string(i % 8),
                                                     "v" + std::to_string(i),
                                                     TimePoint::FromMillis(ms)))
                    .ok());
    clock.Advance(Duration::Micros(1 + static_cast<std::int64_t>(rng.NextBelow(500))));
  };
  int produced = 0;
  while (produced < 400) produce(produced++);
  // Segmented runs keep a few live active rows beside the sealed run.
  while (part.Snapshot(0, part.end_offset()).active.size() < 8) produce(produced++);
  const PartitionSnapshot before = part.Snapshot(0, part.end_offset());
  if (seal_target > 0) ASSERT_GE(before.sealed.size(), 3u);

  const Offset cut = truncate_in_active
                         ? before.active.base_offset() +
                               static_cast<Offset>(before.active.size() / 2)
                         : (before.sealed.empty()
                                ? static_cast<Offset>(produced / 4)
                                : before.sealed[0]->base_offset() +
                                      static_cast<Offset>(before.sealed[0]->rows() / 2));
  ASSERT_TRUE(broker.TruncateBefore("ref", 0, cut).ok());
  ASSERT_EQ(part.log_start_offset(), cut);

  auto all = part.Fetch(cut, 1'000'000);
  ASSERT_TRUE(all.ok());
  const std::vector<StoredRecord>& model = *all;
  const std::string ctx = "target=" + std::to_string(seal_target) +
                          " truncate_in_active=" + std::to_string(truncate_in_active) +
                          " seed=" + std::to_string(seed);

  // The seal boundary: the first active row, in offsets and event time.
  const PartitionSnapshot after = part.Snapshot(0, part.end_offset());
  const Offset seam = after.active.base_offset();
  const std::int64_t seam_ms = after.active.event_time(0).nanos() / 1'000'000;
  const Offset end = part.end_offset();

  std::vector<std::pair<Offset, Offset>> ranges = {
      {seam - 7, seam + 5}, {0, end + 100}, {cut - 3, cut + 3}, {seam, seam},
      {seam + 5, seam - 7}, {end, end + 10}};
  std::vector<std::pair<std::int64_t, std::int64_t>> times = {
      {seam_ms - 30, seam_ms + 30}, {-1'000, 1'000'000}, {seam_ms, seam_ms},
      {seam_ms + 30, seam_ms - 30}, {1'000'000, 2'000'000}};
  for (int i = 0; i < 20; ++i) {
    const auto lo = static_cast<Offset>(rng.NextBelow(static_cast<std::uint64_t>(end)));
    ranges.emplace_back(lo, lo + static_cast<Offset>(rng.NextBelow(120)));
    const auto t = static_cast<std::int64_t>(rng.NextBelow(static_cast<std::uint64_t>(produced)));
    times.emplace_back(t, t + static_cast<std::int64_t>(rng.NextBelow(90)));
  }

  for (const auto& [lo, hi] : ranges) {
    std::vector<StoredRecord> want;
    for (const StoredRecord& sr : model) {
      if (sr.offset >= lo && sr.offset < hi) want.push_back(sr);
    }
    for (int round = 0; round < 2; ++round) {
      const QueryResult res = QueryRange(part, lo, hi);
      ExpectSameRows(res.rows, want,
                     ctx + " range [" + std::to_string(lo) + "," + std::to_string(hi) + ")");
      EXPECT_EQ(res.stats.rows_returned, res.rows.size());
    }
  }
  for (const auto& [lo_ms, hi_ms] : times) {
    const TimePoint t_lo = TimePoint::FromMillis(lo_ms);
    const TimePoint t_hi = TimePoint::FromMillis(hi_ms);
    std::vector<StoredRecord> want;
    for (const StoredRecord& sr : model) {
      if (sr.record.event_time >= t_lo && sr.record.event_time < t_hi) want.push_back(sr);
    }
    for (int round = 0; round < 2; ++round) {
      const QueryResult res = QueryTime(part, t_lo, t_hi);
      ExpectSameRows(res.rows, want,
                     ctx + " time [" + std::to_string(lo_ms) + "," + std::to_string(hi_ms) +
                         ") ms");
      EXPECT_EQ(res.stats.rows_returned, res.rows.size());
      EXPECT_GE(res.stats.rows_examined, res.stats.rows_returned);
    }
  }
}

TEST(QueryReferenceModel, FlatLayoutMatchesBruteForce) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    CheckQueriesAgainstModel(0, /*truncate_in_active=*/false, seed);
    CheckQueriesAgainstModel(0, /*truncate_in_active=*/true, seed);
  }
}

TEST(QueryReferenceModel, SegmentedLayoutMatchesBruteForce) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    CheckQueriesAgainstModel(192, /*truncate_in_active=*/false, seed);
    CheckQueriesAgainstModel(192, /*truncate_in_active=*/true, seed);
  }
}

// --- differential determinism: segmentation is a pure layout change ---------

// Each scenario digest with segmentation off, then with a small seal
// target (so real runs cross many seams), must agree.
void ExpectScenarioParity(std::uint32_t replicas) {
  for (const std::size_t workers : {1u, 4u}) {
    for (const std::uint64_t seed : {3ull, 11ull}) {
      RuntimeConfig off = RuntimeConfig::Process();
      off.exec_workers = workers;
      off.replicas = replicas;
      off.segment_bytes = 0;
      RuntimeConfig on = off;
      on.segment_bytes = 1024;
      EXPECT_EQ(scenarios::TourismDigest(seed, off), scenarios::TourismDigest(seed, on))
          << "tourism workers=" << workers << " seed=" << seed;
      EXPECT_EQ(scenarios::OverloadDigest(seed, off), scenarios::OverloadDigest(seed, on))
          << "overload workers=" << workers << " seed=" << seed;
    }
  }
}

TEST(StorageDeterminism, ScenarioDigestsFactorOne) { ExpectScenarioParity(1); }

TEST(StorageDeterminism, ScenarioDigestsFactorThree) { ExpectScenarioParity(3); }

TEST(StorageDeterminism, FailoverSoakCommittedDigestAcrossModes) {
  for (const std::uint32_t factor : {1u, 3u}) {
    scenarios::FailoverConfig cfg;
    cfg.records = 400;
    cfg.replication_factor = factor;
    cfg.seed = 21;
    cfg.fault_seed = 5;
    if (factor > 1) {
      cfg.fault_spec = "nodecrash@p=0.01,x=10;torn@p=0.01";
      cfg.kill_p = 0.04;
    }
    cfg.segment_bytes = 0;
    auto off = scenarios::RunFailoverSoak(cfg);
    cfg.segment_bytes = 512;
    auto on = scenarios::RunFailoverSoak(cfg);
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    ASSERT_FALSE(off->wedged);
    ASSERT_FALSE(on->wedged);
    EXPECT_EQ(off->committed_digest, on->committed_digest) << "factor=" << factor;
    EXPECT_EQ(off->results, on->results) << "factor=" << factor;
    EXPECT_EQ(off->acked, on->acked);
    EXPECT_EQ(on->committed_loss, 0u);
    EXPECT_EQ(on->log_duplicates, 0u);
    EXPECT_EQ(on->output_duplicates, 0u);
  }
}

TEST(StorageDeterminism, ClusterSoakCommittedDigestAcrossModes) {
  scenarios::ClusterSoakConfig cfg;
  cfg.seed = 9;
  cfg.brokers = 4;
  cfg.partitions = 6;
  cfg.replication_factor = 3;
  cfg.consumers = 3;
  cfg.fleet.users = 2000;
  cfg.fleet.hotspots = 32;
  cfg.fleet.ticks = 12;
  cfg.fleet.peak_events_per_tick = 80;
  cfg.fleet.seed = 13;
  cfg.segment_bytes = 0;
  auto off = scenarios::RunClusterSoak(cfg);
  cfg.segment_bytes = 512;
  auto on = scenarios::RunClusterSoak(cfg);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  ASSERT_FALSE(off->wedged);
  ASSERT_FALSE(on->wedged);
  EXPECT_EQ(off->committed_digest, on->committed_digest);
  EXPECT_EQ(off->acked, on->acked);
  EXPECT_EQ(off->delivered, on->delivered);
  EXPECT_EQ(on->committed_loss, 0u);
  EXPECT_EQ(on->delivered_duplicates, 0u);
  EXPECT_EQ(on->delivery_gaps, 0u);
}

TEST(StorageDeterminism, SessionReplayDigestAcrossModes) {
  scenarios::SessionReplayConfig cfg;
  cfg.tourists = 4;
  cfg.events_per_tourist = 200;
  cfg.seed = 42;
  cfg.segment_bytes = 0;
  const auto flat = scenarios::RunSessionReplay(cfg);
  cfg.segment_bytes = 1024;
  const auto seg = scenarios::RunSessionReplay(cfg);
  EXPECT_TRUE(flat.AllVerified(cfg)) << "mismatches=" << flat.mismatches
                                     << " seek_errors=" << flat.seek_errors;
  EXPECT_TRUE(seg.AllVerified(cfg)) << "mismatches=" << seg.mismatches
                                    << " seek_errors=" << seg.seek_errors;
  EXPECT_EQ(flat.sealed_segments, 0u);
  EXPECT_GT(seg.sealed_segments, 0u) << "segmented run must actually seal";
  EXPECT_EQ(flat.digest, seg.digest);
  EXPECT_EQ(flat.replayed_rows, seg.replayed_rows);
  EXPECT_EQ(flat.seek_replays, seg.seek_replays);
}

}  // namespace
}  // namespace arbd::stream
