#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "stream/batch.h"
#include "stream/log.h"

namespace arbd::stream {
namespace {

Record TextRecord(const std::string& key, const std::string& text, std::int64_t ms = 0) {
  return Record::MakeText(key, text, TimePoint::FromMillis(ms));
}

class BrokerTest : public ::testing::Test {
 protected:
  SimClock clock_;
  Broker broker_{clock_};
};

TEST(RecordTest, EncodeDecodeRoundTrip) {
  Record r = TextRecord("user-1", "payload body", 1234);
  r.ingest_time = TimePoint::FromMillis(1300);
  const auto decoded = Record::Decode(r.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->key, "user-1");
  EXPECT_EQ(decoded->TextPayload(), "payload body");
  EXPECT_EQ(decoded->event_time.millis(), 1234);
  EXPECT_EQ(decoded->ingest_time.millis(), 1300);
}

TEST(RecordTest, ChecksumDetectsCorruption) {
  Record r = TextRecord("k", "important data");
  Bytes encoded = r.Encode();
  // Flip a byte inside the payload region.
  encoded[10] ^= 0xFF;
  const auto decoded = Record::Decode(encoded);
  EXPECT_FALSE(decoded.ok());
}

// Seeded rows with empty keys and empty payloads mixed in — zero-length
// runs are the classic off-by-one trap in prefix-offset layouts — and a
// trace context on every fifth row.
RecordBatch SeededBatch(std::uint64_t seed, std::size_t rows) {
  Rng rng(seed ^ 0x5eedba7cULL);
  RecordBatch b;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::string key =
        (i % 7 == 3) ? "" : "key-" + std::to_string(rng.NextU64() % 32);
    Bytes payload(rng.NextU64() % 24, static_cast<std::uint8_t>(rng.NextU64() % 256));
    if (i % 11 == 5) payload.clear();
    const Record r = Record::Make(
        key, std::move(payload),
        TimePoint::FromMillis(static_cast<std::int64_t>(rng.NextU64() % 100000)));
    trace::SpanContext ctx;
    if (i % 5 == 0) ctx.trace_id = seed * 1000 + i;
    b.AppendRow(r.key, r.payload.data(), r.payload.size(), r.event_time,
                TimePoint::FromMillis(static_cast<std::int64_t>(i)), r.checksum, ctx);
  }
  return b;
}

void ExpectRowEqual(const RecordBatch& got, std::size_t i, const RecordBatch& want,
                    std::size_t j) {
  EXPECT_EQ(got.key(i), want.key(j)) << "row " << i;
  ASSERT_EQ(got.payload_size(i), want.payload_size(j)) << "row " << i;
  EXPECT_TRUE(std::equal(got.payload_data(i), got.payload_data(i) + got.payload_size(i),
                         want.payload_data(j)))
      << "row " << i;
  EXPECT_EQ(got.event_time(i), want.event_time(j)) << "row " << i;
  EXPECT_EQ(got.ingest_time(i), want.ingest_time(j)) << "row " << i;
  EXPECT_EQ(got.checksum(i), want.checksum(j)) << "row " << i;
  EXPECT_EQ(got.row_bytes(i), want.row_bytes(j)) << "row " << i;
  EXPECT_EQ(got.trace_ctx(i).trace_id, want.trace_ctx(j).trace_id) << "row " << i;
}

TEST(RecordBatchTest, EmptyBatchHasNoRows) {
  RecordBatch b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.byte_size(), 0u);
  EXPECT_TRUE(b.Materialize().empty());
  RecordBatch copy;
  copy.AppendRange(b, 0, 0);
  EXPECT_TRUE(copy.empty());
}

TEST(RecordBatchTest, AppendRangeRebasesOffsets) {
  // Three ranges from two sources land back to back: every column of
  // every row survives, and the key/payload prefix offsets are rebased
  // onto the destination's running totals.
  const RecordBatch a = SeededBatch(1, 40);
  const RecordBatch b = SeededBatch(2, 40);
  RecordBatch out;
  out.AppendRange(a, 5, 20);
  out.AppendRange(b, 0, 1);
  out.AppendRange(b, 17, 23);
  ASSERT_EQ(out.size(), 44u);
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < 20; ++i) ExpectRowEqual(out, i, a, 5 + i);
  ExpectRowEqual(out, 20, b, 0);
  for (std::size_t i = 0; i < 23; ++i) ExpectRowEqual(out, 21 + i, b, 17 + i);
  for (std::size_t i = 0; i < out.size(); ++i) bytes += out.row_bytes(i);
  EXPECT_EQ(out.byte_size(), bytes);
  // Appending a single row after bulk ranges continues the same offsets.
  out.AppendRow("tail", nullptr, 0, TimePoint::FromMillis(1), TimePoint::FromMillis(2), 7);
  EXPECT_EQ(out.key(44), "tail");
  EXPECT_EQ(out.payload_size(44), 0u);
  EXPECT_EQ(out.byte_size(), bytes + 4);
}

TEST(RecordBatchTest, TraceContextsSurviveAppend) {
  // The trace column starts empty and fills in at the first traced row,
  // including when that row is the batch's first.
  const RecordBatch b = SeededBatch(4, 12);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b.trace_ctx(i).trace_id, i % 5 == 0 ? 4000 + i : 0u) << "row " << i;
  }
  RecordBatch late;
  late.AppendRow("a", nullptr, 0, TimePoint{}, TimePoint{}, 0);
  trace::SpanContext ctx;
  ctx.trace_id = 9;
  late.AppendRow("b", nullptr, 0, TimePoint{}, TimePoint{}, 0, ctx);
  late.AppendRange(b, 1, 5);
  EXPECT_EQ(late.trace_ctx(0).trace_id, 0u);
  EXPECT_EQ(late.trace_ctx(1).trace_id, 9u);
  EXPECT_EQ(late.trace_ctx(2).trace_id, 0u);
  EXPECT_EQ(late.trace_ctx(6).trace_id, 4005u);
  Record traced;
  late.MaterializeRecord(1, traced);
  EXPECT_EQ(traced.trace_ctx.trace_id, 9u);
}

TEST(RecordBatchTest, MaterializedRecordsMatchColumns) {
  RecordBatch b = SeededBatch(9, 32);
  b.set_base_offset(100);
  b.set_partition(3);
  const std::vector<StoredRecord> all = b.Materialize();
  ASSERT_EQ(all.size(), b.size());
  // One destination reused for every row: each build overwrites every
  // field of the previous one.
  Record r;
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.MaterializeRecord(i, r);
    EXPECT_EQ(r.key, b.key(i));
    ASSERT_EQ(r.payload.size(), b.payload_size(i));
    EXPECT_TRUE(std::equal(r.payload.begin(), r.payload.end(), b.payload_data(i)));
    EXPECT_EQ(r.event_time, b.event_time(i));
    EXPECT_EQ(r.ingest_time, b.ingest_time(i));
    EXPECT_EQ(r.checksum, b.checksum(i));
    EXPECT_EQ(r.trace_ctx.trace_id, b.trace_ctx(i).trace_id);
    EXPECT_EQ(all[i].offset, 100 + static_cast<Offset>(i));
    EXPECT_EQ(all[i].partition, 3u);
    EXPECT_EQ(all[i].record.key, r.key);
    EXPECT_EQ(all[i].record.payload, r.payload);
  }
}

TEST(PartitionTest, OffsetsAreDense) {
  Partition p(DefaultSegmentBytes());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(p.Append(TextRecord("k", "v"), TimePoint{}), i);
  }
  EXPECT_EQ(p.log_start_offset(), 0);
  EXPECT_EQ(p.end_offset(), 5);
}

TEST(PartitionTest, FetchRange) {
  Partition p(DefaultSegmentBytes());
  for (int i = 0; i < 10; ++i) p.Append(TextRecord("k", std::to_string(i)), TimePoint{});
  auto got = p.Fetch(3, 4);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 4u);
  EXPECT_EQ((*got)[0].offset, 3);
  EXPECT_EQ((*got)[0].record.TextPayload(), "3");
  EXPECT_EQ((*got)[3].record.TextPayload(), "6");
}

TEST(PartitionTest, FetchAtEndIsEmpty) {
  Partition p(DefaultSegmentBytes());
  p.Append(TextRecord("k", "v"), TimePoint{});
  auto got = p.Fetch(1, 10);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

TEST(PartitionTest, FetchBeyondEndFails) {
  Partition p(DefaultSegmentBytes());
  auto got = p.Fetch(5, 1);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange);
}

TEST(PartitionTest, OutOfRangeFetchCarriesRetainedWindow) {
  // The out-of-range error must carry the valid [log_start, end) window as
  // a structured payload — consumers reposition from it without parsing
  // the message text.
  Partition p(DefaultSegmentBytes());
  for (int i = 0; i < 10; ++i) p.Append(TextRecord("k", std::to_string(i)), TimePoint{});
  p.TruncateBefore(4);

  auto below = p.Fetch(1, 4);
  ASSERT_FALSE(below.ok());
  ASSERT_TRUE(below.status().has_range());
  EXPECT_EQ(below.status().range_lo(), 4);
  EXPECT_EQ(below.status().range_hi(), 10);

  auto beyond = p.Fetch(11, 4);
  ASSERT_FALSE(beyond.ok());
  ASSERT_TRUE(beyond.status().has_range());
  EXPECT_EQ(beyond.status().range_lo(), 4);
  EXPECT_EQ(beyond.status().range_hi(), 10);
}

TEST(PartitionTest, FetchAtLogStartAfterTruncate) {
  // The boundary itself: a fetch at exactly log_start_offset is the first
  // valid position after truncation, one below it is the first invalid.
  Partition p(DefaultSegmentBytes());
  for (int i = 0; i < 10; ++i) p.Append(TextRecord("k", std::to_string(i)), TimePoint{});
  EXPECT_EQ(p.TruncateBefore(4), 4u);
  ASSERT_EQ(p.log_start_offset(), 4);

  auto at_start = p.Fetch(p.log_start_offset(), 3);
  ASSERT_TRUE(at_start.ok());
  ASSERT_EQ(at_start->size(), 3u);
  EXPECT_EQ((*at_start)[0].offset, 4);
  EXPECT_EQ((*at_start)[0].record.TextPayload(), "4");

  auto below = p.Fetch(p.log_start_offset() - 1, 1);
  ASSERT_FALSE(below.ok());
  EXPECT_EQ(below.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(below.status().range_lo(), 4);
}

TEST(PartitionTest, FetchAtLogStartOfFullyTruncatedPartition) {
  // Truncating everything leaves start == end; a fetch there is an empty
  // success (a consumer waiting for new data), not an error.
  Partition p(DefaultSegmentBytes());
  for (int i = 0; i < 3; ++i) p.Append(TextRecord("k", "v"), TimePoint{});
  EXPECT_EQ(p.TruncateBefore(99), 3u);  // clamped to end
  EXPECT_EQ(p.log_start_offset(), 3);
  EXPECT_EQ(p.end_offset(), 3);
  auto got = p.Fetch(p.log_start_offset(), 10);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
  // The next append lands at the boundary and becomes fetchable there.
  EXPECT_EQ(p.Append(TextRecord("k", "fresh"), TimePoint{}), 3);
  auto next = p.Fetch(3, 1);
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(next->size(), 1u);
  EXPECT_EQ((*next)[0].record.TextPayload(), "fresh");
}

TEST(PartitionTest, RetentionByCount) {
  Partition p(DefaultSegmentBytes());
  for (int i = 0; i < 10; ++i) p.Append(TextRecord("k", std::to_string(i)), TimePoint{});
  TopicConfig cfg;
  cfg.retention_records = 4;
  EXPECT_EQ(p.EnforceRetention(cfg, TimePoint{}), 6u);
  EXPECT_EQ(p.log_start_offset(), 6);
  EXPECT_EQ(p.end_offset(), 10);
  // Fetch below the retained range is refused.
  EXPECT_FALSE(p.Fetch(2, 1).ok());
  EXPECT_TRUE(p.Fetch(6, 1).ok());
}

TEST(PartitionTest, RetentionByTime) {
  Partition p(DefaultSegmentBytes());
  for (int i = 0; i < 5; ++i) {
    p.Append(TextRecord("k", "v"), TimePoint::FromMillis(i * 1000));
  }
  TopicConfig cfg;
  cfg.retention_time = Duration::Seconds(2);
  const std::size_t dropped = p.EnforceRetention(cfg, TimePoint::FromMillis(4500));
  EXPECT_EQ(dropped, 3u);  // ingest times 0,1000,2000 are older than 2500
  EXPECT_EQ(p.log_start_offset(), 3);
}

TEST(TopicTest, KeyHashingIsStable) {
  Topic t("t", TopicConfig{.partitions = 8});
  const PartitionId p1 = t.PartitionFor("alice");
  for (int i = 0; i < 10; ++i) EXPECT_EQ(t.PartitionFor("alice"), p1);
}

TEST(TopicTest, EmptyKeyRoundRobins) {
  Topic t("t", TopicConfig{.partitions = 4});
  std::set<PartitionId> seen;
  for (int i = 0; i < 8; ++i) seen.insert(t.PartitionFor(""));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(TopicTest, ZeroPartitionsCoercedToOne) {
  Topic t("t", TopicConfig{.partitions = 0});
  EXPECT_EQ(t.partition_count(), 1u);
}

TEST_F(BrokerTest, CreateAndDuplicateTopic) {
  EXPECT_TRUE(broker_.CreateTopic("events", {}).ok());
  const Status dup = broker_.CreateTopic("events", {});
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(broker_.HasTopic("events"));
}

TEST_F(BrokerTest, RejectsEmptyTopicName) {
  EXPECT_EQ(broker_.CreateTopic("", {}).code(), StatusCode::kInvalidArgument);
}

TEST_F(BrokerTest, ProduceToUnknownTopicFails) {
  auto r = broker_.Produce("nope", TextRecord("k", "v"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(BrokerTest, ProduceStampsIngestTime) {
  ASSERT_TRUE(broker_.CreateTopic("events", {}).ok());
  clock_.Advance(Duration::Millis(77));
  auto pos = broker_.Produce("events", TextRecord("k", "v"));
  ASSERT_TRUE(pos.ok());
  auto fetched = broker_.Fetch("events", pos->first, pos->second, 1);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ((*fetched)[0].record.ingest_time.millis(), 77);
}

TEST_F(BrokerTest, FetchInvalidPartition) {
  ASSERT_TRUE(broker_.CreateTopic("events", {.partitions = 2}).ok());
  auto r = broker_.Fetch("events", 9, 0, 1);
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST_F(BrokerTest, SameKeySamePartitionOrdered) {
  ASSERT_TRUE(broker_.CreateTopic("events", {.partitions = 8}).ok());
  PartitionId part = 0;
  for (int i = 0; i < 20; ++i) {
    auto pos = broker_.Produce("events", TextRecord("vehicle-7", std::to_string(i)));
    ASSERT_TRUE(pos.ok());
    if (i == 0) part = pos->first;
    EXPECT_EQ(pos->first, part) << "key must map to one partition";
  }
  auto fetched = broker_.Fetch("events", part, 0, 100);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched->size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ((*fetched)[static_cast<std::size_t>(i)].record.TextPayload(),
              std::to_string(i));
  }
}

TEST_F(BrokerTest, RetentionAcrossTopics) {
  TopicConfig cfg;
  cfg.retention_records = 2;
  ASSERT_TRUE(broker_.CreateTopic("a", cfg).ok());
  ASSERT_TRUE(broker_.CreateTopic("b", cfg).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(broker_.Produce("a", TextRecord("", "x")).ok());
    ASSERT_TRUE(broker_.Produce("b", TextRecord("", "x")).ok());
  }
  EXPECT_GT(broker_.RunRetention(), 0u);
  EXPECT_EQ((*broker_.GetTopic("a"))->TotalRecords(), 2u);
}

TEST_F(BrokerTest, DeleteTopic) {
  ASSERT_TRUE(broker_.CreateTopic("gone", {}).ok());
  EXPECT_TRUE(broker_.DeleteTopic("gone").ok());
  EXPECT_FALSE(broker_.HasTopic("gone"));
  EXPECT_EQ(broker_.DeleteTopic("gone").code(), StatusCode::kNotFound);
}

TEST_F(BrokerTest, RecordBudgetRejectsWhenFull) {
  TopicConfig cfg;
  cfg.partitions = 1;
  cfg.max_records = 4;
  ASSERT_TRUE(broker_.CreateTopic("t", cfg).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(broker_.Produce("t", TextRecord("k", "v")).ok());
  }
  EXPECT_EQ(broker_.Credit("t"), 0u);
  EXPECT_DOUBLE_EQ(broker_.Pressure("t"), 1.0);
  auto rejected = broker_.Produce("t", TextRecord("k", "v"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(broker_.backpressure_rejects(), 1u);
}

TEST_F(BrokerTest, TruncateReturnsCreditToProducers) {
  TopicConfig cfg;
  cfg.partitions = 1;
  cfg.max_records = 4;
  ASSERT_TRUE(broker_.CreateTopic("t", cfg).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(broker_.Produce("t", TextRecord("k", std::to_string(i))).ok());
  }
  ASSERT_EQ(broker_.Credit("t"), 0u);

  // A consumer commits through offset 2 and truncates: budget comes back.
  auto dropped = broker_.TruncateBefore("t", 0, 2);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 2u);
  EXPECT_EQ(broker_.Credit("t"), 2u);
  EXPECT_TRUE(broker_.Produce("t", TextRecord("k", "v")).ok());
  // Offsets stay dense across the truncation.
  EXPECT_FALSE(broker_.Fetch("t", 0, 1, 1).ok());  // truncated away
  EXPECT_TRUE(broker_.Fetch("t", 0, 2, 1).ok());
}

TEST_F(BrokerTest, ByteBudgetBoundsQueueBytes) {
  TopicConfig cfg;
  cfg.partitions = 1;
  cfg.max_bytes = 40;  // each record is 1 key byte + 10 payload bytes
  ASSERT_TRUE(broker_.CreateTopic("t", cfg).ok());
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (broker_.Produce("t", TextRecord("k", "0123456789")).ok()) ++accepted;
  }
  // 4 records = 44 bytes is the first state at/over budget, so the 5th
  // and later produces are rejected.
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ((*broker_.GetTopic("t"))->TotalBytes(), 44u);
  EXPECT_GT(broker_.backpressure_rejects(), 0u);
}

TEST_F(BrokerTest, UnbudgetedTopicHasInfiniteCreditAndZeroPressure) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 1}).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(broker_.Produce("t", TextRecord("k", "v")).ok());
  }
  EXPECT_EQ(broker_.Credit("t"), SIZE_MAX);
  EXPECT_DOUBLE_EQ(broker_.Pressure("t"), 0.0);
  EXPECT_EQ(broker_.backpressure_rejects(), 0u);
}

TEST_F(BrokerTest, ExportsDepthByteAndLagGauges) {
  MetricRegistry reg;
  broker_.set_metrics(&reg);
  TopicConfig cfg;
  cfg.partitions = 1;
  cfg.max_records = 16;
  ASSERT_TRUE(broker_.CreateTopic("t", cfg).ok());

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(broker_.Produce("t", TextRecord("k", "0123456789")).ok());
  }
  EXPECT_DOUBLE_EQ(reg.Get("qos.depth.t.p0"), 3.0);
  EXPECT_DOUBLE_EQ(reg.Get("qos.bytes.t"), 33.0);

  // Ingest-to-fetch lag: records ingested at t=0, fetched 50ms later.
  clock_.Advance(Duration::Millis(50));
  ASSERT_TRUE(broker_.Fetch("t", 0, 0, 10).ok());
  EXPECT_NEAR(reg.Get("qos.lag_ms.t.p0"), 50.0, 1e-9);

  // Truncation updates the depth gauge too.
  ASSERT_TRUE(broker_.TruncateBefore("t", 0, 2).ok());
  EXPECT_DOUBLE_EQ(reg.Get("qos.depth.t.p0"), 1.0);
}

TEST_F(BrokerTest, BackpressureCounterExported) {
  MetricRegistry reg;
  broker_.set_metrics(&reg);
  TopicConfig cfg;
  cfg.partitions = 1;
  cfg.max_records = 1;
  ASSERT_TRUE(broker_.CreateTopic("t", cfg).ok());
  ASSERT_TRUE(broker_.Produce("t", TextRecord("k", "v")).ok());
  ASSERT_FALSE(broker_.Produce("t", TextRecord("k", "v")).ok());
  EXPECT_DOUBLE_EQ(reg.Get("qos.backpressure.t"), 1.0);
}

TEST_F(BrokerTest, TopicNamesSorted) {
  ASSERT_TRUE(broker_.CreateTopic("zeta", {}).ok());
  ASSERT_TRUE(broker_.CreateTopic("alpha", {}).ok());
  const auto names = broker_.TopicNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

}  // namespace
}  // namespace arbd::stream
