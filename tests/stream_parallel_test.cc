// ParallelProduce / ParallelFetchAll contract: driver-side partition
// assignment makes the produced log independent of worker count and of
// the storage mode (flat or segmented log), budget rejections are counted
// the same at every replication factor, fetches that straddle a truncated
// log start return exactly the surviving rows, and a fetch landing below
// the log start returns the structured OutOfRange [log_start, end) range —
// the payload consumer auto-reset repositioning depends on.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "exec/executor.h"
#include "stream/consumer.h"
#include "stream/log.h"
#include "stream/parallel.h"

namespace arbd::stream {
namespace {

exec::ExecConfig Cfg(std::size_t workers) {
  exec::ExecConfig cfg;
  cfg.workers = workers;
  return cfg;
}

std::vector<Record> SeededRecords(std::uint64_t seed, std::size_t n, SimClock& clock) {
  Rng rng(seed ^ 0x9a7a11e1ULL);
  std::vector<Record> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string key = "k" + std::to_string(rng.NextU64() % 8);
    Bytes payload(4 + rng.NextU64() % 20, static_cast<std::uint8_t>(i));
    out.push_back(Record::Make(key, std::move(payload), clock.Now()));
  }
  return out;
}

// Digest of everything ParallelFetchAll returned, partition-major.
std::uint64_t FetchDigest(const std::vector<std::vector<StoredRecord>>& fetched) {
  BinaryWriter w;
  for (std::size_t p = 0; p < fetched.size(); ++p) {
    for (const auto& sr : fetched[p]) {
      w.WriteU32(sr.partition);
      w.WriteI64(sr.offset);
      w.WriteString(sr.record.key);
      w.WriteBytes(sr.record.payload);
      w.WriteI64(sr.record.event_time.nanos());
      w.WriteU64(sr.record.checksum);
    }
  }
  return Fnv1a(w.bytes());
}

TEST(StreamParallel, ProduceAndFetchIdenticalAcrossWorkersAndModes) {
  // Modes: the flat single-batch store, and a segmented log whose small
  // seal target puts seams inside every partition's fetch range.
  std::uint64_t reference = 0;
  bool first = true;
  for (const std::size_t segment_bytes : {0u, 256u}) {
    for (const std::size_t workers : {1u, 4u}) {
      SimClock clock;
      Broker broker(clock);
      exec::Executor ex(Cfg(workers));
      TopicConfig tc;
      tc.partitions = 4;
      tc.segment_bytes = segment_bytes;
      ASSERT_TRUE(broker.CreateTopic("par.t", tc).ok());
      const auto rep = ParallelProduce(ex, broker, "par.t", SeededRecords(3, 120, clock));
      EXPECT_EQ(rep.produced, 120u);
      EXPECT_EQ(rep.rejected, 0u);
      const std::uint64_t digest =
          FetchDigest(ParallelFetchAll(ex, broker, "par.t", 1024));
      if (first) {
        reference = digest;
        first = false;
      } else {
        EXPECT_EQ(digest, reference)
            << "segment_bytes=" << segment_bytes << " workers=" << workers;
      }
    }
  }
}

TEST(StreamParallel, ProduceBudgetAccountingMatchesAcrossModes) {
  // Over-budget produce through a single worker (the digest scenarios
  // clamp to credit on the driver; here we deliberately exceed the budget
  // so the reject accounting itself is exercised). Modes: a single copy,
  // and a factor-3 replica group whose quorum commit sits behind the
  // budget check.
  for (const std::uint32_t factor : {1u, 3u}) {
    SimClock clock;
    Broker broker(clock);
    exec::Executor ex(Cfg(1));
    TopicConfig tc;
    tc.partitions = 2;
    tc.max_records = 48;
    tc.replication_factor = factor;
    ASSERT_TRUE(broker.CreateTopic("par.budget", tc).ok());
    const auto rep = ParallelProduce(ex, broker, "par.budget", SeededRecords(5, 80, clock));
    EXPECT_EQ(rep.produced, 48u) << "factor=" << factor;
    EXPECT_EQ(rep.rejected, 32u) << "factor=" << factor;
    EXPECT_EQ(rep.unavailable, 0u) << "factor=" << factor;
    EXPECT_EQ(broker.backpressure_rejects(), 32u) << "factor=" << factor;
    auto topic = broker.GetTopic("par.budget");
    ASSERT_TRUE(topic.ok());
    EXPECT_EQ((*topic)->TotalRecords(), 48u) << "factor=" << factor;
  }
}

// Regression: a fetch below the truncated log start must return
// OutOfRange carrying the exact [log_start, end) range — through both the
// columnar FetchBatch and the row-materializing Fetch — not a bare error.
TEST(StreamParallel, FetchBelowTruncatedStartCarriesRangeInBothModes) {
  SimClock clock;
  Broker broker(clock);
  TopicConfig tc;
  tc.partitions = 1;
  ASSERT_TRUE(broker.CreateTopic("par.trunc", tc).ok());
  for (std::size_t i = 0; i < 40; ++i) {
    auto off = broker.ProduceToPartition(
        "par.trunc", 0, Record::MakeText("k", "v" + std::to_string(i), clock.Now()));
    ASSERT_TRUE(off.ok());
  }
  auto dropped = broker.TruncateBefore("par.trunc", 0, 10);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 10u);

  auto rec = broker.Fetch("par.trunc", 0, 0, 16);
  ASSERT_FALSE(rec.ok());
  ASSERT_EQ(rec.status().code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(rec.status().has_range());

  auto bat = broker.FetchBatch("par.trunc", 0, 0, 16);
  ASSERT_FALSE(bat.ok());
  ASSERT_EQ(bat.status().code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(bat.status().has_range());
  EXPECT_EQ(bat.status().range_lo(), rec.status().range_lo());
  EXPECT_EQ(bat.status().range_hi(), rec.status().range_hi());
  EXPECT_EQ(bat.status().range_lo(), 10);
  EXPECT_EQ(bat.status().range_hi(), 40);

  // Beyond-end fetches carry the same range payload too.
  auto past = broker.FetchBatch("par.trunc", 0, 99, 16);
  ASSERT_FALSE(past.ok());
  ASSERT_TRUE(past.status().has_range());
  EXPECT_EQ(past.status().range_lo(), 10);
  EXPECT_EQ(past.status().range_hi(), 40);

  // A fetch starting exactly at the new log start succeeds, and both
  // shapes return the surviving rows.
  auto ok_batch = broker.FetchBatch("par.trunc", 0, 10, 1024);
  ASSERT_TRUE(ok_batch.ok());
  EXPECT_EQ(ok_batch->base_offset(), 10);
  EXPECT_EQ(ok_batch->size(), 30u);
  auto ok_rec = broker.Fetch("par.trunc", 0, 10, 1024);
  ASSERT_TRUE(ok_rec.ok());
  ASSERT_EQ(ok_rec->size(), ok_batch->size());
  for (std::size_t i = 0; i < ok_rec->size(); ++i) {
    EXPECT_EQ((*ok_rec)[i].record.key, ok_batch->key(i));
    EXPECT_EQ((*ok_rec)[i].offset, ok_batch->base_offset() + static_cast<Offset>(i));
  }
}

TEST(StreamParallel, ConsumerAutoResetAfterTruncationInBatchMode) {
  // Poll materializes the columnar PollBatches: the auto-reset works off
  // the structured range FetchBatch returns.
  SimClock clock;
  Broker broker(clock);
  TopicConfig tc;
  tc.partitions = 1;
  ASSERT_TRUE(broker.CreateTopic("par.reset", tc).ok());
  ConsumerGroup group(broker, "g", "par.reset", ResetPolicy::kEarliest);
  auto consumer = group.Join("c0");
  ASSERT_TRUE(consumer.ok());
  for (std::size_t i = 0; i < 10; ++i) {
    (void)broker.ProduceToPartition(
        "par.reset", 0, Record::MakeText("k", "a" + std::to_string(i), clock.Now()));
  }
  EXPECT_EQ((*consumer)->Poll(4).size(), 4u);  // position now 4
  // Truncation races ahead of the consumer: offsets [0, 8) are gone.
  ASSERT_TRUE(broker.TruncateBefore("par.reset", 0, 8).ok());
  const auto rows = (*consumer)->Poll(100);
  EXPECT_EQ(group.auto_reset_count(), 1u);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].offset, 8);
  EXPECT_EQ(rows[0].record.TextPayload(), "a8");
  EXPECT_EQ(rows[1].offset, 9);
}

}  // namespace
}  // namespace arbd::stream
