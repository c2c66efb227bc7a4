// Soak-labeled segment-churn suite (ctest -L soak): 100 seeded op
// schedules drive two brokers through the identical sequence of produce
// bursts (keyed records, tombstones, occasional bulk appends), truncation,
// time+record retention sweeps, fetches, and historical queries — one
// broker flat (segmentation off), one with a seed-varied small seal
// target so the run constantly seals and drops segments. After every op the externally observable state must
// be bit-identical across the pair: offsets, sizes, live bytes, fetched
// rows, query answers, structured OutOfRange windows, and the final
// committed-log digest. Any divergence is a seam bug the deterministic
// unit tests didn't reach.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "stream/log.h"
#include "stream/query.h"
#include "stream/replication.h"

namespace arbd::stream {
namespace {

constexpr char kTopic[] = "churn";

// One broker plus its own clock; the side's topic is created with its
// seal target, so the pair differs only in storage layout.
struct Side {
  explicit Side(std::size_t seal_target) : target(seal_target), broker(clock) {}

  std::size_t target;
  SimClock clock;
  Broker broker;
};

struct PlannedRecord {
  std::string key;
  std::string payload;  // empty = tombstone
  std::int64_t event_ms = 0;
};

class SegmentChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SegmentChurn, FlatAndSegmentedStayBitIdentical) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0x5e6c'4e75'0a4bULL);

  Side flat(0);
  Side seg(48 + rng.NextBelow(480));

  TopicConfig tc;
  tc.partitions = static_cast<std::uint32_t>(1 + rng.NextBelow(3));
  if (rng.Bernoulli(0.5)) tc.retention_records = 40 + rng.NextBelow(160);
  if (rng.Bernoulli(0.4)) tc.retention_time = Duration::Millis(200 + rng.NextBelow(800));
  for (Side* s : {&flat, &seg}) {
    tc.segment_bytes = s->target;
    ASSERT_TRUE(s->broker.CreateTopic(kTopic, tc).ok());
  }
  // Retired draw (it sized a query block cache that no longer exists),
  // kept so every seed replays the same churn schedule as before.
  (void)rng.NextBelow(28);

  // Every observable both sides must agree on, checked after each op.
  std::size_t max_sealed = 0;
  auto expect_converged = [&](int op) {
    for (PartitionId p = 0; p < tc.partitions; ++p) {
      auto ft = flat.broker.GetTopic(kTopic);
      auto st = seg.broker.GetTopic(kTopic);
      ASSERT_TRUE(ft.ok() && st.ok());
      const Partition& fp = (*ft)->partition(p);
      const Partition& sp = (*st)->partition(p);
      ASSERT_EQ(fp.log_start_offset(), sp.log_start_offset())
          << "op=" << op << " p=" << p;
      ASSERT_EQ(fp.end_offset(), sp.end_offset()) << "op=" << op << " p=" << p;
      ASSERT_EQ(fp.bytes(), sp.bytes())
          << "op=" << op << " p=" << p << " (live bytes diverged)";
      max_sealed = std::max(max_sealed, sp.sealed_segment_count());
    }
  };

  std::int64_t next_event_ms = 0;
  int produced = 0;
  const int ops = 220;
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t kind = rng.NextU64() % 100;
    if (kind < 55) {
      // Produce burst: plan the records once, feed both sides copies.
      const std::size_t n = 1 + rng.NextBelow(32);
      std::vector<PlannedRecord> plan;
      plan.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        PlannedRecord pr;
        pr.key = "k" + std::to_string(rng.NextBelow(12));
        if (!rng.Bernoulli(0.08)) {  // 8% tombstones
          pr.payload = "v" + std::to_string(produced + static_cast<int>(i)) +
                       std::string(rng.NextBelow(48), 'x');
        }
        pr.event_ms = next_event_ms + static_cast<std::int64_t>(rng.NextBelow(7));
        next_event_ms += 3;
        plan.push_back(std::move(pr));
      }
      produced += static_cast<int>(n);
      for (Side* s : {&flat, &seg}) {
        for (const auto& pr : plan) {
          auto r = s->broker.Produce(
              kTopic, Record::MakeText(pr.key, pr.payload, TimePoint::FromMillis(pr.event_ms)));
          EXPECT_TRUE(r.ok());
        }
      }
    } else if (kind < 65) {
      // Truncate: pick the cut from the (converged) flat side's window.
      const auto p = static_cast<PartitionId>(rng.NextBelow(tc.partitions));
      auto ft = flat.broker.GetTopic(kTopic);
      ASSERT_TRUE(ft.ok());
      const Offset lo = (*ft)->partition(p).log_start_offset();
      const Offset hi = (*ft)->partition(p).end_offset();
      const Offset cut = lo + static_cast<Offset>(
                                  rng.NextBelow(static_cast<std::uint64_t>(hi - lo) + 1));
      auto df = flat.broker.TruncateBefore(kTopic, p, cut);
      auto ds = seg.broker.TruncateBefore(kTopic, p, cut);
      ASSERT_EQ(df.ok(), ds.ok()) << "op=" << op;
      if (df.ok()) {
        ASSERT_EQ(*df, *ds) << "op=" << op;
      }
    } else if (kind < 73) {
      // Retired op (it compacted a partition; log compaction no longer
      // exists), kept as its draw so every seed replays the same schedule.
      (void)rng.NextBelow(tc.partitions);
    } else if (kind < 85) {
      // Advance both clocks identically, then a retention sweep.
      const auto step = Duration::Millis(static_cast<std::int64_t>(rng.NextBelow(300)));
      flat.clock.Advance(step);
      seg.clock.Advance(step);
      const auto rf = flat.broker.RunRetention();
      const auto rs = seg.broker.RunRetention();
      ASSERT_EQ(rf, rs) << "op=" << op << " (retention drop count)";
    } else if (kind < 93) {
      // Random-window fetch, including deliberately out-of-range reads:
      // the structured error must match exactly, not just the happy path.
      const auto p = static_cast<PartitionId>(rng.NextBelow(tc.partitions));
      const Offset from = static_cast<Offset>(rng.NextBelow(
          static_cast<std::uint64_t>(produced) + 10));
      const std::size_t max = 1 + rng.NextBelow(64);
      auto rf = flat.broker.Fetch(kTopic, p, from, max);
      auto rs = seg.broker.Fetch(kTopic, p, from, max);
      ASSERT_EQ(rf.ok(), rs.ok()) << "op=" << op << " from=" << from;
      if (rf.ok()) {
        ASSERT_EQ(rf->size(), rs->size()) << "op=" << op;
        for (std::size_t i = 0; i < rf->size(); ++i) {
          ASSERT_EQ((*rf)[i].offset, (*rs)[i].offset);
          ASSERT_EQ((*rf)[i].record.key, (*rs)[i].record.key);
          ASSERT_EQ((*rf)[i].record.TextPayload(), (*rs)[i].record.TextPayload());
          ASSERT_EQ((*rf)[i].record.event_time.nanos(),
                    (*rs)[i].record.event_time.nanos());
        }
      } else {
        ASSERT_EQ(rf.status().code(), rs.status().code()) << "op=" << op;
        ASSERT_EQ(rf.status().ToString(), rs.status().ToString()) << "op=" << op;
        ASSERT_EQ(rf.status().has_range(), rs.status().has_range());
        if (rf.status().has_range()) {
          ASSERT_EQ(rf.status().range_lo(), rs.status().range_lo());
          ASSERT_EQ(rf.status().range_hi(), rs.status().range_hi());
        }
      }
    } else {
      // Historical queries; answers must match row-for-row (the segmented
      // side serves them from its churning sealed segments).
      const auto p = static_cast<PartitionId>(rng.NextBelow(tc.partitions));
      const std::int64_t t0 = static_cast<std::int64_t>(
          rng.NextBelow(static_cast<std::uint64_t>(next_event_ms) + 1));
      const std::int64_t t1 = t0 + static_cast<std::int64_t>(rng.NextBelow(400));
      auto qf = flat.broker.QueryTime(kTopic, p, TimePoint::FromMillis(t0),
                                      TimePoint::FromMillis(t1));
      auto qs = seg.broker.QueryTime(kTopic, p, TimePoint::FromMillis(t0),
                                     TimePoint::FromMillis(t1));
      ASSERT_EQ(qf.ok(), qs.ok()) << "op=" << op;
      if (qf.ok()) {
        ASSERT_EQ(qf->rows.size(), qs->rows.size()) << "op=" << op;
        for (std::size_t i = 0; i < qf->rows.size(); ++i) {
          ASSERT_EQ(qf->rows[i].offset, qs->rows[i].offset);
          ASSERT_EQ(qf->rows[i].record.key, qs->rows[i].record.key);
          ASSERT_EQ(qf->rows[i].record.TextPayload(),
                    qs->rows[i].record.TextPayload());
        }
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_converged(op));
  }

  // The segmented side must have actually churned segments at some point,
  // or the soak proved nothing about seams.
  EXPECT_GT(max_sealed, 0u) << "seed=" << seed << " target=" << seg.target;
  std::size_t full_scan = 0;
  for (PartitionId p = 0; p < tc.partitions; ++p) {
    auto r = seg.broker.QueryRange(kTopic, p, 0, 1'000'000);
    EXPECT_TRUE(r.ok());
    if (r.ok()) full_scan += r->rows.size();
  }
  std::size_t flat_rows = 0;
  auto ft = flat.broker.GetTopic(kTopic);
  ASSERT_TRUE(ft.ok());
  for (PartitionId p = 0; p < tc.partitions; ++p) {
    flat_rows += (*ft)->partition(p).size();
  }
  EXPECT_EQ(full_scan, flat_rows);
  EXPECT_GT(produced, 0);

  // Committed-log digests: the pair's final logs are bit-identical.
  const auto digest = [](Side& side) {
    auto t = side.broker.GetTopic(kTopic);
    return t.ok() ? CommittedTopicDigest(**t) : 0ull;
  };
  EXPECT_EQ(digest(flat), digest(seg)) << "committed digest diverged, seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(HundredSeeds, SegmentChurn,
                         ::testing::Range<std::uint64_t>(1, 101));

}  // namespace
}  // namespace arbd::stream
