// Broker thread-safety tests (satellite c of the executor refactor, run
// under TSan in CI): raw std::thread clients hammering disjoint
// partitions with Produce/Fetch/TruncateBefore, budgeted producers racing
// a truncating consumer with exact accounting invariants, the
// ParallelProduce outcome-digest equivalence against the serial loop,
// historical queries racing appends, seals and truncation, and two topics
// with different seal targets written side by side.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "exec/executor.h"
#include "stream/log.h"
#include "stream/parallel.h"

namespace arbd {
namespace {

stream::Record Rec(const std::string& key, std::uint8_t fill, std::int64_t ms) {
  return stream::Record::Make(key, Bytes(24, fill), TimePoint::FromMillis(ms));
}

TEST(BrokerConcurrency, DisjointPartitionClientsDoNotInterfere) {
  SimClock clock;
  stream::Broker broker(clock);
  stream::TopicConfig tc;
  tc.partitions = 4;
  ASSERT_TRUE(broker.CreateTopic("conc.disjoint", tc).ok());

  constexpr std::size_t kPerPartition = 400;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (stream::PartitionId p = 0; p < 4; ++p) {
    threads.emplace_back([&broker, &failures, p] {
      const std::string key = "part-" + std::to_string(p);
      // Interleave appends, reads, and truncation on this partition only.
      for (std::size_t i = 0; i < kPerPartition; ++i) {
        auto off = broker.ProduceToPartition(
            "conc.disjoint", p, Rec(key, static_cast<std::uint8_t>(p), static_cast<std::int64_t>(i)));
        if (!off.ok() || *off != static_cast<stream::Offset>(i)) {
          failures.fetch_add(1);
        }
        if (i == kPerPartition / 2) {
          auto got = broker.Fetch("conc.disjoint", p, 0, kPerPartition);
          if (!got.ok() || got->size() != kPerPartition / 2 + 1) failures.fetch_add(1);
          auto dropped = broker.TruncateBefore("conc.disjoint", p, 100);
          if (!dropped.ok() || *dropped != 100) failures.fetch_add(1);
        }
      }
      auto rest = broker.Fetch("conc.disjoint", p, 100, kPerPartition);
      if (!rest.ok() || rest->size() != kPerPartition - 100) failures.fetch_add(1);
      // Offsets stay dense and every surviving record belongs to p.
      if (rest.ok()) {
        for (std::size_t i = 0; i < rest->size(); ++i) {
          const auto& sr = (*rest)[i];
          if (sr.offset != static_cast<stream::Offset>(100 + i)) failures.fetch_add(1);
          if (sr.record.key != key) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(broker.total_produced(), 4 * kPerPartition);

  auto topic = broker.GetTopic("conc.disjoint");
  ASSERT_TRUE(topic.ok());
  for (stream::PartitionId p = 0; p < 4; ++p) {
    EXPECT_EQ((*topic)->partition(p).end_offset(),
              static_cast<stream::Offset>(kPerPartition));
    EXPECT_EQ((*topic)->partition(p).log_start_offset(), 100);
  }
}

TEST(BrokerConcurrency, BudgetedProducersRacingConsumerAccountExactly) {
  SimClock clock;
  stream::Broker broker(clock);
  stream::TopicConfig tc;
  tc.partitions = 4;
  tc.max_records = 128;  // tight budget: rejections are expected
  ASSERT_TRUE(broker.CreateTopic("conc.budget", tc).ok());

  constexpr int kProducers = 3;
  constexpr std::size_t kPerProducer = 2'000;
  std::atomic<std::size_t> accepted{0};
  std::atomic<std::size_t> rejected{0};
  std::atomic<bool> done{false};
  std::atomic<std::size_t> consumed{0};

  std::thread consumer([&] {
    // Hold off until the budget has pushed back at least once (or the
    // producers are done): a consumer scheduled early enough could
    // otherwise keep the topic below its budget for the whole run, and
    // the rejection path would go unexercised. Producers never block, so
    // this cannot deadlock.
    while (rejected.load() == 0 && !done.load()) std::this_thread::yield();
    // Drain partitions round-robin, returning budget via truncation. Only
    // exit after a sweep that found nothing AND started after the
    // producers were already done — a sweep begun earlier can miss
    // records appended behind its back.
    for (;;) {
      const bool finishing = done.load();
      std::size_t got_any = 0;
      for (stream::PartitionId p = 0; p < 4; ++p) {
        auto t = broker.GetTopic("conc.budget");
        if (!t.ok()) continue;
        const stream::Offset from = (*t)->partition(p).log_start_offset();
        auto got = broker.Fetch("conc.budget", p, from, 64);
        if (got.ok() && !got->empty()) {
          got_any += got->size();
          consumed.fetch_add(got->size());
          (void)broker.TruncateBefore("conc.budget", p, got->back().offset + 1);
        }
      }
      if (finishing && got_any == 0) break;
    }
  });

  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&broker, &accepted, &rejected, t] {
      Rng rng(17 + static_cast<std::uint64_t>(t));
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const std::string key = "k" + std::to_string(rng.NextU64() % 32);
        auto placed = broker.Produce("conc.budget",
                                     Rec(key, static_cast<std::uint8_t>(t),
                                         static_cast<std::int64_t>(i)));
        if (placed.ok()) {
          accepted.fetch_add(1);
        } else {
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true);
  consumer.join();

  // Exact accounting: every attempt either landed or was rejected, the
  // broker's counters agree with the clients', and everything accepted
  // was eventually consumed exactly once (offsets are never reused).
  EXPECT_EQ(accepted.load() + rejected.load(), kProducers * kPerProducer);
  EXPECT_EQ(broker.total_produced(), accepted.load());
  EXPECT_EQ(broker.backpressure_rejects(), rejected.load());
  EXPECT_GT(rejected.load(), 0u);  // the budget actually pushed back
  EXPECT_EQ(consumed.load(), accepted.load());
  auto topic = broker.GetTopic("conc.budget");
  ASSERT_TRUE(topic.ok());
  stream::Offset total_offsets = 0;
  for (stream::PartitionId p = 0; p < 4; ++p) {
    total_offsets += (*topic)->partition(p).end_offset();
    EXPECT_EQ((*topic)->partition(p).log_start_offset(),
              (*topic)->partition(p).end_offset());  // fully drained
  }
  EXPECT_EQ(static_cast<std::size_t>(total_offsets), accepted.load());
}

std::uint64_t OutcomeDigest(const stream::ParallelProduceReport& rep,
                            stream::Broker& broker, const std::string& topic,
                            std::size_t max_records) {
  BinaryWriter w;
  w.WriteU64(rep.produced);
  w.WriteU64(rep.rejected);
  for (const std::size_t c : rep.per_partition) w.WriteU64(c);
  auto t = broker.GetTopic(topic);
  if (t.ok()) {
    for (stream::PartitionId p = 0; p < (*t)->partition_count(); ++p) {
      auto got = broker.Fetch(topic, p, 0, max_records);
      if (!got.ok()) continue;
      for (const auto& sr : *got) {
        w.WriteU64(Fnv1a(sr.record.key));
        w.WriteI64(sr.offset);
        w.WriteU64(sr.record.payload.size());
      }
    }
  }
  return Fnv1a(w.bytes());
}

std::vector<stream::Record> SeededBatch(std::size_t n) {
  Rng rng(1234);
  std::vector<stream::Record> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back(Rec("k" + std::to_string(rng.NextU64() % 48),
                          static_cast<std::uint8_t>(i), static_cast<std::int64_t>(i)));
  }
  return records;
}

TEST(BrokerConcurrency, ParallelProduceMatchesSerialLoopAtEveryWorkerCount) {
  constexpr std::size_t kRecords = 2'000;

  // Serial reference: the pre-refactor code path.
  std::uint64_t serial_digest = 0;
  {
    SimClock clock;
    stream::Broker broker(clock);
    stream::TopicConfig tc;
    tc.partitions = 8;
    ASSERT_TRUE(broker.CreateTopic("conc.par", tc).ok());
    stream::ParallelProduceReport rep;
    rep.per_partition.assign(8, 0);
    for (auto& r : SeededBatch(kRecords)) {
      auto placed = broker.Produce("conc.par", std::move(r));
      ASSERT_TRUE(placed.ok());
      ++rep.produced;
      ++rep.per_partition[placed->first];
    }
    serial_digest = OutcomeDigest(rep, broker, "conc.par", kRecords);
  }

  for (const std::size_t workers : {1u, 2u, 4u}) {
    SimClock clock;
    stream::Broker broker(clock);
    stream::TopicConfig tc;
    tc.partitions = 8;
    ASSERT_TRUE(broker.CreateTopic("conc.par", tc).ok());
    exec::ExecConfig ec;
    ec.workers = workers;
    exec::Executor ex(ec);
    const auto rep = stream::ParallelProduce(ex, broker, "conc.par", SeededBatch(kRecords));
    EXPECT_EQ(rep.produced, kRecords);
    EXPECT_EQ(OutcomeDigest(rep, broker, "conc.par", kRecords), serial_digest)
        << "workers=" << workers;
  }
}

TEST(BrokerConcurrency, HistoricalQueriesRaceAppendsSealsAndTruncation) {
  // Historical readers race the tail on one partition: a producer appends
  // and seals a segment every few rows, a truncator advances the log start
  // into sealed segments and the active batch behind it, and three readers
  // run QueryTime, QueryRange and OffsetForTimestamp throughout. Every
  // answer must be a well-formed slice of the log.
  SimClock clock;
  stream::Broker broker(clock);
  stream::TopicConfig tc;
  tc.partitions = 1;
  tc.segment_bytes = 512;
  ASSERT_TRUE(broker.CreateTopic("conc.query", tc).ok());
  auto topic = broker.GetTopic("conc.query");
  ASSERT_TRUE(topic.ok());
  const stream::Partition& part = (*topic)->partition(0);

  constexpr std::int64_t kRecords = 4'000;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> answers{0};

  std::thread producer([&] {
    Rng rng(41);
    for (std::int64_t i = 0; i < kRecords; ++i) {
      // Stay at most 16 records per answer ahead of the readers, so the
      // race happens however the threads are scheduled. Readers never
      // wait on the producer, so this cannot deadlock.
      while (answers.load() < static_cast<std::uint64_t>(i / 16)) std::this_thread::yield();
      // Event times jitter ahead of the offsets, so windows cut unevenly.
      const std::int64_t ms = i + static_cast<std::int64_t>(rng.NextBelow(16));
      Bytes payload(8 + rng.NextBelow(24), static_cast<std::uint8_t>(i));
      auto off = broker.ProduceToPartition(
          "conc.query", 0,
          stream::Record::Make("k" + std::to_string(i % 8), std::move(payload),
                               TimePoint::FromMillis(ms)));
      if (!off.ok()) failures.fetch_add(1);
    }
    done.store(true);
  });
  std::thread truncator([&] {
    while (!done.load()) {
      const stream::Offset end = part.end_offset();
      if (end > 300) (void)broker.TruncateBefore("conc.query", 0, end - 300 + end % 37);
      std::this_thread::yield();
    }
  });

  // Strictly increasing offsets, every row inside its window, intact
  // payloads.
  const auto check = [&](const Expected<stream::QueryResult>& res, auto in_window) {
    if (!res.ok()) {
      failures.fetch_add(1);
      return;
    }
    stream::Offset prev = -1;
    for (const stream::StoredRecord& sr : res->rows) {
      if (sr.offset <= prev || !in_window(sr) ||
          sr.record.checksum != Fnv1a(sr.record.payload)) {
        failures.fetch_add(1);
      }
      prev = sr.offset;
    }
    answers.fetch_add(1);
  };
  std::vector<std::thread> readers;
  readers.emplace_back([&] {
    Rng rng(1);
    while (!done.load()) {
      const auto lo = TimePoint::FromMillis(static_cast<std::int64_t>(rng.NextBelow(kRecords)));
      const auto hi = lo + Duration::Millis(1 + static_cast<std::int64_t>(rng.NextBelow(200)));
      check(broker.QueryTime("conc.query", 0, lo, hi), [&](const stream::StoredRecord& sr) {
        return sr.record.event_time >= lo && sr.record.event_time < hi;
      });
    }
  });
  readers.emplace_back([&] {
    Rng rng(2);
    while (!done.load()) {
      const auto lo = static_cast<stream::Offset>(rng.NextBelow(kRecords));
      const auto hi = lo + 1 + static_cast<stream::Offset>(rng.NextBelow(300));
      check(broker.QueryRange("conc.query", 0, lo, hi), [&](const stream::StoredRecord& sr) {
        return sr.offset >= lo && sr.offset < hi;
      });
    }
  });
  readers.emplace_back([&] {
    Rng rng(3);
    while (!done.load()) {
      const auto t = TimePoint::FromMillis(static_cast<std::int64_t>(rng.NextBelow(kRecords)));
      const stream::Offset start = part.log_start_offset();
      const stream::Offset end_before = part.end_offset();
      auto off = broker.OffsetForTimestamp("conc.query", 0, t);
      const stream::Offset end_after = part.end_offset();
      // The log start only advances and the end only grows, so the answer
      // lies between what was read before and after the call.
      if (!off.ok() || *off < start || *off > end_after) {
        failures.fetch_add(1);
        continue;
      }
      answers.fetch_add(1);
      // A row that existed before the call is the one found, so its event
      // time is at or after t (unless truncated away since). At or past
      // end_before the answer may be the log end the call saw.
      if (*off >= end_before) continue;
      auto row = broker.Fetch("conc.query", 0, *off, 1);
      if (row.ok() && !row->empty() && row->front().record.event_time < t) {
        failures.fetch_add(1);
      }
    }
  });

  producer.join();
  truncator.join();
  for (auto& r : readers) r.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(answers.load(), 0u);
  EXPECT_GT(part.sealed_segment_count(), 0u);
  // Quiesced: a full-range query equals a plain fetch of the live log.
  auto all = broker.QueryRange("conc.query", 0, 0, kRecords);
  auto fetched = broker.Fetch("conc.query", 0, part.log_start_offset(), kRecords);
  ASSERT_TRUE(all.ok() && fetched.ok());
  ASSERT_EQ(all->rows.size(), fetched->size());
  for (std::size_t i = 0; i < fetched->size(); ++i) {
    EXPECT_EQ(all->rows[i].offset, (*fetched)[i].offset);
    EXPECT_EQ(all->rows[i].record.payload, (*fetched)[i].record.payload);
  }
}

TEST(BrokerConcurrency, SealTargetIsPerTopic) {
  // One broker, two topics that differ only in seal target: "seal.seg"
  // seals every 256 key+payload bytes, "seal.flat" never does. Two
  // writers append the same records to one topic each, kept within 8
  // records of each other, while a reader runs QueryTime on both. The
  // writers wait halfway until the reader has answered, so queries always
  // overlap appends however the threads are scheduled. Each partition
  // holds its own target, so the layouts part ways while every row agrees.
  SimClock clock;
  stream::Broker broker(clock);
  const std::string topics[2] = {"seal.seg", "seal.flat"};
  for (const std::string& name : topics) {
    stream::TopicConfig tc;
    tc.partitions = 1;
    tc.segment_bytes = name == "seal.seg" ? 256 : 0;
    ASSERT_TRUE(broker.CreateTopic(name, tc).ok());
  }

  constexpr std::int64_t kRecords = 2'000;
  std::atomic<std::int64_t> appended[2] = {0, 0};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> answers{0};
  const auto writer = [&](int me) {
    for (std::int64_t i = 0; i < kRecords; ++i) {
      while (i - appended[1 - me].load() > 8) std::this_thread::yield();
      while (i == kRecords / 2 && answers.load() == 0) std::this_thread::yield();
      auto off = broker.ProduceToPartition(
          topics[me], 0, Rec("k" + std::to_string(i % 8), static_cast<std::uint8_t>(i), i));
      if (!off.ok() || *off != i) failures.fetch_add(1);
      appended[me].store(i + 1);
    }
  };
  std::thread seg_writer(writer, 0);
  std::thread flat_writer(writer, 1);
  std::thread reader([&] {
    Rng rng(5);
    while (appended[0].load() < kRecords || appended[1].load() < kRecords) {
      const auto lo = TimePoint::FromMillis(static_cast<std::int64_t>(rng.NextBelow(kRecords)));
      const auto hi = lo + Duration::Millis(1 + static_cast<std::int64_t>(rng.NextBelow(100)));
      for (const std::string& name : topics) {
        auto res = broker.QueryTime(name, 0, lo, hi);
        if (!res.ok()) {
          failures.fetch_add(1);
          continue;
        }
        for (const stream::StoredRecord& sr : res->rows) {
          if (sr.record.event_time < lo || sr.record.event_time >= hi ||
              sr.record.event_time != TimePoint::FromMillis(sr.offset)) {
            failures.fetch_add(1);
          }
        }
        answers.fetch_add(1);
      }
    }
  });
  seg_writer.join();
  flat_writer.join();
  reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(answers.load(), 0u);
  auto seg = broker.GetTopic("seal.seg");
  auto flat = broker.GetTopic("seal.flat");
  ASSERT_TRUE(seg.ok() && flat.ok());
  EXPECT_GT((*seg)->partition(0).sealed_segment_count(), 0u);
  EXPECT_EQ((*flat)->partition(0).sealed_segment_count(), 0u);
  auto seg_rows = broker.Fetch("seal.seg", 0, 0, kRecords);
  auto flat_rows = broker.Fetch("seal.flat", 0, 0, kRecords);
  ASSERT_TRUE(seg_rows.ok() && flat_rows.ok());
  ASSERT_EQ(seg_rows->size(), static_cast<std::size_t>(kRecords));
  ASSERT_EQ(flat_rows->size(), seg_rows->size());
  for (std::size_t i = 0; i < seg_rows->size(); ++i) {
    const stream::StoredRecord& a = (*seg_rows)[i];
    const stream::StoredRecord& b = (*flat_rows)[i];
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.record.key, b.record.key);
    EXPECT_EQ(a.record.payload, b.record.payload);
    EXPECT_EQ(a.record.event_time, b.record.event_time);
  }
}

}  // namespace
}  // namespace arbd
