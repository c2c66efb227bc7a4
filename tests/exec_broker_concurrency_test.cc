// Broker thread-safety tests (satellite c of the executor refactor, run
// under TSan in CI): raw std::thread clients hammering disjoint
// partitions with Produce/Fetch/TruncateBefore, budgeted producers racing
// a truncating consumer with exact accounting invariants, and the
// ParallelProduce outcome-digest equivalence against the serial loop.
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
    const auto rep = stream::ParallelProduce(ex, broker, "conc.par",
                                             SeededBatch(kRecords),
                                             Duration::Micros(1));
    EXPECT_EQ(rep.produced, kRecords);
    EXPECT_EQ(OutcomeDigest(rep, broker, "conc.par", kRecords), serial_digest)
        << "workers=" << workers;
  }
}

}  // namespace
}  // namespace arbd
