// Determinism of the columnar batch path. Reads have one code path
// (Partition::FetchBatch -> Broker::FetchBatch -> Consumer::PollBatches)
// in two forms: the columns themselves, and rows materialized from them
// by Fetch/Poll. Platform ingest polls batches and drains them through
// Offer/DrainPending. Every determinism-sensitive observable — consumed
// rows, committed-log digests, broker counters, scenario digests,
// failover audits — must be the same whichever form carries it, across
// five seeds and replication factors {1, 3}.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/runtime.h"
#include "common/serialize.h"
#include "exec/executor.h"
#include "scenarios/digest.h"
#include "scenarios/failover.h"
#include "stream/batch.h"
#include "stream/log.h"
#include "stream/parallel.h"
#include "stream/replication.h"

namespace arbd {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5};

// The process configuration with the worker count and replication factor
// overridden.
RuntimeConfig Cfg(std::size_t workers, std::uint32_t replicas) {
  RuntimeConfig rc = RuntimeConfig::Process();
  rc.exec_workers = workers;
  rc.replicas = replicas;
  return rc;
}

enum class ReadForm { kRows, kColumns };

void WriteRow(BinaryWriter& w, std::uint64_t key_hash, stream::Offset offset,
              stream::PartitionId partition, std::uint64_t payload_hash,
              std::int64_t event_ns, std::uint64_t checksum) {
  w.WriteU64(key_hash);
  w.WriteI64(offset);
  w.WriteU32(partition);
  w.WriteU64(payload_hash);
  w.WriteI64(event_ns);
  w.WriteU64(checksum);
}

// Broker-level workload: seeded keyed records through ParallelProduce
// against a budgeted topic, each round read back whole (as materialized
// rows via ParallelFetchAll, or as columns via Broker::FetchBatch) and
// truncated. The digest folds produce reports, every consumed row, the
// committed-log digest, and the broker counters.
std::uint64_t BrokerWorkloadDigest(std::uint64_t seed, std::size_t workers, ReadForm form,
                                   std::uint32_t replicas) {
  SimClock clock;
  stream::Broker broker(clock);
  exec::Executor ex(exec::ExecConfig{.workers = workers});
  stream::TopicConfig tc;
  tc.partitions = 4;
  tc.max_records = 128;
  tc.replication_factor = replicas;
  EXPECT_TRUE(broker.CreateTopic("batch.diff", tc).ok());

  Rng rng(seed ^ 0xbadc0deULL);
  BinaryWriter w;
  w.WriteU64(seed);
  for (int round = 0; round < 6; ++round) {
    const std::size_t want = 20 + static_cast<std::size_t>(rng.NextU64() % 80);
    std::vector<stream::Record> recs;
    recs.reserve(want);
    for (std::size_t i = 0; i < want; ++i) {
      const std::string key = "k" + std::to_string(rng.NextU64() % 16);
      Bytes payload(8 + (rng.NextU64() % 40), static_cast<std::uint8_t>(round));
      recs.push_back(stream::Record::Make(key, std::move(payload), clock.Now()));
    }
    // Credit clamp on the driver so admission is deterministic (same
    // discipline as OverloadDigest).
    const std::size_t credit = broker.Credit("batch.diff");
    if (recs.size() > credit) recs.resize(credit);
    const auto rep = stream::ParallelProduce(ex, broker, "batch.diff", std::move(recs));
    w.WriteU64(rep.produced);
    w.WriteU64(rep.rejected);
    for (const std::size_t c : rep.per_partition) w.WriteU64(c);

    // Next offset to keep per partition; -1 = nothing consumed.
    std::vector<stream::Offset> consumed_to(tc.partitions, -1);
    if (form == ReadForm::kRows) {
      const auto fetched = stream::ParallelFetchAll(ex, broker, "batch.diff", 512);
      EXPECT_EQ(fetched.size(), tc.partitions);
      for (std::size_t p = 0; p < fetched.size(); ++p) {
        for (const auto& sr : fetched[p]) {
          WriteRow(w, Fnv1a(sr.record.key), sr.offset, sr.partition,
                   Fnv1a(sr.record.payload), sr.record.event_time.nanos(),
                   sr.record.checksum);
        }
        if (!fetched[p].empty()) consumed_to[p] = fetched[p].back().offset + 1;
      }
    } else {
      auto topic = broker.GetTopic("batch.diff");
      EXPECT_TRUE(topic.ok());
      if (!topic.ok()) return 0;
      for (stream::PartitionId p = 0; p < tc.partitions; ++p) {
        const stream::Offset from = (*topic)->partition(p).log_start_offset();
        auto batch = broker.FetchBatch("batch.diff", p, from, 512);
        EXPECT_TRUE(batch.ok()) << batch.status().ToString();
        if (!batch.ok()) continue;
        EXPECT_EQ(batch->partition(), p);
        for (std::size_t i = 0; i < batch->size(); ++i) {
          const std::string_view key = batch->key(i);
          WriteRow(w, Fnv1a(key.data(), key.size()),
                   batch->base_offset() + static_cast<stream::Offset>(i), batch->partition(),
                   Fnv1a(batch->payload_data(i), batch->payload_size(i)),
                   batch->event_ns_data()[i], batch->checksum(i));
        }
        if (!batch->empty()) {
          consumed_to[p] = batch->base_offset() + static_cast<stream::Offset>(batch->size());
        }
      }
    }
    for (stream::PartitionId p = 0; p < tc.partitions; ++p) {
      if (consumed_to[p] >= 0) (void)broker.TruncateBefore("batch.diff", p, consumed_to[p]);
    }
    clock.Advance(Duration::Millis(5));
  }

  auto topic = broker.GetTopic("batch.diff");
  EXPECT_TRUE(topic.ok());
  if (topic.ok()) w.WriteU64(stream::CommittedTopicDigest(**topic));
  w.WriteU64(broker.total_produced());
  w.WriteU64(broker.backpressure_rejects());
  return Fnv1a(w.bytes());
}

// Rows and columns digest the same at every worker count, and the digest
// does not depend on the worker count.
void ExpectBrokerParity(std::uint32_t replicas) {
  for (const std::uint64_t seed : kSeeds) {
    const std::uint64_t reference = BrokerWorkloadDigest(seed, 1, ReadForm::kRows, replicas);
    for (const std::size_t workers : {1u, 4u}) {
      EXPECT_EQ(BrokerWorkloadDigest(seed, workers, ReadForm::kRows, replicas), reference)
          << "rows workers=" << workers << " seed=" << seed;
      EXPECT_EQ(BrokerWorkloadDigest(seed, workers, ReadForm::kColumns, replicas), reference)
          << "columns workers=" << workers << " seed=" << seed;
    }
  }
}

TEST(BatchDeterminism, BrokerWorkloadDigestFactorOne) { ExpectBrokerParity(1); }

TEST(BatchDeterminism, BrokerWorkloadDigestFactorThree) { ExpectBrokerParity(3); }

// Platform ingest: the serial drain (workers=1) and the parallel drain
// (workers=4) of the same polled batches give the same scenario digest.
template <typename DigestFn>
void ExpectDrainParity(DigestFn&& digest, std::uint32_t replicas) {
  for (const std::uint64_t seed : kSeeds) {
    EXPECT_EQ(digest(seed, Cfg(1, replicas)), digest(seed, Cfg(4, replicas)))
        << "seed=" << seed;
  }
}

TEST(BatchDeterminism, TourismDigestFactorOne) {
  ExpectDrainParity(scenarios::TourismDigest, 1);
}

TEST(BatchDeterminism, TourismDigestFactorThree) {
  ExpectDrainParity(scenarios::TourismDigest, 3);
}

TEST(BatchDeterminism, OverloadDigestFactorOne) {
  ExpectDrainParity(scenarios::OverloadDigest, 1);
}

TEST(BatchDeterminism, OverloadDigestFactorThree) {
  ExpectDrainParity(scenarios::OverloadDigest, 3);
}

// Failover soak under injected crashes and torn writes: the size of the
// batch the job polls per pump must not move the committed digest, the
// exactly-once audit, or the final window table. Factor comes from the
// config, not the env.
TEST(BatchDeterminism, FailoverSoakBitIdenticalAcrossModes) {
  for (const std::uint32_t factor : {1u, 3u}) {
    for (const std::uint64_t fault_seed : {3ull, 5ull}) {
      scenarios::FailoverConfig cfg;
      cfg.records = 400;
      cfg.replication_factor = factor;
      cfg.seed = 21;
      cfg.fault_seed = fault_seed;
      if (factor > 1) {
        cfg.fault_spec = "nodecrash@p=0.01,x=10;torn@p=0.01";
        cfg.kill_p = 0.04;
      }
      cfg.batch = 32;
      auto wide = scenarios::RunFailoverSoak(cfg);
      cfg.batch = 5;
      auto narrow = scenarios::RunFailoverSoak(cfg);
      ASSERT_TRUE(wide.ok()) << wide.status().ToString();
      ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
      ASSERT_FALSE(wide->wedged);
      ASSERT_FALSE(narrow->wedged);
      EXPECT_EQ(wide->committed_digest, narrow->committed_digest)
          << "factor=" << factor << " fs=" << fault_seed;
      EXPECT_EQ(wide->results, narrow->results) << "factor=" << factor << " fs=" << fault_seed;
      EXPECT_EQ(wide->acked, narrow->acked);
      EXPECT_EQ(wide->committed_loss, 0u);
      EXPECT_EQ(narrow->committed_loss, 0u);
      EXPECT_EQ(wide->log_duplicates, 0u);
      EXPECT_EQ(narrow->log_duplicates, 0u);
      EXPECT_EQ(wide->output_duplicates, 0u);
      EXPECT_EQ(narrow->output_duplicates, 0u);
    }
  }
}

}  // namespace
}  // namespace arbd
