#include "stream/parallel.h"

#include <utility>

namespace arbd::stream {

ParallelProduceReport ParallelProduce(exec::Executor& exec, Broker& broker,
                                      const std::string& topic,
                                      std::vector<Record> records) {
  auto t = broker.GetTopic(topic);
  if (!t.ok()) {
    ParallelProduceReport report;
    report.rejected = records.size();
    return report;
  }
  Topic* topic_ptr = *t;
  return ParallelProduce(exec, broker, topic, std::move(records),
                         [topic_ptr](const Record& r) {
                           return topic_ptr->PartitionFor(r.key);
                         });
}

ParallelProduceReport ParallelProduce(exec::Executor& exec, Broker& broker,
                                      const std::string& topic,
                                      std::vector<Record> records,
                                      const PartitionAssigner& assign) {
  ParallelProduceReport report;
  auto t = broker.GetTopic(topic);
  if (!t.ok()) {
    report.rejected = records.size();
    return report;
  }
  const std::size_t nparts = (*t)->partition_count();

  // Partition assignment happens here, on the driver, in record order:
  // this is the only place the round-robin counter, hash, or router is
  // consulted, so the record→partition mapping is independent of worker
  // count.
  std::vector<std::vector<Record>> buckets(nparts);
  std::size_t misassigned = 0;
  for (auto& r : records) {
    const PartitionId p = assign(r);
    if (p >= nparts) {
      ++misassigned;
      continue;
    }
    buckets[p].push_back(std::move(r));
  }
  report.rejected += misassigned;

  std::vector<std::size_t> produced(nparts, 0);
  std::vector<std::size_t> rejected(nparts, 0);
  std::vector<std::size_t> unavailable(nparts, 0);
  for (std::size_t p = 0; p < nparts; ++p) {
    if (buckets[p].empty()) continue;
    exec.Submit(p, [&broker, &topic, &buckets, &produced, &rejected, &unavailable, p] {
      for (auto& r : buckets[p]) {
        auto off = broker.ProduceToPartition(topic, static_cast<PartitionId>(p),
                                             std::move(r));
        if (off.ok()) {
          ++produced[p];
        } else {
          ++rejected[p];
          if (off.status().code() == StatusCode::kUnavailable) ++unavailable[p];
        }
      }
    });
  }
  exec.Drain();

  report.per_partition.resize(nparts);
  for (std::size_t p = 0; p < nparts; ++p) {
    report.per_partition[p] = produced[p];
    report.produced += produced[p];
    report.rejected += rejected[p];
    report.unavailable += unavailable[p];
  }
  return report;
}

std::vector<std::vector<StoredRecord>> ParallelFetchAll(exec::Executor& exec,
                                                        Broker& broker,
                                                        const std::string& topic,
                                                        std::size_t max_per_partition) {
  auto t = broker.GetTopic(topic);
  if (!t.ok()) return {};
  const std::size_t nparts = (*t)->partition_count();
  std::vector<std::vector<StoredRecord>> out(nparts);
  for (std::size_t p = 0; p < nparts; ++p) {
    exec.Submit(p, [&broker, &topic, &out, max_per_partition, p, t = *t] {
      const Offset from = t->partition(static_cast<PartitionId>(p)).log_start_offset();
      auto fetched = broker.Fetch(topic, static_cast<PartitionId>(p), from,
                                  max_per_partition);
      if (fetched.ok()) out[p] = std::move(*fetched);
    });
  }
  exec.Drain();
  return out;
}

}  // namespace arbd::stream
