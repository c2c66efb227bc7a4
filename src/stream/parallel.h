// Parallel produce/fetch over the sharded broker.
//
// Parallelism over a topic is by partition: the driver assigns a partition
// to every record *serially* (so key hashing and the empty-key round-robin
// stay deterministic regardless of worker count), buckets records per
// partition, and fans one executor task out per partition. Disjoint
// partitions never contend — each task appends behind its own partition
// mutex — and per-partition results land in slots the driver pre-sized,
// so no cross-task synchronization beyond Executor::Drain is needed.
// The outcome (records placed, offsets, reject counts) is identical for
// every worker count, including workers=1 which degenerates to the serial
// loop.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "stream/log.h"

namespace arbd::stream {

struct ParallelProduceReport {
  std::size_t produced = 0;
  std::size_t rejected = 0;  // budget rejections + injected append faults
  // Of `rejected`, records refused as kUnavailable: an unreachable leader
  // broker (cluster gate) or a leaderless replica group. A cluster-aware
  // driver retries exactly these; the rest are terminal.
  std::size_t unavailable = 0;
  // Per-partition record counts, indexed by partition, for digesting.
  std::vector<std::size_t> per_partition;
};

// Appends `records` to `topic` using one executor task per partition.
ParallelProduceReport ParallelProduce(exec::Executor& exec, Broker& broker,
                                      const std::string& topic,
                                      std::vector<Record> records);

// Record→partition assignment hook. Runs serially on the driver in record
// order, so any stateful assigner (round-robin counters, split routers)
// sees the same sequence at every worker count.
using PartitionAssigner = std::function<PartitionId(const Record&)>;

// Same parallel produce, but partitions are chosen by `assign` instead of
// Topic::PartitionFor — the hook a key-range router (partition autoscaling)
// plugs into. An assigner returning an out-of-range partition has that
// record counted rejected.
ParallelProduceReport ParallelProduce(exec::Executor& exec, Broker& broker,
                                      const std::string& topic,
                                      std::vector<Record> records,
                                      const PartitionAssigner& assign);

// Fetches every partition's full retained log concurrently (up to
// `max_per_partition` records each). Result is indexed by partition, so
// the merged view is in canonical partition order no matter which worker
// fetched what.
std::vector<std::vector<StoredRecord>> ParallelFetchAll(exec::Executor& exec,
                                                        Broker& broker,
                                                        const std::string& topic,
                                                        std::size_t max_per_partition);

}  // namespace arbd::stream
