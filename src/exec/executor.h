// Deterministic multi-worker executor — the concurrency substrate every
// sharded layer (broker partitions, pipeline stages, per-user frame loops)
// runs on. The design goal is *controlled* parallelism: for a given
// worker count a run is bit-identical, and for workloads that keep their
// shards disjoint the results are identical across worker counts —
// which is what makes parallel scenario runs benchmarkable and lets CI
// assert digest equality between workers=1 and workers=4.
//
// Model:
//   - A fixed pool of `workers` threads (workers=1 spawns no threads at
//     all: Submit executes inline on the caller, reproducing the
//     single-threaded code path exactly).
//   - Every task is bound to a `shard`. Tasks of one shard run serially,
//     in submission order, on worker (shard % workers) — a per-shard run
//     queue. Distinct shards may interleave arbitrarily, so cross-shard
//     mutable state must land in index-addressed slots the driver folds in
//     index order after Drain, or be commutative (atomic counters of
//     integral deltas).
//   - Each worker keeps a *virtual clock*: tasks carry a modeled cost
//     (SubmitCost / AddVirtualCost) and the clock advances by cost, never
//     by wall time. VirtualMakespan() — the max worker clock — is the
//     modeled parallel completion time; bench_exec (E20) reports modeled
//     records/sec from it, so scaling numbers are deterministic and do not
//     depend on the host's core count.
//
// Driver contract: Submit/ParallelFor/Drain are called from one driver
// thread; tasks may Submit follow-up work (each downstream shard must be
// fed from a single upstream shard to keep its order deterministic), but
// only the driver may Drain.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace arbd::exec {

struct ExecConfig {
  std::size_t workers = 1;  // 0 is clamped to 1
  std::uint64_t seed = 0;   // unread; kept only because perfbench sets it
};

class Executor {
 public:
  explicit Executor(ExecConfig cfg = {});
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  std::size_t workers() const { return workers_; }
  std::size_t WorkerFor(std::uint64_t shard) const {
    return static_cast<std::size_t>(shard % workers_);
  }

  // Enqueue `fn` on shard's run queue with zero modeled cost.
  void Submit(std::uint64_t shard, std::function<void()> fn);
  // Enqueue with a modeled cost billed to the executing worker's virtual
  // clock when the task is dequeued.
  void SubmitCost(std::uint64_t shard, Duration cost, std::function<void()> fn);

  // Block the driver until every submitted task (including tasks submitted
  // by tasks) has completed. Driver-only; calling from a task deadlocks.
  void Drain();

  // Submit fn(0..n-1) with shard=i, then Drain.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Bill additional modeled cost to the calling worker's clock; tasks use
  // this when the cost is only known while running (e.g. simulated frame
  // latency). On non-worker threads this bills worker 0.
  void AddVirtualCost(Duration d);

  Duration WorkerVirtualTime(std::size_t worker) const;
  Duration VirtualMakespan() const;  // max over workers: modeled parallel time
  Duration VirtualTotal() const;     // sum over workers: modeled serial time
  void ResetVirtualTime();

  std::uint64_t tasks_run() const;

  // Index of the worker executing the current thread (0 for the driver and
  // any non-pool thread). MetricRegistry uses its own thread-id sharding,
  // so this is only for task-local bookkeeping like AddVirtualCost.
  static std::size_t CurrentWorker();

 private:
  struct Task {
    Duration cost;
    std::function<void()> fn;
  };
  struct Lane {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<Task> queue;
    Duration vtime = Duration::Zero();
    bool stop = false;
    std::thread thread;
  };

  void WorkerLoop(std::size_t index);
  void Enqueue(std::uint64_t shard, Duration cost, std::function<void()> fn);

  std::size_t workers_ = 1;
  std::vector<std::unique_ptr<Lane>> lanes_;

  mutable std::mutex pending_mu_;
  std::condition_variable pending_cv_;
  std::size_t pending_ = 0;
  std::uint64_t tasks_run_ = 0;
};

}  // namespace arbd::exec
