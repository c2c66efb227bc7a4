// Deterministic multi-worker executor — the concurrency substrate the
// sharded harnesses (broker partitions, per-user frame loops) run on. The
// design goal is *controlled* parallelism: for a given worker count a run
// is bit-identical, and for workloads that keep their shards disjoint the
// results are identical across worker counts — which is what lets CI
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
//
// Driver contract: Submit/Drain are called from one driver thread; tasks
// may Submit follow-up work (each downstream shard must be fed from a
// single upstream shard to keep its order deterministic), but only the
// driver may Drain.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

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

  // Enqueue `fn` on shard's run queue.
  void Submit(std::uint64_t shard, std::function<void()> fn);

  // Block the driver until every submitted task (including tasks submitted
  // by tasks) has completed. Driver-only; calling from a task deadlocks.
  void Drain();

  std::uint64_t tasks_run() const;

 private:
  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> queue;
    bool stop = false;
    std::thread thread;
  };

  void WorkerLoop(std::size_t index);

  std::size_t workers_ = 1;
  std::vector<std::unique_ptr<Lane>> lanes_;

  mutable std::mutex pending_mu_;
  std::condition_variable pending_cv_;
  std::size_t pending_ = 0;
  std::uint64_t tasks_run_ = 0;
};

}  // namespace arbd::exec
