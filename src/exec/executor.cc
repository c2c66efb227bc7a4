#include "exec/executor.h"

#include <algorithm>
#include <string>

namespace arbd::exec {

namespace {

// Worker index of the current thread. 0 on the driver and on any thread
// that is not part of a pool; set once by WorkerLoop on pool threads.
thread_local std::size_t t_current_worker = 0;

}  // namespace

Executor::Executor(ExecConfig cfg) : workers_(std::max<std::size_t>(1, cfg.workers)) {
  lanes_.reserve(workers_);
  for (std::size_t i = 0; i < workers_; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  // workers==1 runs every task inline at Submit; no thread is spawned so
  // the execution order (and any incidental UB/raciness a task might have)
  // is exactly the pre-executor synchronous path.
  if (workers_ > 1) {
    for (std::size_t i = 0; i < workers_; ++i) {
      lanes_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
    }
  }
}

Executor::~Executor() {
  if (workers_ > 1) {
    Drain();
    for (auto& lane : lanes_) {
      {
        std::lock_guard<std::mutex> lk(lane->mu);
        lane->stop = true;
      }
      lane->cv.notify_all();
    }
    for (auto& lane : lanes_) {
      if (lane->thread.joinable()) lane->thread.join();
    }
  }
}

std::size_t Executor::CurrentWorker() { return t_current_worker; }

void Executor::Submit(std::uint64_t shard, std::function<void()> fn) {
  Enqueue(shard, Duration::Zero(), std::move(fn));
}

void Executor::SubmitCost(std::uint64_t shard, Duration cost,
                          std::function<void()> fn) {
  Enqueue(shard, cost, std::move(fn));
}

void Executor::Enqueue(std::uint64_t shard, Duration cost,
                       std::function<void()> fn) {
  Lane& lane = *lanes_[WorkerFor(shard)];
  if (workers_ == 1) {
    // Inline mode: execute on the caller, in submission order, billing the
    // single lane's virtual clock. Recursion via tasks submitting tasks is
    // depth-first here but per-shard FIFO is trivially preserved (there is
    // only one shard stream interleave possible on one thread).
    {
      std::lock_guard<std::mutex> lk(lane.mu);
      lane.vtime += cost;
    }
    fn();
    std::lock_guard<std::mutex> lk(pending_mu_);
    ++tasks_run_;
    return;
  }
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    ++pending_;
  }
  {
    std::lock_guard<std::mutex> lk(lane.mu);
    lane.queue.push_back(Task{cost, std::move(fn)});
  }
  lane.cv.notify_one();
}

void Executor::WorkerLoop(std::size_t index) {
  t_current_worker = index;
  Lane& lane = *lanes_[index];
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lk(lane.mu);
      lane.cv.wait(lk, [&] { return lane.stop || !lane.queue.empty(); });
      if (lane.queue.empty()) return;  // stop && drained
      task = std::move(lane.queue.front());
      lane.queue.pop_front();
      lane.vtime += task.cost;
    }
    task.fn();
    bool last = false;
    {
      std::lock_guard<std::mutex> lk(pending_mu_);
      ++tasks_run_;
      last = (--pending_ == 0);
    }
    if (last) pending_cv_.notify_all();
  }
}

void Executor::Drain() {
  if (workers_ == 1) return;  // inline mode never has queued work
  std::unique_lock<std::mutex> lk(pending_mu_);
  pending_cv_.wait(lk, [&] { return pending_ == 0; });
}

void Executor::ParallelFor(std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < n; ++i) {
    Submit(i, [&fn, i] { fn(i); });
  }
  Drain();
}

void Executor::AddVirtualCost(Duration d) {
  Lane& lane = *lanes_[std::min(t_current_worker, workers_ - 1)];
  std::lock_guard<std::mutex> lk(lane.mu);
  lane.vtime += d;
}

Duration Executor::WorkerVirtualTime(std::size_t worker) const {
  const Lane& lane = *lanes_.at(worker);
  std::lock_guard<std::mutex> lk(lane.mu);
  return lane.vtime;
}

Duration Executor::VirtualMakespan() const {
  Duration max = Duration::Zero();
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lk(lane->mu);
    max = std::max(max, lane->vtime);
  }
  return max;
}

Duration Executor::VirtualTotal() const {
  Duration sum = Duration::Zero();
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lk(lane->mu);
    sum += lane->vtime;
  }
  return sum;
}

void Executor::ResetVirtualTime() {
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lk(lane->mu);
    lane->vtime = Duration::Zero();
  }
}

std::uint64_t Executor::tasks_run() const {
  std::lock_guard<std::mutex> lk(pending_mu_);
  return tasks_run_;
}

}  // namespace arbd::exec
