#include "exec/executor.h"

#include <algorithm>

namespace arbd::exec {

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

void Executor::Submit(std::uint64_t shard, std::function<void()> fn) {
  if (workers_ == 1) {
    // Inline mode: execute on the caller, in submission order. Recursion
    // via tasks submitting tasks is depth-first here but per-shard FIFO is
    // trivially preserved (there is only one shard stream interleave
    // possible on one thread).
    fn();
    std::lock_guard<std::mutex> lk(pending_mu_);
    ++tasks_run_;
    return;
  }
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    ++pending_;
  }
  Lane& lane = *lanes_[WorkerFor(shard)];
  {
    std::lock_guard<std::mutex> lk(lane.mu);
    lane.queue.push_back(std::move(fn));
  }
  lane.cv.notify_one();
}

void Executor::WorkerLoop(std::size_t index) {
  Lane& lane = *lanes_[index];
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(lane.mu);
      lane.cv.wait(lk, [&] { return lane.stop || !lane.queue.empty(); });
      if (lane.queue.empty()) return;  // stop && drained
      task = std::move(lane.queue.front());
      lane.queue.pop_front();
    }
    task();
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

std::uint64_t Executor::tasks_run() const {
  std::lock_guard<std::mutex> lk(pending_mu_);
  return tasks_run_;
}

}  // namespace arbd::exec
