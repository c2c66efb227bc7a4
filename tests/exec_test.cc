// Unit tests for the deterministic executor substrate: per-shard FIFO
// scheduling, drain semantics, and the thread-safe common-layer
// primitives the refactor depends on (sharded MetricRegistry, serialized
// log sink).
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.h"
#include "common/metrics.h"
#include "exec/executor.h"

namespace arbd {
namespace {

exec::ExecConfig Cfg(std::size_t workers) {
  exec::ExecConfig cfg;
  cfg.workers = workers;
  return cfg;
}

TEST(Executor, SingleWorkerRunsInlineInSubmissionOrder) {
  exec::Executor ex(Cfg(1));
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    ex.Submit(static_cast<std::uint64_t>(i), [&order, caller, i] {
      order.push_back(i);
      EXPECT_EQ(std::this_thread::get_id(), caller);
    });
    // Inline mode: the task already ran by the time Submit returns.
    EXPECT_EQ(order.size(), static_cast<std::size_t>(i + 1));
  }
  ex.Drain();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(ex.tasks_run(), 8u);
}

TEST(Executor, ShardTasksRunSeriallyInSubmissionOrder) {
  exec::Executor ex(Cfg(4));
  // All tasks of one shard run on one worker in FIFO order, so the
  // unsynchronized vector append is safe — that is the contract.
  std::vector<int> order;
  for (int i = 0; i < 200; ++i) {
    ex.Submit(7, [&order, i] { order.push_back(i); });
  }
  ex.Drain();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
}

TEST(Executor, DrainWaitsForTasksSubmittedByTasks) {
  exec::Executor ex(Cfg(4));
  std::atomic<int> ran{0};
  for (std::uint64_t s = 0; s < 4; ++s) {
    ex.Submit(s, [&ex, &ran, s] {
      ran.fetch_add(1);
      ex.Submit(s + 4, [&ran] { ran.fetch_add(1); });
    });
  }
  ex.Drain();
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(ex.tasks_run(), 8u);
}

TEST(Executor, SameConfigSameWorkAcrossWorkerCounts) {
  // Slot-indexed results are identical at every worker count.
  auto run = [](std::size_t workers) {
    exec::Executor ex(Cfg(workers));
    std::vector<std::uint64_t> out(32, 0);
    for (std::uint64_t i = 0; i < 32; ++i) {
      ex.Submit(i, [&out, i] { out[i] = i * i + 1; });
    }
    ex.Drain();
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(Metrics, ConcurrentAddsSumExactly) {
  MetricRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kPerThread; ++i) reg.Add("exec.test.counter", 1.0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(reg.Get("exec.test.counter"),
                   static_cast<double>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(reg.values().at("exec.test.counter"),
                   static_cast<double>(kThreads * kPerThread));
}

TEST(Metrics, SetKeepsOverwriteSemanticsOverShardedAdds) {
  MetricRegistry reg;
  reg.Add("gauge", 5.0);
  reg.Set("gauge", 42.0);  // overwrite, not merge
  EXPECT_DOUBLE_EQ(reg.Get("gauge"), 42.0);
  reg.Add("gauge", 1.0);  // deltas accumulate on top of the set value
  EXPECT_DOUBLE_EQ(reg.Get("gauge"), 43.0);
  reg.Set("gauge", 7.0);
  EXPECT_DOUBLE_EQ(reg.Get("gauge"), 7.0);
}

TEST(Metrics, ConcurrentHistogramRecordsAllLand) {
  MetricRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.Hist("exec.test.lat").Record((t + 1) * 1000 + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  const Histogram merged = reg.HistSnapshot("exec.test.lat");
  EXPECT_EQ(merged.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_GE(merged.min(), 1000);
  EXPECT_EQ(reg.hists().at("exec.test.lat").count(), merged.count());
}

TEST(Metrics, CopyTakesAggregatedSnapshot) {
  MetricRegistry reg;
  std::thread other([&reg] { reg.Add("k", 3.0); });
  other.join();
  reg.Add("k", 2.0);
  const MetricRegistry copy = reg;
  EXPECT_DOUBLE_EQ(copy.Get("k"), 5.0);
}

TEST(Log, SinkSeesWholeLinesUnderConcurrency) {
  const LogLevel old_threshold = Logger::threshold();
  Logger::set_threshold(LogLevel::kInfo);
  std::vector<std::string> lines;  // guarded by the sink mutex
  Logger::set_sink([&lines](LogLevel, const std::string& line) {
    lines.push_back(line);
  });

  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      const std::string msg = "message-from-thread-" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) ARBD_LOG_INFO("exec_test", msg);
    });
  }
  for (auto& th : threads) th.join();
  Logger::set_sink(nullptr);
  Logger::set_threshold(old_threshold);

  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads * kPerThread));
  // Every captured line is one intact record: module present, exactly one
  // complete thread tag, no torn interleavings.
  std::vector<int> per_thread(kThreads, 0);
  for (const auto& line : lines) {
    EXPECT_NE(line.find("exec_test"), std::string::npos) << line;
    EXPECT_EQ(line.find("message-from-thread-"),
              line.rfind("message-from-thread-"))
        << line;
    for (int t = 0; t < kThreads; ++t) {
      if (line.find("message-from-thread-" + std::to_string(t)) !=
          std::string::npos) {
        ++per_thread[t];
        break;
      }
    }
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_thread[t], kPerThread);
}

}  // namespace
}  // namespace arbd
