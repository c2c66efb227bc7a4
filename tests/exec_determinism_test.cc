// Cross-worker-count determinism regression tests (satellite b of the
// executor refactor): the staged-parallel pipeline path must be
// observably identical to the synchronous pump — checkpoint bytes,
// counters, and sink call sequences — and whole-scenario final-state
// digests must be identical at workers ∈ {1, 4} for every seed.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/runtime.h"
#include "exec/executor.h"
#include "scenarios/digest.h"
#include "stream/dataflow.h"

namespace arbd {
namespace {

exec::ExecConfig Cfg(std::size_t workers) {
  exec::ExecConfig cfg;
  cfg.workers = workers;
  return cfg;
}

// The process configuration at `workers` executor workers.
RuntimeConfig AtWorkers(std::size_t workers) {
  RuntimeConfig rc = RuntimeConfig::Process();
  rc.exec_workers = workers;
  return rc;
}

std::vector<stream::Event> MakeEvents(std::size_t n) {
  std::vector<stream::Event> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stream::Event e;
    e.key = "entity-" + std::to_string(i % 5);
    e.attribute = (i % 2 == 0) ? "speed" : "load";
    e.value = static_cast<double>(i % 17) * 0.5;
    // Mild out-of-orderness so watermark bookkeeping is exercised.
    const std::size_t wiggle = (i % 4 == 3) ? i - 2 : i;
    e.event_time = TimePoint::FromMillis(static_cast<std::int64_t>(wiggle * 40));
    events.push_back(std::move(e));
  }
  return events;
}

struct PipelineObservation {
  Bytes checkpoint;
  std::vector<std::string> result_trace;  // sink calls, in order
  std::vector<std::string> event_trace;   // event-sink calls, in order
  std::uint64_t events_in = 0;
  std::uint64_t results_out = 0;
  std::int64_t watermark_ns = 0;
  std::uint64_t late_dropped = 0;
};

// One pipeline shape with every stage kind: map, filter, window agg, both
// sink flavours. `parallel_workers == 0` drives it through the synchronous
// Push loop; otherwise through ProcessBatchParallel on that many workers.
PipelineObservation RunPipeline(std::size_t parallel_workers,
                                const std::vector<stream::Event>& events) {
  PipelineObservation obs;
  stream::Pipeline pipe(Duration::Millis(120));
  pipe.Map([](const stream::Event& e) {
        stream::Event out = e;
        out.value *= 2.0;
        return out;
      })
      .Filter([](const stream::Event& e) { return e.value < 15.0; })
      .WindowAggregate(stream::WindowSpec::Tumbling(Duration::Millis(500)),
                       stream::AggKind::kMean, Duration::Millis(40))
      .Sink([&obs](const stream::WindowResult& r) {
        obs.result_trace.push_back(r.key + "/" + r.attribute + "@" +
                                   std::to_string(r.window_start.nanos()) + "=" +
                                   std::to_string(r.value) + "#" +
                                   std::to_string(r.count));
      })
      .EventSink([&obs](const stream::Event& e) {
        obs.event_trace.push_back(e.key + ":" + std::to_string(e.value));
      });

  if (parallel_workers == 0) {
    for (const auto& e : events) pipe.Push(e);
  } else {
    exec::Executor ex(Cfg(parallel_workers));
    pipe.ProcessBatchParallel(ex, events);
    ex.Drain();
  }
  obs.checkpoint = pipe.Checkpoint();
  obs.events_in = pipe.events_in();
  obs.results_out = pipe.results_out();
  obs.watermark_ns = pipe.watermark().nanos();
  obs.late_dropped = pipe.late_dropped();
  return obs;
}

TEST(ExecDeterminism, StagedBatchIsObservablyIdenticalToSynchronousPush) {
  const auto events = MakeEvents(240);
  const PipelineObservation sync = RunPipeline(0, events);
  ASSERT_FALSE(sync.result_trace.empty());
  ASSERT_FALSE(sync.event_trace.empty());

  for (const std::size_t workers : {1u, 4u}) {
    const PipelineObservation par = RunPipeline(workers, events);
    EXPECT_EQ(par.checkpoint, sync.checkpoint) << "workers=" << workers;
    EXPECT_EQ(par.result_trace, sync.result_trace) << "workers=" << workers;
    EXPECT_EQ(par.event_trace, sync.event_trace) << "workers=" << workers;
    EXPECT_EQ(par.events_in, sync.events_in);
    EXPECT_EQ(par.results_out, sync.results_out);
    EXPECT_EQ(par.watermark_ns, sync.watermark_ns);
    EXPECT_EQ(par.late_dropped, sync.late_dropped);
  }
}

TEST(ExecDeterminism, StagedBatchesCompose) {
  // Splitting the stream into several parallel batches equals one long
  // synchronous feed — the watermark carries across batch boundaries.
  const auto events = MakeEvents(240);
  const PipelineObservation sync = RunPipeline(0, events);

  PipelineObservation obs;
  stream::Pipeline pipe(Duration::Millis(120));
  pipe.Map([](const stream::Event& e) {
        stream::Event out = e;
        out.value *= 2.0;
        return out;
      })
      .Filter([](const stream::Event& e) { return e.value < 15.0; })
      .WindowAggregate(stream::WindowSpec::Tumbling(Duration::Millis(500)),
                       stream::AggKind::kMean, Duration::Millis(40))
      .Sink([&obs](const stream::WindowResult& r) {
        obs.result_trace.push_back(r.key + "/" + r.attribute + "@" +
                                   std::to_string(r.window_start.nanos()) + "=" +
                                   std::to_string(r.value) + "#" +
                                   std::to_string(r.count));
      })
      .EventSink([&obs](const stream::Event& e) {
        obs.event_trace.push_back(e.key + ":" + std::to_string(e.value));
      });
  exec::Executor ex(Cfg(4));
  for (std::size_t start = 0; start < events.size(); start += 60) {
    const std::vector<stream::Event> chunk(
        events.begin() + static_cast<std::ptrdiff_t>(start),
        events.begin() + static_cast<std::ptrdiff_t>(start + 60));
    pipe.ProcessBatchParallel(ex, chunk);
    ex.Drain();
  }
  EXPECT_EQ(pipe.Checkpoint(), sync.checkpoint);
  EXPECT_EQ(obs.result_trace, sync.result_trace);
  EXPECT_EQ(obs.event_trace, sync.event_trace);
  EXPECT_EQ(pipe.results_out(), sync.results_out);
}

TEST(ExecDeterminism, TourismDigestInvariantAcrossWorkerCounts) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::uint64_t d1 = scenarios::TourismDigest(seed, AtWorkers(1));
    const std::uint64_t d4 = scenarios::TourismDigest(seed, AtWorkers(4));
    EXPECT_EQ(d1, d4) << "seed=" << seed;
    // Same config run twice is bit-identical (no wall-clock leakage).
    EXPECT_EQ(d4, scenarios::TourismDigest(seed, AtWorkers(4))) << "seed=" << seed;
  }
}

TEST(ExecDeterminism, OverloadDigestInvariantAcrossWorkerCounts) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::uint64_t d1 = scenarios::OverloadDigest(seed, AtWorkers(1));
    const std::uint64_t d4 = scenarios::OverloadDigest(seed, AtWorkers(4));
    EXPECT_EQ(d1, d4) << "seed=" << seed;
    EXPECT_EQ(d4, scenarios::OverloadDigest(seed, AtWorkers(4))) << "seed=" << seed;
  }
}

TEST(ExecDeterminism, DigestsAreSeedSensitive) {
  // Sanity: the digest actually observes the run (different seeds differ).
  EXPECT_NE(scenarios::TourismDigest(1, AtWorkers(1)), scenarios::TourismDigest(2, AtWorkers(1)));
  EXPECT_NE(scenarios::OverloadDigest(1, AtWorkers(1)), scenarios::OverloadDigest(2, AtWorkers(1)));
}

}  // namespace
}  // namespace arbd
