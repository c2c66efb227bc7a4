// Cross-worker-count determinism of the causal-tracing subsystem (ISSUE 4
// tentpole contract): the span tree a traced platform workload produces is
// bit-identical at workers=1 and workers=4 — ids, parents, intervals, and
// tags — because spans live on the causal modeled-time axis, not on any
// worker's clock. Also asserts the inverse direction: enabling tracing
// must not move a single scenario-digest bit.
#include <gtest/gtest.h>

#include <utility>

#include "common/rng.h"
#include "core/platform.h"
#include "scenarios/digest.h"
#include "trace/tracer.h"

namespace arbd {
namespace {

// Runs a seeded publish → process → compose workload on a private traced
// platform and returns the span-tree digest (asserting no ring overflow,
// without which the comparison would be meaningless).
std::uint64_t TracedWorkloadDigest(std::uint64_t seed, std::size_t workers) {
  trace::TracerConfig tcfg;
  tcfg.enabled = true;
  tcfg.ring_capacity = 1u << 16;
  tcfg.seed = 0x7ace5eedULL ^ seed;
  trace::Tracer tracer(tcfg);

  SimClock clock;
  const geo::CityModel city = geo::CityModel::Generate(geo::CityConfig{}, 51);
  core::PlatformConfig cfg;
  cfg.exec.workers = workers;
  cfg.tracer = &tracer;
  core::Platform platform(cfg, city, clock);
  platform.AddUser("u0");

  core::AggregationSpec speed;
  speed.attribute = "speed";
  speed.window = stream::WindowSpec::Tumbling(Duration::Seconds(1));
  speed.agg = stream::AggKind::kMean;
  platform.AddAggregation(speed);
  core::AggregationSpec visits;
  visits.attribute = "visits";
  visits.window = stream::WindowSpec::Tumbling(Duration::Millis(500));
  visits.agg = stream::AggKind::kCount;
  platform.AddAggregation(visits);

  core::InterpretationRule rule;
  rule.attribute = "speed";
  platform.AddRule(rule);

  Rng rng(seed);
  for (int i = 0; i < 200; ++i) {
    stream::Event e;
    e.key = "k" + std::to_string(i % 8);
    e.attribute = (i % 3 == 0) ? "visits" : "speed";
    e.value = rng.Uniform(0.0, 30.0);
    e.event_time = TimePoint::FromMillis(i * 20);
    trace::SpanContext ctx =
        tracer.RootContext(tracer.StartTrace(static_cast<std::uint64_t>(i)),
                           e.event_time);
    (void)platform.PublishTraced(e, ctx);
    if (i % 50 == 49) {
      clock.Advance(Duration::Millis(200));
      platform.ProcessPending();
    }
  }
  platform.ProcessPending();

  for (std::uint64_t f = 0; f < 10; ++f) {
    trace::SpanContext ctx =
        tracer.RootContext(tracer.StartTrace(1'000'000 + f), clock.Now());
    auto frame = platform.ComposeFrameTraced("u0", ctx);
    EXPECT_TRUE(frame.ok());
    clock.Advance(Duration::Millis(33));
  }

  EXPECT_EQ(tracer.dropped(), 0u) << "ring overflow invalidates digest comparison";
  const auto spans = tracer.Drain();
  EXPECT_GT(spans.size(), 0u);
  return trace::SpanTreeDigest(spans);
}

TEST(TraceDeterminism, SpanTreeDigestEqualAcrossWorkerCounts) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull}) {
    EXPECT_EQ(TracedWorkloadDigest(seed, 1), TracedWorkloadDigest(seed, 4))
        << "seed " << seed;
  }
}

TEST(TraceDeterminism, SpanTreeDigestDependsOnSeed) {
  EXPECT_NE(TracedWorkloadDigest(11, 1), TracedWorkloadDigest(22, 1));
}

TEST(TraceDeterminism, ScenarioDigestsUnchangedByTracing) {
  // Turning the tracer on must not move a single digest bit: trace headers
  // stay out of encoded payloads, and instrumentation consumes no
  // simulation randomness or virtual time. OverloadDigest wires no tracer,
  // so its half of the comparison runs the same configuration twice.
  RuntimeConfig off = RuntimeConfig::Process();
  off.exec_workers = 2;
  off.trace = false;
  RuntimeConfig on = off;
  on.trace = true;
  EXPECT_EQ(scenarios::TourismDigest(7, on), scenarios::TourismDigest(7, off));
  EXPECT_EQ(scenarios::OverloadDigest(7, on), scenarios::OverloadDigest(7, off));
}

}  // namespace
}  // namespace arbd
