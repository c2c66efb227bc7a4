#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"

#include "trace/breakdown.h"
#include "trace/export.h"
#include "trace/tracer.h"

namespace arbd::trace {
namespace {

TracerConfig Enabled(std::size_t ring = 1024) {
  TracerConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = ring;
  return cfg;
}

TEST(SpanIds, DeterministicAndSaltSensitive) {
  const SpanId a = DeriveSpanId(1, 2, 3, "stage", 100, 0);
  EXPECT_EQ(a, DeriveSpanId(1, 2, 3, "stage", 100, 0));
  EXPECT_NE(a, DeriveSpanId(9, 2, 3, "stage", 100, 0));  // seed
  EXPECT_NE(a, DeriveSpanId(1, 2, 3, "other", 100, 0));  // name
  EXPECT_NE(a, DeriveSpanId(1, 2, 3, "stage", 101, 0));  // start
  EXPECT_NE(a, DeriveSpanId(1, 2, 3, "stage", 100, 1));  // salt
  EXPECT_NE(a, 0u);
}

TEST(Tracer, StartTraceIsSeededAndNonzero) {
  Tracer t(Enabled());
  EXPECT_EQ(t.StartTrace(7), t.StartTrace(7));
  EXPECT_NE(t.StartTrace(7), t.StartTrace(8));
  EXPECT_NE(t.StartTrace(0), 0u);
}

TEST(Tracer, DisabledRecordIsANoOpReturningParent) {
  Tracer t;  // disabled by default
  const SpanContext root = t.RootContext(t.StartTrace(1), TimePoint{});
  const SpanContext out = t.Record("x", root, Duration::Micros(5));
  EXPECT_EQ(out.trace_id, root.trace_id);
  EXPECT_EQ(out.span_id, root.span_id);
  EXPECT_EQ(out.at, root.at);
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_TRUE(t.Drain().empty());
}

TEST(Tracer, InvalidParentIsANoOp) {
  Tracer t(Enabled());
  SpanContext invalid;  // trace_id 0
  EXPECT_FALSE(t.Record("x", invalid, Duration::Micros(1)).valid());
  EXPECT_EQ(t.recorded(), 0u);
}

TEST(Tracer, RecordChainsTheCausalCursor) {
  Tracer t(Enabled());
  const SpanContext root = t.RootContext(t.StartTrace(1), TimePoint::FromNanos(1000));
  const SpanContext a = t.Record("a", root, Duration::Nanos(500));
  EXPECT_EQ(a.at.nanos(), 1500);
  const SpanContext b = t.Record("b", a, Duration::Nanos(250));
  EXPECT_EQ(b.at.nanos(), 1750);

  const auto spans = t.Drain();
  ASSERT_EQ(spans.size(), 2u);
  // Canonical order: by start time within the trace.
  EXPECT_EQ(spans[0].name, "a");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[1].name, "b");
  EXPECT_EQ(spans[1].parent_id, spans[0].span_id);
  EXPECT_EQ(spans[1].start.nanos(), 1500);
  EXPECT_EQ(spans[1].end.nanos(), 1750);
}

TEST(Tracer, RingOverflowOverwritesOldestAndCounts) {
  Tracer t(Enabled(/*ring=*/4));
  const SpanContext root = t.RootContext(t.StartTrace(1), TimePoint{});
  SpanContext ctx = root;
  for (int i = 0; i < 10; ++i) ctx = t.Record("s", ctx, Duration::Nanos(1));
  EXPECT_EQ(t.recorded(), 10u);
  // Single-threaded: all ten spans hit the same shard ring of capacity 4.
  EXPECT_EQ(t.dropped(), 6u);
  EXPECT_EQ(t.Drain().size(), 4u);
}

TEST(Tracer, ClearResetsCounters) {
  Tracer t(Enabled());
  SpanContext ctx = t.RootContext(t.StartTrace(1), TimePoint{});
  t.Record("s", ctx, Duration::Nanos(1));
  t.Clear();
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_TRUE(t.Drain().empty());
}

// Records chain `c`: kChainSpans spans, each the child of the last, with
// seeded costs and tags.
constexpr std::size_t kChainSpans = 500;

void RecordChain(Tracer& t, std::uint64_t c) {
  Rng rng(100 + c);
  SpanContext ctx = t.RootContext(t.StartTrace(c), TimePoint::FromNanos(1000 * c));
  for (std::size_t i = 0; i < kChainSpans; ++i) {
    ctx = t.Record(i % 2 == 0 ? "even" : "odd", ctx,
                   Duration::Nanos(1 + static_cast<std::int64_t>(rng.NextBelow(100))),
                   {{"chain", std::to_string(c)}}, i);
  }
}

// Four threads outside any executor record into one tracer at once; the
// shards' locking must keep every span, and Drain's canonical order must
// give the span tree one thread recording the same chains gives.
TEST(Tracer, ConcurrentRecordFromRawThreads) {
  constexpr std::uint64_t kChains = 4;
  Tracer serial(Enabled(/*ring=*/kChains * kChainSpans));
  for (std::uint64_t c = 0; c < kChains; ++c) RecordChain(serial, c);

  Tracer concurrent(Enabled(/*ring=*/kChains * kChainSpans));
  std::vector<std::thread> threads;
  for (std::uint64_t c = 0; c < kChains; ++c) {
    threads.emplace_back([&concurrent, c] { RecordChain(concurrent, c); });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(concurrent.recorded(), kChains * kChainSpans);
  EXPECT_EQ(concurrent.dropped(), 0u);
  const auto spans = concurrent.Drain();
  EXPECT_EQ(spans.size(), kChains * kChainSpans);
  EXPECT_EQ(SpanTreeDigest(spans), SpanTreeDigest(serial.Drain()));
}

TEST(SpanTreeDigestTest, EqualSetsEqualDigests) {
  Tracer a(Enabled()), b(Enabled());
  for (Tracer* t : {&a, &b}) {
    SpanContext ctx = t->RootContext(t->StartTrace(3), TimePoint{});
    ctx = t->Record("x", ctx, Duration::Micros(1), {{"k", "v"}});
    t->Record("y", ctx, Duration::Micros(2));
  }
  EXPECT_EQ(SpanTreeDigest(a.Drain()), SpanTreeDigest(b.Drain()));
}

TEST(SpanTreeDigestTest, DetectsTagAndIntervalChanges) {
  Tracer a(Enabled()), b(Enabled()), c(Enabled());
  SpanContext ca = a.RootContext(a.StartTrace(3), TimePoint{});
  a.Record("x", ca, Duration::Micros(1), {{"k", "v"}});
  SpanContext cb = b.RootContext(b.StartTrace(3), TimePoint{});
  b.Record("x", cb, Duration::Micros(1), {{"k", "other"}});
  SpanContext cc = c.RootContext(c.StartTrace(3), TimePoint{});
  c.Record("x", cc, Duration::Micros(2), {{"k", "v"}});
  const auto da = SpanTreeDigest(a.Drain());
  EXPECT_NE(da, SpanTreeDigest(b.Drain()));
  EXPECT_NE(da, SpanTreeDigest(c.Drain()));
}

// --- breakdown -------------------------------------------------------------

TEST(Breakdown, SequentialChainSumsExactlyToEndToEnd) {
  Tracer t(Enabled());
  SpanContext ctx = t.RootContext(t.StartTrace(1), TimePoint{});
  ctx = t.Record("publish", ctx, Duration::Micros(3));
  ctx = t.Record("produce", ctx, Duration::Micros(2));
  ctx = t.Record("window", ctx, Duration::Micros(10));

  LatencyBreakdown bd;
  bd.AddAll(t.Drain());
  const BreakdownReport r = bd.Compute();
  EXPECT_EQ(r.traces, 1u);
  EXPECT_EQ(r.total_end_to_end, Duration::Micros(15));
  EXPECT_EQ(r.total_attributed, Duration::Micros(15));
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
  ASSERT_NE(r.Stage("window"), nullptr);
  EXPECT_EQ(r.Stage("window")->total_self, Duration::Micros(10));
  // Stages sort by descending total self time.
  EXPECT_EQ(r.stages.front().name, "window");
}

TEST(Breakdown, NestedChildIntervalsSubtractFromParentSelf) {
  Tracer t(Enabled());
  const SpanContext root = t.RootContext(t.StartTrace(1), TimePoint{});
  // Frame root spanning [0, 30µs] with one child covering [5µs, 15µs].
  const SpanContext frame =
      t.RecordAt("frame", root, TimePoint{}, TimePoint{} + Duration::Micros(30));
  t.RecordAt("work", frame, TimePoint{} + Duration::Micros(5),
             TimePoint{} + Duration::Micros(15));

  LatencyBreakdown bd;
  bd.AddAll(t.Drain());
  const BreakdownReport r = bd.Compute();
  ASSERT_NE(r.Stage("frame"), nullptr);
  ASSERT_NE(r.Stage("work"), nullptr);
  EXPECT_EQ(r.Stage("frame")->total_self, Duration::Micros(20));
  EXPECT_EQ(r.Stage("work")->total_self, Duration::Micros(10));
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
}

TEST(Breakdown, MultipleTracesAggregatePerStage) {
  Tracer t(Enabled());
  for (std::uint64_t f = 0; f < 4; ++f) {
    SpanContext ctx = t.RootContext(t.StartTrace(f), TimePoint{});
    ctx = t.Record("a", ctx, Duration::Micros(1));
    t.Record("b", ctx, Duration::Micros(3));
  }
  LatencyBreakdown bd;
  bd.AddAll(t.Drain());
  const BreakdownReport r = bd.Compute();
  EXPECT_EQ(r.traces, 4u);
  ASSERT_NE(r.Stage("b"), nullptr);
  EXPECT_EQ(r.Stage("b")->spans, 4u);
  EXPECT_EQ(r.Stage("b")->total_self, Duration::Micros(12));
  EXPECT_NEAR(r.Stage("b")->critical_share, 0.75, 1e-9);
}

// --- exporter --------------------------------------------------------------

TEST(ChromeExport, EmitsCompleteEventsWithArgs) {
  Tracer t(Enabled());
  SpanContext ctx = t.RootContext(t.StartTrace(1), TimePoint{});
  t.Record("stage.one", ctx, Duration::Micros(5), {{"topic", "events"}});
  const std::string json = ToChromeTraceJson(t.Drain());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stage.one\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5.000"), std::string::npos);
  EXPECT_NE(json.find("\"topic\":\"events\""), std::string::npos);
}

TEST(ChromeExport, EscapesControlAndQuoteCharacters) {
  Tracer t(Enabled());
  SpanContext ctx = t.RootContext(t.StartTrace(1), TimePoint{});
  t.Record("quote\"name", ctx, Duration::Micros(1), {{"k", "line\nbreak"}});
  const std::string json = ToChromeTraceJson(t.Drain());
  EXPECT_NE(json.find("quote\\\"name"), std::string::npos);
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
}

}  // namespace
}  // namespace arbd::trace
