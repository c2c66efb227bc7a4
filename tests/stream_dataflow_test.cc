#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <map>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "stream/dataflow.h"

namespace arbd::stream {
namespace {

Event Ev(const std::string& key, double value, std::int64_t ms,
         const std::string& attr = "metric") {
  Event e;
  e.key = key;
  e.attribute = attr;
  e.value = value;
  e.event_time = TimePoint::FromMillis(ms);
  return e;
}

TEST(EventTest, EncodeDecodeRoundTrip) {
  const Event e = Ev("vehicle-3", 42.5, 1234, "speed");
  const auto d = Event::Decode(e.Encode());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->key, "vehicle-3");
  EXPECT_EQ(d->attribute, "speed");
  EXPECT_DOUBLE_EQ(d->value, 42.5);
  EXPECT_EQ(d->event_time.millis(), 1234);
}

TEST(EventTest, DecodeTruncatedFails) {
  Bytes b = Ev("k", 1.0, 0).Encode();
  b.resize(4);
  EXPECT_FALSE(Event::Decode(b).ok());
}

TEST(WindowSpecTest, Factories) {
  const auto t = WindowSpec::Tumbling(Duration::Seconds(5));
  EXPECT_EQ(t.kind, WindowSpec::Kind::kTumbling);
  const auto s = WindowSpec::Sliding(Duration::Seconds(10), Duration::Seconds(2));
  EXPECT_EQ(s.kind, WindowSpec::Kind::kSliding);
  const auto g = WindowSpec::Session(Duration::Seconds(3));
  EXPECT_EQ(g.kind, WindowSpec::Kind::kSession);
}

class TumblingPipeline : public ::testing::Test {
 protected:
  void Build(AggKind agg, Duration lateness = Duration::Zero(),
             Duration ooo = Duration::Zero()) {
    pipeline_ = std::make_unique<Pipeline>(ooo);
    pipeline_->WindowAggregate(WindowSpec::Tumbling(Duration::Seconds(1)), agg, lateness)
        .Sink([this](const WindowResult& r) { results_.push_back(r); });
  }
  std::unique_ptr<Pipeline> pipeline_;
  std::vector<WindowResult> results_;
};

TEST_F(TumblingPipeline, SumFiresOnWatermark) {
  Build(AggKind::kSum);
  pipeline_->Push(Ev("a", 1.0, 100));
  pipeline_->Push(Ev("a", 2.0, 600));
  EXPECT_TRUE(results_.empty()) << "window must not fire before it closes";
  pipeline_->Push(Ev("a", 5.0, 1200));  // watermark passes 1000
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_DOUBLE_EQ(results_[0].value, 3.0);
  EXPECT_EQ(results_[0].window_start.millis(), 0);
  EXPECT_EQ(results_[0].window_end.millis(), 1000);
  EXPECT_EQ(results_[0].count, 2u);
}

TEST_F(TumblingPipeline, KeysAggregateIndependently) {
  Build(AggKind::kCount);
  pipeline_->Push(Ev("a", 1.0, 100));
  pipeline_->Push(Ev("b", 1.0, 200));
  pipeline_->Push(Ev("a", 1.0, 300));
  pipeline_->Flush();
  ASSERT_EQ(results_.size(), 2u);
  double a_count = 0, b_count = 0;
  for (const auto& r : results_) {
    (r.key == "a" ? a_count : b_count) = r.value;
  }
  EXPECT_DOUBLE_EQ(a_count, 2.0);
  EXPECT_DOUBLE_EQ(b_count, 1.0);
}

TEST_F(TumblingPipeline, MeanMinMax) {
  for (AggKind agg : {AggKind::kMean, AggKind::kMin, AggKind::kMax}) {
    Build(agg);
    results_.clear();
    pipeline_->Push(Ev("k", 2.0, 100));
    pipeline_->Push(Ev("k", 8.0, 200));
    pipeline_->Push(Ev("k", 5.0, 300));
    pipeline_->Flush();
    ASSERT_EQ(results_.size(), 1u);
    const double expected = agg == AggKind::kMean ? 5.0 : agg == AggKind::kMin ? 2.0 : 8.0;
    EXPECT_DOUBLE_EQ(results_[0].value, expected);
  }
}

TEST_F(TumblingPipeline, OutOfOrderWithinSlackAccepted) {
  Build(AggKind::kCount, Duration::Zero(), /*ooo=*/Duration::Millis(500));
  pipeline_->Push(Ev("k", 1.0, 800));
  pipeline_->Push(Ev("k", 1.0, 400));  // older but within slack
  pipeline_->Push(Ev("k", 1.0, 2000));
  pipeline_->Flush();
  ASSERT_GE(results_.size(), 1u);
  EXPECT_DOUBLE_EQ(results_[0].value, 2.0);
  EXPECT_EQ(pipeline_->late_dropped(), 0u);
}

TEST_F(TumblingPipeline, LateEventsDroppedAndCounted) {
  Build(AggKind::kCount);
  pipeline_->Push(Ev("k", 1.0, 100));
  pipeline_->Push(Ev("k", 1.0, 2500));  // watermark now 2500
  pipeline_->Push(Ev("k", 1.0, 200));   // way late
  EXPECT_EQ(pipeline_->late_dropped(), 1u);
}

TEST_F(TumblingPipeline, AllowedLatenessAdmitsStragglers) {
  Build(AggKind::kCount, /*lateness=*/Duration::Seconds(2));
  pipeline_->Push(Ev("k", 1.0, 100));
  pipeline_->Push(Ev("k", 1.0, 1500));  // watermark 1500 < 1000+2000
  pipeline_->Push(Ev("k", 1.0, 200));   // late but within lateness
  EXPECT_EQ(pipeline_->late_dropped(), 0u);
  pipeline_->Flush();
  ASSERT_GE(results_.size(), 1u);
  // First window holds both 100 and 200.
  EXPECT_DOUBLE_EQ(results_[0].value, 2.0);
}

TEST(SlidingWindow, EventLandsInMultipleWindows) {
  Pipeline p;
  std::vector<WindowResult> results;
  p.WindowAggregate(WindowSpec::Sliding(Duration::Seconds(2), Duration::Seconds(1)),
                    AggKind::kCount)
      .Sink([&](const WindowResult& r) { results.push_back(r); });
  p.Push(Ev("k", 1.0, 1500));  // in [0,2000) and [1000,3000)
  p.Flush();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(results[0].value, 1.0);
  EXPECT_DOUBLE_EQ(results[1].value, 1.0);
}

TEST(SlidingWindow, CountsMatchAcrossSlides) {
  Pipeline p;
  std::vector<WindowResult> results;
  p.WindowAggregate(WindowSpec::Sliding(Duration::Seconds(3), Duration::Seconds(1)),
                    AggKind::kSum)
      .Sink([&](const WindowResult& r) { results.push_back(r); });
  // One event per second, value 1: every full window sums to 3.
  for (int s = 0; s < 10; ++s) p.Push(Ev("k", 1.0, s * 1000 + 500));
  p.Flush();
  int full_windows = 0;
  for (const auto& r : results) {
    if (r.value == 3.0) ++full_windows;
  }
  EXPECT_GE(full_windows, 6);
}

TEST(SessionWindow, GapsSplitSessions) {
  Pipeline p;
  std::vector<WindowResult> results;
  p.WindowAggregate(WindowSpec::Session(Duration::Seconds(1)), AggKind::kCount)
      .Sink([&](const WindowResult& r) { results.push_back(r); });
  p.Push(Ev("k", 1.0, 0));
  p.Push(Ev("k", 1.0, 500));   // same session
  p.Push(Ev("k", 1.0, 3000));  // new session (gap > 1s)
  p.Flush();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(results[0].value, 2.0);
  EXPECT_DOUBLE_EQ(results[1].value, 1.0);
}

TEST(SessionWindow, OverlappingSessionsMerge) {
  Pipeline p;
  std::vector<WindowResult> results;
  p.WindowAggregate(WindowSpec::Session(Duration::Seconds(2)), AggKind::kCount)
      .Sink([&](const WindowResult& r) { results.push_back(r); });
  // Out-of-order arrivals that bridge into one session.
  Pipeline q(Duration::Seconds(5));
  q.WindowAggregate(WindowSpec::Session(Duration::Seconds(2)), AggKind::kCount)
      .Sink([&](const WindowResult& r) { results.push_back(r); });
  q.Push(Ev("k", 1.0, 0));
  q.Push(Ev("k", 1.0, 3000));  // separate for now
  q.Push(Ev("k", 1.0, 1500));  // bridges the two
  q.Flush();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_DOUBLE_EQ(results[0].value, 3.0);
}

TEST(SessionWindow, BridgeMergesOnlyItsOwnKey) {
  // Key "b"'s sessions sit between "a" and "c" in map order. An event
  // bridging a's two sessions must merge exactly those two, folding them
  // into the new event's accumulator in map order: (0.7 + 0.1) + 0.2.
  Pipeline p(Duration::Seconds(10));
  std::vector<WindowResult> results;
  p.WindowAggregate(WindowSpec::Session(Duration::Seconds(2)), AggKind::kSum)
      .Sink([&](const WindowResult& r) { results.push_back(r); });
  p.Push(Ev("a", 0.1, 0));
  p.Push(Ev("a", 0.2, 3000));
  p.Push(Ev("b", 1.0, 500));
  p.Push(Ev("b", 2.0, 6000));
  p.Push(Ev("c", 4.0, 1000));
  p.Push(Ev("a", 0.7, 1500));  // bridges [0, 2000) and [3000, 5000)
  p.Flush();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].key, "a");
  EXPECT_EQ(results[0].window_start.millis(), 0);
  EXPECT_EQ(results[0].window_end.millis(), 5000);
  EXPECT_EQ(results[0].count, 3u);
  EXPECT_EQ(results[0].value, (0.7 + 0.1) + 0.2);
  EXPECT_EQ(results[1].key, "b");
  EXPECT_EQ(results[1].window_start.millis(), 500);
  EXPECT_EQ(results[2].key, "b");
  EXPECT_EQ(results[2].window_start.millis(), 6000);
  EXPECT_EQ(results[3].key, "c");
  EXPECT_DOUBLE_EQ(results[3].value, 4.0);
}

TEST(PipelineStages, MapFilterChain) {
  Pipeline p;
  std::vector<WindowResult> results;
  p.Filter([](const Event& e) { return e.value > 0; })
      .Map([](const Event& e) {
        Event out = e;
        out.value *= 2.0;
        return out;
      })
      .WindowAggregate(WindowSpec::Tumbling(Duration::Seconds(1)), AggKind::kSum)
      .Sink([&](const WindowResult& r) { results.push_back(r); });
  p.Push(Ev("k", 3.0, 100));
  p.Push(Ev("k", -5.0, 200));  // filtered out
  p.Flush();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_DOUBLE_EQ(results[0].value, 6.0);
}

TEST(PipelineStages, KeyByRekeysEvents) {
  Pipeline p;
  std::vector<WindowResult> results;
  p.KeyBy([](const Event& e) { return e.attribute; })
      .WindowAggregate(WindowSpec::Tumbling(Duration::Seconds(1)), AggKind::kCount)
      .Sink([&](const WindowResult& r) { results.push_back(r); });
  p.Push(Ev("u1", 1.0, 100, "hr"));
  p.Push(Ev("u2", 1.0, 200, "hr"));
  p.Flush();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].key, "hr");
  EXPECT_DOUBLE_EQ(results[0].value, 2.0);
}

TEST(PipelineStages, WindowResultsFlowDownstream) {
  // Window → filter-on-result (as events) → event sink.
  Pipeline p;
  std::vector<Event> alerts;
  p.WindowAggregate(WindowSpec::Tumbling(Duration::Seconds(1)), AggKind::kMean)
      .Filter([](const Event& e) { return e.value > 100.0; })
      .EventSink([&](const Event& e) { alerts.push_back(e); });
  p.Push(Ev("p1", 150.0, 100, "hr"));
  p.Push(Ev("p2", 60.0, 100, "hr"));
  p.Flush();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].key, "p1");
}

TEST(PipelineCheckpoint, RoundTripPreservesWindows) {
  auto build = [](std::vector<WindowResult>* out) {
    auto p = std::make_unique<Pipeline>();
    p->WindowAggregate(WindowSpec::Tumbling(Duration::Seconds(1)), AggKind::kSum)
        .Sink([out](const WindowResult& r) { out->push_back(r); });
    return p;
  };
  std::vector<WindowResult> results_a, results_b;
  auto a = build(&results_a);
  a->Push(Ev("k", 2.0, 100));
  a->Push(Ev("k", 3.0, 600));
  const Bytes snapshot = a->Checkpoint();

  // "Fail over" to a fresh pipeline restored from the snapshot.
  auto b = build(&results_b);
  ASSERT_TRUE(b->Restore(snapshot).ok());
  EXPECT_EQ(b->events_in(), 2u);
  b->Push(Ev("k", 5.0, 1500));
  ASSERT_EQ(results_b.size(), 1u);
  EXPECT_DOUBLE_EQ(results_b[0].value, 5.0) << "restored window must contain both pre-checkpoint events";
  EXPECT_EQ(results_b[0].count, 2u);
}

TEST(PipelineCheckpoint, RestoredWindowsFireOnNextWatermark) {
  // The restored windows all end at 1000 ms. The event that moves the
  // watermark to 1000 ms opens a later window of its own, so the restored
  // ones fire only if restoring re-derived the stage's earliest fire time.
  auto build = [](std::vector<WindowResult>* out) {
    auto p = std::make_unique<Pipeline>();
    p->WindowAggregate(WindowSpec::Tumbling(Duration::Seconds(1)), AggKind::kSum)
        .Sink([out](const WindowResult& r) { out->push_back(r); });
    return p;
  };
  std::vector<WindowResult> results_a, results_b;
  auto a = build(&results_a);
  a->Push(Ev("x", 1.0, 100));
  a->Push(Ev("y", 2.0, 400));
  a->Push(Ev("z", 3.0, 900));
  ASSERT_TRUE(results_a.empty());
  const Bytes snapshot = a->Checkpoint();

  auto b = build(&results_b);
  ASSERT_TRUE(b->Restore(snapshot).ok());
  b->Push(Ev("w", 9.0, 1000));
  ASSERT_EQ(results_b.size(), 3u);
  EXPECT_EQ(results_b[0].key, "x");
  EXPECT_EQ(results_b[1].key, "y");
  EXPECT_EQ(results_b[2].key, "z");
  for (const auto& r : results_b) EXPECT_EQ(r.window_end.millis(), 1000);
  EXPECT_DOUBLE_EQ(results_b[2].value, 3.0);
}

TEST(PipelineCheckpoint, StageCountMismatchRejected) {
  Pipeline a;
  a.WindowAggregate(WindowSpec::Tumbling(Duration::Seconds(1)), AggKind::kSum);
  const Bytes snap = a.Checkpoint();
  Pipeline b;  // no stages
  EXPECT_FALSE(b.Restore(snap).ok());
}

TEST(PipelineCheckpoint, CorruptSnapshotRejected) {
  Pipeline a;
  a.WindowAggregate(WindowSpec::Tumbling(Duration::Seconds(1)), AggKind::kSum);
  Bytes snap = a.Checkpoint();
  snap.resize(snap.size() / 2);
  Pipeline b;
  b.WindowAggregate(WindowSpec::Tumbling(Duration::Seconds(1)), AggKind::kSum);
  EXPECT_FALSE(b.Restore(snap).ok());
}

TEST(PipelineCounters, TrackInputsAndOutputs) {
  Pipeline p;
  p.WindowAggregate(WindowSpec::Tumbling(Duration::Seconds(1)), AggKind::kCount)
      .Sink([](const WindowResult&) {});
  for (int i = 0; i < 5; ++i) p.Push(Ev("k", 1.0, i * 400));
  p.Flush();
  EXPECT_EQ(p.events_in(), 5u);
  EXPECT_GE(p.results_out(), 2u);
}

TEST(PipelineBackpressure, OfferRejectsWhenInboxFull) {
  Pipeline p;
  p.set_input_budget(3);
  std::vector<WindowResult> results;
  p.WindowAggregate(WindowSpec::Tumbling(Duration::Seconds(1)), AggKind::kCount)
      .Sink([&](const WindowResult& r) { results.push_back(r); });

  EXPECT_EQ(p.input_credit(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(p.Offer(Ev("k", 1.0, i * 100)).ok());
  }
  EXPECT_EQ(p.input_credit(), 0u);
  const Status st = p.Offer(Ev("k", 1.0, 400));
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);

  // Draining frees credit; the rejected event can be retried.
  EXPECT_EQ(p.DrainPending(2), 2u);
  EXPECT_EQ(p.input_credit(), 2u);
  EXPECT_TRUE(p.Offer(Ev("k", 1.0, 400)).ok());
  p.Flush();
  EXPECT_EQ(p.events_in(), 4u);
  EXPECT_EQ(p.pending(), 0u);
}

TEST(PipelineBackpressure, UnbudgetedOfferProcessesInline) {
  Pipeline p;
  std::vector<WindowResult> results;
  p.WindowAggregate(WindowSpec::Tumbling(Duration::Seconds(1)), AggKind::kSum)
      .Sink([&](const WindowResult& r) { results.push_back(r); });
  EXPECT_TRUE(p.Offer(Ev("k", 2.0, 100)).ok());
  EXPECT_EQ(p.pending(), 0u);  // no inbox without a budget
  EXPECT_EQ(p.events_in(), 1u);
}

TEST(PipelineBackpressure, FlushDrainsTheInboxFirst) {
  Pipeline p;
  p.set_input_budget(8);
  double total = 0.0;
  p.WindowAggregate(WindowSpec::Tumbling(Duration::Seconds(1)), AggKind::kCount)
      .Sink([&](const WindowResult& r) { total += r.value; });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(p.Offer(Ev("k", 1.0, i * 100)).ok());
  }
  EXPECT_EQ(p.pending(), 5u);
  p.Flush();
  EXPECT_EQ(p.pending(), 0u);
  EXPECT_DOUBLE_EQ(total, 5.0);
}

// Property sweep: for tumbling windows of any size, the sum of per-window
// counts equals the number of on-time events pushed.
class TumblingConservation : public ::testing::TestWithParam<int> {};

TEST_P(TumblingConservation, CountsAreConserved) {
  const int window_ms = GetParam();
  Pipeline p(Duration::Millis(50));
  double total = 0.0;
  p.WindowAggregate(WindowSpec::Tumbling(Duration::Millis(window_ms)), AggKind::kCount)
      .Sink([&](const WindowResult& r) { total += r.value; });
  Rng rng(static_cast<std::uint64_t>(window_ms));
  std::int64_t t = 0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    t += static_cast<std::int64_t>(rng.NextBelow(40));
    p.Push(Ev("k" + std::to_string(rng.NextBelow(5)), 1.0, t));
  }
  p.Flush();
  EXPECT_DOUBLE_EQ(total + static_cast<double>(p.late_dropped()), n);
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, TumblingConservation,
                         ::testing::Values(10, 50, 100, 250, 1000, 5000));

// --- bounded-inbox ordering regression -------------------------------------
// A direct Push while Offer()ed events sit in the bounded inbox used to
// process immediately, jumping the queue: downstream stages saw events out
// of arrival order (corrupting session windows and lateness accounting).
// Push must queue behind the pending events instead.

TEST(PipelineInboxOrdering, DirectPushQueuesBehindOfferedEvents) {
  Pipeline p;
  p.set_input_budget(8);
  std::vector<double> seen;
  p.EventSink([&](const Event& e) { seen.push_back(e.value); });

  ASSERT_TRUE(p.Offer(Ev("a", 1.0, 100)).ok());
  ASSERT_TRUE(p.Offer(Ev("a", 2.0, 200)).ok());
  p.Push(Ev("a", 3.0, 300));  // pre-fix: processed here, ahead of 1.0/2.0
  EXPECT_EQ(p.pending(), 3u) << "direct Push must join the queue";
  EXPECT_TRUE(seen.empty());

  p.DrainPending(16);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_DOUBLE_EQ(seen[0], 1.0);
  EXPECT_DOUBLE_EQ(seen[1], 2.0);
  EXPECT_DOUBLE_EQ(seen[2], 3.0);
}

TEST(PipelineInboxOrdering, SessionWindowSurvivesInterleavedPush) {
  // One session per key with a 1 s gap. Events arrive 400 ms apart via
  // Offer except the middle one, which arrives via direct Push. Reordered
  // processing would advance max_event_time_ early and split the session.
  Pipeline p;
  p.set_input_budget(8);
  std::vector<WindowResult> results;
  p.WindowAggregate(WindowSpec::Session(Duration::Seconds(1)), AggKind::kCount)
      .Sink([&](const WindowResult& r) { results.push_back(r); });
  ASSERT_TRUE(p.Offer(Ev("a", 1.0, 0)).ok());
  ASSERT_TRUE(p.Offer(Ev("a", 1.0, 400)).ok());
  p.Push(Ev("a", 1.0, 800));
  ASSERT_TRUE(p.Offer(Ev("a", 1.0, 1200)).ok());
  p.DrainPending(16);
  p.Flush();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_DOUBLE_EQ(results[0].value, 4.0);
}

TEST(PipelineInboxOrdering, UnbudgetedPushStaysInline) {
  Pipeline p;  // no input budget: the original zero-queue fast path
  std::vector<double> seen;
  p.EventSink([&](const Event& e) { seen.push_back(e.value); });
  p.Push(Ev("a", 1.0, 100));
  EXPECT_EQ(p.pending(), 0u);
  ASSERT_EQ(seen.size(), 1u);
}

// --- reference model ---------------------------------------------------------
// A brute-force WindowAggregateStage: every watermark walks every open
// window, every session event scans every window. The pipeline must emit
// the same WindowResult sequence, with bit-identical values, and drop the
// same late events.

struct ModelWindows {
  struct Acc {
    double sum = 0.0, min = 0.0, max = 0.0;
    std::uint64_t count = 0;
  };
  using Key = std::tuple<std::string, std::string, std::int64_t, std::int64_t>;

  ModelWindows(WindowSpec s, AggKind a, Duration lateness)
      : spec(s), agg(a), lateness_ns(lateness.nanos()) {}

  WindowSpec spec;
  AggKind agg;
  std::int64_t lateness_ns;
  std::int64_t last_wm = std::numeric_limits<std::int64_t>::min();
  std::uint64_t late_dropped = 0;
  std::map<Key, Acc> windows;
  std::vector<WindowResult> out;

  static void Add(Acc& a, double v) {
    a.min = a.count == 0 ? v : std::min(a.min, v);
    a.max = a.count == 0 ? v : std::max(a.max, v);
    a.sum += v;
    ++a.count;
  }

  void Process(const Event& e) {
    const std::int64_t t = e.event_time.nanos();
    if (last_wm != std::numeric_limits<std::int64_t>::min() && t < last_wm - lateness_ns) {
      ++late_dropped;
      return;
    }
    if (spec.kind == WindowSpec::Kind::kSession) {
      std::int64_t start = t;
      std::int64_t end = t + spec.gap.nanos();
      Acc acc;
      Add(acc, e.value);
      for (auto it = windows.begin(); it != windows.end();) {
        const auto& [k, a, ws, we] = it->first;
        if (k == e.key && a == e.attribute && ws <= end && start <= we) {
          start = std::min(start, ws);
          end = std::max(end, we);
          acc.sum += it->second.sum;
          acc.min = std::min(acc.min, it->second.min);
          acc.max = std::max(acc.max, it->second.max);
          acc.count += it->second.count;
          it = windows.erase(it);
        } else {
          ++it;
        }
      }
      windows[Key{e.key, e.attribute, start, end}] = acc;
      return;
    }
    // Tumbling is sliding with slide == size; event times here are >= 0.
    const std::int64_t size = spec.size.nanos();
    const std::int64_t slide =
        spec.kind == WindowSpec::Kind::kTumbling ? size : spec.slide.nanos();
    for (std::int64_t s = t / slide * slide; s > t - size; s -= slide) {
      Add(windows[Key{e.key, e.attribute, s, s + size}], e.value);
    }
  }

  void Watermark(std::int64_t wm) {
    last_wm = std::max(last_wm, wm);
    for (auto it = windows.begin(); it != windows.end();) {
      const auto& [k, a, ws, we] = it->first;
      if (we + lateness_ns <= wm) {
        const Acc& acc = it->second;
        WindowResult r;
        r.key = k;
        r.attribute = a;
        r.window_start = TimePoint::FromNanos(ws);
        r.window_end = TimePoint::FromNanos(we);
        switch (agg) {
          case AggKind::kCount: r.value = static_cast<double>(acc.count); break;
          case AggKind::kSum: r.value = acc.sum; break;
          case AggKind::kMean: r.value = acc.sum / static_cast<double>(acc.count); break;
          case AggKind::kMin: r.value = acc.min; break;
          case AggKind::kMax: r.value = acc.max; break;
        }
        r.count = acc.count;
        out.push_back(std::move(r));
        it = windows.erase(it);
      } else {
        ++it;
      }
    }
  }
};

struct ModelCase {
  const char* name;
  WindowSpec spec;
  AggKind agg;
  Duration lateness;
};

// Names the case in test listings (the default prints raw bytes).
void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.name; }

class WindowReferenceModel : public ::testing::TestWithParam<ModelCase> {};

TEST_P(WindowReferenceModel, MatchesBruteForce) {
  const ModelCase& c = GetParam();
  const Duration ooo = Duration::Millis(200);
  Pipeline p(ooo);
  std::vector<WindowResult> got;
  p.WindowAggregate(c.spec, c.agg, c.lateness)
      .Sink([&](const WindowResult& r) { got.push_back(r); });
  ModelWindows model(c.spec, c.agg, c.lateness);

  // Out-of-order events over 600 keys, with a hot set of 8 keys that
  // repeat in runs (tumbling memo hits, session merges). Most events lag
  // the front by up to 250 ms; a few lag by up to 2 s and some of those
  // arrive late. Rare jumps of the front fire many window ends at once.
  Rng rng(0xA11CE);
  std::int64_t front_ms = 0;
  std::int64_t max_ns = std::numeric_limits<std::int64_t>::min();
  std::int64_t wm_ns = std::numeric_limits<std::int64_t>::min();
  std::string key = "k0";
  for (int i = 0; i < 6000; ++i) {
    front_ms += static_cast<std::int64_t>(rng.NextBelow(4));
    if (rng.Bernoulli(0.003)) front_ms += 1500 + static_cast<std::int64_t>(rng.NextBelow(4000));
    if (!rng.Bernoulli(0.6)) {
      key = rng.Bernoulli(0.5) ? "hot" + std::to_string(rng.NextBelow(8))
                               : "k" + std::to_string(rng.NextBelow(600));
    }
    const std::int64_t lag_ms = static_cast<std::int64_t>(
        rng.Bernoulli(0.05) ? rng.NextBelow(2000) : rng.NextBelow(250));
    const Event e = Ev(key, rng.Uniform(-50.0, 50.0), std::max<std::int64_t>(0, front_ms - lag_ms),
                       rng.Bernoulli(0.2) ? "b" : "a");
    p.Push(e);
    model.Process(e);
    max_ns = std::max(max_ns, e.event_time.nanos());
    if (max_ns - ooo.nanos() > wm_ns) {
      wm_ns = max_ns - ooo.nanos();
      model.Watermark(wm_ns);
    }
  }
  p.Flush();
  model.Watermark(std::numeric_limits<std::int64_t>::max());

  EXPECT_GT(model.late_dropped, 0u);
  EXPECT_EQ(p.late_dropped(), model.late_dropped);
  ASSERT_EQ(got.size(), model.out.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const WindowResult& g = got[i];
    const WindowResult& m = model.out[i];
    ASSERT_EQ(std::tie(g.key, g.attribute, g.count), std::tie(m.key, m.attribute, m.count))
        << "result " << i;
    ASSERT_EQ(g.window_start.nanos(), m.window_start.nanos()) << "result " << i;
    ASSERT_EQ(g.window_end.nanos(), m.window_end.nanos()) << "result " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g.value), std::bit_cast<std::uint64_t>(m.value))
        << "result " << i << ": " << g.value << " vs " << m.value;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, WindowReferenceModel,
    ::testing::Values(
        ModelCase{"Tumbling", WindowSpec::Tumbling(Duration::Seconds(1)), AggKind::kSum,
                  Duration::Zero()},
        ModelCase{"TumblingLate", WindowSpec::Tumbling(Duration::Millis(700)), AggKind::kMean,
                  Duration::Millis(400)},
        ModelCase{"Sliding",
                  WindowSpec::Sliding(Duration::Seconds(1), Duration::Millis(250)),
                  AggKind::kMax, Duration::Zero()},
        ModelCase{"SlidingLate",
                  WindowSpec::Sliding(Duration::Millis(900), Duration::Millis(300)),
                  AggKind::kSum, Duration::Millis(500)},
        ModelCase{"Session", WindowSpec::Session(Duration::Millis(150)), AggKind::kSum,
                  Duration::Zero()},
        ModelCase{"SessionLate", WindowSpec::Session(Duration::Millis(400)), AggKind::kMin,
                  Duration::Millis(300)}),
    [](const ::testing::TestParamInfo<ModelCase>& info) { return info.param.name; });

}  // namespace
}  // namespace arbd::stream
