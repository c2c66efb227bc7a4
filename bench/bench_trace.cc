// E21 — end-to-end causal tracing: per-stage frame-budget breakdown and
// the tracing overhead/determinism gates. Four parts:
//
//   E21a: traced platform workload — seeded sensor events published under
//         per-event traces through admission → broker → windowed dataflow,
//         plus traced frame composition. The drained span set feeds
//         LatencyBreakdown; the table shows, per stage, the modeled self-
//         time distribution (p50/p95/p99) and its share of the summed
//         end-to-end budget. Gate: attributed self time sums to the summed
//         end-to-end latency within 1% (coverage ∈ [0.99, 1.01]).
//
//   E21b: determinism — the span-tree digest of the same workload is
//         bit-identical at workers=1 and workers=4 (no ring overflow in
//         either run, or the comparison is void).
//
//   E21c: off-path overhead — when tracing is disabled every
//         instrumentation site costs one relaxed atomic load. Measured
//         per-check wall cost × hooks-per-event must stay under 1% of the
//         modeled per-event makespan.
//
//   E21d: inertness — Tourism/Overload scenario digests are unchanged
//         with the global tracer enabled vs disabled (trace headers never
//         touch encoded payloads or simulation randomness). Only the
//         tourism digest records spans: OverloadDigest wires no tracer, so
//         its comparison does not exercise tracing.
//
// Also writes a Chrome trace-event JSON sample (load it in
// chrome://tracing or Perfetto) next to the binary. `--quick` runs reduced
// sizes with the same gates and no google-benchmark timings — the CI trace
// smoke. Exit code = failures.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/table.h"
#include "common/rng.h"
#include "core/platform.h"
#include "scenarios/digest.h"
#include "trace/breakdown.h"
#include "trace/export.h"
#include "trace/tracer.h"

namespace {

using namespace arbd;

struct CheckList {
  int failures = 0;
  void Check(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  }
};

// Instrumentation sites an event's causal chain crosses in the workload
// below: publish, broker produce, ingest decode, and the stage hooks of
// the two dataflow jobs (filter everywhere, window where it matches).
constexpr double kHooksPerEvent = 8.0;

struct TraceRun {
  std::uint64_t digest = 0;
  std::uint64_t dropped = 0;
  trace::BreakdownReport report;
  std::vector<trace::Span> spans;
};

// `jobs` selects one aggregation job (a strictly serial causal chain per
// event — spans tile the trace interval, the shape the coverage gate is
// about) or two (the record fans out to sibling pipelines whose spans
// overlap on the causal axis — stronger determinism workload, but overlap
// double-counts in Σ self by design).
TraceRun RunTracedWorkload(std::uint64_t seed, std::size_t workers,
                           std::size_t events, std::size_t frames,
                           std::size_t jobs) {
  trace::TracerConfig tcfg;
  tcfg.enabled = true;
  tcfg.ring_capacity = 1u << 18;  // hold the whole span set: digests need dropped == 0
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
  if (jobs > 1) {
    core::AggregationSpec visits;
    visits.attribute = "visits";
    visits.window = stream::WindowSpec::Tumbling(Duration::Millis(500));
    visits.agg = stream::AggKind::kCount;
    platform.AddAggregation(visits);
  }

  core::InterpretationRule rule;
  rule.attribute = "speed";
  platform.AddRule(rule);

  Rng rng(seed);
  for (std::size_t i = 0; i < events; ++i) {
    stream::Event e;
    e.key = "k" + std::to_string(i % 16);
    e.attribute = (i % 3 == 0) ? "visits" : "speed";
    e.value = rng.Uniform(0.0, 30.0);
    e.event_time = TimePoint::FromMillis(static_cast<std::int64_t>(i) * 5);
    trace::SpanContext ctx =
        tracer.RootContext(tracer.StartTrace(i), e.event_time);
    (void)platform.PublishTraced(e, qos::PriorityClass::kBackground, ctx);
    if (i % 256 == 255) {
      clock.Advance(Duration::Millis(100));
      platform.ProcessPending();
    }
  }
  platform.ProcessPending();

  for (std::size_t f = 0; f < frames; ++f) {
    trace::SpanContext ctx =
        tracer.RootContext(tracer.StartTrace(1'000'000 + f), clock.Now());
    (void)platform.ComposeFrameTraced("u0", ctx);
    clock.Advance(Duration::Millis(33));
  }

  TraceRun run;
  run.dropped = tracer.dropped();
  run.spans = tracer.Drain();
  run.digest = trace::SpanTreeDigest(run.spans);
  trace::LatencyBreakdown bd;
  bd.AddAll(run.spans);
  run.report = bd.Compute();
  return run;
}

// Wall cost of the disabled off-path: one relaxed atomic load per site.
double MeasureDisabledCheckNs() {
  trace::Tracer t;  // disabled
  constexpr std::size_t kIters = 10'000'000;
  std::size_t hits = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kIters; ++i) {
    if (t.enabled()) ++hits;
  }
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(hits);
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(kIters);
}

int RunExperiment(bool quick) {
  const std::size_t events = quick ? 2'048 : 20'480;
  const std::size_t frames = quick ? 64 : 256;
  CheckList checks;

  // --- E21a: per-stage frame-budget breakdown -------------------------
  const TraceRun run = RunTracedWorkload(7, 1, events, frames, /*jobs=*/1);
  const auto& rep = run.report;
  bench::Table table({"stage", "spans", "self_p50_us", "self_p95_us",
                      "self_p99_us", "total_ms", "share"});
  for (const auto& s : rep.stages) {
    table.Row({s.name, bench::FmtInt(s.spans),
               bench::Fmt("%.2f", static_cast<double>(s.self_times.p50()) / 1e3),
               bench::Fmt("%.2f", static_cast<double>(s.self_times.p95()) / 1e3),
               bench::Fmt("%.2f", static_cast<double>(s.self_times.p99()) / 1e3),
               bench::Fmt("%.3f", s.total_self.seconds() * 1e3),
               bench::Fmt("%.1f%%", s.critical_share * 100.0)});
  }
  table.Print("E21a per-stage latency breakdown (modeled self time)");
  std::printf("  traces=%llu  end-to-end p99=%.2fus  attributed=%.3fms of %.3fms\n",
              static_cast<unsigned long long>(rep.traces),
              static_cast<double>(rep.end_to_end.p99()) / 1e3,
              rep.total_attributed.seconds() * 1e3,
              rep.total_end_to_end.seconds() * 1e3);

  checks.Check(run.dropped == 0, "breakdown: no ring overflow (attribution complete)");
  checks.Check(rep.traces > 0 && !rep.stages.empty(),
               "breakdown: spans recorded across stages");
  checks.Check(rep.coverage >= 0.99 && rep.coverage <= 1.01,
               "breakdown: stage self times sum to end-to-end within 1% (coverage " +
                   bench::Fmt("%.4f", rep.coverage) + ")");

  // --- E21b: worker-count determinism (fan-out workload) ---------------
  const TraceRun run1 = RunTracedWorkload(7, 1, events, frames, /*jobs=*/2);
  const TraceRun run4 = RunTracedWorkload(7, 4, events, frames, /*jobs=*/2);
  checks.Check(run1.dropped == 0 && run4.dropped == 0,
               "determinism: neither run overflowed its rings");
  checks.Check(run1.digest == run4.digest,
               "determinism: span-tree digest identical at workers 1 and 4");

  // --- E21c: disabled off-path overhead -------------------------------
  const double check_ns = MeasureDisabledCheckNs();
  const double mean_event_ns =
      rep.traces > 0 ? static_cast<double>(rep.total_end_to_end.nanos()) /
                           static_cast<double>(rep.traces)
                     : 1.0;
  const double overhead = kHooksPerEvent * check_ns / mean_event_ns;
  std::printf("\n  off-path check: %.3f ns; %.0f hooks/event over %.0f ns modeled "
              "event makespan -> %.4f%% overhead\n",
              check_ns, kHooksPerEvent, mean_event_ns, overhead * 100.0);
  checks.Check(overhead < 0.01,
               "overhead: disabled tracing costs " +
                   bench::Fmt("%.4f", overhead * 100.0) +
                   "% of modeled makespan (< 1%)");

  // --- E21d: scenario digests inert under tracing ---------------------
  RuntimeConfig off = RuntimeConfig::Process();
  off.exec_workers = 2;
  off.trace = false;
  RuntimeConfig on = off;
  on.trace = true;
  const std::uint64_t tourism_off = scenarios::TourismDigest(7, off);
  const std::uint64_t overload_off = scenarios::OverloadDigest(7, off);
  const std::uint64_t tourism_on = scenarios::TourismDigest(7, on);
  const std::uint64_t overload_on = scenarios::OverloadDigest(7, on);
  checks.Check(tourism_on == tourism_off,
               "inertness: tourism digest unchanged with tracing enabled");
  checks.Check(overload_on == overload_off,
               "inertness: overload digest unchanged with tracing enabled");

  // --- Chrome trace sample --------------------------------------------
  const std::string sample_path = "bench_trace_sample.json";
  std::vector<trace::Span> sample(
      run.spans.begin(),
      run.spans.begin() + std::min<std::size_t>(run.spans.size(), 2'000));
  const Status wrote = trace::WriteChromeTrace(sample, sample_path);
  checks.Check(wrote.ok(), "exporter: wrote " + sample_path + " (" +
                               std::to_string(sample.size()) + " spans)");

  std::printf("\nE21 verdict: %s (%d failing check%s)\n",
              checks.failures == 0 ? "PASS" : "FAIL", checks.failures,
              checks.failures == 1 ? "" : "s");
  return checks.failures;
}

void BM_DisabledHookCheck(benchmark::State& state) {
  trace::Tracer t;  // disabled: the off-path every call site pays
  for (auto _ : state) benchmark::DoNotOptimize(t.enabled());
}
BENCHMARK(BM_DisabledHookCheck);

void BM_RecordSpan(benchmark::State& state) {
  trace::TracerConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 4096;
  trace::Tracer t(cfg);
  trace::SpanContext ctx = t.RootContext(t.StartTrace(1), TimePoint{});
  std::uint64_t salt = 0;
  for (auto _ : state) {
    ctx = t.Record("bench.stage", ctx, Duration::Micros(2), {}, ++salt);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordSpan);

void BM_DrainAndDigest(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    trace::TracerConfig cfg;
    cfg.enabled = true;
    cfg.ring_capacity = 1u << 14;
    trace::Tracer t(cfg);
    trace::SpanContext ctx = t.RootContext(t.StartTrace(1), TimePoint{});
    for (int i = 0; i < 4'096; ++i) {
      ctx = t.Record("s", ctx, Duration::Nanos(100), {},
                     static_cast<std::uint64_t>(i));
    }
    state.ResumeTiming();
    const auto spans = t.Drain();
    benchmark::DoNotOptimize(trace::SpanTreeDigest(spans));
  }
}
BENCHMARK(BM_DrainAndDigest);

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int failures = RunExperiment(quick);
  if (quick) return failures;  // CI smoke: tables + checks only
  if (failures != 0) return failures;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
