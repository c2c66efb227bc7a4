// perfbench: wall-clock benchmark of the core::Platform path.
//
//   perfbench --workload <ingest|frames|replay> --seed <n> --seconds <s>
//             --trace <0|1> [--commit <id>] [--spans <file>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the same episodes untraced, traced, and as a split replay through
// the layers below core, and reports the per-layer metrics. The last line
// of stdout is one JSON object; see README.md for every metric.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

extern char** environ;

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string commit = "unknown";
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    kv[key.substr(2)] = argv[++i];
  }
  try {
    for (const auto& [k, v] : kv) {
      if (k == "workload") {
        a.workload = v;
      } else if (k == "seed") {
        a.seed = std::stoull(v);
      } else if (k == "seconds") {
        a.seconds = std::stod(v);
      } else if (k == "trace") {
        a.trace = std::stoi(v);
      } else if (k == "commit") {
        a.commit = v;
      } else if (k == "spans") {
        a.spans = v;
      } else {
        return false;
      }
    }
  } catch (const std::exception&) {
    return false;
  }
  return !a.workload.empty() && a.seconds > 0.0 && (a.trace == 0 || a.trace == 1);
}

// The library reads ARBD_* variables (batching, cluster size, replicas,
// workers, segment size, tracing...) behind the explicit configuration; CI
// exports several. Any of them would change the measured path.
std::vector<std::string> ArbdEnvironment() {
  std::vector<std::string> found;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ARBD_", 5) == 0) found.emplace_back(*e);
  }
  return found;
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

// The process's own RSS high-water mark. getrusage's ru_maxrss is not used:
// Linux carries it across exec, so under run.py it would report the size of
// the forked Python process whenever that is the larger.
double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// --- running passes -------------------------------------------------------------

struct Pass {
  std::vector<EpisodeResult> episodes;
  double rss_after_first_mb = 0.0;  // inputs plus one episode's peak
  std::vector<std::int64_t> busy_ns = std::vector<std::int64_t>(kLayerCount, 0);
  std::vector<Span> first_spans;  // the first episode's spans, written at exit
};

// Runs episodes until `budget_s` of wall time is spent (but at least
// `min_episodes`), or exactly `exact` episodes when that is non-zero.
Pass RunPass(const WorkloadSpec& spec, const Inputs& in, bool split, bool traced,
             double budget_s, std::size_t min_episodes, std::size_t exact) {
  Pass pass;
  SpanLog log;
  const std::int64_t t0 = NowNs();
  auto elapsed = [&] { return static_cast<double>(NowNs() - t0) / 1e9; };
  while (true) {
    const std::size_t n = pass.episodes.size();
    if (exact != 0) {
      if (n >= exact) break;
    } else if (n >= min_episodes && elapsed() >= budget_s) {
      break;
    }
    EpisodeResult r = RunEpisode(spec, in, split, traced ? &log : nullptr);
    if (n == 0) pass.rss_after_first_mb = PeakRssMb();
    if (traced) {
      const auto by_name = SelfTimeByName(log.spans(), kLayerCount);
      for (std::size_t i = 0; i < kLayerCount; ++i) pass.busy_ns[i] += by_name[i];
      if (pass.first_spans.empty()) pass.first_spans = log.spans();
      log.Clear();
    }
    pass.episodes.push_back(std::move(r));
  }
  return pass;
}

// Correctness gates over every episode of every pass: no failed call, every
// query answer exact, every record drained, one digest for all.
std::vector<std::string> CheckGates(const std::vector<const Pass*>& passes) {
  std::vector<std::string> errors;
  const std::uint64_t digest = passes.front()->episodes.front().digest;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    for (std::size_t e = 0; e < passes[p]->episodes.size(); ++e) {
      const EpisodeResult& r = passes[p]->episodes[e];
      const std::string where = "pass " + std::to_string(p) + " episode " + std::to_string(e);
      for (const auto& err : r.errors) errors.push_back(where + ": " + err);
      if (r.processed != r.published) {
        errors.push_back(where + ": processed " + std::to_string(r.processed) +
                         " != published " + std::to_string(r.published));
      }
      if (r.digest != digest) {
        char buf[96];
        std::snprintf(buf, sizeof buf, ": digest %016llx != %016llx",
                      static_cast<unsigned long long>(r.digest),
                      static_cast<unsigned long long>(digest));
        errors.push_back(where + buf);
      }
    }
  }
  return errors;
}

// --- metrics -------------------------------------------------------------------

// Every end-to-end figure is taken per episode, and the run reports its
// median over episodes. All episodes of a run replay the same inputs, so
// they differ only by host noise, which the median keeps out.
// Every end-to-end figure is taken per episode, and the run reports its
// median over episodes. All episodes of a run replay the same inputs, so
// they differ only by host noise, which the median keeps out.
std::vector<Metric> EndToEnd(const WorkloadSpec& spec, const Pass& pass,
                             std::vector<std::string>& report) {
  std::vector<double> rate, setup, miss, lateness50, lateness_max;
  std::vector<std::vector<double>> lag, frame, query;  // samples per episode
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto& r : pass.episodes) {
    const Counters& c = r.counters;
    rate.push_back(static_cast<double>(c.process_records) / r.wall_s);
    setup.push_back(r.setup_s);
    attempted += c.publish_calls + c.query_calls + c.compose_calls;
    failed += c.publish_failed + c.query_failed + c.compose_failed;
    lag.push_back(r.lag_ms);
    query.push_back(r.query_ms);
    if (spec.open_loop) {
      const OpenLoopSummary s = SummarizeOpenLoop(r.open_frames, kFrameDeadlineMs);
      miss.push_back(s.miss_frac);
      lateness50.push_back(s.lateness_ms.p50);
      lateness_max.push_back(s.lateness_ms.max);
      frame.emplace_back();
      for (const auto& f : r.open_frames) frame.back().push_back(LatencyMs(f));
    } else {
      std::size_t missed = 0;
      for (double ms : r.frame_ms) missed += ms > kFrameDeadlineMs ? 1 : 0;
      miss.push_back(static_cast<double>(missed) / static_cast<double>(r.frame_ms.size()));
      frame.push_back(r.frame_ms);
    }
  }
  auto median = [](const std::vector<double>& v) { return Percentile(v, 50.0); };

  std::vector<Metric> m;
  m.push_back({"events_per_s", median(rate), "1/s"});
  // Gated: the p50, and for ingest lag the p90. On a shared host the frame
  // tail and the p99s follow how often the host preempted the run, so they
  // are printed, the p99 pooled over the run (README.md).
  enum class Gate { kNone, kP50, kP50P90 };
  auto timing = [&](const std::string& base, const std::vector<std::vector<double>>& eps,
                    Gate gate) {
    std::vector<double> p50, p90, pooled;
    for (const auto& e : eps) {
      const Summary s = Summarize(e);
      p50.push_back(s.p50);
      if (s.p90) p90.push_back(*s.p90);
      pooled.insert(pooled.end(), e.begin(), e.end());
    }
    const Summary all = Summarize(pooled);
    // A tail needs ten samples beyond it in every episode it is taken from.
    const bool has_p90 = p90.size() == eps.size();
    report.push_back(base + ": n=" + std::to_string(eps.front().size()) +
                     " per episode, median over episodes: p50 " + Num(median(p50)) + " ms" +
                     (has_p90 ? ", p90 " + Num(median(p90)) + " ms" : ", p90 omitted") +
                     "; pooled n=" + std::to_string(all.n) +
                     (all.p99 ? ": p99 " + Num(*all.p99) + " ms" : ": p99 omitted") +
                     ", max " + Num(all.max) + " ms");
    if (gate == Gate::kNone) return;
    m.push_back({base + "_p50", median(p50), "ms"});
    if (gate == Gate::kP50P90 && has_p90) m.push_back({base + "_p90", median(p90), "ms"});
  };
  report.push_back(std::to_string(pass.episodes.size()) + " episodes of the same inputs, " +
                   std::to_string(pass.episodes.front().counters.process_records) +
                   " events each");
  timing("ingest_lag_ms", lag, Gate::kP50P90);
  timing("frame_ms", frame, Gate::kP50);
  if (!query.front().empty()) timing("query_ms", query, Gate::kNone);
  if (spec.open_loop) {
    report.push_back("generator lateness, median over episodes: p50 " + Num(median(lateness50)) +
                     " ms, max " + Num(median(lateness_max)) + " ms");
  }
  report.push_back("frame_miss_frac: " + Num(median(miss)) +
                   " (frames finishing more than 33 ms after due)");
  report.push_back("error_frac: " +
                   Num(static_cast<double>(failed) / static_cast<double>(attempted)) + " (" +
                   std::to_string(failed) + " of " + std::to_string(attempted) +
                   " publishes, queries and frames)");
  m.push_back({"setup_s", median(setup), "s"});
  report.push_back("setup_s: n=" + std::to_string(setup.size()) + " set-ups");
  m.push_back({"peak_rss_mb", pass.rss_after_first_mb, "MB"});
  report.push_back("peak_rss_mb: high-water mark after the first episode");
  return m;
}

// Counts are the same in every episode of a pass (one seed, one digest), so
// they come from the first; busy times are averaged over the episodes.
std::vector<Metric> PerLayer(const WorkloadSpec& spec, const Pass& untraced, const Pass& traced,
                             const Pass& split) {
  const double n = static_cast<double>(traced.episodes.size());
  const Counters& p = traced.episodes.front().counters;
  const Counters& s = split.episodes.front().counters;
  double traced_wall = 0.0, traced_busy = 0.0, untraced_busy = 0.0;
  for (const auto& r : traced.episodes) {
    traced_wall += r.wall_s;
    traced_busy += r.busy_s;
  }
  for (const auto& r : untraced.episodes) untraced_busy += r.busy_s;
  const double untraced_n = static_cast<double>(untraced.episodes.size());

  auto busy = [&](const Pass& pass, std::uint32_t layer) {
    return static_cast<double>(pass.busy_ns[layer]) / 1e6 / n;  // ms per episode
  };
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };

  double split_busy = 0.0;
  for (std::uint32_t layer : {kStreamEncode, kStreamProduce, kStreamPoll, kStreamDecode,
                              kStreamDataflow, kCoreInterpret, kArStore, kArClassify,
                              kArLayout}) {
    split_busy += busy(split, layer);
  }
  const double platform_busy = busy(traced, kCorePublish) + busy(traced, kCoreProcessPending) +
                               busy(traced, kCoreComposeFrame);
  double target = 0.0;
  for (std::uint32_t layer : spec.target_layers) target += busy(traced, layer);

  return {
      {"stream.encode.busy_ms", busy(split, kStreamEncode), "ms"},
      {"stream.produce.busy_ms", busy(split, kStreamProduce), "ms"},
      {"stream.produce.records", count(s.produce_records), "count"},
      {"stream.produce.bytes", count(s.produce_bytes), "B"},
      {"stream.produce.retries", count(s.produce_retries), "count"},
      {"stream.poll.busy_ms", busy(split, kStreamPoll), "ms"},
      {"stream.poll.calls", count(s.poll_calls), "count"},
      {"stream.poll.records", count(s.poll_records), "count"},
      {"stream.decode.busy_ms", busy(split, kStreamDecode), "ms"},
      {"stream.dataflow.busy_ms", busy(split, kStreamDataflow), "ms"},
      {"stream.dataflow.events_in", count(s.dataflow_events_in), "count"},
      {"stream.dataflow.results_out", count(s.dataflow_results_out), "count"},
      {"core.publish.calls", count(p.publish_calls), "count"},
      {"core.publish.busy_ms", busy(traced, kCorePublish), "ms"},
      {"core.publish.failed", count(p.publish_failed), "count"},
      {"core.process_pending.calls", count(p.process_calls), "count"},
      {"core.process_pending.busy_ms", busy(traced, kCoreProcessPending), "ms"},
      {"core.process_pending.records", count(p.process_records), "count"},
      {"core.interpret.busy_ms", busy(split, kCoreInterpret), "ms"},
      {"core.interpret.results", count(s.interpret_results), "count"},
      {"core.interpret.annotations", count(s.interpret_annotations), "count"},
      {"core.interpret.emit_ratio",
       ratio(static_cast<double>(s.interpret_annotations),
             static_cast<double>(s.interpret_results)),
       "ratio"},
      {"core.context.busy_ms", busy(traced, kCoreContext), "ms"},
      {"core.context.samples", count(p.context_samples), "count"},
      {"core.compose_frame.calls", count(p.compose_calls), "count"},
      {"core.compose_frame.busy_ms", busy(traced, kCoreComposeFrame), "ms"},
      {"ar.store.busy_ms", busy(split, kArStore), "ms"},
      {"ar.classify.busy_ms", busy(split, kArClassify), "ms"},
      {"ar.classify.annotations", count(s.classify_annotations), "count"},
      {"ar.classify.occluded", count(s.classify_occluded), "count"},
      {"ar.layout.busy_ms", busy(split, kArLayout), "ms"},
      {"ar.layout.placed", count(s.layout_placed), "count"},
      {"ar.annotations_live.max", count(p.annotations_live_max), "count"},
      {"exec.tasks", count(untraced.episodes.front().counters.exec_tasks), "count"},
      {"stream.query.calls", count(p.query_calls), "count"},
      {"stream.query.busy_ms", busy(traced, kStreamQuery), "ms"},
      {"stream.query.blocks_scanned", count(p.query_blocks), "count"},
      {"stream.query.rows_examined", count(p.query_rows_examined), "count"},
      {"stream.query.rows_returned", count(p.query_rows_returned), "count"},
      {"stream.query.cache_hit_ratio",
       ratio(static_cast<double>(p.query_cache_hits),
             static_cast<double>(p.query_cache_hits + p.query_cache_misses)),
       "ratio"},
      {"stream.backlog_records.max", count(s.backlog_max), "count"},
      {"stream.log_bytes", count(p.log_bytes), "B"},
      {"stream.segments", count(p.segments), "count"},
      {"split.coverage", ratio(split_busy, platform_busy), "ratio"},
      {"split.target_share", ratio(target, traced_wall * 1e3 / n), "ratio"},
      {"trace.overhead_frac", ratio(traced_busy, untraced_busy * n / untraced_n) - 1.0,
       "ratio"},
  };
}

void WriteSpans(const std::string& path, const Args& args, const Pass& traced,
                const Pass& split) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "# first episode of " << args.workload << " seed " << args.seed
      << "; times are steady_clock ns\npass\tspan\tname\tparent\tstart_ns\tend_ns\n";
  for (const auto& [label, pass] : {std::pair{"platform", &traced}, std::pair{"split", &split}}) {
    for (std::size_t i = 0; i < pass->first_spans.size(); ++i) {
      const Span& s = pass->first_spans[i];
      out << label << '\t' << i << '\t' << LayerName(s.name) << '\t' << s.parent << '\t'
          << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <ingest|frames|replay> --seed <n> "
                 "--seconds <s> --trace <0|1> [--commit <id>] [--spans <file>]\n");
    return 2;
  }
  if (const auto env = ArbdEnvironment(); !env.empty()) {
    std::fprintf(stderr, "perfbench: refusing to run with %s set; unset every ARBD_* variable\n",
                 env.front().c_str());
    return 2;
  }
  WorkloadSpec spec;
  if (!MakeSpec(args.workload, spec)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const std::int64_t gen0 = NowNs();
  const Inputs inputs = GenerateInputs(spec, args.seed);
  const double gen_s = static_cast<double>(NowNs() - gen0) / 1e9;

  std::printf("perfbench workload=%s seed=%llu seconds=%s trace=%d\n", spec.name.c_str(),
              static_cast<unsigned long long>(args.seed), Num(args.seconds).c_str(), args.trace);
  std::printf("host commit=%s nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s\n",
              args.commit.c_str(), std::thread::hardware_concurrency(), CpuModel().c_str(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::printf(
      "config workers=%zu replication=%u brokers=%u segment_bytes=%zu loop=%s users=%zu "
      "ticks=%zu events_per_tick=%zu queries_per_tick=%zu history=%zu annotations=%zu\n",
      spec.workers, spec.replication, spec.brokers, spec.segment_bytes,
      spec.open_loop ? "open" : "closed", spec.users, spec.ticks, spec.events_per_tick,
      spec.queries_per_tick, spec.history_events, spec.injected_annotations);
  std::printf("inputs generated in %s s (not measured)\n", Num(gen_s).c_str());

  std::vector<Metric> metrics;
  std::vector<std::string> report;
  std::vector<const Pass*> passes;
  Pass untraced, traced, split;
  if (args.trace == 0) {
    untraced = RunPass(spec, inputs, false, false, args.seconds, 3, 0);
    passes = {&untraced};
    metrics = EndToEnd(spec, untraced, report);
  } else {
    untraced = RunPass(spec, inputs, false, false, args.seconds / 3.0, 2, 0);
    const std::size_t n = untraced.episodes.size();
    traced = RunPass(spec, inputs, false, true, 0.0, 0, n);
    split = RunPass(spec, inputs, true, true, 0.0, 0, n);
    passes = {&untraced, &traced, &split};
    metrics = PerLayer(spec, untraced, traced, split);
    if (!args.spans.empty()) {
      WriteSpans(args.spans, args, traced, split);
      report.push_back("spans of the first traced and split episodes written to " + args.spans);
    }
  }

  const std::vector<std::string> errors = CheckGates(passes);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Pass* pass : passes) {
    for (const auto& r : pass->episodes) {
      const Counters& c = r.counters;
      attempted += c.publish_calls + c.query_calls + c.compose_calls;
      failed += c.publish_failed + c.query_failed + c.compose_failed;
    }
  }
  std::printf("episodes=%zu per pass, digest=%016llx\n", passes.front()->episodes.size(),
              static_cast<unsigned long long>(passes.front()->episodes.front().digest));
  for (const auto& line : report) std::printf("  %s\n", line.c_str());
  for (const auto& m : metrics) {
    std::printf("  %-32s %16s %s\n", m.name.c_str(), Num(m.value).c_str(), m.unit.c_str());
  }
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
    std::printf("GATE FAILED: %s\n", errors[i].c_str());
  }

  std::string json = "{\"correct\": " + std::string(errors.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) + ": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
