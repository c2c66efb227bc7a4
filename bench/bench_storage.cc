// E25 — segmented tiered log. Three parts (E25c is retired; see
// EXPERIMENTS.md):
//
//   E25a: tail-undisturbed — wall-clock tail-produce throughput on a
//         prefilled partition: flat store vs segmented store vs segmented
//         with 4 concurrent historical scan threads hammering QueryRange/
//         QueryTime over the sealed tier. Queries snapshot shared_ptrs
//         under the partition lock and then scan immutable segments
//         lock-free, so the tail should barely notice. Each trial prints
//         the producer thread's CPU time and context switches beside its
//         wall time. Gates (generous, CI-noise-safe): segmented >= 0.6x
//         flat, and with-scans >= 0.5x without-scans.
//
//   E25b: sublinear query work — a fixed log queried at S ∈ {8, 32, 128}
//         segments. The gates are on *deterministic* work counters, not
//         wall clocks: blocks_scanned for a fixed-width range/time query
//         must stay ~constant (<= 1.5x from S=8 to S=128) because the
//         sparse offset/time indexes prune everything outside the answer;
//         a generous wall bound (<= 8x over a 16x segment growth) rides
//         along as a smoke check.
//
//   E25d: session replay + differential digests — RunSessionReplay with
//         segmentation off vs on must verify every tourist session both
//         ways and produce bit-identical replay digests; Tourism/Overload
//         scenario digests must be segmentation-invariant across workers
//         {1, 4} x replication factors {1, 3}.
//
// `--quick` runs reduced sizes/seeds with the same checks and no
// google-benchmark timings — the CI storage smoke. Exit code = failures.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <ctime>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/table.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "scenarios/digest.h"
#include "scenarios/replay.h"
#include "stream/log.h"
#include "stream/query.h"

namespace {

using namespace arbd;

constexpr char kTopic[] = "e25.log";

struct CheckList {
  int failures = 0;
  void Check(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  }
};

struct Harness {
  SimClock clock;
  stream::Broker broker{clock};
  explicit Harness(std::size_t segment_bytes) {
    stream::TopicConfig tc;
    tc.partitions = 1;
    tc.segment_bytes = segment_bytes;
    (void)broker.CreateTopic(kTopic, tc);
  }
  // ~35 key+payload bytes per row; event time = row index in ms.
  void Produce(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      Bytes payload(32, static_cast<std::uint8_t>(i & 0xff));
      (void)broker.ProduceToPartition(
          kTopic, 0,
          stream::Record::Make("k" + std::to_string(i % 64), std::move(payload),
                               TimePoint::FromMillis(static_cast<std::int64_t>(i))));
    }
  }
  const stream::Partition& partition() {
    return (*broker.GetTopic(kTopic))->partition(0);
  }
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// One timed tail burst: wall records/sec, plus the producer thread's own
// wall and CPU time and context switches over the burst. CPU well below
// wall with involuntary switches means the producer sat descheduled;
// with voluntary ones, it slept on a lock.
struct TailRun {
  double recs_per_s = 0.0;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  long voluntary_switches = 0;
  long involuntary_switches = 0;
};

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

// Produce `tail` records after `prefill`, optionally with 4 historical-scan
// threads running during the tail.
TailRun TailThroughput(std::size_t prefill, std::size_t tail, std::size_t segment_bytes,
                       bool scans) {
  Harness h(segment_bytes);
  h.Produce(prefill);
  std::atomic<bool> stop{false};
  std::vector<std::thread> scanners;
  if (scans) {
    for (int sid = 0; sid < 4; ++sid) {
      scanners.emplace_back([&h, &stop, sid, prefill] {
        Rng rng(0xE25AULL + static_cast<std::uint64_t>(sid));
        while (!stop.load(std::memory_order_relaxed)) {
          const auto lo = static_cast<stream::Offset>(
              rng.NextBelow(prefill > 512 ? prefill - 512 : 1));
          (void)h.broker.QueryRange(kTopic, 0, lo, lo + 512);
          (void)h.broker.QueryTime(kTopic, 0, TimePoint::FromMillis(lo),
                                   TimePoint::FromMillis(lo + 256));
        }
      });
    }
  }
  rusage ru0{}, ru1{};
  getrusage(RUSAGE_THREAD, &ru0);
  const double cpu0 = ThreadCpuMs();
  const auto t0 = std::chrono::steady_clock::now();
  h.Produce(tail);
  const double secs = SecondsSince(t0);
  TailRun run;
  run.cpu_ms = ThreadCpuMs() - cpu0;
  getrusage(RUSAGE_THREAD, &ru1);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : scanners) t.join();
  run.wall_ms = secs * 1e3;
  run.recs_per_s = secs > 0.0 ? static_cast<double>(tail) / secs : 0.0;
  run.voluntary_switches = ru1.ru_nvcsw - ru0.ru_nvcsw;
  run.involuntary_switches = ru1.ru_nivcsw - ru0.ru_nivcsw;
  return run;
}

int RunExperiment(bool quick) {
  CheckList checks;
  const std::size_t prefill = quick ? 20'000 : 60'000;
  const std::size_t tail = quick ? 10'000 : 40'000;

  // --- E25a: tail throughput undisturbed by historical scans -----------
  // Best of 3 runs per config: a transient scheduler stall on a shared
  // runner must hit every trial to flake the gate, while a real
  // lock-contention collapse (scans blocking the tail) degrades all
  // three alike.
  bench::Table trials({"config", "trial", "tail recs/s", "producer wall ms",
                       "producer cpu ms", "cpu/wall", "vol csw", "invol csw"});
  const auto best3 = [&](const std::string& config, auto f) {
    double best = 0.0;
    for (int trial = 1; trial <= 3; ++trial) {
      const TailRun r = f();
      trials.Row({config, std::to_string(trial), bench::Fmt("%.0f", r.recs_per_s),
                  bench::Fmt("%.1f", r.wall_ms), bench::Fmt("%.1f", r.cpu_ms),
                  bench::Fmt("%.2f", r.wall_ms > 0.0 ? r.cpu_ms / r.wall_ms : 0.0),
                  std::to_string(r.voluntary_switches),
                  std::to_string(r.involuntary_switches)});
      best = std::max(best, r.recs_per_s);
    }
    return best;
  };
  const double flat = best3("flat", [&] { return TailThroughput(prefill, tail, 0, false); });
  const double seg =
      best3("segmented", [&] { return TailThroughput(prefill, tail, 16'384, false); });
  const double seg_scan = best3("segmented+4 scans",
                                [&] { return TailThroughput(prefill, tail, 16'384, true); });
  trials.Print("E25a tail produce trials (producer thread, wall clock vs CPU)");
  bench::Table ta({"config", "tail recs/s", "vs flat", "vs seg"});
  ta.Row({"flat", bench::Fmt("%.0f", flat), "1.00x", "-"});
  ta.Row({"segmented", bench::Fmt("%.0f", seg), bench::Fmt("%.2fx", seg / flat), "1.00x"});
  ta.Row({"segmented+4 scans", bench::Fmt("%.0f", seg_scan),
          bench::Fmt("%.2fx", seg_scan / flat), bench::Fmt("%.2fx", seg_scan / seg)});
  ta.Print("E25a tail produce throughput (wall clock, P=1)");
  checks.Check(seg >= 0.6 * flat,
               "tail: segmented >= 0.6x flat (" + bench::Fmt("%.2f", seg / flat) + "x)");
  checks.Check(seg_scan >= 0.5 * seg,
               "tail: 4 concurrent scans keep >= 0.5x no-scan throughput (" +
                   bench::Fmt("%.2f", seg_scan / seg) + "x)");

  // --- E25b: query work sublinear in segment count ----------------------
  const std::size_t qn = quick ? 16'384 : 32'768;
  const std::size_t row_bytes = 35;  // ~"kNN" key + 32-byte payload
  bench::Table tb({"segments", "range blocks", "range rows", "time blocks",
                   "time rows", "wall us"});
  struct Probe {
    std::uint64_t range_blocks = 0, range_rows = 0;
    std::uint64_t time_blocks = 0, time_rows = 0;
    double wall_us = 0.0;
    std::size_t actual_segments = 0;
  };
  std::vector<Probe> probes;
  for (const std::size_t s : {8u, 32u, 128u}) {
    Harness h(qn * row_bytes / s);
    h.Produce(qn);
    Probe pr;
    pr.actual_segments = h.partition().sealed_segment_count();
    const auto mid = static_cast<stream::Offset>(qn / 2);
    const auto t0 = std::chrono::steady_clock::now();
    const auto rq = stream::QueryRange(h.partition(), mid, mid + 512);
    const auto tq = stream::QueryTime(h.partition(), TimePoint::FromMillis(qn / 2),
                                      TimePoint::FromMillis(qn / 2 + 512));
    pr.wall_us = SecondsSince(t0) * 1e6;
    pr.range_blocks = rq.stats.blocks_scanned;
    pr.range_rows = rq.stats.rows_returned;
    pr.time_blocks = tq.stats.blocks_scanned;
    pr.time_rows = tq.stats.rows_returned;
    tb.Row({bench::FmtInt(pr.actual_segments), bench::FmtInt(pr.range_blocks),
            bench::FmtInt(pr.range_rows), bench::FmtInt(pr.time_blocks),
            bench::FmtInt(pr.time_rows), bench::Fmt("%.1f", pr.wall_us)});
    checks.Check(pr.range_rows == 512, "query: range answer complete at S~" +
                                           std::to_string(s) + " (" +
                                           std::to_string(pr.range_rows) + "/512 rows)");
    checks.Check(pr.time_rows == 512, "query: time answer complete at S~" +
                                          std::to_string(s) + " (" +
                                          std::to_string(pr.time_rows) + "/512 rows)");
    probes.push_back(pr);
  }
  tb.Print("E25b fixed 512-row queries vs segment count");
  checks.Check(probes.back().actual_segments >= 4 * probes.front().actual_segments,
               "query: segment counts actually swept (" +
                   std::to_string(probes.front().actual_segments) + " -> " +
                   std::to_string(probes.back().actual_segments) + ")");
  checks.Check(probes.back().range_blocks <=
                   (probes.front().range_blocks * 3) / 2,
               "query: range blocks_scanned ~constant in segment count (" +
                   std::to_string(probes.front().range_blocks) + " -> " +
                   std::to_string(probes.back().range_blocks) + ")");
  checks.Check(probes.back().time_blocks <= (probes.front().time_blocks * 3) / 2,
               "query: time blocks_scanned ~constant in segment count (" +
                   std::to_string(probes.front().time_blocks) + " -> " +
                   std::to_string(probes.back().time_blocks) + ")");
  checks.Check(probes.back().wall_us <= 8.0 * std::max(probes.front().wall_us, 50.0),
               "query: wall latency sublinear over 16x segments (" +
                   bench::Fmt("%.1f", probes.front().wall_us) + "us -> " +
                   bench::Fmt("%.1f", probes.back().wall_us) + "us)");

  // --- E25d: session replay + differential digests ----------------------
  scenarios::SessionReplayConfig rc;
  rc.tourists = quick ? 4 : 6;
  rc.events_per_tourist = quick ? 200 : 400;
  rc.segment_bytes = 0;
  const auto flat_rep = scenarios::RunSessionReplay(rc);
  rc.segment_bytes = 2'048;
  const auto seg_rep = scenarios::RunSessionReplay(rc);
  bench::Table td({"mode", "produced", "replayed", "verified", "seek rows", "segments",
                   "digest"});
  const auto fmt_digest = [](std::uint64_t d) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%08llx",
                  static_cast<unsigned long long>(d & 0xffffffffULL));
    return std::string(buf);
  };
  td.Row({"flat", bench::FmtInt(flat_rep.produced), bench::FmtInt(flat_rep.replayed_rows),
          bench::FmtInt(flat_rep.sessions_verified), bench::FmtInt(flat_rep.seek_replays),
          bench::FmtInt(flat_rep.sealed_segments), fmt_digest(flat_rep.digest)});
  td.Row({"segmented", bench::FmtInt(seg_rep.produced),
          bench::FmtInt(seg_rep.replayed_rows), bench::FmtInt(seg_rep.sessions_verified),
          bench::FmtInt(seg_rep.seek_replays), bench::FmtInt(seg_rep.sealed_segments),
          fmt_digest(seg_rep.digest)});
  td.Print("E25d tourism session replay, flat vs segmented");
  checks.Check(flat_rep.AllVerified(rc) && seg_rep.AllVerified(rc),
               "replay: every session verified in both modes");
  checks.Check(seg_rep.sealed_segments > 0, "replay: segmented run actually sealed (" +
                                                std::to_string(seg_rep.sealed_segments) +
                                                " segments)");
  checks.Check(flat_rep.digest == seg_rep.digest,
               "replay: session digest segmentation-invariant");

  const std::vector<std::uint64_t> seeds =
      quick ? std::vector<std::uint64_t>{5} : std::vector<std::uint64_t>{5, 17};
  bench::Table ts({"scenario", "seed", "workers", "replicas", "equal"});
  for (const std::uint32_t factor : {1u, 3u}) {
    if (quick && factor == 3) continue;
    for (const std::size_t wks : {1u, 4u}) {
      RuntimeConfig run = RuntimeConfig::Process();
      run.replicas = factor;
      run.exec_workers = wks;
      for (const std::uint64_t seed : seeds) {
        for (const bool tourism : {true, false}) {
          const auto digest = [&](std::size_t segment_bytes) {
            run.segment_bytes = segment_bytes;
            return tourism ? scenarios::TourismDigest(seed, run)
                           : scenarios::OverloadDigest(seed, run);
          };
          const std::uint64_t off = digest(0);
          const std::uint64_t on = digest(1'024);
          ts.Row({tourism ? "tourism" : "overload", bench::FmtInt(seed),
                  bench::FmtInt(wks), bench::FmtInt(factor), off == on ? "yes" : "NO"});
          checks.Check(off == on, std::string(tourism ? "tourism" : "overload") +
                                      " digest segmentation-invariant: seed=" +
                                      std::to_string(seed) + " workers=" +
                                      std::to_string(wks) + " replicas=" +
                                      std::to_string(factor));
        }
      }
    }
  }
  ts.Print("E25d scenario digests, segmentation off vs on");

  std::printf("\nE25 verdict: %s (%d failing check%s)\n",
              checks.failures == 0 ? "PASS" : "FAIL", checks.failures,
              checks.failures == 1 ? "" : "s");
  return checks.failures;
}

void BM_SegmentedTailProduce(benchmark::State& state) {
  const auto seg_bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Harness h(seg_bytes);
    h.Produce(16'384);
    benchmark::DoNotOptimize(h.broker.total_produced());
  }
  state.SetItemsProcessed(state.iterations() * 16'384);
}
BENCHMARK(BM_SegmentedTailProduce)->Arg(0)->Arg(16'384)->Arg(4'096);

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
