// E20 — deterministic executor: digest invariance across worker counts,
// with measured wall time beside it. Three parts:
//
//   E20a: partitioned broker workload — P=16 partitions, pre-generated
//         keyed records pushed through ParallelProduce + ParallelFetchAll
//         at workers ∈ {1,2,4,8}. Gates: the run outcome digest is
//         identical at every worker count, and the workers=1 digest equals
//         a hand-rolled serial reference loop (the pre-executor code path).
//
//   E20b: frame path — SimulateFleetFrames (8 users, one shard each) at
//         the same worker counts. Gates: the fleet stats digest and the
//         per-frame p99 are bit-identical across worker counts (per-user
//         state is task-local, merged in user order).
//
//   E20c: whole-scenario digests — TourismDigest / OverloadDigest equal
//         across worker counts for each seed (the same invariant the
//         tier-1 determinism test enforces, here across {1,2,4,8}).
//
// E20a and E20b also report wall_ms, the median of kRounds runs per worker
// count taken in alternating order, and w/w1, the median over those rounds
// of the workers=1 wall time over this row's. Both are measured on the host
// and reported, not gated: wall-clock gates flake on a shared VM (E25a).
//
// `--quick` runs reduced sizes with the same checks and no
// google-benchmark timings — the CI exec smoke. Exit code = failures.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/table.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "exec/executor.h"
#include "offload/fleet.h"
#include "scenarios/digest.h"
#include "stream/log.h"
#include "stream/parallel.h"

namespace {

using namespace arbd;

constexpr std::uint32_t kPartitions = 16;
constexpr int kRounds = 5;

struct CheckList {
  int failures = 0;
  void Check(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  }
};

std::vector<stream::Record> MakeRecords(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<stream::Record> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string key = "k" + std::to_string(rng.NextU64() % 64);
    Bytes payload(32, static_cast<std::uint8_t>(i & 0xff));
    records.push_back(
        stream::Record::Make(key, std::move(payload), TimePoint::FromMillis(i)));
  }
  return records;
}

// One digest shape shared by the parallel runs and the serial reference,
// so "workers=1 == pre-refactor serial loop" is a byte-level statement.
std::uint64_t FoldBrokerOutcome(const stream::ParallelProduceReport& rep,
                                const std::vector<std::vector<stream::StoredRecord>>& fetched,
                                stream::Broker& broker, const std::string& topic) {
  BinaryWriter w;
  w.WriteU64(rep.produced);
  w.WriteU64(rep.rejected);
  for (const std::size_t c : rep.per_partition) w.WriteU64(c);
  for (const auto& part : fetched) {
    w.WriteU64(part.size());
    for (const auto& sr : part) {
      w.WriteU64(Fnv1a(sr.record.key));
      w.WriteI64(sr.offset);
    }
  }
  auto t = broker.GetTopic(topic);
  if (t.ok()) {
    for (stream::PartitionId p = 0; p < (*t)->partition_count(); ++p) {
      w.WriteI64((*t)->partition(p).end_offset());
    }
  }
  return Fnv1a(w.bytes());
}

struct BrokerRun {
  std::uint64_t digest = 0;
  double wall_ms = 0.0;
};

BrokerRun RunBrokerWorkload(std::size_t workers, std::size_t n_records) {
  SimClock clock;
  stream::Broker broker(clock);
  stream::TopicConfig tc;
  tc.partitions = kPartitions;
  (void)broker.CreateTopic("e20.load", tc);

  exec::ExecConfig ec;
  ec.workers = workers;
  exec::Executor ex(ec);

  auto records = MakeRecords(n_records, 42);
  const auto wall0 = std::chrono::steady_clock::now();
  const auto rep = stream::ParallelProduce(ex, broker, "e20.load", std::move(records));
  const auto fetched = stream::ParallelFetchAll(ex, broker, "e20.load", n_records);
  const auto wall1 = std::chrono::steady_clock::now();

  BrokerRun run;
  run.digest = FoldBrokerOutcome(rep, fetched, broker, "e20.load");
  run.wall_ms = std::chrono::duration<double, std::milli>(wall1 - wall0).count();
  return run;
}

// The pre-refactor code path: a plain loop over Broker::Produce followed
// by a partition-by-partition Fetch, no executor involved.
std::uint64_t SerialReferenceDigest(std::size_t n_records) {
  SimClock clock;
  stream::Broker broker(clock);
  stream::TopicConfig tc;
  tc.partitions = kPartitions;
  (void)broker.CreateTopic("e20.load", tc);

  auto records = MakeRecords(n_records, 42);
  stream::ParallelProduceReport rep;
  rep.per_partition.assign(kPartitions, 0);
  for (auto& r : records) {
    auto placed = broker.Produce("e20.load", std::move(r));
    if (placed.ok()) {
      ++rep.produced;
      ++rep.per_partition[placed->first];
    } else {
      ++rep.rejected;
    }
  }
  std::vector<std::vector<stream::StoredRecord>> fetched(kPartitions);
  for (stream::PartitionId p = 0; p < kPartitions; ++p) {
    auto got = broker.Fetch("e20.load", p, 0, n_records);
    if (got.ok()) fetched[p] = std::move(*got);
  }
  return FoldBrokerOutcome(rep, fetched, broker, "e20.load");
}

std::uint64_t FoldFleet(const offload::FleetStats& fs) {
  BinaryWriter w;
  w.WriteU64(fs.frames);
  w.WriteF64(fs.hit_rate);
  w.WriteF64(fs.mean_latency_ms);
  w.WriteF64(fs.p99_latency_ms);
  w.WriteF64(fs.offload_fraction);
  for (const auto& u : fs.per_user) {
    w.WriteU64(u.frames);
    w.WriteU64(u.deadline_hits);
    w.WriteF64(u.mean_latency_ms);
    w.WriteF64(u.offload_fraction);
  }
  return Fnv1a(w.bytes());
}

struct FleetRun {
  offload::FleetStats stats;
  std::uint64_t digest = 0;
  double wall_ms = 0.0;
};

FleetRun RunFleet(std::size_t workers, const offload::FleetConfig& cfg) {
  exec::ExecConfig ec;
  ec.workers = workers;
  exec::Executor ex(ec);
  const auto wall0 = std::chrono::steady_clock::now();
  FleetRun run;
  run.stats = offload::SimulateFleetFrames(ex, cfg);
  const auto wall1 = std::chrono::steady_clock::now();
  run.digest = FoldFleet(run.stats);
  run.wall_ms = std::chrono::duration<double, std::milli>(wall1 - wall0).count();
  return run;
}

// kRounds runs of `run` at every worker count, forward on even rounds and
// backward on odd ones so drift on the host falls on every count alike.
// Result [i][r] is round r at workers[i].
template <typename Run>
auto Alternate(const std::vector<std::size_t>& workers, Run run) {
  std::vector<std::vector<decltype(run(std::size_t{1}))>> out(workers.size());
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t k = 0; k < workers.size(); ++k) {
      const std::size_t i = r % 2 == 0 ? k : workers.size() - 1 - k;
      out[i].push_back(run(workers[i]));
    }
  }
  return out;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

template <typename R>
double MedianWallMs(const std::vector<R>& runs) {
  std::vector<double> v;
  for (const R& r : runs) v.push_back(r.wall_ms);
  return Median(std::move(v));
}

// Median over rounds of the workers=1 wall time over `runs`' wall time.
template <typename R>
double MedianSpeedup(const std::vector<R>& w1, const std::vector<R>& runs) {
  std::vector<double> v;
  for (std::size_t r = 0; r < runs.size(); ++r) v.push_back(w1[r].wall_ms / runs[r].wall_ms);
  return Median(std::move(v));
}

template <typename R>
bool AllDigestsEqual(const std::vector<std::vector<R>>& runs, std::uint64_t want) {
  for (const auto& per_count : runs) {
    for (const R& r : per_count) {
      if (r.digest != want) return false;
    }
  }
  return true;
}

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int RunExperiment(bool quick) {
  const std::vector<std::size_t> worker_counts = {1, 2, 4, 8};
  const std::size_t n_records = quick ? 8'000 : 64'000;
  CheckList checks;

  // --- E20a: partitioned broker workload -----------------------------
  const auto runs = Alternate(worker_counts, [n_records](std::size_t wks) {
    return RunBrokerWorkload(wks, n_records);
  });
  bench::Table table({"workers", "records", "wall_ms", "w/w1", "digest"});
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    table.Row({bench::FmtInt(worker_counts[i]), bench::FmtInt(n_records),
               bench::Fmt("%.2f", MedianWallMs(runs[i])),
               bench::Fmt("%.2fx", MedianSpeedup(runs[0], runs[i])),
               Hex(runs[i][0].digest)});
  }
  table.Print("E20a partitioned broker workload (P=16, measured wall time)");

  const std::uint64_t serial_digest = SerialReferenceDigest(n_records);
  checks.Check(runs[0][0].digest == serial_digest,
               "broker: workers=1 digest equals the serial reference loop");
  checks.Check(AllDigestsEqual(runs, runs[0][0].digest),
               "broker: outcome digest identical at workers 1/2/4/8");

  // --- E20b: frame path (fleet of per-user shards) --------------------
  offload::FleetConfig fleet_cfg;
  fleet_cfg.users = 8;
  fleet_cfg.frames_per_user = quick ? 50 : 200;
  fleet_cfg.seed = 9;
  const auto fleet = Alternate(worker_counts, [&fleet_cfg](std::size_t wks) {
    return RunFleet(wks, fleet_cfg);
  });
  bench::Table ftable({"workers", "frames", "p99_ms", "hit_rate", "wall_ms", "w/w1",
                       "digest"});
  bool p99_equal = true;
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    const offload::FleetStats& fs = fleet[i][0].stats;
    ftable.Row({bench::FmtInt(worker_counts[i]), bench::FmtInt(fs.frames),
                bench::Fmt("%.3f", fs.p99_latency_ms), bench::Fmt("%.3f", fs.hit_rate),
                bench::Fmt("%.2f", MedianWallMs(fleet[i])),
                bench::Fmt("%.2fx", MedianSpeedup(fleet[0], fleet[i])),
                Hex(fleet[i][0].digest)});
    for (const FleetRun& r : fleet[i]) {
      p99_equal = p99_equal && r.stats.p99_latency_ms == fleet[0][0].stats.p99_latency_ms;
    }
  }
  ftable.Print("E20b frame path: 8-user fleet, per-user shards");
  checks.Check(AllDigestsEqual(fleet, fleet[0][0].digest),
               "fleet: stats digest identical at workers 1/2/4/8");
  checks.Check(p99_equal, "fleet: frame p99 bit-identical at every worker count");

  // --- E20c: whole-scenario digests -----------------------------------
  const std::vector<std::uint64_t> seeds =
      quick ? std::vector<std::uint64_t>{3} : std::vector<std::uint64_t>{3, 11};
  bench::Table stable({"seed", "scenario", "w=1", "w=2", "w=4", "w=8", "equal"});
  for (const std::uint64_t seed : seeds) {
    for (const bool tourism : {true, false}) {
      std::vector<std::uint64_t> digs;
      for (const std::size_t wks : worker_counts) {
        RuntimeConfig rc = RuntimeConfig::Process();
        rc.exec_workers = wks;
        digs.push_back(tourism ? scenarios::TourismDigest(seed, rc)
                               : scenarios::OverloadDigest(seed, rc));
      }
      bool equal = true;
      std::vector<std::string> cells = {bench::FmtInt(seed),
                                        tourism ? "tourism" : "overload"};
      for (const std::uint64_t d : digs) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%08llx",
                      static_cast<unsigned long long>(d & 0xffffffffULL));
        cells.push_back(buf);
        equal = equal && d == digs[0];
      }
      cells.push_back(equal ? "yes" : "NO");
      stable.Row({cells[0], cells[1], cells[2], cells[3], cells[4], cells[5],
                  cells[6]});
      checks.Check(equal, std::string(tourism ? "tourism" : "overload") +
                              " digest invariant across worker counts, seed " +
                              std::to_string(seed));
    }
  }
  stable.Print("E20c scenario digests across worker counts");

  std::printf("\nE20 verdict: %s (%d failing check%s)\n",
              checks.failures == 0 ? "PASS" : "FAIL", checks.failures,
              checks.failures == 1 ? "" : "s");
  return checks.failures;
}

void BM_ParallelProduceFetch(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto run = RunBrokerWorkload(workers, 8'000);
    benchmark::DoNotOptimize(run);
  }
  state.SetItemsProcessed(state.iterations() * 16'000);
}
BENCHMARK(BM_ParallelProduceFetch)->Arg(1)->Arg(2)->Arg(4);

void BM_FleetFrames(benchmark::State& state) {
  offload::FleetConfig cfg;
  cfg.frames_per_user = 50;
  exec::ExecConfig ec;
  ec.workers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    exec::Executor ex(ec);
    auto fs = offload::SimulateFleetFrames(ex, cfg);
    benchmark::DoNotOptimize(fs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfg.users * cfg.frames_per_user));
}
BENCHMARK(BM_FleetFrames)->Arg(1)->Arg(4);

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
