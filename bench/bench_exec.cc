// E20 — deterministic executor scaling. Three parts:
//
//   E20a: partitioned broker workload — P=16 partitions, pre-generated
//         keyed records pushed through ParallelProduce + ParallelFetchAll
//         at workers ∈ {1,2,4,8}. Throughput is *modeled* records/sec,
//         computed from the executor's virtual makespan (each append
//         bills 2µs, each fetch 1µs to the executing worker's virtual
//         clock); the host's core count therefore does not affect the
//         scaling numbers, only the informational wall column. Gates:
//         workers=4 achieves >= 2.5x the workers=1 throughput, the run
//         outcome digest is identical at every worker count, and the
//         workers=1 digest equals a hand-rolled serial reference loop
//         (the pre-refactor code path).
//
//   E20b: frame path — SimulateFleetFrames (8 users, one shard each) at
//         the same worker counts. The per-frame p99 must be bit-identical
//         across worker counts (per-user state is task-local, merged in
//         user order), and the virtual makespan must shrink with workers.
//
//   E20c: whole-scenario digests — TourismDigest / OverloadDigest equal
//         across worker counts for each seed (the same invariant the
//         tier-1 determinism test enforces, here across {1,2,4,8}).
//
// `--quick` runs reduced sizes with the same checks and no
// google-benchmark timings — the CI exec smoke. Exit code = failures.
#include <benchmark/benchmark.h>

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
constexpr Duration kProduceCost = Duration::Micros(2);
constexpr Duration kFetchCost = Duration::Micros(1);

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
  double makespan_ms = 0.0;
  double wall_ms = 0.0;
  double recs_per_s = 0.0;  // modeled, from virtual makespan
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
  const auto rep =
      stream::ParallelProduce(ex, broker, "e20.load", std::move(records), kProduceCost);
  const auto fetched =
      stream::ParallelFetchAll(ex, broker, "e20.load", n_records, kFetchCost);
  const auto wall1 = std::chrono::steady_clock::now();

  BrokerRun run;
  run.digest = FoldBrokerOutcome(rep, fetched, broker, "e20.load");
  run.makespan_ms = ex.VirtualMakespan().seconds() * 1e3;
  run.wall_ms =
      std::chrono::duration<double, std::milli>(wall1 - wall0).count();
  std::size_t total_fetched = 0;
  for (const auto& part : fetched) total_fetched += part.size();
  const double makespan_s = ex.VirtualMakespan().seconds();
  run.recs_per_s = makespan_s > 0.0
                       ? static_cast<double>(rep.produced + total_fetched) / makespan_s
                       : 0.0;
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

int RunExperiment(bool quick) {
  const std::vector<std::size_t> worker_counts = {1, 2, 4, 8};
  const std::size_t n_records = quick ? 8'000 : 64'000;
  CheckList checks;

  // --- E20a: partitioned broker workload -----------------------------
  std::vector<BrokerRun> runs;
  bench::Table table({"workers", "records", "makespan_ms", "recs/s(model)",
                      "speedup", "wall_ms", "digest"});
  for (const std::size_t wks : worker_counts) {
    runs.push_back(RunBrokerWorkload(wks, n_records));
    const BrokerRun& r = runs.back();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(r.digest));
    table.Row({bench::FmtInt(wks), bench::FmtInt(n_records),
               bench::Fmt("%.2f", r.makespan_ms),
               bench::Fmt("%.0f", r.recs_per_s),
               bench::Fmt("%.2fx", runs.front().makespan_ms / r.makespan_ms),
               bench::Fmt("%.2f", r.wall_ms), buf});
  }
  table.Print("E20a partitioned broker workload (modeled scaling, P=16)");

  const std::uint64_t serial_digest = SerialReferenceDigest(n_records);
  checks.Check(runs[0].digest == serial_digest,
               "broker: workers=1 digest equals the serial reference loop");
  bool all_equal = true;
  for (const auto& r : runs) all_equal = all_equal && r.digest == runs[0].digest;
  checks.Check(all_equal, "broker: outcome digest identical at workers 1/2/4/8");
  const double speedup4 = runs[0].makespan_ms / runs[2].makespan_ms;
  checks.Check(speedup4 >= 2.5,
               bench::Fmt("broker: workers=4 modeled speedup %.2fx >= 2.5x", speedup4));
  checks.Check(runs[3].makespan_ms <= runs[2].makespan_ms + 1e-9,
               "broker: makespan non-increasing from 4 to 8 workers");

  // --- E20b: frame path (fleet of per-user shards) --------------------
  offload::FleetConfig fleet_cfg;
  fleet_cfg.users = 8;
  fleet_cfg.frames_per_user = quick ? 50 : 200;
  fleet_cfg.seed = 9;
  bench::Table ftable({"workers", "frames", "p99_ms", "hit_rate",
                       "makespan_ms", "speedup", "digest"});
  std::vector<std::uint64_t> fleet_digests;
  std::vector<double> fleet_makespans, fleet_p99s;
  for (const std::size_t wks : worker_counts) {
    exec::ExecConfig ec;
    ec.workers = wks;
    exec::Executor ex(ec);
    const auto fs = offload::SimulateFleetFrames(ex, fleet_cfg);
    fleet_digests.push_back(FoldFleet(fs));
    fleet_makespans.push_back(ex.VirtualMakespan().seconds() * 1e3);
    fleet_p99s.push_back(fs.p99_latency_ms);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fleet_digests.back()));
    ftable.Row({bench::FmtInt(wks), bench::FmtInt(fs.frames),
                bench::Fmt("%.3f", fs.p99_latency_ms),
                bench::Fmt("%.3f", fs.hit_rate),
                bench::Fmt("%.2f", fleet_makespans.back()),
                bench::Fmt("%.2fx", fleet_makespans.front() / fleet_makespans.back()),
                buf});
  }
  ftable.Print("E20b frame path: 8-user fleet, per-user shards");
  bool fleet_equal = true, p99_equal = true;
  for (std::size_t i = 0; i < fleet_digests.size(); ++i) {
    fleet_equal = fleet_equal && fleet_digests[i] == fleet_digests[0];
    p99_equal = p99_equal && fleet_p99s[i] == fleet_p99s[0];
  }
  checks.Check(fleet_equal, "fleet: stats digest identical at workers 1/2/4/8");
  checks.Check(p99_equal, "fleet: frame p99 bit-identical at every worker count");
  checks.Check(fleet_makespans[0] / fleet_makespans[2] >= 1.5,
               bench::Fmt("fleet: workers=4 modeled speedup %.2fx >= 1.5x",
                          fleet_makespans[0] / fleet_makespans[2]));

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
