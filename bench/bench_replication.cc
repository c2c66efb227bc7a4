// E22 — replicated partitions, deterministic failover, exactly-once.
//
//   E22a: crash-schedule sweep — the failover soak (IdempotentProducer ->
//         factor-3 replicated topic -> exactly-once CheckpointedJob) under
//         >= 40 seeded crash schedules (injected nodecrash faults plus an
//         explicit mid-run leader-kill schedule). Gates, per seed: zero
//         committed loss, zero log duplicates, zero duplicate window
//         deliveries, full availability (the retry budget outlasts every
//         restore window). Across seeds: the committed digest is one
//         value, and it equals the fault-free factor-1 baseline — crashes
//         may cost retries, never content.
//
//   E22b: worker/factor invariance — ParallelProduce of a fixed keyed
//         workload into replicated topics at workers {1,4} x factors
//         {1,3}: all four committed digests must be identical (the
//         replica group lives below the partition-FIFO determinism line).
//
//   E22c: availability curve — the same crash plan with a starved retry
//         budget (2 attempts) at factors {1,2,3,4}, aggregated over
//         several fault seeds: availability (acked/offered) must be
//         monotone non-decreasing in the replication factor, and factors
//         >= 2 must actually fail over (failovers > 0).
//
//   Plus direct epoch-fencing and divergence-truncation probes on a
//   ReplicatedPartition.
//
// `--quick` runs reduced sizes with the same checks and no
// google-benchmark timings — the CI replication smoke. Exit code =
// failures.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/table.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "scenarios/failover.h"
#include "stream/log.h"
#include "stream/parallel.h"
#include "stream/replication.h"

namespace {

using namespace arbd;

struct CheckList {
  int failures = 0;
  void Check(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  }
};

scenarios::FailoverConfig BaseConfig(bool quick) {
  scenarios::FailoverConfig cfg;
  cfg.records = quick ? 600 : 1500;
  cfg.partitions = 2;
  cfg.replication_factor = 3;
  cfg.checkpoint_every = 16;
  cfg.batch = 32;
  cfg.fault_spec = "nodecrash@p=0.01,x=12";
  cfg.kill_p = 0.05;
  cfg.kill_restore_ops = 8;
  cfg.producer_attempts = 40;
  cfg.seed = 77;  // one workload, many crash schedules
  return cfg;
}

int RunExperiment(bool quick) {
  CheckList checks;

  // --- E22a: crash-schedule sweep -------------------------------------
  const std::size_t n_schedules = quick ? 12 : 40;
  scenarios::FailoverConfig base = BaseConfig(quick);

  scenarios::FailoverConfig baseline_cfg = base;
  baseline_cfg.replication_factor = 1;
  baseline_cfg.fault_spec.clear();
  baseline_cfg.kill_p = 0.0;
  auto baseline = scenarios::RunFailoverSoak(baseline_cfg);
  if (!baseline.ok()) {
    std::printf("baseline soak failed: %s\n", baseline.status().ToString().c_str());
    return 1;
  }

  std::uint64_t loss = 0, log_dups = 0, out_dups = 0, denied = 0;
  std::uint64_t failovers = 0, crashes = 0, truncated = 0, dedup_hits = 0;
  bool digests_equal = true, none_wedged = true;
  for (std::size_t i = 0; i < n_schedules; ++i) {
    scenarios::FailoverConfig cfg = base;
    cfg.fault_seed = 1000 + i;
    auto rep = scenarios::RunFailoverSoak(cfg);
    if (!rep.ok()) {
      std::printf("soak (fault_seed=%llu) failed: %s\n",
                  static_cast<unsigned long long>(cfg.fault_seed),
                  rep.status().ToString().c_str());
      return 1;
    }
    loss += rep->committed_loss;
    log_dups += rep->log_duplicates;
    out_dups += rep->output_duplicates;
    denied += rep->denied;
    failovers += rep->replication.failovers;
    crashes += rep->replication.node_crashes;
    truncated += rep->replication.truncated_entries;
    dedup_hits += rep->replication.dedup_hits;
    digests_equal = digests_equal && rep->committed_digest == baseline->committed_digest;
    none_wedged = none_wedged && !rep->wedged;
  }
  bench::Table atable({"schedules", "crashes", "failovers", "truncated",
                       "dedup_hits", "loss", "log_dups", "out_dups", "denied"});
  atable.Row({bench::FmtInt(n_schedules), bench::FmtInt(crashes),
              bench::FmtInt(failovers), bench::FmtInt(truncated),
              bench::FmtInt(dedup_hits), bench::FmtInt(loss),
              bench::FmtInt(log_dups), bench::FmtInt(out_dups),
              bench::FmtInt(denied)});
  const std::string atitle = "E22a crash-schedule sweep (factor 3, " +
                             std::to_string(n_schedules) + " seeds)";
  atable.Print(atitle.c_str());
  checks.Check(crashes > 0 && failovers > 0,
               "sweep: crash schedules actually killed leaders and failed over");
  checks.Check(loss == 0, "sweep: zero committed loss across all schedules");
  checks.Check(log_dups == 0, "sweep: zero duplicate log entries (idempotent retries)");
  checks.Check(out_dups == 0, "sweep: zero duplicate window deliveries (exactly-once)");
  checks.Check(denied == 0, "sweep: retry budget outlasts every restore window");
  checks.Check(dedup_hits > 0, "sweep: broker-side dedup actually absorbed retries");
  checks.Check(none_wedged, "sweep: no run tripped the wedge guard");
  checks.Check(digests_equal,
               "sweep: committed digest identical across schedules and equal to "
               "the fault-free factor-1 baseline");

  // --- E22b: worker/factor invariance ---------------------------------
  const std::size_t n_records = quick ? 2'000 : 8'000;
  std::vector<std::uint64_t> wf_digests;
  bench::Table btable({"workers", "factor", "records", "digest"});
  for (const std::uint32_t factor : {1u, 3u}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      SimClock clock;
      stream::Broker broker(clock);
      stream::TopicConfig tc;
      tc.partitions = 8;
      tc.replication_factor = factor;
      (void)broker.CreateTopic("e22.load", tc);
      exec::ExecConfig ec;
      ec.workers = workers;
      exec::Executor ex(ec);
      Rng rng(4242);
      std::vector<stream::Record> records;
      records.reserve(n_records);
      for (std::size_t i = 0; i < n_records; ++i) {
        records.push_back(stream::Record::Make(
            "k" + std::to_string(rng.NextU64() % 64), Bytes(24, 0x5a),
            TimePoint::FromMillis(static_cast<std::int64_t>(i))));
      }
      (void)stream::ParallelProduce(ex, broker, "e22.load", std::move(records));
      auto topic = broker.GetTopic("e22.load");
      wf_digests.push_back(stream::CommittedTopicDigest(**topic));
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%016llx",
                    static_cast<unsigned long long>(wf_digests.back()));
      btable.Row({bench::FmtInt(workers), bench::FmtInt(factor),
                  bench::FmtInt(n_records), buf});
    }
  }
  btable.Print("E22b committed digest across workers x replication factor");
  bool wf_equal = true;
  for (const std::uint64_t d : wf_digests) wf_equal = wf_equal && d == wf_digests[0];
  checks.Check(wf_equal,
               "parallel produce: committed digest identical at workers {1,4} "
               "x factors {1,3}");

  // --- E22c: availability curve ---------------------------------------
  const std::vector<std::uint32_t> factors = {1, 2, 3, 4};
  const std::size_t avail_seeds = quick ? 4 : 10;
  std::vector<double> avail;
  std::vector<std::uint64_t> avail_failovers;
  bench::Table ctable({"factor", "offered", "acked", "denied", "availability",
                       "failovers"});
  for (const std::uint32_t factor : factors) {
    std::uint64_t offered = 0, acked = 0, f_denied = 0, f_failovers = 0;
    for (std::size_t i = 0; i < avail_seeds; ++i) {
      scenarios::FailoverConfig cfg = BaseConfig(quick);
      cfg.records = quick ? 400 : 1000;
      cfg.replication_factor = factor;
      cfg.fault_spec = "nodecrash@p=0.02,x=20";
      cfg.kill_p = 0.0;
      cfg.producer_attempts = 2;  // starved: denials measure availability
      cfg.fault_seed = 500 + i;
      auto rep = scenarios::RunFailoverSoak(cfg);
      if (!rep.ok()) {
        std::printf("availability soak failed: %s\n", rep.status().ToString().c_str());
        return 1;
      }
      offered += rep->offered;
      acked += rep->acked;
      f_denied += rep->denied;
      f_failovers += rep->replication.failovers;
    }
    avail.push_back(static_cast<double>(acked) / static_cast<double>(offered));
    avail_failovers.push_back(f_failovers);
    ctable.Row({bench::FmtInt(factor), bench::FmtInt(offered), bench::FmtInt(acked),
                bench::FmtInt(f_denied), bench::Fmt("%.4f", avail.back()),
                bench::FmtInt(f_failovers)});
  }
  ctable.Print("E22c availability vs replication factor (2-attempt budget)");
  bool monotone = true;
  for (std::size_t i = 1; i < avail.size(); ++i) {
    monotone = monotone && avail[i] + 1e-12 >= avail[i - 1];
  }
  checks.Check(monotone, "availability monotone non-decreasing in replication factor");
  checks.Check(avail.back() > avail.front(),
               "replication buys real availability (factor 4 > factor 1)");
  checks.Check(avail_failovers[1] > 0 && avail_failovers[2] > 0,
               "factors >= 2 survive crashes by failing over");

  // --- fencing + truncation probes ------------------------------------
  {
    stream::Partition committed(stream::DefaultSegmentBytes());
    stream::ReplicatedPartition rp(3, 0xfe2ce, committed);
    const stream::Epoch old_epoch = rp.epoch();
    (void)rp.Produce(stream::Record::MakeText("a", "1", TimePoint::FromMillis(1)),
                     TimePoint{}, 1, 1);
    (void)rp.CrashLeader(0);  // manual restore; epoch advances
    auto fenced = rp.LeaderAppend(old_epoch,
                                  stream::Record::MakeText("b", "2", TimePoint::FromMillis(2)),
                                  TimePoint{}, 1, 2);
    checks.Check(!fenced.ok() &&
                     fenced.status().code() == StatusCode::kFailedPrecondition &&
                     rp.stats().fenced_appends == 1,
                 "fencing: stale-epoch append rejected with FAILED_PRECONDITION");
    checks.Check(rp.high_watermark() == 1 && committed.size() == 1,
                 "fencing: rejected append left the committed log untouched");
    checks.Check(truncated > 0,
                 "truncation: crash schedules produced divergent suffixes that "
                 "were truncated on restore");
  }

  std::printf("\nE22 verdict: %s (%d failing check%s)\n",
              checks.failures == 0 ? "PASS" : "FAIL", checks.failures,
              checks.failures == 1 ? "" : "s");
  return checks.failures;
}

void BM_FailoverSoak(benchmark::State& state) {
  const auto factor = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    scenarios::FailoverConfig cfg = BaseConfig(/*quick=*/true);
    cfg.replication_factor = factor;
    cfg.fault_seed = seed++;
    auto rep = scenarios::RunFailoverSoak(cfg);
    benchmark::DoNotOptimize(rep);
  }
  state.SetItemsProcessed(state.iterations() * 600);
}
BENCHMARK(BM_FailoverSoak)->Arg(1)->Arg(3);

void BM_ReplicatedProduce(benchmark::State& state) {
  const auto factor = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    SimClock clock;
    stream::Broker broker(clock);
    stream::TopicConfig tc;
    tc.partitions = 4;
    tc.replication_factor = factor;
    (void)broker.CreateTopic("bm", tc);
    for (std::size_t i = 0; i < 4'000; ++i) {
      (void)broker.Produce("bm", stream::Record::MakeText(
                                     "k" + std::to_string(i % 32), "v",
                                     TimePoint::FromMillis(static_cast<std::int64_t>(i))));
    }
    benchmark::DoNotOptimize(broker.total_produced());
  }
  state.SetItemsProcessed(state.iterations() * 4'000);
}
BENCHMARK(BM_ReplicatedProduce)->Arg(1)->Arg(3);

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
