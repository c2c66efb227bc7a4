// E26 — partition autoscaling under hotspot load: split/merge handoff
// correctness, hot-partition relief, and routing determinism.
//
//   E26a: hotspot relief — a fleet flash crowd (surge over the top POIs)
//         drives one partition past the split threshold mid-soak (no
//         kills). Gates: the autoscaler actually split; zero committed
//         loss / log duplicates / duplicate deliveries / delivery gaps;
//         controller replay == live digest; and the p99 of the hottest
//         live partition's per-turn ingest drops to <= 0.7x its pre-split
//         value once the crowd is spread over the children.
//
//   E26b: split/merge under kills — >= 40 seeded schedules (12 quick)
//         layering rolling kills, forced autosplit/automerge chaos rules,
//         and threshold-driven actions over surging workloads. Gates,
//         aggregated: zero loss, zero log dups, zero duplicate
//         deliveries, zero gaps, every controller consistent, no wedges,
//         real splits and real producer handoffs observed.
//
//   E26c: routing determinism — (i) the same kill-free autoscaled soak at
//         broker counts {2,4} commits one digest (split decisions depend
//         on load and the router, never on placement width); (ii) after
//         forced splits, a ParallelProduce of a fixed keyed workload
//         routed through the cluster's key-range router at brokers {2,4}
//         x workers {1,4} commits four identical digests.
//
//   E26d: gate parity — the soak with the autoscaler armed but idle (a
//         split threshold above any per-tick rate) reproduces the
//         autoscaler-off digest and ack count bit for bit (rolling kills
//         included): arming the autoscaler (ARBD_AUTOSCALE=1) is a
//         structural passthrough until it acts.
//
// `--quick` runs reduced schedule counts with the same checks and no
// google-benchmark timings — the CI autoscale smoke. Exit code = failures.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench/table.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "scenarios/cluster.h"
#include "stream/log.h"
#include "stream/parallel.h"

namespace {

using namespace arbd;

struct CheckList {
  int failures = 0;
  void Check(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  }
};

// The E26 hotspot run: a diurnal fleet with a mid-period flash crowd over
// the top four POIs, produced in large turns so per-tick partition rates
// are meaningful to the autoscaler.
scenarios::ClusterSoakConfig HotspotConfig() {
  scenarios::ClusterSoakConfig cfg;
  cfg.brokers = 3;
  cfg.partitions = 2;
  cfg.replication_factor = 2;
  cfg.consumers = 3;
  cfg.rolling_kill = false;
  cfg.fleet.users = 2000;
  cfg.fleet.hotspots = 32;
  cfg.fleet.ticks = 24;
  cfg.fleet.peak_events_per_tick = 80;
  cfg.fleet.seed = 11;
  cfg.fleet.surge_start_tick = 6;
  cfg.fleet.surge_ticks = 14;
  cfg.fleet.surge_boost = 3.0;
  cfg.fleet.surge_pois = 4;
  cfg.produce_chunk = 64;
  cfg.seed = 1;
  cfg.autoscale.enabled = true;
  cfg.autoscale.split_rate_threshold = 24;
  cfg.autoscale.merge_rate_threshold = 2;
  cfg.autoscale.merge_cold_ticks = 10;
  cfg.autoscale.max_partitions = 32;
  return cfg;
}

int RunExperiment(bool quick) {
  CheckList checks;

  // --- E26a: hotspot relief --------------------------------------------
  {
    const scenarios::ClusterSoakConfig cfg = HotspotConfig();
    auto rep = scenarios::RunClusterSoak(cfg);
    if (!rep.ok()) {
      std::printf("hotspot soak failed: %s\n", rep.status().ToString().c_str());
      return 1;
    }
    bench::Table table({"acked", "splits", "merges", "final_parts", "live_leaves",
                        "hot_p99_before", "hot_p99_after", "loss", "dups", "gaps"});
    table.Row({bench::FmtInt(rep->acked), bench::FmtInt(rep->cluster.splits),
               bench::FmtInt(rep->cluster.merges), bench::FmtInt(rep->final_partitions),
               bench::FmtInt(rep->live_leaves),
               bench::Fmt("%.0f", rep->hot_p99_before),
               bench::Fmt("%.0f", rep->hot_p99_after),
               bench::FmtInt(rep->committed_loss),
               bench::FmtInt(rep->log_duplicates + rep->delivered_duplicates),
               bench::FmtInt(rep->delivery_gaps)});
    table.Print("E26a flash crowd -> split -> hot-partition relief");
    checks.Check(rep->cluster.splits > 0, "hotspot: the flash crowd tripped a split");
    checks.Check(rep->committed_loss == 0 && rep->log_duplicates == 0,
                 "hotspot: zero loss, zero log duplicates across the handoff");
    checks.Check(rep->delivered_duplicates == 0 && rep->delivery_gaps == 0,
                 "hotspot: exactly-once delivery across the rebalance onto children");
    checks.Check(rep->controller_consistent,
                 "hotspot: metadata replay reproduces live routing (router digested)");
    checks.Check(!rep->wedged, "hotspot: the run drained");
    checks.Check(rep->hot_p99_after <= 0.7 * rep->hot_p99_before,
                 "hotspot: post-split hot-partition p99 ingest <= 0.7x pre-split");
  }

  // --- E26b: split/merge under kills -----------------------------------
  const std::size_t n_schedules = quick ? 12 : 40;
  {
    std::uint64_t loss = 0, log_dups = 0, out_dups = 0, gaps = 0;
    std::uint64_t kills = 0, splits = 0, merges = 0, handoffs = 0;
    bool none_wedged = true, controllers_consistent = true;
    for (std::size_t i = 0; i < n_schedules; ++i) {
      Rng rng(0xe26bULL + i);
      scenarios::ClusterSoakConfig cfg = HotspotConfig();
      cfg.seed = 100 + i;
      cfg.fleet.seed = 31 * i + 7;
      cfg.brokers = static_cast<std::uint32_t>(2 + rng.NextBelow(5));
      cfg.rolling_kill = true;
      cfg.kill_start_tick = 1 + rng.NextBelow(4);
      cfg.kill_spacing_ticks = 2 + rng.NextBelow(5);
      cfg.restore_ticks = 3 + rng.NextBelow(6);
      cfg.autoscale.split_rate_threshold = 24 + rng.NextBelow(48);
      cfg.autoscale.merge_cold_ticks = 4 + static_cast<std::uint32_t>(rng.NextBelow(8));
      // Half the schedules force splits/merges at chaos-chosen ticks on
      // top of the thresholds — handoffs landing while leaders are dead.
      if (i % 2 == 0) {
        cfg.fault_spec = "autosplit@p=0.10;automerge@p=0.06";
        cfg.fault_seed = 1000 + i;
      }
      // Every fourth schedule drops to factor 1: kills then open real
      // unavailability windows (no instant failover), so forced splits
      // land while sends are backing off and the seal check migrates the
      // in-flight (pid, seq) onto a child — the handoff path under test.
      if (i % 4 == 0) {
        cfg.replication_factor = 1;
        cfg.fault_spec = "autosplit@p=0.60;automerge@p=0.06";
        cfg.fault_seed = 1000 + i;
      }
      auto rep = scenarios::RunClusterSoak(cfg);
      if (!rep.ok()) {
        std::printf("autoscale churn (seed=%llu) failed: %s\n",
                    static_cast<unsigned long long>(cfg.seed),
                    rep.status().ToString().c_str());
        return 1;
      }
      if (!rep->AuditClean()) {
        std::printf(
            "  schedule %zu dirty: brokers=%u factor=%u loss=%llu dups=%llu/%llu "
            "gaps=%llu wedged=%d consistent=%d faults=\"%s\"\n",
            i, cfg.brokers, cfg.replication_factor,
            static_cast<unsigned long long>(rep->committed_loss),
            static_cast<unsigned long long>(rep->log_duplicates),
            static_cast<unsigned long long>(rep->delivered_duplicates),
            static_cast<unsigned long long>(rep->delivery_gaps),
            rep->wedged ? 1 : 0, rep->controller_consistent ? 1 : 0,
            cfg.fault_spec.c_str());
      }
      loss += rep->committed_loss;
      log_dups += rep->log_duplicates;
      out_dups += rep->delivered_duplicates;
      gaps += rep->delivery_gaps;
      kills += rep->cluster.kills;
      splits += rep->cluster.splits;
      merges += rep->cluster.merges;
      handoffs += rep->producer_handoffs;
      none_wedged = none_wedged && !rep->wedged;
      controllers_consistent = controllers_consistent && rep->controller_consistent;
    }
    bench::Table table({"schedules", "kills", "splits", "merges", "handoffs",
                        "loss", "log_dups", "deliv_dups", "gaps"});
    table.Row({bench::FmtInt(n_schedules), bench::FmtInt(kills),
               bench::FmtInt(splits), bench::FmtInt(merges),
               bench::FmtInt(handoffs), bench::FmtInt(loss),
               bench::FmtInt(log_dups), bench::FmtInt(out_dups),
               bench::FmtInt(gaps)});
    const std::string title = "E26b split/merge under rolling kills (" +
                              std::to_string(n_schedules) + " seeded schedules)";
    table.Print(title.c_str());
    checks.Check(kills > 0 && splits > 0 && merges > 0,
                 "churn: schedules actually killed brokers, split, and merged");
    checks.Check(handoffs > 0,
                 "churn: in-flight sends were handed off sealed-parent -> child");
    checks.Check(loss == 0, "churn: zero committed loss across all schedules");
    checks.Check(log_dups == 0, "churn: zero duplicate log entries (seq floors held)");
    checks.Check(out_dups == 0 && gaps == 0,
                 "churn: exactly-once delivery across every handoff");
    checks.Check(none_wedged, "churn: no run tripped the wedge guard");
    checks.Check(controllers_consistent,
                 "churn: every metadata log replays to the live routing table");
  }

  // --- E26c: routing determinism ---------------------------------------
  const std::vector<std::uint32_t> broker_counts = {2, 4};
  {
    // (i) Kill-free autoscaled soak across broker counts: one digest.
    std::vector<std::uint64_t> digests;
    bench::Table table({"brokers", "acked", "splits", "digest"});
    for (const std::uint32_t brokers : broker_counts) {
      scenarios::ClusterSoakConfig cfg = HotspotConfig();
      cfg.brokers = brokers;
      auto rep = scenarios::RunClusterSoak(cfg);
      if (!rep.ok()) {
        std::printf("digest soak (brokers=%u) failed: %s\n", brokers,
                    rep.status().ToString().c_str());
        return 1;
      }
      digests.push_back(rep->committed_digest);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%016llx",
                    static_cast<unsigned long long>(digests.back()));
      table.Row({bench::FmtInt(brokers), bench::FmtInt(rep->acked),
                 bench::FmtInt(rep->cluster.splits), buf});
    }
    table.Print("E26c-i committed digest across broker counts (autoscaled, no kills)");
    checks.Check(digests[0] == digests[1] && digests[0] != 0,
                 "autoscaled digest identical at brokers {2,4}: split timing and "
                 "routing are load functions, not placement functions");
  }
  {
    // (ii) Router-assigned ParallelProduce: brokers x workers, one digest.
    const std::size_t n_records = quick ? 2'000 : 8'000;
    std::vector<std::uint64_t> digests;
    bench::Table table({"brokers", "workers", "records", "live_leaves", "digest"});
    for (const std::uint32_t brokers : broker_counts) {
      for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        SimClock clock;
        stream::Broker broker(clock);
        cluster::ClusterConfig cc;
        cc.brokers = brokers;
        cluster::BrokerCluster cl(broker, cc);
        stream::TopicConfig tc;
        tc.partitions = 4;
        tc.replication_factor = 2;
        if (auto s = cl.CreateTopic("e26.load", tc); !s.ok()) {
          std::printf("CreateTopic failed: %s\n", s.ToString().c_str());
          return 1;
        }
        // Force the same two splits everywhere, then route every record
        // through the key-range trie on the driver.
        if (auto s = cl.SplitPartition("e26.load", 0); !s.ok()) return 1;
        if (auto s = cl.SplitPartition("e26.load", 1); !s.ok()) return 1;
        exec::ExecConfig ec;
        ec.workers = workers;
        exec::Executor ex(ec);
        Rng rng(2626);
        std::vector<stream::Record> records;
        records.reserve(n_records);
        for (std::size_t i = 0; i < n_records; ++i) {
          records.push_back(stream::Record::Make(
              "poi" + std::to_string(rng.NextU64() % 64), Bytes(24, 0x5a),
              TimePoint::FromMillis(static_cast<std::int64_t>(i))));
        }
        const auto report = stream::ParallelProduce(
            ex, broker, "e26.load", std::move(records),
            [&cl](const stream::Record& r) {
              auto p = cl.RoutePartition("e26.load", r.key);
              return p.ok() ? *p : stream::PartitionId{0};
            });
        auto topic = broker.GetTopic("e26.load");
        digests.push_back(stream::CommittedTopicDigest(**topic));
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(digests.back()));
        table.Row({bench::FmtInt(brokers), bench::FmtInt(workers),
                   bench::FmtInt(n_records),
                   bench::FmtInt(cl.LiveLeaves("e26.load").size()), buf});
        (void)report;
      }
    }
    table.Print("E26c-ii router-assigned parallel produce: brokers x workers");
    bool equal = true;
    for (const std::uint64_t d : digests) equal = equal && d == digests[0];
    checks.Check(equal,
                 "split-routed committed digest identical at brokers {2,4} x "
                 "workers {1,4}");
  }

  // --- E26d: gate parity ------------------------------------------------
  {
    scenarios::ClusterSoakConfig off = HotspotConfig();
    off.rolling_kill = true;
    off.kill_spacing_ticks = 4;
    off.restore_ticks = 6;
    off.autoscale.enabled = false;
    scenarios::ClusterSoakConfig idle = off;
    idle.autoscale.enabled = true;
    idle.autoscale.split_rate_threshold = std::numeric_limits<std::uint64_t>::max();
    bench::Table table({"run", "acked", "splits", "handoffs", "digest"});
    std::vector<scenarios::ClusterSoakReport> reps;
    for (const auto* cfg : {&off, &idle}) {
      auto rep = scenarios::RunClusterSoak(*cfg);
      if (!rep.ok()) {
        std::printf("gate parity run failed: %s\n", rep.status().ToString().c_str());
        return 1;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%016llx",
                    static_cast<unsigned long long>(rep->committed_digest));
      table.Row({cfg == &off ? "autoscale off" : "armed, idle",
                 bench::FmtInt(rep->acked), bench::FmtInt(rep->cluster.splits),
                 bench::FmtInt(rep->producer_handoffs), buf});
      reps.push_back(*rep);
    }
    table.Print("E26d ARBD_AUTOSCALE parity: armed but idle vs off");
    checks.Check(reps[0].committed_digest == reps[1].committed_digest &&
                     reps[0].acked == reps[1].acked &&
                     reps[0].cluster.splits == 0 && reps[1].cluster.splits == 0 &&
                     reps[0].producer_handoffs == 0 && reps[1].producer_handoffs == 0,
                 "an armed autoscaler that never fires is a structural passthrough "
                 "(digest- and ack-identical to off, zero splits, zero handoffs)");
  }

  std::printf("\nE26 verdict: %s (%d failing check%s)\n",
              checks.failures == 0 ? "PASS" : "FAIL", checks.failures,
              checks.failures == 1 ? "" : "s");
  return checks.failures;
}

void BM_AutoscaleSoak(benchmark::State& state) {
  const bool autoscale = state.range(0) != 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    scenarios::ClusterSoakConfig cfg = HotspotConfig();
    cfg.autoscale.enabled = autoscale;
    cfg.seed = seed++;
    auto rep = scenarios::RunClusterSoak(cfg);
    benchmark::DoNotOptimize(rep);
  }
}
BENCHMARK(BM_AutoscaleSoak)->Arg(0)->Arg(1);

void BM_RoutePartition(benchmark::State& state) {
  SimClock clock;
  stream::Broker broker(clock);
  cluster::ClusterConfig cc;
  cc.brokers = 2;
  cluster::BrokerCluster cl(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 4;
  tc.replication_factor = 2;
  (void)cl.CreateTopic("bm", tc);
  // Half the routes hit the refinement trie, half stay at depth 0.
  (void)cl.SplitPartition("bm", 0);
  (void)cl.SplitPartition("bm", 1);
  std::size_t i = 0;
  for (auto _ : state) {
    auto p = cl.RoutePartition("bm", "poi" + std::to_string(i % 64));
    benchmark::DoNotOptimize(p);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoutePartition);

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
