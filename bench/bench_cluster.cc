// E24 — multi-broker cluster: rolling-kill availability, placement
// scaling, and exactly-once delivery across broker loss.
//
//   E24a: rolling-kill sweep — the cluster soak (fleet-shaped workload ->
//         ClusterProducer -> generation-fenced consumer group, every
//         broker killed once, staggered) under >= 40 seeded kill
//         schedules (seed-varied spacing, restore windows, occasional
//         netsplits and injected killbroker/netsplit faults). Gates, per
//         schedule: zero committed loss, zero log duplicates, zero
//         duplicate deliveries, zero delivery gaps, metadata-log replay
//         digest equal to the live routing table's, no wedge.
//
//   E24b: digest invariance — (i) the full rolling-kill soak at broker
//         counts {1,2,4,8} with a generous retry budget commits one
//         digest (placement moves replica slots, never record->partition
//         routing); (ii) ParallelProduce of a fixed keyed workload at
//         broker counts {1,2,4,8} x workers {1,4} — eight identical
//         committed digests (the gate is frozen between ticks, so worker
//         interleaving cannot leak through it; count 1 runs the bare
//         broker, so equality also proves the gate's structural
//         passthrough).
//
//   E24c: availability curve — the same rolling-kill storm with a starved
//         retry budget (2 attempts) and overlapping outages (restore >
//         spacing) at broker counts {1,2,4,8}: availability
//         (acked/offered) must be monotone non-decreasing in broker
//         count, and 8 brokers must beat 1 outright.
//
//   E24d: leader balance — the current leader broker of each of 16
//         partitions (RF 3) at broker counts {1,2,4,8}: no broker may
//         lead more than floor(1.25 * 16 / B) partitions.
//
// `--quick` runs reduced schedule counts with the same checks and no
// google-benchmark timings — the CI cluster smoke. Exit code = failures.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
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

scenarios::ClusterSoakConfig BaseConfig() {
  scenarios::ClusterSoakConfig cfg;
  cfg.brokers = 4;
  cfg.partitions = 8;
  cfg.replication_factor = 3;
  cfg.consumers = 4;
  cfg.fleet.users = 3000;
  cfg.fleet.hotspots = 48;
  cfg.fleet.ticks = 16;
  cfg.fleet.peak_events_per_tick = 100;
  cfg.fleet.seed = 11;
  cfg.producer_attempts = 64;  // generous: outlasts every restore window
  cfg.seed = 1;
  return cfg;
}

int RunExperiment(bool quick) {
  CheckList checks;

  // --- E24a: rolling-kill sweep ----------------------------------------
  const std::size_t n_schedules = quick ? 12 : 40;
  std::uint64_t loss = 0, log_dups = 0, out_dups = 0, gaps = 0;
  std::uint64_t kills = 0, leader_moves = 0, fenced = 0, evictions = 0;
  std::uint64_t retries = 0, rerouted = 0;
  bool none_wedged = true, controllers_consistent = true;
  for (std::size_t i = 0; i < n_schedules; ++i) {
    Rng rng(0xe24aULL + i);
    scenarios::ClusterSoakConfig cfg = BaseConfig();
    cfg.seed = 100 + i;
    cfg.brokers = static_cast<std::uint32_t>(2 + rng.NextBelow(7));
    cfg.kill_start_tick = 1 + rng.NextBelow(4);
    cfg.kill_spacing_ticks = 2 + rng.NextBelow(5);
    cfg.restore_ticks = 3 + rng.NextBelow(7);
    if (rng.Bernoulli(0.3) && cfg.brokers >= 3) {
      cfg.netsplit_at_turn = 8 + rng.NextBelow(10);
    }
    if (rng.Bernoulli(0.25)) {
      cfg.fault_spec = "killbroker@p=0.05,x=4;netsplit@p=0.02,x=4";
      cfg.fault_seed = 1000 + i;
    }
    auto rep = scenarios::RunClusterSoak(cfg);
    if (!rep.ok()) {
      std::printf("cluster soak (seed=%llu) failed: %s\n",
                  static_cast<unsigned long long>(cfg.seed),
                  rep.status().ToString().c_str());
      return 1;
    }
    loss += rep->committed_loss;
    log_dups += rep->log_duplicates;
    out_dups += rep->delivered_duplicates;
    gaps += rep->delivery_gaps;
    kills += rep->cluster.kills;
    leader_moves += rep->cluster.leader_moves;
    fenced += rep->fenced_commits;
    evictions += rep->evictions;
    retries += rep->producer_retries;
    rerouted += rep->producer_rerouted;
    none_wedged = none_wedged && !rep->wedged;
    controllers_consistent = controllers_consistent && rep->controller_consistent;
  }
  bench::Table atable({"schedules", "kills", "leader_moves", "evictions",
                       "fenced_commits", "retries", "rerouted", "loss",
                       "log_dups", "deliv_dups", "gaps"});
  atable.Row({bench::FmtInt(n_schedules), bench::FmtInt(kills),
              bench::FmtInt(leader_moves), bench::FmtInt(evictions),
              bench::FmtInt(fenced), bench::FmtInt(retries),
              bench::FmtInt(rerouted), bench::FmtInt(loss),
              bench::FmtInt(log_dups), bench::FmtInt(out_dups),
              bench::FmtInt(gaps)});
  const std::string atitle = "E24a rolling-kill sweep (" +
                             std::to_string(n_schedules) + " seeded schedules)";
  atable.Print(atitle.c_str());
  checks.Check(kills > 0 && leader_moves > 0,
               "sweep: kill schedules actually downed brokers and moved leaders");
  checks.Check(evictions > 0 && fenced > 0,
               "sweep: broker deaths evicted members and fenced their stale commits");
  checks.Check(loss == 0, "sweep: zero committed loss across all schedules");
  checks.Check(log_dups == 0, "sweep: zero duplicate log entries (idempotent rerouting)");
  checks.Check(out_dups == 0, "sweep: zero duplicate deliveries (generation fencing)");
  checks.Check(gaps == 0, "sweep: zero delivery gaps (rebalance resumes at committed)");
  checks.Check(none_wedged, "sweep: no run tripped the wedge guard");
  checks.Check(controllers_consistent,
               "sweep: metadata-log replay reproduces the live routing table");

  // --- E24b: digest invariance -----------------------------------------
  const std::vector<std::uint32_t> broker_counts = {1, 2, 4, 8};

  // (i) Full rolling-kill soak across broker counts: one digest.
  std::vector<std::uint64_t> soak_digests;
  bench::Table btable({"brokers", "acked", "retries", "rerouted", "digest"});
  for (const std::uint32_t brokers : broker_counts) {
    scenarios::ClusterSoakConfig cfg = BaseConfig();
    cfg.brokers = brokers;
    cfg.kill_spacing_ticks = 4;
    cfg.restore_ticks = 6;
    auto rep = scenarios::RunClusterSoak(cfg);
    if (!rep.ok()) {
      std::printf("digest soak (brokers=%u) failed: %s\n", brokers,
                  rep.status().ToString().c_str());
      return 1;
    }
    soak_digests.push_back(rep->committed_digest);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(rep->committed_digest));
    btable.Row({bench::FmtInt(brokers), bench::FmtInt(rep->acked),
                bench::FmtInt(rep->producer_retries),
                bench::FmtInt(rep->producer_rerouted), buf});
  }
  btable.Print("E24b-i committed digest across broker counts (rolling kills)");
  bool soak_equal = true;
  for (const std::uint64_t d : soak_digests) soak_equal = soak_equal && d == soak_digests[0];
  checks.Check(soak_equal,
               "soak digest identical at broker counts {1,2,4,8} under rolling kills");

  // (ii) ParallelProduce at broker counts x workers: eight digests, no
  // kills — the frozen gate must be invisible to worker interleaving.
  const std::size_t n_records = quick ? 2'000 : 8'000;
  std::vector<std::uint64_t> pp_digests;
  bench::Table ptable({"brokers", "workers", "records", "unavailable", "digest"});
  for (const std::uint32_t brokers : broker_counts) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      SimClock clock;
      stream::Broker broker(clock);
      std::unique_ptr<cluster::BrokerCluster> cl;
      stream::TopicConfig tc;
      tc.partitions = 8;
      tc.replication_factor = 3;
      if (brokers > 1) {
        cluster::ClusterConfig cc;
        cc.brokers = brokers;
        cl = std::make_unique<cluster::BrokerCluster>(broker, cc);
        if (auto s = cl->CreateTopic("e24.load", tc); !s.ok()) {
          std::printf("CreateTopic failed: %s\n", s.ToString().c_str());
          return 1;
        }
      } else {
        (void)broker.CreateTopic("e24.load", tc);
      }
      exec::ExecConfig ec;
      ec.workers = workers;
      exec::Executor ex(ec);
      Rng rng(2424);
      std::vector<stream::Record> records;
      records.reserve(n_records);
      for (std::size_t i = 0; i < n_records; ++i) {
        records.push_back(stream::Record::Make(
            "k" + std::to_string(rng.NextU64() % 64), Bytes(24, 0x5a),
            TimePoint::FromMillis(static_cast<std::int64_t>(i))));
      }
      const auto report =
          stream::ParallelProduce(ex, broker, "e24.load", std::move(records));
      auto topic = broker.GetTopic("e24.load");
      pp_digests.push_back(stream::CommittedTopicDigest(**topic));
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%016llx",
                    static_cast<unsigned long long>(pp_digests.back()));
      ptable.Row({bench::FmtInt(brokers), bench::FmtInt(workers),
                  bench::FmtInt(n_records), bench::FmtInt(report.unavailable), buf});
    }
  }
  ptable.Print("E24b-ii committed digest across broker counts x workers");
  bool pp_equal = true;
  for (const std::uint64_t d : pp_digests) pp_equal = pp_equal && d == pp_digests[0];
  checks.Check(pp_equal,
               "parallel produce: committed digest identical at brokers {1,2,4,8} "
               "x workers {1,4} (count 1 = bare broker passthrough)");

  // --- E24c: availability curve ----------------------------------------
  const std::size_t avail_seeds = quick ? 4 : 8;
  std::vector<double> avail;
  bench::Table ctable({"brokers", "offered", "acked", "denied", "availability"});
  for (const std::uint32_t brokers : broker_counts) {
    std::uint64_t offered = 0, acked = 0, denied = 0;
    for (std::size_t i = 0; i < avail_seeds; ++i) {
      scenarios::ClusterSoakConfig cfg = BaseConfig();
      cfg.brokers = brokers;
      cfg.seed = 500 + i;
      cfg.fleet.seed = 900 + i;  // same offered load at every broker count
      cfg.producer_attempts = 2;  // starved: denials measure availability
      cfg.kill_spacing_ticks = 2;
      cfg.restore_ticks = 10;  // restore > spacing: overlapping outages
      auto rep = scenarios::RunClusterSoak(cfg);
      if (!rep.ok()) {
        std::printf("availability soak failed: %s\n", rep.status().ToString().c_str());
        return 1;
      }
      offered += rep->offered;
      acked += rep->acked;
      denied += rep->denied;
    }
    avail.push_back(static_cast<double>(acked) / static_cast<double>(offered));
    ctable.Row({bench::FmtInt(brokers), bench::FmtInt(offered), bench::FmtInt(acked),
                bench::FmtInt(denied), bench::Fmt("%.4f", avail.back())});
  }
  ctable.Print("E24c availability vs broker count (2-attempt budget, overlapping kills)");
  bool monotone = true;
  for (std::size_t i = 1; i < avail.size(); ++i) {
    monotone = monotone && avail[i] + 1e-12 >= avail[i - 1];
  }
  checks.Check(monotone, "availability monotone non-decreasing in broker count");
  checks.Check(avail.back() > avail.front(),
               "more brokers buy real availability (8 brokers > 1)");

  // --- E24d: leader balance ----------------------------------------------
  const std::uint32_t model_partitions = 16;
  bench::Table dtable({"brokers", "leaders per broker", "max", "bound"});
  bool balanced = true;
  for (const std::uint32_t brokers : broker_counts) {
    SimClock clock;
    stream::Broker broker(clock);
    cluster::ClusterConfig cc;
    cc.brokers = brokers;
    cluster::BrokerCluster cl(broker, cc);
    stream::TopicConfig tc;
    tc.partitions = model_partitions;
    tc.replication_factor = 3;
    if (auto s = cl.CreateTopic("e24.model", tc); !s.ok()) {
      std::printf("CreateTopic failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::vector<std::size_t> leaders(brokers, 0);
    for (stream::PartitionId p = 0; p < model_partitions; ++p) {
      auto leader = cl.LeaderBroker("e24.model", p);
      if (!leader.ok()) {
        std::printf("LeaderBroker failed: %s\n", leader.status().ToString().c_str());
        return 1;
      }
      ++leaders[*leader];
    }
    std::string per_broker;
    for (const std::size_t n : leaders) {
      per_broker += (per_broker.empty() ? "" : " ") + std::to_string(n);
    }
    const std::size_t worst = *std::max_element(leaders.begin(), leaders.end());
    const std::size_t bound = 5 * model_partitions / (4 * brokers);  // floor(1.25 * 16 / B)
    balanced = balanced && worst <= bound;
    dtable.Row({bench::FmtInt(brokers), per_broker, bench::FmtInt(worst),
                bench::FmtInt(bound)});
  }
  dtable.Print("E24d partition leaders per broker (16 partitions, RF 3)");
  checks.Check(balanced,
               "max leaders on any broker <= floor(1.25 * 16 / B) out to 8 brokers "
               "(leader balancing)");

  std::printf("\nE24 verdict: %s (%d failing check%s)\n",
              checks.failures == 0 ? "PASS" : "FAIL", checks.failures,
              checks.failures == 1 ? "" : "s");
  return checks.failures;
}

void BM_ClusterSoak(benchmark::State& state) {
  const auto brokers = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    scenarios::ClusterSoakConfig cfg = BaseConfig();
    cfg.brokers = brokers;
    cfg.seed = seed++;
    auto rep = scenarios::RunClusterSoak(cfg);
    benchmark::DoNotOptimize(rep);
  }
}
BENCHMARK(BM_ClusterSoak)->Arg(2)->Arg(8);

void BM_ClusterProducerSend(benchmark::State& state) {
  const auto brokers = static_cast<std::uint32_t>(state.range(0));
  SimClock clock;
  stream::Broker broker(clock);
  cluster::ClusterConfig cc;
  cc.brokers = brokers;
  cluster::BrokerCluster cl(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 8;
  tc.replication_factor = 3;
  (void)cl.CreateTopic("bm", tc);
  cluster::ClusterProducer producer(cl, broker, "bm");
  std::size_t i = 0;
  for (auto _ : state) {
    auto sent = producer.Send(stream::Record::MakeText(
        "k" + std::to_string(i % 64), "v",
        TimePoint::FromMillis(static_cast<std::int64_t>(i))));
    benchmark::DoNotOptimize(sent);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClusterProducerSend)->Arg(1)->Arg(8);

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
