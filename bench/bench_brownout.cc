// E27 — gray-failure tolerance: hedged reads under brownout, health-driven
// leadership demotion, and exactly-once delivery through brownout+kill
// overlap.
//
//   E27a: hedged frame hit-rate — the brownout soak with a tight AR frame
//         budget against a 16x browned-out broker, hedging off vs on.
//         Gate: the hedged run's frame hit-rate is strictly higher (the
//         secondary ISR replica answers at the hedge delay while the
//         primary crawls), and the committed digest is unchanged (hedged
//         reads never perturb the log).
//
//   E27b: health demotion p99 — a long brownout with an unlimited budget,
//         health tracking off vs on. Gate: the health run demotes (and,
//         once the window expires, recovers) the victim, and its
//         post-demotion read p99 beats the health-off run's overall read
//         p99 — draining leaderships off the browned-out broker is what
//         buys the tail back.
//
//   E27c: brownout+kill sweep — >= 40 seeded schedules overlapping a slow
//         brownout, a lossy link, and a fail-stop kill, with hedging and
//         health seed-varied on/off. Gates, per schedule: zero committed
//         loss, zero log duplicates, zero duplicate deliveries, zero
//         delivery gaps, controller replay == live state, no wedge.
//
//   E27d: digest invariance — (i) the brownout soak (unlimited budget) at
//         broker counts {2,4,8} with hedging+health on commits the same
//         digest as the 4-broker run with both off; (ii) a fixed keyed
//         workload produced at brokers {2,4} x workers {1,4}, then read
//         back through a hedged reader racing a browned-out leader: four
//         identical read digests (the winning replica serves the same
//         quorum-acked prefix the leader would).
//
// `--quick` runs reduced schedule counts with the same checks and no
// google-benchmark timings — the CI brownout smoke. Exit code = failures.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/table.h"
#include "cluster/cluster.h"
#include "cluster/hedge.h"
#include "common/rng.h"
#include "common/serialize.h"
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
  cfg.consumers = 2;
  cfg.rolling_kill = false;
  cfg.fleet.users = 2000;
  cfg.fleet.hotspots = 32;
  cfg.fleet.ticks = 16;
  cfg.fleet.peak_events_per_tick = 60;
  cfg.fleet.seed = 11;
  // A default 8x brownout of broker 0 from tick 2, every turn one 33 ms
  // AR frame with a 32-row hedged read per partition.
  cfg.slow_at_tick = 2;
  cfg.frame_budget = Duration::Millis(33);
  cfg.read_batch = 32;
  cfg.seed = 1;
  return cfg;
}

std::uint64_t FoldRows(std::uint64_t h, stream::PartitionId p,
                       const std::vector<stream::StoredRecord>& rows) {
  for (const auto& r : rows) {
    const std::string line = std::to_string(p) + "|" + std::to_string(r.offset) +
                             "|" + r.record.key + "|" + r.record.TextPayload();
    h = (h ^ Fnv1a(line)) * 1099511628211ULL;
  }
  return h;
}

int RunExperiment(bool quick) {
  CheckList checks;

  // --- E27a: hedged frame hit-rate --------------------------------------
  // Read-dominant frames (tiny produce chunk, 8 per-partition reads)
  // against a deep brownout covering the whole run; the budget sits
  // between the hedged and unhedged read bills for victim-led partitions.
  scenarios::ClusterSoakConfig acfg = BaseConfig();
  acfg.produce_chunk = 2;
  acfg.slow_at_tick = 1;
  acfg.slow_broker = 0;
  acfg.slow_factor = 16.0;
  acfg.slow_ticks = 400;  // never expires within the run
  acfg.frame_budget = Duration::Millis(8);

  auto a_off = scenarios::RunClusterSoak(acfg);
  auto a_cfg_on = acfg;
  a_cfg_on.hedge.enabled = true;
  // A quarter of all reads hit the browned-out leader, so the default p95
  // hedge delay would chase the brownout itself; hedge at p70 instead
  // (still above every healthy op, far below the 16x victim).
  a_cfg_on.hedge.quantile = 0.7;
  auto a_on = scenarios::RunClusterSoak(a_cfg_on);
  if (!a_off.ok() || !a_on.ok()) {
    std::printf("E27a soak failed: %s\n",
                (!a_off.ok() ? a_off.status() : a_on.status()).ToString().c_str());
    return 1;
  }
  bench::Table atable({"hedging", "frames", "hits", "hit_rate", "hedged",
                       "secondary_wins", "read_p99_us"});
  for (const auto* rep : {&*a_off, &*a_on}) {
    atable.Row({rep == &*a_on ? "on" : "off", bench::FmtInt(rep->frames),
                bench::FmtInt(rep->frame_hits),
                bench::Fmt("%.4f", rep->frame_hit_rate),
                bench::FmtInt(rep->hedge.hedged),
                bench::FmtInt(rep->hedge.secondary_wins),
                bench::Fmt("%.1f", static_cast<double>(rep->read_p99_ns) / 1e3)});
  }
  atable.Print("E27a frame hit-rate under a 16x brownout (8ms frame budget)");
  checks.Check(a_on->hedge.hedged > 0 && a_on->hedge.secondary_wins > 0,
               "hedging actually fired and secondaries actually won");
  checks.Check(a_on->frame_hit_rate > a_off->frame_hit_rate,
               "hedged frame hit-rate strictly beats unhedged under brownout");
  checks.Check(a_off->AuditClean() && a_on->AuditClean(),
               "E27a: both runs exactly-once clean");

  // --- E27b: health demotion p99 ----------------------------------------
  // Long 8x brownout, unlimited budget. Health off: the victim keeps its
  // leaderships and the overall read p99 is the browned-out latency.
  // Health on: demotion drains the victim within a few ticks, so reads
  // issued after the first demotion pay base latency again.
  scenarios::ClusterSoakConfig bcfg = BaseConfig();
  bcfg.frame_budget = Duration::Zero();
  bcfg.slow_at_tick = 1;
  bcfg.slow_broker = 0;
  bcfg.slow_factor = 8.0;
  bcfg.slow_ticks = 8;  // expires mid-run so recovery can land
  bcfg.health.recover_ticks = 2;

  auto b_off = scenarios::RunClusterSoak(bcfg);
  auto b_cfg_on = bcfg;
  b_cfg_on.health.enabled = true;
  auto b_on = scenarios::RunClusterSoak(b_cfg_on);
  if (!b_off.ok() || !b_on.ok()) {
    std::printf("E27b soak failed: %s\n",
                (!b_off.ok() ? b_off.status() : b_on.status()).ToString().c_str());
    return 1;
  }
  bench::Table btable({"health", "read_p99_us", "post_demo_reads",
                       "post_demo_p99_us", "demotions", "recoveries"});
  for (const auto* rep : {&*b_off, &*b_on}) {
    btable.Row({rep == &*b_on ? "on" : "off",
                bench::Fmt("%.1f", static_cast<double>(rep->read_p99_ns) / 1e3),
                bench::FmtInt(rep->post_demotion_reads),
                bench::Fmt("%.1f", static_cast<double>(rep->post_demotion_p99_ns) / 1e3),
                bench::FmtInt(rep->cluster.demotions),
                bench::FmtInt(rep->cluster.recoveries)});
  }
  btable.Print("E27b read p99 with health-driven demotion (8x brownout)");
  checks.Check(b_on->cluster.demotions > 0, "health run demoted the victim");
  checks.Check(b_on->cluster.recoveries > 0,
               "the victim recovered once the brownout expired");
  checks.Check(b_on->post_demotion_reads > 0 &&
                   b_on->post_demotion_p99_ns < b_off->read_p99_ns,
               "post-demotion read p99 beats the health-off overall p99");
  checks.Check(b_off->AuditClean() && b_on->AuditClean() &&
                   b_on->committed_digest == b_off->committed_digest,
               "E27b: both runs clean, demotion moved leaders not records");

  // --- E27c: brownout+kill sweep ----------------------------------------
  const std::size_t n_schedules = quick ? 12 : 40;
  std::uint64_t loss = 0, log_dups = 0, out_dups = 0, gaps = 0;
  std::uint64_t kills = 0, slow_arms = 0, lossy_arms = 0, drops = 0;
  std::uint64_t demotions = 0, recoveries = 0, hedged = 0;
  bool none_wedged = true, controllers_consistent = true;
  for (std::size_t i = 0; i < n_schedules; ++i) {
    Rng rng(0xe27cULL + i);
    scenarios::ClusterSoakConfig cfg = BaseConfig();
    cfg.seed = 100 + i;
    cfg.brokers = static_cast<std::uint32_t>(2 + rng.NextBelow(7));
    cfg.frame_budget = Duration::Zero();  // lossless regime: audits exact
    cfg.slow_at_tick = 1 + rng.NextBelow(4);
    cfg.slow_broker = static_cast<cluster::BrokerId>(rng.NextBelow(cfg.brokers));
    cfg.slow_factor = 2.0 + static_cast<double>(rng.NextBelow(15));
    cfg.slow_ticks = 4 + rng.NextBelow(20);
    cfg.lossy_at_tick = 1 + rng.NextBelow(6);
    cfg.lossy_broker = static_cast<cluster::BrokerId>(rng.NextBelow(cfg.brokers));
    cfg.lossy_drop_p = 0.1 + 0.05 * static_cast<double>(rng.NextBelow(8));
    cfg.lossy_ticks = 2 + rng.NextBelow(8);
    cfg.kill_at_tick = 2 + rng.NextBelow(6);  // every schedule overlaps a kill
    cfg.kill_broker = static_cast<cluster::BrokerId>(rng.NextBelow(cfg.brokers));
    cfg.restore_ticks = 3 + rng.NextBelow(6);
    cfg.hedge.enabled = rng.Bernoulli(0.5);
    cfg.health.enabled = rng.Bernoulli(0.5);
    auto rep = scenarios::RunClusterSoak(cfg);
    if (!rep.ok()) {
      std::printf("brownout soak (seed=%llu) failed: %s\n",
                  static_cast<unsigned long long>(cfg.seed),
                  rep.status().ToString().c_str());
      return 1;
    }
    loss += rep->committed_loss;
    log_dups += rep->log_duplicates;
    out_dups += rep->delivered_duplicates;
    gaps += rep->delivery_gaps;
    kills += rep->cluster.kills;
    slow_arms += rep->cluster.slow_brownouts;
    lossy_arms += rep->cluster.lossy_brownouts;
    drops += rep->cluster.lossy_drops;
    demotions += rep->cluster.demotions;
    recoveries += rep->cluster.recoveries;
    hedged += rep->hedge.hedged;
    none_wedged = none_wedged && !rep->wedged;
    controllers_consistent = controllers_consistent && rep->controller_consistent;
  }
  bench::Table ctable({"schedules", "kills", "slow_arms", "lossy_arms", "drops",
                       "demotions", "recoveries", "hedged", "loss", "log_dups",
                       "deliv_dups", "gaps"});
  ctable.Row({bench::FmtInt(n_schedules), bench::FmtInt(kills),
              bench::FmtInt(slow_arms), bench::FmtInt(lossy_arms),
              bench::FmtInt(drops), bench::FmtInt(demotions),
              bench::FmtInt(recoveries), bench::FmtInt(hedged),
              bench::FmtInt(loss), bench::FmtInt(log_dups),
              bench::FmtInt(out_dups), bench::FmtInt(gaps)});
  const std::string ctitle = "E27c brownout+kill sweep (" +
                             std::to_string(n_schedules) + " seeded schedules)";
  ctable.Print(ctitle.c_str());
  checks.Check(kills > 0 && slow_arms > 0 && lossy_arms > 0 && drops > 0,
               "sweep: gray faults and kills actually overlapped");
  checks.Check(loss == 0, "sweep: zero committed loss across all schedules");
  checks.Check(log_dups == 0, "sweep: zero duplicate log entries");
  checks.Check(out_dups == 0, "sweep: zero duplicate deliveries");
  checks.Check(gaps == 0, "sweep: zero delivery gaps");
  checks.Check(none_wedged, "sweep: no run tripped the wedge guard");
  checks.Check(controllers_consistent,
               "sweep: metadata replay consistent through every degrade/restore");

  // --- E27d: digest invariance ------------------------------------------
  // (i) Soak digest across broker counts with the full gray stack on,
  // against the both-off baseline.
  scenarios::ClusterSoakConfig dcfg = BaseConfig();
  dcfg.frame_budget = Duration::Zero();
  dcfg.slow_at_tick = 2;
  dcfg.slow_ticks = 10;
  dcfg.lossy_at_tick = 3;
  dcfg.lossy_ticks = 6;
  auto baseline = scenarios::RunClusterSoak(dcfg);
  if (!baseline.ok()) {
    std::printf("E27d baseline failed: %s\n", baseline.status().ToString().c_str());
    return 1;
  }
  bench::Table dtable({"brokers", "hedge+health", "acked", "digest"});
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(baseline->committed_digest));
  dtable.Row({bench::FmtInt(dcfg.brokers), "off", bench::FmtInt(baseline->acked), buf});
  bool digests_equal = true;
  for (const std::uint32_t brokers : {2u, 4u, 8u}) {
    auto cfg = dcfg;
    cfg.brokers = brokers;
    cfg.hedge.enabled = true;
    cfg.health.enabled = true;
    auto rep = scenarios::RunClusterSoak(cfg);
    if (!rep.ok()) {
      std::printf("E27d soak (brokers=%u) failed: %s\n", brokers,
                  rep.status().ToString().c_str());
      return 1;
    }
    digests_equal = digests_equal &&
                    rep->committed_digest == baseline->committed_digest &&
                    rep->AuditClean();
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(rep->committed_digest));
    dtable.Row({bench::FmtInt(brokers), "on", bench::FmtInt(rep->acked), buf});
  }
  dtable.Print("E27d-i committed digest: gray stack on/off across broker counts");
  checks.Check(digests_equal,
               "soak digest invariant under hedging+health at brokers {2,4,8}");

  // (ii) Hedged read digest at brokers {2,4} x workers {1,4}.
  const std::size_t n_records = quick ? 2'000 : 8'000;
  std::vector<std::uint64_t> read_digests;
  bench::Table ptable({"brokers", "workers", "rows", "hedged", "digest"});
  for (const std::uint32_t brokers : {2u, 4u}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      SimClock clock;
      stream::Broker broker(clock);
      cluster::ClusterConfig cc;
      cc.brokers = brokers;
      cluster::BrokerCluster cl(broker, cc);
      stream::TopicConfig tc;
      tc.partitions = 8;
      tc.replication_factor = 2;
      if (auto s = cl.CreateTopic("e27.load", tc); !s.ok()) {
        std::printf("CreateTopic failed: %s\n", s.ToString().c_str());
        return 1;
      }
      exec::ExecConfig ec;
      ec.workers = workers;
      exec::Executor ex(ec);
      Rng rng(2727);
      std::vector<stream::Record> records;
      records.reserve(n_records);
      for (std::size_t i = 0; i < n_records; ++i) {
        records.push_back(stream::Record::MakeText(
            "k" + std::to_string(rng.NextU64() % 64), "v" + std::to_string(i),
            TimePoint::FromMillis(static_cast<std::int64_t>(i))));
      }
      (void)stream::ParallelProduce(ex, broker, "e27.load", std::move(records),
                                    Duration::Micros(2));
      // Brown out the leader of partition 0 and read everything back
      // through a hedged reader: the race winner must serve the same rows.
      auto victim = cl.LeaderBroker("e27.load", 0);
      if (!victim.ok() || !cl.SlowBroker(*victim, 16.0, 1000).ok()) {
        std::printf("E27d-ii brownout arm failed\n");
        return 1;
      }
      cluster::HedgeConfig hc;
      hc.enabled = true;
      cluster::HedgedReader reader(cl, broker, "e27.load", hc);
      std::uint64_t digest = 1469598103934665603ULL;
      std::uint64_t rows = 0;
      for (stream::PartitionId p = 0; p < 8; ++p) {
        auto fetched = reader.Fetch(p, 0, n_records);
        if (!fetched.ok()) {
          std::printf("E27d-ii fetch failed: %s\n",
                      fetched.status().ToString().c_str());
          return 1;
        }
        rows += fetched->size();
        digest = FoldRows(digest, p, *fetched);
      }
      read_digests.push_back(digest);
      std::snprintf(buf, sizeof(buf), "%016llx",
                    static_cast<unsigned long long>(digest));
      ptable.Row({bench::FmtInt(brokers), bench::FmtInt(workers),
                  bench::FmtInt(rows), bench::FmtInt(reader.stats().hedged), buf});
      if (reader.stats().hedged == 0) {
        checks.Check(false, "E27d-ii: hedging never fired against the brownout");
      }
    }
  }
  ptable.Print("E27d-ii hedged read digest across brokers x workers");
  bool read_equal = true;
  for (const std::uint64_t d : read_digests) read_equal = read_equal && d == read_digests[0];
  checks.Check(read_equal,
               "hedged read digest identical at brokers {2,4} x workers {1,4}");

  std::printf("\nE27 verdict: %s (%d failing check%s)\n",
              checks.failures == 0 ? "PASS" : "FAIL", checks.failures,
              checks.failures == 1 ? "" : "s");
  return checks.failures;
}

void BM_BrownoutSoak(benchmark::State& state) {
  const bool hedge = state.range(0) != 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    scenarios::ClusterSoakConfig cfg = BaseConfig();
    cfg.seed = seed++;
    cfg.hedge.enabled = hedge;
    cfg.health.enabled = hedge;
    auto rep = scenarios::RunClusterSoak(cfg);
    benchmark::DoNotOptimize(rep);
  }
}
BENCHMARK(BM_BrownoutSoak)->Arg(0)->Arg(1);

void BM_HedgedFetch(benchmark::State& state) {
  SimClock clock;
  stream::Broker broker(clock);
  cluster::ClusterConfig cc;
  cc.brokers = 4;
  cluster::BrokerCluster cl(broker, cc);
  stream::TopicConfig tc;
  tc.partitions = 4;
  tc.replication_factor = 3;
  (void)cl.CreateTopic("bm", tc);
  cluster::ClusterProducer producer(cl, broker, "bm");
  for (int i = 0; i < 4096; ++i) {
    (void)producer.Send(stream::Record::MakeText(
        "k" + std::to_string(i % 64), "v",
        TimePoint::FromMillis(static_cast<std::int64_t>(i))));
  }
  auto victim = cl.LeaderBroker("bm", 0);
  if (victim.ok()) (void)cl.SlowBroker(*victim, 16.0, 1'000'000);
  cluster::HedgeConfig hc;
  hc.enabled = state.range(0) != 0;
  cluster::HedgedReader reader(cl, broker, "bm", hc);
  stream::Offset lo = 0;
  for (auto _ : state) {
    auto rows = reader.Fetch(0, lo % 1024, 64);
    benchmark::DoNotOptimize(rows);
    ++lo;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HedgedFetch)->Arg(0)->Arg(1);

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
