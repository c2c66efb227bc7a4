#include "scenarios/cluster.h"

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/deadline.h"
#include "common/metrics.h"
#include "stream/consumer.h"
#include "stream/dataflow.h"
#include "stream/log.h"
#include "stream/replication.h"

namespace arbd::scenarios {
namespace {

constexpr std::size_t kPollBatch = 64;  // records each member polls per turn

// Fleet events rendered as stream records: keyed by POI (hot partitions
// emerge from the Zipf hotspot skew), event time strictly increasing by
// generation order — each record's unique identity for the audits.
std::vector<stream::Record> MakeFleetWorkload(const offload::FleetLoadConfig& fleet) {
  const auto load = offload::GenerateFleetLoad(fleet);
  std::vector<stream::Record> records;
  records.reserve(load.size());
  TimePoint t;
  for (const auto& e : load) {
    t += Duration::Millis(1);
    stream::Event ev;
    ev.key = "poi" + std::to_string(e.poi);
    ev.attribute = "report";
    ev.value = static_cast<double>(e.user);
    ev.event_time = t;
    records.push_back(stream::Record::Make(ev.key, ev.Encode(), ev.event_time));
  }
  return records;
}

double Percentile(std::vector<std::uint64_t> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(xs.size()) - 1.0,
                       q * static_cast<double>(xs.size())));
  return static_cast<double>(xs[idx]);
}

}  // namespace

Expected<ClusterSoakReport> RunClusterSoak(const ClusterSoakConfig& cfg) {
  ClusterSoakReport report;

  SimClock clock;
  stream::Broker broker(clock);
  cluster::ClusterConfig cc;
  cc.brokers = std::max<std::uint32_t>(cfg.brokers, 1);
  cc.seed = cfg.seed ^ 0xc1a57e12ULL;
  cc.default_restore_ticks = std::max<std::uint64_t>(cfg.restore_ticks, 1);
  cc.autoscale = cfg.autoscale;
  cc.health = cfg.health;
  cluster::BrokerCluster cluster(broker, cc);

  std::unique_ptr<fault::FaultInjector> injector;
  if (!cfg.fault_spec.empty()) {
    auto plan = fault::FaultPlan::Parse(cfg.fault_spec);
    if (!plan.ok()) return plan.status();
    injector = std::make_unique<fault::FaultInjector>(*plan, cfg.fault_seed);
    cluster.set_fault_injector(injector.get());
  }

  stream::TopicConfig tc;
  tc.partitions = cfg.partitions;
  tc.replication_factor = std::max<std::uint32_t>(cfg.replication_factor, 1);
  auto created = cluster.CreateTopic("cluster.events", tc);
  if (!created.ok()) return created;

  fault::RetryPolicy retry;
  retry.max_attempts = std::max<std::size_t>(cfg.producer_attempts, 1);
  cluster::ClusterProducer producer(cluster, broker, "cluster.events", retry,
                                    cfg.seed ^ 0x9dULL);
  cluster::HedgedReader reader(cluster, broker, "cluster.events", cfg.hedge,
                               cfg.seed ^ 0x4ed6eULL);

  // The consumer group: member i is homed on broker i % brokers — its
  // host dying evicts it mid-flight, the restore rejoins it. Delivery
  // polls run unbudgeted: the frame deadline shapes the produce/read
  // path, never the drain the gap audit depends on.
  stream::ConsumerGroup group(broker, "cluster.soak", "cluster.events");
  const std::size_t members = std::max<std::uint32_t>(cfg.consumers, 1);
  std::vector<stream::Consumer*> consumers;
  std::vector<bool> evicted(members, false);
  // In-flight polled identities per member: counted as delivered only when
  // a successful commit covers them; discarded when the commit is fenced
  // (the surviving owners redeliver from the committed offsets).
  std::vector<std::vector<std::int64_t>> buffers(members);
  for (std::size_t i = 0; i < members; ++i) {
    auto joined = group.Join("member-" + std::to_string(i));
    if (!joined.ok()) return joined.status();
    consumers.push_back(*joined);
  }

  const auto records = MakeFleetWorkload(cfg.fleet);
  std::vector<std::int64_t> acked_ids;
  acked_ids.reserve(records.size());
  std::map<std::int64_t, std::uint64_t> delivered;

  // Hot-partition pressure sampling: per turn, the max committed-ingest
  // delta across live leaves, tagged with the split count at sample time.
  // "Before" is the unsplit regime; "after" is the stabilized regime (the
  // final split count), so cascade intermediates — a hot child measured
  // one tick before it splits again — pollute neither bucket.
  std::vector<stream::Offset> last_end;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> hot_samples;

  // Per-partition cursors for the frame's overlay reads — a reader tier
  // independent of the group's committed positions.
  std::vector<stream::Offset> cursor(cfg.partitions, 0);
  Histogram read_hist;
  Histogram post_demotion_hist;
  bool slow_armed = false, lossy_armed = false, kill_fired = false;

  // Wedge guard: a generous bound on a run that drains.
  const std::size_t chunk = std::max<std::size_t>(cfg.produce_chunk, 1);
  const std::size_t cap =
      1000 + (records.size() / chunk + 1) * 50 +
      static_cast<std::size_t>(cfg.brokers) *
          static_cast<std::size_t>(cfg.restore_ticks + cfg.kill_spacing_ticks +
                                   cfg.slow_ticks);

  std::size_t next = 0;
  std::uint32_t next_kill = 0;
  std::size_t turn = 0;

  while (next < records.size() || group.TotalLag() > 0) {
    if (++turn > cap) {
      report.wedged = true;
      break;
    }
    const bool split_now = !cluster.MinoritySide().empty();
    // One frame per turn. With frame_budget zero the deadline is
    // unlimited — it tallies spent() but never expires, and every path
    // behaves exactly as without a deadline.
    Deadline frame = cfg.frame_budget > Duration::Zero()
                         ? Deadline::WithBudget(cfg.frame_budget)
                         : Deadline();

    // 1. Produce a chunk through the rerouting producer. Retries tick
    // cluster time, so restore windows count down while a send waits out
    // a dead leader broker. A send the frame budget cuts off is a
    // deadline miss — dropped at the producer (never acked), which is the
    // paper's frame semantics: stale sensor data is worthless next frame.
    const std::size_t until = std::min(records.size(), next + chunk);
    for (; next < until; ++next) {
      ++report.offered;
      auto sent = producer.Send(records[next], &frame);
      if (sent.ok()) {
        ++report.acked;
        if (split_now) ++report.acked_during_split;
        acked_ids.push_back(records[next].event_time.nanos());
      } else if (sent.status().code() == StatusCode::kDeadlineExceeded) {
        ++report.deadline_misses;
      } else if (sent.status().code() == StatusCode::kUnavailable) {
        ++report.denied;
      } else {
        return sent.status();
      }
      clock.Advance(Duration::Millis(1));
    }

    // 2. Read-only hot-rate sample over this turn's ingest.
    {
      auto t = broker.GetTopic("cluster.events");
      if (!t.ok()) return t.status();
      last_end.resize((*t)->partition_count(), 0);
      std::uint64_t hot = 0;
      for (const stream::PartitionId p : cluster.LiveLeaves("cluster.events")) {
        const stream::Offset end = (*t)->partition(p).end_offset();
        hot = std::max(hot, static_cast<std::uint64_t>(end - last_end[p]));
        last_end[p] = end;
      }
      hot_samples.emplace_back(cluster.stats().splits, hot);
    }

    // 3. One hedged overlay read per partition, each charged to the frame
    // at the winning attempt's modeled cost. Reads that no longer fit the
    // frame are skipped (they would blow the deadline anyway).
    for (stream::PartitionId p = 0; cfg.read_batch > 0 && p < cfg.partitions; ++p) {
      if (frame.expired()) break;
      Deadline probe;  // unlimited: a pure cost meter for this read
      auto rows = reader.Fetch(p, cursor[p], cfg.read_batch, &probe);
      const Duration cost = probe.spent();
      frame.Charge(cost);
      read_hist.RecordDuration(cost);
      if (report.cluster.demotions > 0) post_demotion_hist.RecordDuration(cost);
      ++report.reads;
      if (rows.ok()) {
        report.read_rows += rows->size();
        cursor[p] += static_cast<stream::Offset>(rows->size());
      } else {
        ++report.read_errors;
      }
    }

    // 4. Every live member polls; its rows stay in flight until step 7's
    // commit decides their fate.
    for (std::size_t i = 0; i < members; ++i) {
      for (const auto& sr : consumers[i]->Poll(kPollBatch)) {
        buffers[i].push_back(sr.record.event_time.nanos());
      }
    }

    // 5. Cluster time advances — and the schedules fire — with those
    // polls in flight, so a broker death lands exactly in the
    // poll-to-commit window the generation fence protects.
    cluster.Tick();
    report.cluster = cluster.stats();
    if (cfg.rolling_kill) {
      while (next_kill < cc.brokers &&
             cluster.now_tick() >=
                 cfg.kill_start_tick + next_kill * cfg.kill_spacing_ticks) {
        auto killed = cluster.KillBroker(next_kill, cfg.restore_ticks);
        if (!killed.ok()) return killed;
        ++next_kill;
      }
    }
    if (cfg.netsplit_at_turn != 0 && turn == cfg.netsplit_at_turn) {
      auto split = cluster.NetSplit(cfg.netsplit_heal_ticks);
      if (!split.ok()) return split;
    }
    if (cfg.slow_at_tick != 0 && !slow_armed &&
        cluster.now_tick() >= cfg.slow_at_tick) {
      auto s = cluster.SlowBroker(cfg.slow_broker, cfg.slow_factor, cfg.slow_ticks);
      if (!s.ok()) return s;
      slow_armed = true;
    }
    if (cfg.lossy_at_tick != 0 && !lossy_armed &&
        cluster.now_tick() >= cfg.lossy_at_tick) {
      auto s = cluster.LossyLink(cfg.lossy_broker, cfg.lossy_drop_p, cfg.lossy_ticks);
      if (!s.ok()) return s;
      lossy_armed = true;
    }
    if (cfg.kill_at_tick != 0 && !kill_fired &&
        cluster.now_tick() >= cfg.kill_at_tick) {
      auto s = cluster.KillBroker(cfg.kill_broker, cfg.restore_ticks);
      if (!s.ok()) return s;
      kill_fired = true;
    }
    if (!cluster.MinoritySide().empty()) report.minority_fenced = true;

    // A split or merge added partitions: the group rebalances onto them
    // under the usual generation fence (in-flight polls of the old
    // generation are discarded at commit and redelivered). With no
    // autoscale action this is a no-op — it never touches the generation.
    group.SyncPartitions();

    // 6. Home-broker liveness drives membership: death or isolation on
    // the minority side evicts, restore rejoins (the zombie's commits
    // stay fenced in between). A browned-out broker is up, so brownouts
    // never evict anyone.
    for (std::size_t i = 0; i < members; ++i) {
      const auto home = static_cast<cluster::BrokerId>(i % cc.brokers);
      const auto minority = cluster.MinoritySide();
      const bool isolated =
          std::find(minority.begin(), minority.end(), home) != minority.end();
      const bool alive = cluster.BrokerUp(home) && !isolated;
      if (!alive && !evicted[i]) {
        auto s = group.Evict(consumers[i]->id());
        if (!s.ok()) return s;
        evicted[i] = true;
        ++report.evictions;
      } else if (alive && evicted[i]) {
        auto s = group.Rejoin(consumers[i]->id());
        if (!s.ok()) return s;
        evicted[i] = false;
        ++report.rejoins;
      }
    }

    // 7. Commits. A successful commit covers exactly this member's
    // in-flight polls (nothing else moved its positions); a fenced or
    // stale-generation commit means a rebalance intervened — the polled
    // records belong to a dead generation and are discarded here, to be
    // redelivered by whoever owns those partitions now.
    for (std::size_t i = 0; i < members; ++i) {
      if (buffers[i].empty()) continue;
      if (consumers[i]->Commit().ok()) {
        for (const std::int64_t id : buffers[i]) ++delivered[id];
      }
      buffers[i].clear();
    }

    ++report.frames;
    if (!frame.expired()) ++report.frame_hits;
  }

  // --- audits (sealed parents are still fetchable, so the committed
  // sweep covers parent + children) -------------------------------------
  auto topic = broker.GetTopic("cluster.events");
  if (!topic.ok()) return topic.status();
  std::map<std::int64_t, std::uint64_t> copies;
  for (stream::PartitionId p = 0; p < (*topic)->partition_count(); ++p) {
    const auto& part = (*topic)->partition(p);
    auto fetched = part.Fetch(part.log_start_offset(), part.size());
    if (!fetched.ok()) return fetched.status();
    for (const auto& sr : *fetched) {
      ++copies[sr.record.event_time.nanos()];
      ++report.committed_records;
    }
  }
  for (const std::int64_t id : acked_ids) {
    if (!copies.contains(id)) ++report.committed_loss;
  }
  for (const auto& [id, n] : copies) {
    if (n > 1) report.log_duplicates += n - 1;
  }
  for (const auto& [id, n] : delivered) {
    report.delivered += n;
    if (n > 1) report.delivered_duplicates += n - 1;
  }
  if (!report.wedged) {
    for (const auto& [id, n] : copies) {
      if (!delivered.contains(id)) ++report.delivery_gaps;
    }
  }

  report.frame_hit_rate =
      report.frames == 0
          ? 1.0
          : static_cast<double>(report.frame_hits) / static_cast<double>(report.frames);
  report.producer_retries = producer.retries();
  report.producer_rerouted = producer.rerouted();
  report.producer_handoffs = producer.handoffs();
  report.availability = report.offered == 0
                            ? 1.0
                            : static_cast<double>(report.acked) /
                                  static_cast<double>(report.offered);
  report.read_p50_ns = read_hist.p50();
  report.read_p99_ns = read_hist.p99();
  report.post_demotion_reads = post_demotion_hist.count();
  report.post_demotion_p99_ns = post_demotion_hist.p99();
  report.hedge = reader.stats();
  report.committed_digest = stream::CommittedTopicDigest(**topic);

  report.fenced_commits = group.fenced_commit_count();
  report.rebalances = group.rebalance_count();
  report.generation = group.generation();

  report.cluster = cluster.stats();
  report.controller_events = cluster.controller().appended();
  report.controller_state_digest = cluster.controller().StateDigest();
  auto replay = cluster.controller().ReplayDigest();
  if (!replay.ok()) return replay.status();
  report.controller_replay_digest = *replay;
  report.controller_consistent =
      report.controller_replay_digest == report.controller_state_digest;

  report.final_partitions = (*topic)->partition_count();
  report.live_leaves =
      static_cast<std::uint32_t>(cluster.LiveLeaves("cluster.events").size());
  std::vector<std::uint64_t> hot_before, hot_after;
  for (const auto& [splits_at_sample, hot] : hot_samples) {
    if (splits_at_sample == 0) hot_before.push_back(hot);
    if (splits_at_sample == report.cluster.splits) hot_after.push_back(hot);
  }
  report.hot_p99_before = Percentile(hot_before, 0.99);
  report.hot_p99_after = Percentile(hot_after, 0.99);
  return report;
}

}  // namespace arbd::scenarios
