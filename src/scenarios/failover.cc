#include "scenarios/failover.h"

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "stream/log.h"

namespace arbd::scenarios {
namespace {

// Same out-of-orderness trick as the chaos soak: windows only fire at the
// final Finish, so the results table is independent of how partition
// polling interleaves across crash schedules.
constexpr double kSoakLatenessSlackS = 1e6;

// Retail-flavored workload with strictly increasing event times — the
// event time is each record's unique identity for the loss/duplicate
// audit (a duplicate append is two log entries with the same identity).
std::vector<stream::Event> MakeWorkload(const FailoverConfig& cfg) {
  Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 7);
  ZipfGenerator zipf(60, 1.1);
  std::vector<stream::Event> events;
  events.reserve(cfg.records);
  TimePoint t;
  for (std::size_t i = 0; i < cfg.records; ++i) {
    t += Duration::Millis(static_cast<std::int64_t>(5 + rng.NextBelow(10)));
    stream::Event e;
    e.key = "sku" + std::to_string(zipf.Next(rng));
    e.attribute = "purchase";
    e.value = rng.Uniform(1.0, 50.0);
    e.event_time = t;
    events.push_back(std::move(e));
  }
  return events;
}

stream::PipelineFactory MakeFactory() {
  return []() {
    auto p = std::make_unique<stream::Pipeline>(Duration::Seconds(kSoakLatenessSlackS));
    p->WindowAggregate(stream::WindowSpec::Tumbling(Duration::Seconds(1)),
                       stream::AggKind::kSum);
    return p;
  };
}

}  // namespace

Expected<FailoverReport> RunFailoverSoak(const FailoverConfig& cfg) {
  auto plan = fault::FaultPlan::Parse(cfg.fault_spec);
  if (!plan.ok()) return plan.status();

  FailoverReport report;
  fault::FaultInjector injector(*plan, cfg.fault_seed);
  Rng kill_rng(cfg.fault_seed ^ 0xfa11fa11u);

  SimClock clock;
  stream::Broker broker(clock);
  stream::TopicConfig tc;
  tc.partitions = cfg.partitions;
  tc.replication_factor = std::max<std::uint32_t>(1, cfg.replication_factor);
  auto created = broker.CreateTopic("failover", tc);
  if (!created.ok()) return created;

  fault::RetryPolicy retry;
  retry.max_attempts = std::max<std::size_t>(1, cfg.producer_attempts);
  stream::IdempotentProducer producer(broker, "failover", retry,
                                      cfg.fault_seed ^ 0x9d);

  // The exactly-once job: results buffer inside the job and reach this
  // sink only when the covering checkpoint commits.
  std::map<std::string, std::uint64_t> delivered;
  stream::CheckpointedJob job(broker, "failover", "failover-job", MakeFactory(),
                              cfg.checkpoint_every);
  job.SetTransactionalSink([&](const stream::WindowResult& r) {
    const std::string id = r.key + "|" + std::to_string(r.window_start.millis()) +
                           "|" + std::to_string(r.window_end.millis());
    ++delivered[id];
    report.results[r.key + "|" + std::to_string(r.window_start.millis())] = {r.value,
                                                                             r.count};
  });
  broker.set_fault_injector(&injector);
  job.set_fault_injector(&injector);

  const auto events = MakeWorkload(cfg);
  // Acked identities (event-time nanos): the records the audit holds the
  // log accountable for.
  std::vector<std::int64_t> acked_ids;
  acked_ids.reserve(events.size());

  const std::size_t chunk = std::max<std::size_t>(1, cfg.produce_chunk);
  // Pump-iteration cap (wedge guard): a generous bound on a draining run.
  const std::size_t cap =
      1000 + (cfg.records / std::max<std::size_t>(1, cfg.batch) + 1) * 200;
  std::size_t iterations = 0;
  std::size_t next = 0;

  auto pump_once = [&]() -> Status {
    if (cfg.kill_p > 0.0 && kill_rng.Bernoulli(cfg.kill_p)) {
      // Mid-run leader kill: the job is between checkpoints, the producer
      // between chunks — the successor must serve both without loss.
      const auto p = static_cast<stream::PartitionId>(kill_rng.NextBelow(cfg.partitions));
      (void)broker.CrashLeader("failover", p, cfg.kill_restore_ops);
    }
    auto n = job.Pump(cfg.batch);
    if (!n.ok()) return n.status();
    if (*n == 0 && !job.crashed() && job.Lag() > 0) {
      auto s = job.Checkpoint();
      if (!s.ok() && s.code() != StatusCode::kUnavailable) return s;
    }
    return Status::Ok();
  };

  while (next < events.size()) {
    const std::size_t until = std::min(events.size(), next + chunk);
    for (; next < until; ++next) {
      const auto& e = events[next];
      ++report.offered;
      auto r = producer.Send(stream::Record::Make(e.key, e.Encode(), e.event_time));
      if (r.ok()) {
        ++report.acked;
        acked_ids.push_back(e.event_time.nanos());
      } else if (r.status().code() == StatusCode::kUnavailable) {
        ++report.denied;
      } else {
        return r.status();
      }
      clock.Advance(Duration::Millis(1));
    }
    if (++iterations > cap) {
      report.wedged = true;
      break;
    }
    auto s = pump_once();
    if (!s.ok()) return s;
  }

  // Drain: everything committed to the log must flow through the job.
  while (!report.wedged && (job.Lag() > 0 || job.crashed())) {
    if (++iterations > cap) {
      report.wedged = true;
      break;
    }
    auto s = pump_once();
    if (!s.ok()) return s;
  }
  auto fin = job.Finish();
  if (!fin.ok()) return fin;

  // --- audits ---------------------------------------------------------
  auto topic = broker.GetTopic("failover");
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
    auto& rp = (*topic)->replication(p);
    const auto stats = rp.stats();
    report.replication.failovers += stats.failovers;
    report.replication.node_crashes += stats.node_crashes;
    report.replication.node_restores += stats.node_restores;
    report.replication.truncated_entries += stats.truncated_entries;
    report.replication.fenced_appends += stats.fenced_appends;
    report.replication.dedup_hits += stats.dedup_hits;
    report.replication.unavailable_rejects += stats.unavailable_rejects;
    report.hw_histories.push_back(rp.hw_history());
  }
  for (const std::int64_t id : acked_ids) {
    auto it = copies.find(id);
    if (it == copies.end()) ++report.committed_loss;
  }
  for (const auto& [id, n] : copies) {
    if (n > 1) report.log_duplicates += n - 1;
  }
  for (const auto& [id, n] : delivered) {
    report.outputs_delivered += n;
    if (n > 1) report.output_duplicates += n - 1;
  }

  report.producer_retries = producer.retries();
  report.availability = report.offered == 0
                            ? 1.0
                            : static_cast<double>(report.acked) /
                                  static_cast<double>(report.offered);
  report.committed_digest = stream::CommittedTopicDigest(**topic);
  report.job = job.stats();
  report.fault_log = injector.events();
  return report;
}

}  // namespace arbd::scenarios
