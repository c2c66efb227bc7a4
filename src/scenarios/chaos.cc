#include "scenarios/chaos.h"

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "fault/injector.h"
#include "stream/log.h"

namespace arbd::scenarios {
namespace {

// Out-of-orderness slack far beyond any soak's event-time span: windows
// only fire at the final Flush, which makes the committed-results table
// independent of how partition polling interleaves across crash/replay
// schedules (per-key order is already fixed by key-hash partitioning).
constexpr double kSoakLatenessSlackS = 1e6;

std::vector<stream::Event> MakeWorkload(const ChaosConfig& cfg) {
  Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<stream::Event> events;
  events.reserve(cfg.records);
  TimePoint t;
  if (cfg.workload == ChaosWorkload::kRetail) {
    // §3.1 purchase stream: Zipf-skewed product popularity.
    ZipfGenerator zipf(80, 1.1);
    for (std::size_t i = 0; i < cfg.records; ++i) {
      t += Duration::Millis(static_cast<std::int64_t>(5 + rng.NextBelow(10)));
      stream::Event e;
      e.key = "sku" + std::to_string(zipf.Next(rng));
      e.attribute = "purchase";
      e.value = rng.Uniform(1.0, 50.0);
      e.event_time = t;
      events.push_back(std::move(e));
    }
  } else {
    // §3.4 IoT detection stream: uniform grid cells, binary detections.
    constexpr int kGrid = 12;
    for (std::size_t i = 0; i < cfg.records; ++i) {
      t += Duration::Millis(static_cast<std::int64_t>(5 + rng.NextBelow(10)));
      stream::Event e;
      const auto cell = rng.NextBelow(kGrid * kGrid);
      e.key = "c" + std::to_string(cell / kGrid) + "_" + std::to_string(cell % kGrid);
      e.attribute = "detect";
      e.value = rng.Bernoulli(0.3) ? 1.0 : 0.0;
      e.event_time = t;
      events.push_back(std::move(e));
    }
  }
  return events;
}

stream::PipelineFactory MakeFactory(ChaosResultTable* table) {
  return [table]() {
    auto p = std::make_unique<stream::Pipeline>(
        Duration::Seconds(kSoakLatenessSlackS));
    p->WindowAggregate(stream::WindowSpec::Tumbling(Duration::Seconds(1)),
                       stream::AggKind::kSum)
        .Sink([table](const stream::WindowResult& r) {
          (*table)[r.key + "|" + std::to_string(r.window_start.millis())] = {
              r.value, r.count};
        });
    return p;
  };
}

}  // namespace

Expected<ChaosReport> RunChaosSoak(const ChaosConfig& cfg) {
  auto plan = fault::FaultPlan::Parse(cfg.fault_spec);
  if (!plan.ok()) return plan.status();

  ChaosReport report;
  fault::FaultInjector injector(*plan, cfg.seed, &report.metrics);

  SimClock clock;
  stream::Broker broker(clock);
  auto created = broker.CreateTopic("chaos", {.partitions = cfg.partitions});
  if (!created.ok()) return created;

  // Produce the whole workload up front (producer-path chaos is exercised
  // separately by RunProducerChaos; this soak stresses the consume side).
  for (const auto& e : MakeWorkload(cfg)) {
    auto r = broker.Produce("chaos", stream::Record::Make(e.key, e.Encode(), e.event_time));
    if (!r.ok()) return r.status();
    clock.Advance(Duration::Millis(1));
  }

  stream::CheckpointedJob job(broker, "chaos", "chaos-job",
                              MakeFactory(&report.results), cfg.checkpoint_every);
  broker.set_fault_injector(&injector);
  job.set_fault_injector(&injector);

  // Pump-iteration cap (wedge guard): a generous bound on a draining run.
  const std::size_t cap =
      1000 + (cfg.records / std::max<std::size_t>(1, cfg.batch) + 1) * 200;
  std::size_t iterations = 0;
  while (true) {
    if (++iterations > cap) {
      report.wedged = true;
      break;
    }
    auto n = job.Pump(cfg.batch);
    if (!n.ok()) return n.status();
    if (job.Lag() == 0 && !job.crashed()) break;
    if (*n == 0 && !job.crashed()) {
      // Nothing polled but records remain uncommitted: either an injected
      // fetch-error blip (retry the poll) or an uncommitted tail / torn
      // checkpoint write (retry the commit). Both resolve by looping.
      auto s = job.Checkpoint();
      if (!s.ok() && s.code() != StatusCode::kUnavailable) return s;
    }
  }

  // A crash on the very last record leaves a committed-but-crashed job;
  // recover so the pipeline can flush its final windows.
  if (job.crashed()) {
    auto s = job.Recover();
    if (!s.ok()) return s;
  }
  job.pipeline()->Flush();

  report.stats = job.stats();
  report.fault_events = injector.total_injected();
  report.fault_opportunities = injector.opportunities();
  report.fault_log = injector.events();
  const std::uint64_t unique =
      report.stats.records_processed - report.stats.records_replayed;
  report.goodput = report.stats.records_processed == 0
                       ? 0.0
                       : static_cast<double>(unique) /
                             static_cast<double>(report.stats.records_processed);
  return report;
}

Expected<ProducerChaosReport> RunProducerChaos(std::size_t records,
                                               const std::string& fault_spec,
                                               std::uint64_t seed) {
  auto plan = fault::FaultPlan::Parse(fault_spec);
  if (!plan.ok()) return plan.status();

  fault::FaultInjector injector(*plan, seed);
  SimClock clock;
  stream::Broker broker(clock);
  auto created = broker.CreateTopic("produce", {.partitions = 2});
  if (!created.ok()) return created;
  broker.set_fault_injector(&injector);

  ProducerChaosReport report;
  constexpr std::size_t kMaxSendAttempts = 16;
  for (std::size_t i = 0; i < records; ++i) {
    const std::string key = "r" + std::to_string(i);
    for (std::size_t attempt = 0; attempt < kMaxSendAttempts; ++attempt) {
      ++report.attempts;
      auto r = broker.Produce("produce",
                              stream::Record::MakeText(key, "payload", TimePoint{}));
      if (r.ok()) break;
      if (r.status().code() != StatusCode::kUnavailable) return r.status();
      ++report.retries;
    }
  }

  // Audit the log: every key must have landed at least once; extra copies
  // are the torn-append duplicates.
  auto topic = broker.GetTopic("produce");
  if (!topic.ok()) return topic.status();
  std::map<std::string, std::uint64_t> copies;
  std::uint64_t appended = 0;
  for (stream::PartitionId p = 0; p < (*topic)->partition_count(); ++p) {
    const auto& part = (*topic)->partition(p);
    auto fetched = part.Fetch(part.log_start_offset(), part.size());
    if (!fetched.ok()) return fetched.status();
    for (const auto& sr : *fetched) {
      ++copies[sr.record.key];
      ++appended;
    }
  }
  for (std::size_t i = 0; i < records; ++i) {
    if (!copies.contains("r" + std::to_string(i))) ++report.lost;
  }
  report.duplicates = appended - (records - report.lost);
  return report;
}

}  // namespace arbd::scenarios
