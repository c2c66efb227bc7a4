#include "scenarios/overload.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "stream/log.h"

namespace arbd::scenarios {
namespace {

using qos::PriorityClass;

constexpr const char* kClassTopics[qos::kPriorityClasses] = {
    "ovl.frame", "ovl.interactive", "ovl.background"};
constexpr const char* kSharedTopic = "ovl.all";
constexpr char kClassKeys[qos::kPriorityClasses] = {'f', 'i', 'b'};

PriorityClass ClassOfKey(const std::string& key) {
  for (int c = 0; c < qos::kPriorityClasses; ++c) {
    if (!key.empty() && key[0] == kClassKeys[c]) return static_cast<PriorityClass>(c);
  }
  return PriorityClass::kBackground;
}

double HistMs(const Histogram& h, double q) {
  return static_cast<double>(h.Quantile(q)) / 1e6;
}

// One queue the engine serves: a broker topic plus the service cursor.
struct ServedTopic {
  std::string name;
  stream::Offset next = 0;
};

}  // namespace

static Expected<OverloadReport> RunPhases(const OverloadConfig& cfg,
                                          const std::vector<OverloadPhase>& phases,
                                          OverloadSpikeReport* spike_out) {
  auto plan = fault::FaultPlan::Parse(cfg.fault_spec);
  if (!plan.ok()) return plan.status();
  if (cfg.capacity_per_s <= 0.0) {
    return Status::InvalidArgument("capacity_per_s must be positive");
  }
  if (cfg.tick <= Duration::Zero()) {
    return Status::InvalidArgument("tick must be positive");
  }

  OverloadReport report;
  SimClock clock;
  fault::FaultInjector injector(*plan, cfg.seed, &report.metrics);
  stream::Broker broker(clock);
  broker.set_metrics(&report.metrics);
  broker.set_fault_injector(&injector);

  // Workload stream and fault schedule draw from distinct seeded streams
  // so adding a fault rule never reshapes the arrival process.
  Rng arrivals_rng(cfg.seed ^ 0x0ff10adULL);

  std::vector<ServedTopic> queues;
  if (cfg.qos) {
    for (const char* name : kClassTopics) {
      stream::TopicConfig tc;
      tc.partitions = 1;
      tc.max_records = cfg.class_budget_records;
      const Status s = broker.CreateTopic(name, tc);
      if (!s.ok()) return s;
      queues.push_back({name, 0});
    }
  } else {
    stream::TopicConfig tc;
    tc.partitions = 1;
    const Status s = broker.CreateTopic(kSharedTopic, tc);
    if (!s.ok()) return s;
    queues.push_back({kSharedTopic, 0});
  }

  qos::AdmissionController admission(cfg.admission, &report.metrics);
  qos::DegradationLadder ladder(cfg.ladder, &report.metrics);

  std::array<double, qos::kPriorityClasses> mix = cfg.mix;
  double mix_sum = 0.0;
  for (double m : mix) mix_sum += std::max(0.0, m);
  if (mix_sum <= 0.0) return Status::InvalidArgument("mix must have positive mass");
  for (double& m : mix) m = std::max(0.0, m) / mix_sum;

  const double tick_s = cfg.tick.seconds();
  std::array<Histogram, qos::kPriorityClasses> class_lat;
  Histogram aggregate_lat;
  std::vector<Histogram> phase_lat(phases.size());
  std::vector<std::uint64_t> phase_offered(phases.size(), 0);
  std::vector<std::uint64_t> phase_processed(phases.size(), 0);

  TimePoint server_vt = clock.Now();
  Duration stall_remaining = Duration::Zero();
  std::uint64_t processed_loaded = 0;
  std::size_t loaded_ticks_total = 0;
  for (const auto& ph : phases) {
    loaded_ticks_total +=
        static_cast<std::size_t>(std::llround(ph.duration.seconds() / tick_s));
  }

  // `phase` < phases.size() while offered load is on; == size during drain.
  std::size_t phase = 0;
  std::size_t phase_ticks_left =
      phases.empty()
          ? 0
          : static_cast<std::size_t>(std::llround(phases[0].duration.seconds() / tick_s));
  std::size_t drain_ticks = 0;
  // Drain-phase tick cap (wedge guard): a generous bound past the load.
  const std::size_t max_drain = std::max<std::size_t>(10'000, 16 * loaded_ticks_total);

  auto queued_records = [&]() {
    std::size_t n = 0;
    for (const auto& q : queues) {
      auto t = broker.GetTopic(q.name);
      n += (*t)->TotalRecords();
    }
    return n;
  };

  // Continuous-time single server: each record's completion time is the
  // server's virtual time plus its service cost, so latencies are not
  // quantized to ticks (the tick only batches arrivals and bookkeeping).
  auto serve_tick = [&]() {
    const TimePoint tick_end = clock.Now();
    const TimePoint tick_start = tick_end - cfg.tick;
    if (server_vt < tick_start) server_vt = tick_start;  // non-idling server
    // Stall faults freeze the server for the fault's duration.
    if (stall_remaining > Duration::Zero()) {
      stall_remaining = stall_remaining - cfg.tick;
      server_vt = std::max(server_vt, tick_end);
      return;
    }
    const Duration stall =
        injector.FireDuration(fault::FaultKind::kStall, fault::InjectionPoint::kServiceTick);
    if (stall > Duration::Zero()) {
      stall_remaining = stall - cfg.tick;  // this tick is already lost
      server_vt = std::max(server_vt, tick_end);
      return;
    }
    Duration tick_worst = Duration::Zero();
    bool served_any = false;
    while (server_vt < tick_end) {
      // Degradation cheapens service: a level-k record costs its
      // cost_multiplier fraction of the level-0 budget.
      const Duration cost = Duration::Seconds(
          (cfg.qos ? ladder.profile().cost_multiplier : 1.0) / cfg.capacity_per_s);
      // Strict priority: the frame queue drains before interactive before
      // background (a single shared topic is just a 1-entry scan).
      bool found = false;
      for (auto& q : queues) {
        auto topic = broker.GetTopic(q.name);
        if (q.next >= (*topic)->partition(0).end_offset()) continue;
        auto fetched = broker.Fetch(q.name, 0, q.next, 1);
        if (!fetched.ok() || fetched->empty()) {
          // Injected fetch error: retry the same record next tick.
          if (served_any && cfg.qos) ladder.Observe(tick_worst);
          return;
        }
        found = true;
        const stream::StoredRecord& sr = fetched->front();
        server_vt = server_vt + cost;
        const Duration latency = server_vt - sr.record.ingest_time;
        tick_worst = std::max(tick_worst, latency);
        served_any = true;
        const PriorityClass cls =
            cfg.qos ? ClassOfKey(q.name.substr(4)) : ClassOfKey(sr.record.key);
        class_lat[static_cast<int>(cls)].RecordDuration(latency);
        aggregate_lat.RecordDuration(latency);
        if (latency > cfg.ladder.slo) ++report.slo_violations;
        if (phase < phases.size()) {
          if (!cfg.qos || cls == PriorityClass::kFrameCritical) {
            phase_lat[phase].RecordDuration(latency);
          }
          ++phase_processed[phase];
          ++processed_loaded;
        }
        ++report.classes[static_cast<int>(cls)].processed;
        ++report.processed;
        ++q.next;
        // Return the budget to producers (the credit half of backpressure).
        (void)broker.TruncateBefore(q.name, 0, q.next);
        break;
      }
      if (!found) {
        server_vt = tick_end;
        break;
      }
    }
    // The ladder watches per-tick worst service latency: "sustained" SLO
    // violation means consecutive ticks over budget, and one fast frame
    // record cannot mask a drowning background queue.
    if (served_any && cfg.qos) ladder.Observe(tick_worst);
  };

  auto arrive_tick = [&](double load) {
    for (int c = 0; c < qos::kPriorityClasses; ++c) {
      const double mean = load * cfg.capacity_per_s * tick_s * mix[c];
      const std::int64_t n = arrivals_rng.Poisson(mean);
      auto& cs = report.classes[c];
      for (std::int64_t i = 0; i < n; ++i) {
        ++cs.offered;
        ++report.offered;
        if (phase < phases.size()) ++phase_offered[phase];
        const auto cls = static_cast<PriorityClass>(c);
        if (cfg.qos) {
          admission.UpdatePressure(cls, broker.Pressure(kClassTopics[c]));
          if (!admission.Admit(cls)) {
            ++cs.shed;
            if (cls == PriorityClass::kFrameCritical) ladder.ObserveShed();
            continue;
          }
        }
        const std::string& topic = cfg.qos ? kClassTopics[c] : kSharedTopic;
        auto produced = broker.Produce(
            topic, stream::Record::MakeText(std::string(1, kClassKeys[c]), "r",
                                            clock.Now()));
        if (!produced.ok()) {
          if (produced.status().code() == StatusCode::kResourceExhausted) {
            ++cs.rejected;
          } else {
            ++cs.shed;  // injected append error: counted as shed work
          }
          continue;
        }
        ++cs.admitted;
        ++report.admitted;
      }
    }
  };

  while (true) {
    const bool loaded = phase < phases.size();
    if (!loaded) {
      if (queued_records() == 0) break;
      if (++drain_ticks > max_drain) {
        report.wedged = true;
        break;
      }
    }
    clock.Advance(cfg.tick);
    serve_tick();
    if (loaded) arrive_tick(phases[phase].load);

    // Per-tick bookkeeping: depth watermarks and budget assertions.
    std::size_t depth = 0;
    for (const auto& q : queues) {
      auto t = broker.GetTopic(q.name);
      const std::size_t d = (*t)->TotalRecords();
      depth += d;
      if (cfg.qos && d > cfg.class_budget_records) ++report.budget_violations;
    }
    report.max_queue_depth = std::max(report.max_queue_depth, depth);
    report.max_degradation_level = std::max(report.max_degradation_level, ladder.level());

    if (loaded && --phase_ticks_left == 0) {
      ++phase;
      if (phase < phases.size()) {
        phase_ticks_left = static_cast<std::size_t>(
            std::llround(phases[phase].duration.seconds() / tick_s));
      }
    }
  }

  report.lost = report.admitted - report.processed;
  const double loaded_s = static_cast<double>(loaded_ticks_total) * tick_s;
  report.goodput_per_s =
      loaded_s > 0.0 ? static_cast<double>(processed_loaded) / loaded_s : 0.0;
  report.aggregate_p50_ms = HistMs(aggregate_lat, 0.50);
  report.aggregate_p99_ms = HistMs(aggregate_lat, 0.99);
  for (int c = 0; c < qos::kPriorityClasses; ++c) {
    auto& cs = report.classes[c];
    cs.p50_ms = HistMs(class_lat[c], 0.50);
    cs.p99_ms = HistMs(class_lat[c], 0.99);
    cs.max_ms = static_cast<double>(class_lat[c].max()) / 1e6;
  }
  report.backpressure_rejects = broker.backpressure_rejects();
  report.priority_inversions = admission.priority_inversions();
  report.step_downs = ladder.step_downs();
  report.step_ups = ladder.step_ups();
  report.fault_events = injector.total_injected();
  report.fault_log = injector.events();

  if (spike_out != nullptr) {
    spike_out->phases.clear();
    for (std::size_t i = 0; i < phases.size(); ++i) {
      OverloadPhaseStats ps;
      ps.load = phases[i].load;
      ps.offered = phase_offered[i];
      ps.processed = phase_processed[i];
      ps.goodput_per_s = phases[i].duration.seconds() > 0.0
                             ? static_cast<double>(phase_processed[i]) /
                                   phases[i].duration.seconds()
                             : 0.0;
      ps.p99_ms = HistMs(phase_lat[i], 0.99);
      spike_out->phases.push_back(ps);
    }
  }
  return report;
}

Expected<OverloadReport> RunOverloadSoak(const OverloadConfig& cfg) {
  return RunPhases(cfg, {{cfg.load, cfg.duration}}, nullptr);
}

Expected<OverloadSpikeReport> RunOverloadSpike(const OverloadConfig& base,
                                               const std::vector<OverloadPhase>& phases) {
  OverloadSpikeReport spike;
  auto overall = RunPhases(base, phases, &spike);
  if (!overall.ok()) return overall.status();
  spike.overall = std::move(*overall);
  return spike;
}

}  // namespace arbd::scenarios
