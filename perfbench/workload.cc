// Workload definitions and input generation. Everything here runs before
// timing starts; the episode loop only reads the Inputs it returns.
#include <algorithm>
#include <cstring>

#include "bench.h"
#include "common/rng.h"
#include "sensors/rig.h"

namespace perfbench {

using arbd::Duration;
using arbd::TimePoint;

namespace {

constexpr std::size_t kDevices = 256;
constexpr double kPoiShare = 0.7;  // of events; the rest are device-keyed
constexpr double kZipfSkew = 1.1;

// Start of the live ticks on the event-time axis: one second after the
// history, which also keeps jittered event times positive.
TimePoint LiveStart(const WorkloadSpec& spec, Duration step) {
  return TimePoint{} + step * static_cast<double>(spec.history_events) + Duration::Seconds(1);
}

struct EventSource {
  explicit EventSource(std::uint64_t seed, const arbd::geo::CityModel& city)
      : rng(seed), zipf(city.poi_count(), kZipfSkew) {
    for (const auto* poi : city.pois().All()) pois.push_back(poi->name);
    // Which places are popular is part of the seed.
    for (std::size_t i = pois.size(); i > 1; --i) {
      std::swap(pois[i - 1], pois[rng.NextBelow(i)]);
    }
  }

  arbd::stream::Event Next(TimePoint t) {
    arbd::stream::Event e;
    if (rng.Bernoulli(kPoiShare)) {
      e.key = pois[zipf.Next(rng)];
    } else {
      e.key = "dev-" + std::to_string(rng.NextBelow(kDevices));
    }
    const double a = rng.NextDouble();
    if (a < 0.5) {
      e.attribute = "visits";
      e.value = 1.0;
    } else if (a < 0.8) {
      e.attribute = "dwell_s";
      e.value = rng.Exponential(1.0 / 40.0);
    } else {
      e.attribute = "spend";
      e.value = rng.Uniform(5.0, 120.0);
    }
    e.event_time = t;
    return e;
  }

  arbd::Rng rng;
  arbd::ZipfGenerator zipf;
  std::vector<std::string> pois;
};

UserTrace MakeUserTrace(const WorkloadSpec& spec, std::size_t u, std::uint64_t seed) {
  UserTrace trace;
  trace.id = "user-" + std::to_string(u);
  arbd::sensors::RigConfig cfg;
  cfg.device_id = trace.id;
  cfg.trajectory.kind = arbd::sensors::MotionKind::kRandomWalk;
  cfg.trajectory.bounds_half_extent_m = 300.0;
  cfg.trajectory.heading_drift_deg_per_s = 360.0;  // users look around
  arbd::sensors::SensorRig rig(cfg, seed);
  // Users start near the centre facing evenly spread directions, so what
  // they see together does not hinge on one seed's headings.
  arbd::Rng start(seed ^ 0x57a27ULL);
  const double heading = 360.0 * static_cast<double>(u) / static_cast<double>(spec.users);
  rig.trajectory().set_start(start.Uniform(-60.0, 60.0), start.Uniform(-60.0, 60.0),
                             heading + start.Uniform(-20.0, 20.0));
  arbd::sensors::RigCallbacks cbs;
  cbs.on_imu = [&](const arbd::sensors::ImuSample& s) {
    trace.samples.push_back(SensorSample{false, s, {}});
  };
  cbs.on_gps = [&](const arbd::sensors::GpsFix& f) {
    trace.samples.push_back(SensorSample{true, {}, f});
  };
  rig.RunUntil(SensorTime(spec, spec.ticks, 0) + Duration::Seconds(1), cbs);
  return trace;
}

std::vector<arbd::ar::content::Annotation> MakeAnnotations(const WorkloadSpec& spec,
                                                            const arbd::geo::CityModel& city,
                                                            std::uint64_t seed) {
  using arbd::ar::content::SemanticType;
  static constexpr SemanticType kTypes[] = {
      SemanticType::kPlaceInfo, SemanticType::kRecommendation, SemanticType::kSocial,
      SemanticType::kXRayHint,  SemanticType::kDiagnostic,     SemanticType::kNavigation};
  arbd::Rng rng(seed ^ 0xa770ULL);
  std::vector<arbd::ar::content::Annotation> out;
  out.reserve(spec.injected_annotations);
  for (std::size_t i = 0; i < spec.injected_annotations; ++i) {
    arbd::ar::content::Annotation a;
    a.type = kTypes[rng.NextBelow(std::size(kTypes))];
    const arbd::geo::Enu at{rng.Uniform(-360.0, 360.0), rng.Uniform(-360.0, 360.0)};
    a.anchor.geo_pos = city.frame().FromEnu(at);
    a.anchor.height_m = rng.Uniform(2.0, 30.0);
    a.title = "note-" + std::to_string(i);
    a.body = "seeded content";
    a.priority = rng.NextDouble();
    a.ttl = Duration::Seconds(3600);
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace

bool MakeSpec(const std::string& name, WorkloadSpec& out) {
  WorkloadSpec s;
  s.name = name;
  if (name == "ingest") {
    // Single-threaded data path: one worker, one copy, one broker, flat
    // log, a steady stream drained every tick, one frame per tick. The
    // preloaded history (longer than the rules' TTL) brings the annotation
    // store to its steady size before timing starts.
    s.workers = 1;
    s.users = 8;
    s.history_events = 32'000;
    s.ticks = 1000;
    s.events_per_tick = 64;
    s.tick_sim = Duration::Micros(12'500);
    s.max_jitter = Duration::Millis(150);
    s.target_layers = {kCorePublish, kCoreProcessPending};
  } else if (name == "frames") {
    // AR read path: 30 fps open loop per user over ~10k live annotations,
    // with an event trickle far below the ingest rate. One worker: at four,
    // every ParallelFor waits on thread wake-ups, and on a shared VM those
    // follow the host's scheduling more than the program (README.md).
    s.workers = 1;
    s.open_loop = true;
    s.users = 5;
    s.ticks = 40;
    s.events_per_tick = 6;
    s.tick_sim = Duration::Micros(33'333);
    s.max_jitter = Duration::Millis(150);
    s.injected_annotations = 10'000;
    s.target_layers = {kCoreComposeFrame, kCoreContext};
  } else if (name == "replay") {
    // Reads beside writes: replicated, clustered, segmented log with
    // history preloaded; every tick publishes with queries over the history
    // and the live tail between the publishes, drains and composes one
    // frame. One worker, so the log layer's cost is not hidden behind
    // executor fan-out (see README.md).
    s.workers = 1;
    s.replication = 3;
    s.brokers = 4;
    s.segment_bytes = 64 * 1024;
    s.users = 8;
    s.ticks = 250;
    s.events_per_tick = 200;
    s.tick_sim = Duration::Millis(50);
    s.queries_per_tick = 7;
    s.query_window = Duration::Seconds(2);
    s.history_events = 24'000;
    s.target_layers = {kStreamQuery};
  } else {
    return false;
  }
  out = s;
  return true;
}

arbd::geo::CityModel MakeCity() {
  return arbd::geo::CityModel::Generate(arbd::geo::CityConfig{}, /*seed=*/1);
}

TimePoint SensorTime(const WorkloadSpec& spec, std::size_t tick, std::size_t user) {
  if (!spec.open_loop) return TimePoint{} + spec.tick_sim * static_cast<double>(tick + 1);
  // Open-loop users are due staggered evenly across the frame period.
  return TimePoint{} + spec.tick_sim * static_cast<double>(tick) +
         spec.tick_sim * static_cast<double>(user) / static_cast<std::int64_t>(spec.users);
}

Inputs GenerateInputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  const arbd::geo::CityModel city = MakeCity();
  EventSource source(seed * 0x9e3779b97f4a7c15ULL + 1, city);
  arbd::Rng jitter(seed ^ 0x1177e2ULL);

  const Duration step = spec.events_per_tick == 0
                            ? Duration::Zero()
                            : spec.tick_sim / static_cast<std::int64_t>(spec.events_per_tick);
  for (std::size_t i = 0; i < spec.history_events; ++i) {
    in.history.push_back(source.Next(TimePoint{} + step * static_cast<std::int64_t>(i)));
  }
  const TimePoint live_start = LiveStart(spec, step);
  for (std::size_t t = 0; t < spec.ticks; ++t) {
    const TimePoint tick_start = live_start + spec.tick_sim * static_cast<std::int64_t>(t);
    in.tick_time.push_back(tick_start + spec.tick_sim);
    for (std::size_t k = 0; k < spec.events_per_tick; ++k) {
      TimePoint at = tick_start + step * static_cast<std::int64_t>(k);
      if (spec.max_jitter > Duration::Zero()) {
        at = at - Duration::Nanos(jitter.UniformInt(0, spec.max_jitter.nanos() - 1));
      }
      in.live.push_back(source.Next(at));
    }
  }

  // Encoding and partition of every event, the latter by the topic's own
  // key partitioner.
  arbd::stream::TopicConfig tc;
  tc.partitions = kPartitions;
  tc.replication_factor = 1;
  arbd::stream::Topic probe("probe", tc);
  for (std::size_t i = 0; i < in.history.size() + in.live.size(); ++i) {
    in.encoded.push_back(EventAt(in, i).Encode());
    in.by_partition[probe.PartitionFor(EventAt(in, i).key)].push_back(i);
  }

  // Queries: half replay a window of the preloaded history, half the most
  // recent window, which reaches into the live tail being written.
  arbd::Rng qrng(seed ^ 0x0e77ULL);
  const TimePoint history_end = TimePoint{} + step * static_cast<std::int64_t>(in.history.size());
  for (std::size_t t = 0; t < spec.ticks && spec.queries_per_tick > 0; ++t) {
    for (std::size_t j = 0; j < spec.queries_per_tick; ++j) {
      QueryInput q;
      q.after_event = t * spec.events_per_tick +
                      (j + 1) * spec.events_per_tick / (spec.queries_per_tick + 1);
      q.partition = static_cast<arbd::stream::PartitionId>(qrng.NextBelow(kPartitions));
      if (qrng.Bernoulli(0.5) && history_end - spec.query_window > TimePoint{}) {
        const std::int64_t span = (history_end - spec.query_window).nanos();
        q.t_lo = TimePoint::FromNanos(qrng.UniformInt(0, span));
      } else {
        q.t_lo = EventAt(in, in.history.size() + q.after_event - 1).event_time +
                 Duration::Nanos(1) - spec.query_window;
      }
      q.t_hi = q.t_lo + spec.query_window;
      // Event times increase with publish order when there is no jitter,
      // so the answer is a contiguous run of the partition's list, cut at
      // what has been published when the query runs.
      const auto& list = in.by_partition[q.partition];
      auto time_at = [&](std::size_t idx) { return EventAt(in, idx).event_time; };
      q.first = static_cast<std::size_t>(
          std::partition_point(list.begin(), list.end(),
                               [&](std::size_t idx) { return time_at(idx) < q.t_lo; }) -
          list.begin());
      q.last = static_cast<std::size_t>(
          std::partition_point(list.begin(), list.end(),
                               [&](std::size_t idx) { return time_at(idx) < q.t_hi; }) -
          list.begin());
      const std::size_t published = in.history.size() + q.after_event;
      const std::size_t cut = static_cast<std::size_t>(
          std::lower_bound(list.begin(), list.end(), published) - list.begin());
      q.last = std::max(q.first, std::min(q.last, cut));
      in.queries.push_back(q);
    }
  }

  for (std::size_t u = 0; u < spec.users; ++u) {
    in.users.push_back(MakeUserTrace(spec, u, seed * 31 + u + 1));
  }
  in.annotations = MakeAnnotations(spec, city, seed);
  return in;
}

const arbd::stream::Event& EventAt(const Inputs& in, std::size_t index) {
  return index < in.history.size() ? in.history[index] : in.live[index - in.history.size()];
}

std::vector<arbd::core::AggregationSpec> Jobs() {
  std::vector<arbd::core::AggregationSpec> jobs(3);
  jobs[0].attribute = "visits";
  jobs[0].window = arbd::stream::WindowSpec::Tumbling(Duration::Seconds(1));
  jobs[0].agg = arbd::stream::AggKind::kCount;
  jobs[1].attribute = "dwell_s";
  jobs[1].window = arbd::stream::WindowSpec::Tumbling(Duration::Seconds(2));
  jobs[1].agg = arbd::stream::AggKind::kMean;
  jobs[2].attribute = "spend";
  jobs[2].window = arbd::stream::WindowSpec::Tumbling(Duration::Millis(1500));
  jobs[2].agg = arbd::stream::AggKind::kSum;
  return jobs;
}

std::vector<arbd::core::InterpretationRule> Rules() {
  using arbd::ar::content::SemanticType;
  std::vector<arbd::core::InterpretationRule> rules(3);
  for (auto& rule : rules) rule.ttl = Duration::Seconds(5);
  rules[0].name = "trending";
  rules[0].attribute = "visits";
  rules[0].high = 20.0;
  rules[0].type = SemanticType::kRecommendation;
  rules[0].priority = 0.9;
  rules[0].title_template = "Trending: {key}";
  rules[0].body_template = "{value} visits in 1 s";
  rules[1].name = "lingering";
  rules[1].attribute = "dwell_s";
  rules[1].high = 60.0;
  rules[1].type = SemanticType::kPlaceInfo;
  rules[1].priority = 0.6;
  rules[1].title_template = "People linger at {key}";
  rules[1].body_template = "mean dwell {value} s";
  rules[2].name = "big-spend";
  rules[2].attribute = "spend";
  rules[2].high = 400.0;
  rules[2].type = SemanticType::kRecommendation;
  rules[2].priority = 0.7;
  rules[2].title_template = "Busy tills at {key}";
  rules[2].body_template = "{value} spent in 1.5 s";
  return rules;
}

void Digest::Add(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

void AddFrame(Digest& d, const arbd::core::FrameResult& frame) {
  d.Add(frame.live_annotations);
  d.Add(frame.expired);
  d.Add(frame.in_view);
  d.Add(frame.occluded);
  d.Add(frame.layout.candidates);
  d.Add(frame.layout.placed);
  for (const auto& label : frame.layout.labels) {
    d.Add(label.annotation != nullptr ? label.annotation->id : 0);
    d.Add(static_cast<std::uint64_t>(std::llround(label.x * 16.0)));
    d.Add(static_cast<std::uint64_t>(std::llround(label.y * 16.0)));
    d.Add(static_cast<std::uint64_t>(label.xray));
  }
}

void AddEndState(Digest& d, const std::vector<const arbd::stream::Pipeline*>& pipelines,
                 std::uint64_t results_interpreted, std::size_t annotations,
                 const arbd::core::InterpretationStats& stats, arbd::stream::Broker& broker) {
  for (const auto* p : pipelines) {
    const arbd::Bytes cp = p->Checkpoint();
    d.Add(cp.data(), cp.size());
    d.Add(p->events_in());
    d.Add(p->results_out());
  }
  d.Add(results_interpreted);
  d.Add(annotations);
  d.Add(stats.inputs);
  d.Add(stats.emitted);
  d.Add(stats.suppressed_no_anchor);
  auto topic = broker.GetTopic(kEventTopic);
  if (topic.ok()) {
    for (std::uint32_t p = 0; p < (*topic)->partition_count(); ++p) {
      d.Add(static_cast<std::uint64_t>((*topic)->partition(p).end_offset()));
    }
  }
}

std::string CheckQuery(const Inputs& in, const QueryInput& q,
                       const std::vector<arbd::stream::StoredRecord>& rows) {
  const auto& list = in.by_partition[q.partition];
  if (rows.size() != q.last - q.first) {
    return "query p" + std::to_string(q.partition) + " returned " +
           std::to_string(rows.size()) + " rows, expected " +
           std::to_string(q.last - q.first);
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t index = list[q.first + i];
    const arbd::stream::Event& want = EventAt(in, index);
    const auto& rec = rows[i].record;
    if (rec.key != want.key || rec.event_time != want.event_time ||
        rec.payload != in.encoded[index]) {
      return "query p" + std::to_string(q.partition) + " row " + std::to_string(i) +
             " differs from the published event";
    }
  }
  return {};
}

const char* LayerName(std::uint32_t layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "tick",          "core.publish",    "core.process_pending", "core.compose_frame",
      "core.context",  "stream.query",    "stream.encode",        "stream.produce",
      "stream.poll",   "stream.decode",   "stream.dataflow",      "core.interpret",
      "ar.store",      "ar.classify",     "ar.layout"};
  return layer < kLayerCount ? kNames[layer] : "?";
}

}  // namespace perfbench
