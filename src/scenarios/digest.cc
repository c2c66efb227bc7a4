#include "scenarios/digest.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "core/platform.h"
#include "exec/executor.h"
#include "geo/city.h"
#include "scenarios/tourism.h"
#include "stream/parallel.h"
#include "trace/tracer.h"

namespace arbd::scenarios {

namespace {

constexpr char kDigestTopic[] = "ovl.digest";

void FoldTour(BinaryWriter& w, const TourMetrics& m) {
  w.WriteF64(m.distance_m);
  w.WriteU64(m.spots_visited);
  w.WriteU64(m.portals_captured);
  w.WriteU64(m.annotations_shown);
  w.WriteU64(m.geo_queries);
}

}  // namespace

std::uint64_t TourismDigest(std::uint64_t seed, const RuntimeConfig& rc) {
  SimClock clock;
  const geo::CityModel city = geo::CityModel::Generate(geo::CityConfig{}, 51);
  trace::Tracer tracer(trace::TracerConfig{
      .enabled = rc.trace, .ring_capacity = rc.trace_ring, .seed = rc.trace_seed});
  core::PlatformConfig pc;
  pc.tracer = &tracer;
  pc.exec.workers = rc.exec_workers;
  pc.replication_factor = rc.replicas;
  pc.cluster_brokers = rc.cluster_brokers;
  pc.segment_bytes = rc.segment_bytes;
  core::Platform platform(pc, city, clock);

  const geo::Poi* poi = city.pois().All().front();
  platform.SetEntityResolver([poi](const std::string&) {
    core::EntityContext ctx;
    ctx.has_position = true;
    ctx.pos = poi->pos;
    ctx.height_m = 2.0;
    return ctx;
  });
  core::AggregationSpec speed;
  speed.attribute = "speed";
  speed.window = stream::WindowSpec::Tumbling(Duration::Seconds(1));
  speed.agg = stream::AggKind::kMean;
  platform.AddAggregation(speed);
  core::AggregationSpec visits;
  visits.attribute = "visits";
  visits.window = stream::WindowSpec::Tumbling(Duration::Seconds(2));
  visits.agg = stream::AggKind::kCount;
  platform.AddAggregation(visits);
  core::InterpretationRule speed_rule;
  speed_rule.attribute = "speed";
  platform.AddRule(speed_rule);
  core::InterpretationRule visits_rule;
  visits_rule.attribute = "visits";
  platform.AddRule(visits_rule);

  // Seeded event streams published serially on the driver, then ingested
  // through the dataflow jobs.
  Rng rng(seed ^ 0x70c9a11ULL);
  constexpr int kEvents = 400;
  for (int i = 0; i < kEvents; ++i) {
    stream::Event e;
    e.key = (i % 3 == 0) ? poi->name : "tourist-" + std::to_string(i % 4);
    e.attribute = (i % 2 == 0) ? "speed" : "visits";
    e.value = 1.0 + rng.NextDouble() * 4.0;
    e.event_time = TimePoint::FromMillis(i * 25);
    (void)platform.Publish(e);
  }
  clock.Advance(Duration::Seconds(12));
  std::size_t processed = 0;
  for (;;) {
    const std::size_t n = platform.ProcessPending();
    processed += n;
    if (n == 0) break;
  }

  platform.AddUser("digest-user");
  const auto frame = platform.ComposeFrame("digest-user");

  // Independent per-tourist tour simulations fan out one shard each;
  // results land in tourist-indexed slots (canonical merge order).
  constexpr std::size_t kTourists = 4;
  std::vector<TourMetrics> tours(kTourists);
  exec::Executor& ex = platform.executor();
  for (std::size_t u = 0; u < kTourists; ++u) {
    ex.Submit(u, [&city, &tours, seed, u] {
      tours[u] = SimulateTour(city, TourismConfig{}, (u % 2) == 1,
                              Duration::Seconds(20), seed ^ (0xA0ULL + u));
    });
  }
  ex.Drain();

  BinaryWriter w;
  w.WriteU64(seed);
  w.WriteU64(processed);
  for (std::size_t j = 0; j < platform.job_count(); ++j) {
    w.WriteBytes(platform.job_pipeline(j).Checkpoint());
  }
  w.WriteU64(platform.results_interpreted());
  w.WriteU64(platform.annotations().size());
  w.WriteU64(platform.broker().total_produced());
  auto topic = platform.broker().GetTopic(pc.event_topic);
  if (topic.ok()) {
    for (stream::PartitionId p = 0; p < (*topic)->partition_count(); ++p) {
      w.WriteI64((*topic)->partition(p).log_start_offset());
      w.WriteI64((*topic)->partition(p).end_offset());
    }
  }
  if (frame.ok()) {
    w.WriteU64(frame->live_annotations);
    w.WriteU64(frame->in_view);
    w.WriteU64(frame->occluded);
    w.WriteU64(frame->expired);
  }
  for (const auto& t : tours) FoldTour(w, t);
  return Fnv1a(w.bytes());
}

std::uint64_t OverloadDigest(std::uint64_t seed, const RuntimeConfig& rc) {
  SimClock clock;
  stream::Broker broker(clock);
  exec::Executor ex(exec::ExecConfig{.workers = rc.exec_workers});

  stream::TopicConfig tc;
  tc.partitions = 8;
  tc.max_records = 256;
  tc.replication_factor = rc.replicas;
  tc.segment_bytes = rc.segment_bytes;
  (void)broker.CreateTopic(kDigestTopic, tc);

  Rng rng(seed ^ 0x0ff10adULL);
  BinaryWriter w;
  w.WriteU64(seed);

  std::uint64_t served = 0;
  std::uint64_t deferred = 0;
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    // Seeded keyed batch; sometimes bigger than the topic's headroom.
    const std::size_t want = 40 + static_cast<std::size_t>(rng.NextU64() % 120);
    std::vector<stream::Record> batch;
    batch.reserve(want);
    for (std::size_t i = 0; i < want; ++i) {
      const std::string key = "k" + std::to_string(rng.NextU64() % 64);
      Bytes payload(16 + (rng.NextU64() % 48), static_cast<std::uint8_t>(round));
      batch.push_back(stream::Record::Make(key, std::move(payload), clock.Now()));
    }
    // Credit clamp on the driver: admission decisions are made serially,
    // so the set of accepted records is worker-count independent even
    // though the appends run in parallel.
    const std::size_t credit = broker.Credit(kDigestTopic);
    if (batch.size() > credit) {
      deferred += batch.size() - credit;
      batch.resize(credit);
    }
    const auto rep = stream::ParallelProduce(ex, broker, kDigestTopic, std::move(batch));
    w.WriteU64(rep.produced);
    w.WriteU64(rep.rejected);
    for (const std::size_t c : rep.per_partition) w.WriteU64(c);

    // Serve: drain every partition in parallel, fold consumed records in
    // partition-major order, then return budget via TruncateBefore.
    const auto fetched = stream::ParallelFetchAll(ex, broker, kDigestTopic, 1024);
    for (std::size_t p = 0; p < fetched.size(); ++p) {
      for (const auto& sr : fetched[p]) {
        w.WriteU64(Fnv1a(sr.record.key));
        w.WriteI64(sr.offset);
        ++served;
      }
      if (!fetched[p].empty()) {
        (void)broker.TruncateBefore(kDigestTopic, static_cast<stream::PartitionId>(p),
                                    fetched[p].back().offset + 1);
      }
    }
    clock.Advance(Duration::Millis(5));
  }

  auto topic = broker.GetTopic(kDigestTopic);
  if (topic.ok()) {
    for (stream::PartitionId p = 0; p < (*topic)->partition_count(); ++p) {
      w.WriteI64((*topic)->partition(p).log_start_offset());
      w.WriteI64((*topic)->partition(p).end_offset());
    }
  }
  w.WriteU64(broker.total_produced());
  w.WriteU64(broker.backpressure_rejects());
  w.WriteU64(served);
  w.WriteU64(deferred);
  return Fnv1a(w.bytes());
}

}  // namespace arbd::scenarios
