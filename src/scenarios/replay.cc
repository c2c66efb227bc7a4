#include "scenarios/replay.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "geo/city.h"
#include "scenarios/tourism.h"
#include "stream/consumer.h"
#include "stream/log.h"

namespace arbd::scenarios {

namespace {

constexpr char kReplayTopic[] = "replay.sessions";

std::string TouristKey(std::size_t u) { return "t" + std::to_string(u); }

// Tourist sessions are staggered so partitions interleave tourists — the
// seek path then has to cope with event times that are not globally
// monotone within a partition, like real multi-device ingest.
TimePoint SessionStart(std::size_t u) {
  return TimePoint::FromMillis(static_cast<std::int64_t>(u) * 37);
}

struct SessionEvent {
  std::int64_t event_ns = 0;
  std::string payload;
};

}  // namespace

SessionReplayReport RunSessionReplay(const SessionReplayConfig& cfg) {
  SessionReplayReport rep;
  SimClock clock;
  stream::Broker broker(clock);
  stream::TopicConfig tc;
  tc.partitions = cfg.partitions;
  tc.segment_bytes = cfg.segment_bytes;
  (void)broker.CreateTopic(kReplayTopic, tc);

  const geo::CityModel city =
      geo::CityModel::Generate(geo::CityConfig{}, cfg.seed ^ 0xC17Full);
  PortalGame game(city, /*capture_range_m=*/25.0, cfg.seed);
  const auto& pois = city.pois().All();

  // --- tour: every step, every tourist emits one session event ----------
  std::vector<std::vector<SessionEvent>> originals(cfg.tourists);
  Rng rng(cfg.seed ^ 0x5e55101ULL);
  for (std::size_t s = 0; s < cfg.events_per_tourist; ++s) {
    for (std::size_t u = 0; u < cfg.tourists; ++u) {
      // Seeded hop across the POI map; captures come from the shared
      // portal game so payloads depend on every tourist's history.
      const geo::Poi* poi = pois[rng.NextBelow(pois.size())];
      const auto captured = game.Visit(TouristKey(u), poi->pos);
      const TimePoint event_time =
          SessionStart(u) + Duration::Nanos(cfg.step.nanos() * static_cast<std::int64_t>(s));
      const std::string payload = "s=" + std::to_string(s) + ";poi=" +
                                  std::to_string(poi->id) + ";cap=" +
                                  std::to_string(captured.size());
      auto r = broker.Produce(kReplayTopic,
                              stream::Record::MakeText(TouristKey(u), payload, event_time));
      if (r.ok()) {
        ++rep.produced;
        originals[u].push_back(SessionEvent{event_time.nanos(), payload});
      }
    }
    clock.Advance(cfg.step);
  }

  auto topic = broker.GetTopic(kReplayTopic);
  if (topic.ok()) {
    for (stream::PartitionId p = 0; p < (*topic)->partition_count(); ++p) {
      rep.sealed_segments += (*topic)->partition(p).sealed_segment_count();
    }
  }

  // --- replay 1: QueryTime over each session window ----------------------
  BinaryWriter fold;
  fold.WriteU64(cfg.seed);
  fold.WriteU64(rep.produced);
  for (std::size_t u = 0; u < cfg.tourists; ++u) {
    const std::string key = TouristKey(u);
    const TimePoint lo = SessionStart(u);
    const TimePoint hi =
        lo + Duration::Nanos(cfg.step.nanos() *
                             static_cast<std::int64_t>(cfg.events_per_tourist));
    const stream::PartitionId p =
        topic.ok() ? (*topic)->PartitionFor(key) : 0;
    auto res = broker.QueryTime(kReplayTopic, p, lo, hi);
    if (!res.ok()) continue;
    rep.query_stats.Merge(res->stats);
    std::size_t matched = 0;
    bool clean = true;
    for (const stream::StoredRecord& sr : res->rows) {
      if (sr.record.key != key) continue;  // co-resident tourists
      ++rep.replayed_rows;
      if (matched >= originals[u].size() ||
          sr.record.event_time.nanos() != originals[u][matched].event_ns ||
          sr.record.TextPayload() != originals[u][matched].payload) {
        ++rep.mismatches;
        clean = false;
      } else {
        fold.WriteString(key);
        fold.WriteI64(originals[u][matched].event_ns);
        fold.WriteString(originals[u][matched].payload);
      }
      ++matched;
    }
    if (clean && matched == originals[u].size()) ++rep.sessions_verified;
  }
  rep.digest = Fnv1a(fold.bytes());

  // --- replay 2: SeekToTimestamp + Poll to the end ------------------------
  stream::ConsumerGroup group(broker, "replay-readers", kReplayTopic);
  auto consumer = group.Join("replayer");
  if (consumer.ok()) {
    const TimePoint t_mid =
        TimePoint::FromMillis(0) +
        Duration::Nanos(cfg.step.nanos() *
                        static_cast<std::int64_t>(cfg.events_per_tourist / 2));
    (void)(*consumer)->SeekToTimestamp(t_mid);
    std::map<std::string, std::vector<SessionEvent>> polled;
    for (;;) {
      const auto rows = (*consumer)->Poll(256);
      if (rows.empty()) break;
      for (const auto& sr : rows) {
        polled[sr.record.key].push_back(
            SessionEvent{sr.record.event_time.nanos(), sr.record.TextPayload()});
      }
      rep.seek_replays += rows.size();
    }
    for (std::size_t u = 0; u < cfg.tourists; ++u) {
      const auto& orig = originals[u];
      const auto& got = polled[TouristKey(u)];
      // (a) the polled rows must be a contiguous suffix of the session,
      if (got.size() > orig.size()) {
        ++rep.seek_errors;
        continue;
      }
      const std::size_t suffix_at = orig.size() - got.size();
      bool suffix_ok = true;
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].event_ns != orig[suffix_at + i].event_ns ||
            got[i].payload != orig[suffix_at + i].payload) {
          suffix_ok = false;
          break;
        }
      }
      // (b) …containing every event at/after the seek timestamp.
      std::size_t first_at_or_after = orig.size();
      for (std::size_t i = 0; i < orig.size(); ++i) {
        if (orig[i].event_ns >= t_mid.nanos()) {
          first_at_or_after = i;
          break;
        }
      }
      if (!suffix_ok || suffix_at > first_at_or_after) ++rep.seek_errors;
    }
  }

  return rep;
}

namespace {

constexpr char kVitalsTopic[] = "replay.vitals";

std::string PatientKey(std::size_t u) { return "p" + std::to_string(u); }

struct VitalsSample {
  std::int64_t event_ns = 0;
  std::string payload;
  bool anomalous = false;
};

}  // namespace

AnomalyReplayReport RunAnomalyReplay(const AnomalyReplayConfig& cfg) {
  AnomalyReplayReport rep;
  SimClock clock;
  stream::Broker broker(clock);
  stream::TopicConfig tc;
  tc.partitions = cfg.partitions;
  tc.segment_bytes = cfg.segment_bytes;
  (void)broker.CreateTopic(kVitalsTopic, tc);

  // --- ground truth: seeded episodes in disjoint timeline blocks --------
  struct Episode {
    std::size_t patient = 0;
    std::size_t start_s = 0;  // first elevated sample index
    std::size_t end_s = 0;    // one past the last
  };
  Rng rng(cfg.seed ^ 0xa40a1ULL);
  const std::size_t episodes_per =
      std::min(cfg.episodes_per_patient,
               cfg.episode_samples == 0
                   ? std::size_t{0}
                   : cfg.samples_per_patient / std::max<std::size_t>(cfg.episode_samples, 1));
  std::vector<Episode> episodes;
  // in_episode[u][s]: sample s of patient u reads elevated.
  std::vector<std::vector<bool>> elevated(
      cfg.patients, std::vector<bool>(cfg.samples_per_patient, false));
  for (std::size_t u = 0; u < cfg.patients; ++u) {
    const std::size_t block =
        episodes_per == 0 ? 0 : cfg.samples_per_patient / episodes_per;
    for (std::size_t e = 0; e < episodes_per; ++e) {
      const std::size_t lo = e * block;
      const std::size_t slack = block > cfg.episode_samples
                                    ? block - cfg.episode_samples
                                    : 0;
      const std::size_t start = lo + (slack > 0 ? rng.NextBelow(slack) : 0);
      episodes.push_back(
          {u, start, std::min(start + cfg.episode_samples, cfg.samples_per_patient)});
      for (std::size_t s = start; s < episodes.back().end_s; ++s) elevated[u][s] = true;
    }
  }
  rep.episodes = episodes.size();

  // --- the ward streams: every patient samples at the same instants ----
  // (that simultaneity is what makes any replay window cross sessions).
  std::vector<std::vector<VitalsSample>> originals(cfg.patients);
  std::vector<double> resting(cfg.patients);
  for (std::size_t u = 0; u < cfg.patients; ++u) {
    resting[u] = 60.0 + static_cast<double>(rng.NextBelow(16));
  }
  for (std::size_t s = 0; s < cfg.samples_per_patient; ++s) {
    const TimePoint t =
        TimePoint::FromMillis(0) +
        Duration::Nanos(cfg.sample_period.nanos() * static_cast<std::int64_t>(s));
    for (std::size_t u = 0; u < cfg.patients; ++u) {
      const double noise = static_cast<double>(rng.NextBelow(7)) - 3.0;
      const double hr = resting[u] + noise + (elevated[u][s] ? 55.0 : 0.0);
      const std::string payload =
          "s=" + std::to_string(s) + ";hr=" + std::to_string(static_cast<int>(hr)) +
          (elevated[u][s] ? ";anom=1" : "");
      auto r = broker.Produce(kVitalsTopic,
                              stream::Record::MakeText(PatientKey(u), payload, t));
      if (r.ok()) {
        ++rep.produced;
        originals[u].push_back(VitalsSample{t.nanos(), payload, elevated[u][s]});
      }
    }
    clock.Advance(cfg.sample_period);
  }

  auto topic = broker.GetTopic(kVitalsTopic);
  if (topic.ok()) {
    for (stream::PartitionId p = 0; p < (*topic)->partition_count(); ++p) {
      rep.sealed_segments += (*topic)->partition(p).sealed_segment_count();
    }
  }

  // --- replay: each episode's window, across EVERY partition ------------
  BinaryWriter fold;
  fold.WriteU64(cfg.seed);
  fold.WriteU64(rep.produced);
  for (const Episode& ep : episodes) {
    const std::string key = PatientKey(ep.patient);
    const TimePoint lo =
        TimePoint::FromMillis(0) +
        Duration::Nanos(cfg.sample_period.nanos() * static_cast<std::int64_t>(ep.start_s)) -
        cfg.pre_window;
    const TimePoint hi =
        TimePoint::FromMillis(0) +
        Duration::Nanos(cfg.sample_period.nanos() * static_cast<std::int64_t>(ep.end_s)) +
        cfg.post_window;
    // What the patient's chart must show in that window.
    std::vector<const VitalsSample*> expected;
    for (const VitalsSample& v : originals[ep.patient]) {
      if (v.event_ns >= lo.nanos() && v.event_ns < hi.nanos()) expected.push_back(&v);
    }

    std::size_t matched = 0, anomalous_matched = 0;
    bool clean = true;
    for (stream::PartitionId p = 0; p < cfg.partitions; ++p) {
      auto res = broker.QueryTime(kVitalsTopic, p, lo, hi);
      ++rep.windows_replayed;
      if (!res.ok()) {
        clean = false;
        continue;
      }
      rep.query_stats.Merge(res->stats);
      for (const stream::StoredRecord& sr : res->rows) {
        ++rep.rows_replayed;
        if (sr.record.key != key) {
          ++rep.cross_session_rows;  // a co-resident patient's row
          continue;
        }
        if (matched >= expected.size() ||
            sr.record.event_time.nanos() != expected[matched]->event_ns ||
            sr.record.TextPayload() != expected[matched]->payload) {
          ++rep.mismatches;
          clean = false;
        } else {
          if (expected[matched]->anomalous) {
            ++anomalous_matched;
            ++rep.anomalous_rows;
          }
          fold.WriteString(key);
          fold.WriteI64(expected[matched]->event_ns);
          fold.WriteString(expected[matched]->payload);
        }
        ++matched;
      }
    }
    // Verified = every expected row recovered in order, including the
    // full run of elevated samples.
    const std::size_t want_anomalous = ep.end_s - ep.start_s;
    if (clean && matched == expected.size() && anomalous_matched == want_anomalous) {
      ++rep.episodes_verified;
    }
  }
  rep.digest = Fnv1a(fold.bytes());
  return rep;
}

}  // namespace arbd::scenarios
