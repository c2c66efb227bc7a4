// Session replay for the tourism scenario (ISSUE 8): the paper's
// historical-read workload — "replay this tourist's session" — driven
// end-to-end through the segmented log's query tier. Seeded tourists walk
// a city playing the portal game, every step producing a keyed session
// event into a broker topic; afterwards each session is replayed two ways
// and verified against the original:
//
//   1. QueryTime over the tourist's session window on their partition
//      (key-hash routing pins a tourist to one partition), filtered by
//      key — must reproduce the session exactly, in order.
//   2. Consumer::SeekToTimestamp to mid-session, then Poll to the end —
//      the polled rows per tourist must form a contiguous suffix of the
//      original session containing every event at/after the seek point.
//
// The report's digest folds only produced/replayed row data (never
// segment structure), so a segmented and an unsegmented run of the same
// config must produce equal digests — the property bench_storage (E25)
// and storage_segment_test gate on.
#pragma once

#include <cstdint>

#include "common/clock.h"
#include "stream/query.h"

namespace arbd::scenarios {

struct SessionReplayConfig {
  std::size_t tourists = 6;
  std::size_t events_per_tourist = 400;
  std::uint32_t partitions = 2;
  // Seal target of the session topic (TopicConfig::segment_bytes); 0 runs
  // unsegmented.
  std::size_t segment_bytes = 2048;
  // Virtual time between a tourist's consecutive session events.
  Duration step = Duration::Millis(250);
  std::uint64_t seed = 42;
};

struct SessionReplayReport {
  std::size_t produced = 0;
  std::size_t replayed_rows = 0;     // rows returned by the QueryTime replays
  std::size_t sessions_verified = 0; // tourists whose full replay matched
  std::size_t mismatches = 0;        // replayed rows differing from the original
  std::size_t seek_replays = 0;      // rows polled after SeekToTimestamp
  std::size_t seek_errors = 0;       // suffix/coverage violations after seek
  std::size_t sealed_segments = 0;   // across partitions when the tour ended
  std::uint64_t digest = 0;          // FNV-1a over replayed session bytes
  stream::QueryStats query_stats;    // merged across all session queries

  bool AllVerified(const SessionReplayConfig& cfg) const {
    return sessions_verified == cfg.tourists && mismatches == 0 && seek_errors == 0;
  }
};

SessionReplayReport RunSessionReplay(const SessionReplayConfig& cfg);

// Healthcare anomaly replay (ISSUE 10 satellite): the §3.3 caregiver
// workflow "show me what led up to this alert". A ward of monitored
// patients streams vitals into one topic — every patient samples at the
// same instants, so any time window crosses *many* patient sessions at
// once (the property the session replay above never exercises: its
// QueryTime windows are single-tourist). Seeded tachycardia episodes are
// injected as ground truth; afterwards each episode's surrounding window
// [start - pre, end + post] is replayed with QueryTime across EVERY
// partition and verified:
//
//   - the episode patient's samples inside the window come back exactly,
//     in order (payload + event time), including every anomalous sample;
//   - the window also returns other patients' co-resident rows
//     (cross_session_rows > 0) — the multi-session property itself.
//
// The digest folds only verified row data, never segment structure, so
// flat and segmented runs of one config must produce equal digests.
struct AnomalyReplayConfig {
  std::size_t patients = 12;
  std::size_t samples_per_patient = 240;
  std::uint32_t partitions = 4;
  // Seal target of the vitals topic; 0 runs unsegmented.
  std::size_t segment_bytes = 2048;
  Duration sample_period = Duration::Millis(500);
  // Seeded ground-truth episodes per patient, each `episode_samples`
  // consecutive elevated readings, placed in disjoint blocks of the
  // patient's timeline.
  std::size_t episodes_per_patient = 2;
  std::size_t episode_samples = 10;
  // Replay window margins around an episode.
  Duration pre_window = Duration::Seconds(2);
  Duration post_window = Duration::Seconds(2);
  std::uint64_t seed = 42;
};

struct AnomalyReplayReport {
  std::size_t produced = 0;
  std::size_t episodes = 0;           // injected ground-truth episodes
  std::size_t windows_replayed = 0;   // QueryTime calls (episodes × partitions)
  std::size_t rows_replayed = 0;      // total rows the replays returned
  std::size_t cross_session_rows = 0; // rows from other patients (must be > 0)
  std::size_t anomalous_rows = 0;     // elevated samples recovered
  std::size_t mismatches = 0;         // expected rows missing / wrong / out of order
  std::size_t episodes_verified = 0;  // episodes whose window replay matched
  std::size_t sealed_segments = 0;
  std::uint64_t digest = 0;           // FNV-1a over verified row data only
  stream::QueryStats query_stats;

  bool AllVerified() const {
    return episodes_verified == episodes && mismatches == 0 &&
           cross_session_rows > 0;
  }
};

AnomalyReplayReport RunAnomalyReplay(const AnomalyReplayConfig& cfg);

}  // namespace arbd::scenarios
