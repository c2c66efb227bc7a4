// Fleet-scale frame simulation on the deterministic executor: one shard
// per simulated user, each with its own seeded NetworkModel and
// OffloadScheduler, so user simulations are fully independent and run in
// parallel without sharing any mutable state. Per-user results land in
// slots indexed by user and are merged in user order — identical output
// at every worker count.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/executor.h"
#include "offload/executor.h"
#include "offload/network.h"
#include "offload/scheduler.h"

namespace arbd::offload {

// ---------------------------------------------------------------------------
// Fleet load generation: a modeled million-user fleet whose event volume
// follows a diurnal curve (sinusoid between a night-time trough and a
// peak) and whose key popularity follows two Zipf distributions — heavy
// users and hotspot POIs. The output is a flat vector of dependency-free
// tuples; scenario code converts them to stream Records (keying by POI so
// hot partitions emerge naturally). Fully deterministic from the seed.
// ---------------------------------------------------------------------------

struct FleetLoadConfig {
  std::uint64_t users = 1'000'000;   // modeled fleet size (Zipf over user ids)
  std::uint32_t hotspots = 256;      // distinct POI keys (Zipf over these)
  std::uint32_t ticks = 24;          // time steps in one diurnal period
  std::uint32_t peak_events_per_tick = 2000;  // volume at the curve's crest
  double trough_fraction = 0.15;     // night-time volume as a fraction of peak
  double user_skew = 1.1;            // Zipf skew over users (heavy users)
  double hotspot_skew = 1.3;         // Zipf skew over POIs (crowded places)
  std::uint64_t seed = 42;
  // Optional flash-crowd surge: for `surge_ticks` ticks starting at
  // `surge_start_tick`, an extra `surge_boost * peak_events_per_tick`
  // events per tick land on the `surge_pois` most popular POIs
  // (cycling 0,1,..,surge_pois-1,0,..). More than one surge POI matters:
  // a single key is one hash and can never be split apart, while a
  // handful of crowded POIs give the partition autoscaler refinement
  // bits to separate. Defaults model no surge (output unchanged).
  std::uint32_t surge_start_tick = 0;
  std::uint32_t surge_ticks = 0;     // 0 = no surge
  double surge_boost = 0.0;          // extra volume as a multiple of peak
  std::uint32_t surge_pois = 4;      // top POIs sharing the surge
};

// One modeled fleet event: user `user` reports at POI `poi` during tick
// `tick` (the `n`th event of that tick, in generation order).
struct FleetLoadEvent {
  std::uint64_t user = 0;
  std::uint32_t poi = 0;
  std::uint32_t tick = 0;
  std::uint32_t n = 0;
};

// The diurnal intensity in [trough_fraction, 1] at `tick` of the period:
// a raised cosine with its trough at tick 0 (night) and crest mid-period.
double DiurnalIntensity(const FleetLoadConfig& cfg, std::uint32_t tick);

// Generate the full load trace: per tick, round(peak * intensity) events,
// users and POIs sampled from the two Zipf streams.
std::vector<FleetLoadEvent> GenerateFleetLoad(const FleetLoadConfig& cfg);

struct FleetConfig {
  std::size_t users = 8;
  std::size_t frames_per_user = 200;
  OffloadPolicy policy = OffloadPolicy::kAdaptive;
  DeviceConfig device;
  CloudConfig cloud;
  NetworkConfig network;
  double analytics_scale = 1.0;
  std::uint64_t seed = 1;  // user u's network stream is seeded seed ^ u
};

struct FleetStats {
  std::uint64_t frames = 0;
  double hit_rate = 0.0;
  double mean_latency_ms = 0.0;
  double p99_latency_ms = 0.0;  // across all users' frames
  double offload_fraction = 0.0;
  std::vector<FrameStats> per_user;  // indexed by user
};

FleetStats SimulateFleetFrames(exec::Executor& exec, const FleetConfig& cfg);

}  // namespace arbd::offload
