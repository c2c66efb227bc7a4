#include "offload/fleet.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/rng.h"

namespace arbd::offload {

double DiurnalIntensity(const FleetLoadConfig& cfg, std::uint32_t tick) {
  const double trough = std::clamp(cfg.trough_fraction, 0.0, 1.0);
  const std::uint32_t period = std::max<std::uint32_t>(cfg.ticks, 1);
  constexpr double kTau = 6.283185307179586;
  const double phase = kTau * static_cast<double>(tick % period) /
                       static_cast<double>(period);
  // Raised cosine: 0 at tick 0 (night trough), 1 mid-period (daytime crest).
  const double wave = 0.5 * (1.0 - std::cos(phase));
  return trough + (1.0 - trough) * wave;
}

std::vector<FleetLoadEvent> GenerateFleetLoad(const FleetLoadConfig& cfg) {
  const std::uint64_t users = std::max<std::uint64_t>(cfg.users, 1);
  const std::uint32_t hotspots = std::max<std::uint32_t>(cfg.hotspots, 1);
  Rng rng(cfg.seed);
  const ZipfGenerator user_zipf(static_cast<std::size_t>(users), cfg.user_skew);
  const ZipfGenerator poi_zipf(hotspots, cfg.hotspot_skew);

  std::vector<FleetLoadEvent> out;
  const std::uint32_t ticks = std::max<std::uint32_t>(cfg.ticks, 1);
  for (std::uint32_t tick = 0; tick < ticks; ++tick) {
    const auto volume = static_cast<std::uint32_t>(std::llround(
        DiurnalIntensity(cfg, tick) * static_cast<double>(cfg.peak_events_per_tick)));
    for (std::uint32_t n = 0; n < volume; ++n) {
      FleetLoadEvent e;
      e.user = static_cast<std::uint64_t>(user_zipf.Next(rng));
      e.poi = static_cast<std::uint32_t>(poi_zipf.Next(rng));
      e.tick = tick;
      e.n = n;
      out.push_back(e);
    }
    // Flash-crowd surge: extra events cycling over the top surge_pois
    // POIs, appended after the diurnal draw so a zero-surge config
    // produces a byte-identical trace (the Zipf streams never see the
    // surge branch).
    const bool surging = cfg.surge_ticks > 0 && tick >= cfg.surge_start_tick &&
                         tick < cfg.surge_start_tick + cfg.surge_ticks;
    if (surging && cfg.surge_boost > 0.0) {
      const auto extra = static_cast<std::uint32_t>(std::llround(
          cfg.surge_boost * static_cast<double>(cfg.peak_events_per_tick)));
      const std::uint32_t pois =
          std::min(std::max<std::uint32_t>(cfg.surge_pois, 1), hotspots);
      for (std::uint32_t n = 0; n < extra; ++n) {
        FleetLoadEvent e;
        e.user = static_cast<std::uint64_t>(user_zipf.Next(rng));
        e.poi = n % pois;
        e.tick = tick;
        e.n = volume + n;
        out.push_back(e);
      }
    }
  }
  return out;
}

FleetStats SimulateFleetFrames(exec::Executor& exec, const FleetConfig& cfg) {
  const std::size_t users = std::max<std::size_t>(1, cfg.users);
  std::vector<FrameStats> per_user(users);
  std::vector<Histogram> per_user_hist(users);
  std::vector<std::uint64_t> cloud_tasks(users, 0), total_tasks(users, 0);

  const FrameWorkload workload = MakeArFrameWorkload(cfg.analytics_scale);

  for (std::size_t u = 0; u < users; ++u) {
    exec.Submit(u, [&, u] {
      // Everything a user's simulation touches is built inside the task:
      // independent RNG stream, scheduler state, and histogram.
      NetworkModel network(cfg.network, cfg.seed ^ static_cast<std::uint64_t>(u));
      OffloadScheduler scheduler(cfg.policy, DeviceModel(cfg.device),
                                 CloudModel(cfg.cloud), network);
      FrameStats& stats = per_user[u];
      Histogram& hist = per_user_hist[u];
      double energy_sum = 0.0;
      for (std::size_t f = 0; f < cfg.frames_per_user; ++f) {
        Duration frame_latency = Duration::Zero();
        double frame_energy = 0.0;
        for (const auto& task : workload.tasks) {
          const TaskOutcome o = scheduler.Run(task);
          frame_latency += o.latency;
          frame_energy += o.energy_j;
          if (o.placement == Placement::kCloud) ++cloud_tasks[u];
          ++total_tasks[u];
        }
        hist.RecordDuration(frame_latency);
        energy_sum += frame_energy;
        ++stats.frames;
        if (frame_latency <= workload.deadline) ++stats.deadline_hits;
      }
      stats.hit_rate = stats.frames ? static_cast<double>(stats.deadline_hits) /
                                          static_cast<double>(stats.frames)
                                    : 0.0;
      stats.mean_latency_ms = hist.mean() / 1e6;
      stats.p95_latency_ms = static_cast<double>(hist.p95()) / 1e6;
      stats.mean_energy_mj =
          stats.frames ? energy_sum * 1000.0 / static_cast<double>(stats.frames) : 0.0;
      stats.offload_fraction =
          total_tasks[u] ? static_cast<double>(cloud_tasks[u]) /
                               static_cast<double>(total_tasks[u])
                         : 0.0;
    });
  }
  exec.Drain();

  // Deterministic merge in user order.
  FleetStats fleet;
  fleet.per_user = std::move(per_user);
  Histogram all;
  std::uint64_t hits = 0, cloud = 0, total = 0;
  for (std::size_t u = 0; u < users; ++u) {
    fleet.frames += fleet.per_user[u].frames;
    hits += fleet.per_user[u].deadline_hits;
    cloud += cloud_tasks[u];
    total += total_tasks[u];
    all.Merge(per_user_hist[u]);
  }
  fleet.hit_rate = fleet.frames
                       ? static_cast<double>(hits) / static_cast<double>(fleet.frames)
                       : 0.0;
  fleet.mean_latency_ms = all.mean() / 1e6;
  fleet.p99_latency_ms = static_cast<double>(all.p99()) / 1e6;
  fleet.offload_fraction =
      total ? static_cast<double>(cloud) / static_cast<double>(total) : 0.0;
  return fleet;
}

}  // namespace arbd::offload
