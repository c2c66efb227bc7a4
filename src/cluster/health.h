// Per-broker health accounting for gray-failure detection (ISSUE 10).
// Clients of the cluster (ClusterProducer, HedgedReader, ClusterQuery)
// report every operation's modeled latency and outcome here; once per
// cluster Tick the tracker folds those reports into per-broker EWMAs and
// decides which brokers look *degraded* — alive but slow or lossy, the
// brownout shape fail-stop detectors miss entirely.
//
// Determinism under parallel callers: observations land in commutative
// per-tick atomic aggregates (sum, count, errors — order-independent),
// and the EWMA fold runs driver-serial under the cluster lock once per
// Tick. Worker interleaving therefore cannot change any verdict, which
// keeps health-driven demotions on the digest-equal path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.h"

namespace arbd::cluster {

struct HealthConfig {
  bool enabled = false;
  // EWMA smoothing per tick (weight of the newest tick's mean).
  double ewma_alpha = 0.4;
  // Degrade when the latency EWMA reaches this multiple of the cluster's
  // base per-op latency...
  double degrade_latency_factor = 2.5;
  // ...or when the error-rate EWMA reaches this fraction.
  double degrade_error_rate = 0.5;
  // No verdict before a broker has served this many operations total.
  std::uint64_t min_samples = 8;
  // Consecutive healthy ticks before a degraded broker is trusted again.
  std::uint32_t recover_ticks = 3;
};

class HealthTracker {
 public:
  HealthTracker(std::uint32_t brokers, HealthConfig cfg, Duration base_latency);

  // Report one operation against `broker`: its modeled latency and
  // whether it failed. Thread-safe, commutative, wait-free.
  void Observe(std::uint32_t broker, Duration latency, bool error);

  // Fold this tick's aggregates into the EWMAs and refresh the degraded
  // verdicts. Driver-serial (the cluster calls it under its lock).
  void Tick();

  bool Degraded(std::uint32_t broker) const;
  double LatencyEwmaNanos(std::uint32_t broker) const;
  double ErrorRateEwma(std::uint32_t broker) const;
  std::uint64_t TotalSamples(std::uint32_t broker) const;

  // Latency at quantile `q` (in [0,1]) over every observation ever made,
  // from a log2-bucketed histogram (upper bucket edge, so the answer is
  // conservative). Zero until anything was observed. This is the hedge
  // delay's data source: hedge after the q-th percentile of normal
  // latency, so healthy traffic almost never hedges.
  Duration LatencyQuantile(double q) const;
  std::uint64_t observations() const { return total_obs_.load(std::memory_order_relaxed); }

  const HealthConfig& config() const { return cfg_; }
  std::uint32_t brokers() const { return static_cast<std::uint32_t>(nodes_.size()); }

 private:
  struct Node {
    // Per-tick commutative aggregates (reset at each fold).
    std::atomic<std::uint64_t> tick_latency_ns{0};
    std::atomic<std::uint64_t> tick_ops{0};
    std::atomic<std::uint64_t> tick_errors{0};
    // Folded state — mutated only in Tick().
    double ewma_latency_ns = 0.0;
    double ewma_error = 0.0;
    std::uint64_t total_ops = 0;
    bool degraded = false;
    std::uint32_t healthy_streak = 0;
    bool ewma_seeded = false;
  };

  HealthConfig cfg_;
  Duration base_;
  std::vector<std::unique_ptr<Node>> nodes_;  // unique_ptr: atomics don't move
  // Global log2(ns) latency histogram for the hedge-delay quantile.
  std::array<std::atomic<std::uint64_t>, 64> hist_{};
  std::atomic<std::uint64_t> total_obs_{0};
};

}  // namespace arbd::cluster
