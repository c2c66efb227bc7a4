#include "cluster/health.h"

#include <algorithm>

namespace arbd::cluster {

namespace {

// Bucket index for a latency: floor(log2(ns)), clamped to the histogram.
std::size_t BucketOf(std::int64_t ns) {
  if (ns <= 0) return 0;
  std::size_t b = 0;
  std::uint64_t v = static_cast<std::uint64_t>(ns);
  while (v >>= 1) ++b;
  return std::min<std::size_t>(b, 63);
}

}  // namespace

HealthTracker::HealthTracker(std::uint32_t brokers, HealthConfig cfg,
                             Duration base_latency)
    : cfg_(cfg), base_(base_latency) {
  nodes_.reserve(brokers);
  for (std::uint32_t b = 0; b < brokers; ++b) nodes_.push_back(std::make_unique<Node>());
}

void HealthTracker::Observe(std::uint32_t broker, Duration latency, bool error) {
  if (broker >= nodes_.size()) return;
  Node& n = *nodes_[broker];
  const std::uint64_t ns =
      static_cast<std::uint64_t>(std::max<std::int64_t>(latency.nanos(), 0));
  n.tick_latency_ns.fetch_add(ns, std::memory_order_relaxed);
  n.tick_ops.fetch_add(1, std::memory_order_relaxed);
  if (error) n.tick_errors.fetch_add(1, std::memory_order_relaxed);
  hist_[BucketOf(latency.nanos())].fetch_add(1, std::memory_order_relaxed);
  total_obs_.fetch_add(1, std::memory_order_relaxed);
}

void HealthTracker::Tick() {
  for (auto& np : nodes_) {
    Node& n = *np;
    const std::uint64_t ops = n.tick_ops.exchange(0, std::memory_order_relaxed);
    const std::uint64_t lat = n.tick_latency_ns.exchange(0, std::memory_order_relaxed);
    const std::uint64_t err = n.tick_errors.exchange(0, std::memory_order_relaxed);
    if (ops > 0) {
      const double mean_lat = static_cast<double>(lat) / static_cast<double>(ops);
      const double err_rate = static_cast<double>(err) / static_cast<double>(ops);
      if (!n.ewma_seeded) {
        n.ewma_latency_ns = mean_lat;
        n.ewma_error = err_rate;
        n.ewma_seeded = true;
      } else {
        n.ewma_latency_ns += cfg_.ewma_alpha * (mean_lat - n.ewma_latency_ns);
        n.ewma_error += cfg_.ewma_alpha * (err_rate - n.ewma_error);
      }
      n.total_ops += ops;
    }
    if (!cfg_.enabled || n.total_ops < cfg_.min_samples || !n.ewma_seeded) continue;
    const double lat_bar =
        cfg_.degrade_latency_factor * static_cast<double>(base_.nanos());
    const bool unhealthy =
        n.ewma_latency_ns >= lat_bar || n.ewma_error >= cfg_.degrade_error_rate;
    if (unhealthy) {
      n.degraded = true;
      n.healthy_streak = 0;
    } else if (n.degraded) {
      // Only ticks the broker actually served count toward recovery: a
      // drained broker with no traffic keeps its last verdict until the
      // probe traffic (retries, hedges) proves it healthy again.
      if (ops > 0) ++n.healthy_streak;
      if (n.healthy_streak >= cfg_.recover_ticks) {
        n.degraded = false;
        n.healthy_streak = 0;
      }
    }
  }
}

bool HealthTracker::Degraded(std::uint32_t broker) const {
  return broker < nodes_.size() && nodes_[broker]->degraded;
}

double HealthTracker::LatencyEwmaNanos(std::uint32_t broker) const {
  return broker < nodes_.size() ? nodes_[broker]->ewma_latency_ns : 0.0;
}

double HealthTracker::ErrorRateEwma(std::uint32_t broker) const {
  return broker < nodes_.size() ? nodes_[broker]->ewma_error : 0.0;
}

std::uint64_t HealthTracker::TotalSamples(std::uint32_t broker) const {
  return broker < nodes_.size() ? nodes_[broker]->total_ops : 0;
}

Duration HealthTracker::LatencyQuantile(double q) const {
  const std::uint64_t total = total_obs_.load(std::memory_order_relaxed);
  if (total == 0) return Duration::Zero();
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t want = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(total) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < hist_.size(); ++b) {
    seen += hist_[b].load(std::memory_order_relaxed);
    if (seen >= want) {
      // Upper edge of bucket b: 2^(b+1) - 1 ns, conservative by design.
      const std::uint64_t edge = (b >= 62) ? UINT64_MAX >> 1 : ((2ULL << b) - 1);
      return Duration::Nanos(static_cast<std::int64_t>(edge));
    }
  }
  return Duration::Zero();
}

}  // namespace arbd::cluster
