#include "common/runtime.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <optional>
#include <string_view>

namespace arbd {

namespace {

bool Flag(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return false;
  const std::string_view v(raw);
  return v == "1" || v == "true" || v == "on";
}

std::optional<std::int64_t> Int(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  const std::string_view v(raw);
  std::int64_t out = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || end != v.data() + v.size()) return std::nullopt;
  return out;
}

}  // namespace

RuntimeConfig RuntimeConfig::FromEnv() {
  RuntimeConfig cfg;
  if (const auto w = Int("ARBD_EXEC_WORKERS"); w && *w >= 1 && *w <= 64) {
    cfg.exec_workers = static_cast<std::size_t>(*w);
  }
  cfg.trace = Flag("ARBD_TRACE");
  if (const auto ring = Int("ARBD_TRACE_RING"); ring && *ring > 0) {
    cfg.trace_ring = static_cast<std::size_t>(*ring);
  }
  if (const auto seed = Int("ARBD_TRACE_SEED"); seed && *seed != 0) {
    cfg.trace_seed = static_cast<std::uint64_t>(*seed);
  }
  if (const auto n = Int("ARBD_CLUSTER")) {
    cfg.cluster_brokers = static_cast<std::uint32_t>(std::clamp<std::int64_t>(*n, 1, 16));
  }
  cfg.autoscale = Flag("ARBD_AUTOSCALE");
  cfg.health = Flag("ARBD_HEALTH");
  if (const auto r = Int("ARBD_REPLICAS")) {
    cfg.replicas = static_cast<std::uint32_t>(std::clamp<std::int64_t>(*r, 1, 8));
  }
  if (const auto b = Int("ARBD_SEGMENT_BYTES"); b && *b > 0) {
    cfg.segment_bytes = static_cast<std::size_t>(*b);
  }
  return cfg;
}

const RuntimeConfig& RuntimeConfig::Process() {
  static const RuntimeConfig cfg = FromEnv();
  return cfg;
}

}  // namespace arbd
