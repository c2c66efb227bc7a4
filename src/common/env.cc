#include "common/env.h"

#include <charconv>
#include <cstdlib>
#include <string_view>

namespace arbd {

bool EnvFlag(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return false;
  const std::string_view v(raw);
  return v == "1" || v == "true" || v == "on";
}

std::optional<std::int64_t> EnvInt(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  const std::string_view v(raw);
  std::int64_t out = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || end != v.data() + v.size()) return std::nullopt;
  return out;
}

}  // namespace arbd
