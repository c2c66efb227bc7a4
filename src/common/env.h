// The one parser for ARBD_* environment knobs, so every site reads a value
// the same way: a flag is on only for "1", "true" or "on", and a number is
// a whole decimal number or nothing. Each caller keeps its own range and
// clamp on top.
#pragma once

#include <cstdint>
#include <optional>

namespace arbd {

// True when `name` is set to "1", "true" or "on"; false otherwise.
bool EnvFlag(const char* name);

// `name` as a whole decimal number (an optional leading '-', then digits).
// Empty when the variable is unset or empty, carries anything else (a
// unit suffix like "64k", a sign '+', a fraction, spaces), or overflows.
std::optional<std::int64_t> EnvInt(const char* name);

}  // namespace arbd
