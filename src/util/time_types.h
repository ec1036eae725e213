#pragma once

#include <cstdint>

namespace grunt {

/// Simulated time. All simulation logic uses integer microseconds so that
/// event ordering is exact and runs are bit-for-bit reproducible.
using SimTime = std::int64_t;

/// Duration in simulated microseconds (same representation as SimTime).
using SimDuration = std::int64_t;

inline constexpr SimDuration kMicrosecond = 1;
inline constexpr SimDuration kMillisecond = 1000;
inline constexpr SimDuration kSecond = 1000 * 1000;

constexpr SimDuration Us(std::int64_t v) { return v; }
constexpr SimDuration Ms(std::int64_t v) { return v * kMillisecond; }
constexpr SimDuration Sec(std::int64_t v) { return v * kSecond; }

/// Converts a floating-point second count to SimDuration (rounds toward zero).
constexpr SimDuration SecF(double v) {
  return static_cast<SimDuration>(v * static_cast<double>(kSecond));
}

constexpr double ToSeconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

constexpr double ToMillis(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

}  // namespace grunt
