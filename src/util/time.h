// Simulation time: fixed-point microseconds since simulation start.
//
// All subsystems (PHY subframe clock, packet events, congestion-control
// timers) share this single time base so that cross-layer timestamps are
// directly comparable without conversion.
#pragma once

#include <cstdint>

namespace pbecc::util {

// Absolute simulation time in microseconds.
using Time = std::int64_t;
// Time difference in microseconds.
using Duration = std::int64_t;

inline constexpr Duration kMicrosecond = 1;
inline constexpr Duration kMillisecond = 1000;
inline constexpr Duration kSecond = 1'000'000;
// One LTE subframe (the scheduling granularity of the cellular MAC).
inline constexpr Duration kSubframe = kMillisecond;
// One LTE slot (half a subframe; PRB allocation is identical in both slots).
inline constexpr Duration kSlot = kMillisecond / 2;

inline constexpr Time kNever = INT64_MAX;

// Subframe index containing time `t` (subframes are 1 ms wide).
constexpr std::int64_t subframe_index(Time t) { return t / kSubframe; }

// Start time of subframe `sf`.
constexpr Time subframe_start(std::int64_t sf) { return sf * kSubframe; }

constexpr double to_seconds(Duration d) { return static_cast<double>(d) / kSecond; }
constexpr double to_millis(Duration d) { return static_cast<double>(d) / kMillisecond; }
constexpr Duration from_seconds(double s) { return static_cast<Duration>(s * kSecond); }
constexpr Duration from_millis(double ms) { return static_cast<Duration>(ms * kMillisecond); }

}  // namespace pbecc::util
