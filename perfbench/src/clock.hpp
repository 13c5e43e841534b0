// The benchmark's own clock. Every time the benchmark reports is read here,
// never through the library's core/timing, so a change to the library's
// clock cannot move a metric without moving the program.
//
// On x86 the clock is the TSC, converted to nanoseconds with a rate
// measured once against steady_clock; on a 4-vCPU Xeon (Sapphire Rapids)
// KVM guest a read costs about 20 ns against about 50 ns for
// steady_clock. Elsewhere it is steady_clock.
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One clock read, in ticks.
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return steady_ns();
#endif
}

/// Nanoseconds per tick, measured on first use (about 20 ms).
double ns_per_tick();

/// Name of the clock behind ticks(): "tsc" or "steady_clock".
const char* clock_name();

inline double ticks_to_ns(double t) { return t * ns_per_tick(); }

}  // namespace perfbench
