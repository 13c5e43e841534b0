#include "clock.hpp"

#include <thread>

namespace perfbench {

double ns_per_tick() {
#if defined(__x86_64__) || defined(__i386__)
  static const double kRate = [] {
    const std::uint64_t ns0 = steady_ns();
    const std::uint64_t t0 = ticks();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t ns1 = steady_ns();
    const std::uint64_t t1 = ticks();
    return t1 > t0 ? static_cast<double>(ns1 - ns0) /
                         static_cast<double>(t1 - t0)
                   : 1.0;
  }();
  return kRate;
#else
  return 1.0;
#endif
}

const char* clock_name() {
#if defined(__x86_64__) || defined(__i386__)
  return "tsc";
#else
  return "steady_clock";
#endif
}

}  // namespace perfbench
