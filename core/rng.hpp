// Deterministic per-thread RNG (splitmix64 seeding + xoshiro-style state
// advance). Trials must replay the exact same op stream for the same
// (seed, tid) so experiments are comparable across reclaimers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

namespace emr {

inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t s = seed;
    s0_ = splitmix64(s);
    s1_ = splitmix64(s);
    if ((s0_ | s1_) == 0) s1_ = 1;  // xorshift128+ must not be all-zero
  }

  std::uint64_t next_u64() {
    std::uint64_t x = s0_;
    const std::uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  /// Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [0, n). n must be > 0.
  std::uint64_t next_range(std::uint64_t n) { return next_u64() % n; }

  /// Fisher-Yates shuffle of `v` in place, drawing from this stream.
  template <typename Vec>
  void shuffle(Vec& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[next_range(i)]);
    }
  }

 private:
  std::uint64_t s0_;
  std::uint64_t s1_;
};

}  // namespace emr
