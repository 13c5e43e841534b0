// Log-linear latency histogram owned by the benchmark: 64 linear
// sub-buckets per power of two, so a bucket is at most 1/64 (1.6%) of
// its value wide and values below 64 are exact. Recording is one index
// computation and one increment; one histogram per worker thread, merged
// after the run.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class Histogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kSub = 1ULL << kSubBits;
  static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  Histogram() : counts_(kBuckets, 0) {}

  static std::size_t bucket_of(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - std::countl_zero(v);
    const std::uint64_t sub = (v >> (e - kSubBits)) - kSub;
    return static_cast<std::size_t>(kSub + (e - kSubBits) * kSub + sub);
  }

  /// Smallest value that lands in bucket b.
  static std::uint64_t bucket_low(std::size_t b) {
    if (b < kSub) return b;
    const std::size_t e = (b - kSub) / kSub + kSubBits;
    const std::uint64_t sub = (b - kSub) % kSub;
    return (kSub + sub) << (e - kSubBits);
  }

  /// Number of distinct values bucket b holds.
  static std::uint64_t bucket_width(std::size_t b) {
    if (b < kSub) return 1;
    return 1ULL << ((b - kSub) / kSub);
  }

  void record(std::uint64_t v) {
    ++counts_[bucket_of(v)];
    ++n_;
  }

  void merge(const Histogram& o) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    n_ += o.n_;
  }

  std::uint64_t count() const { return n_; }
  std::uint64_t bucket_count(std::size_t b) const { return counts_[b]; }

  /// 1-based rank of the sample that percentile q (0 < q <= 1) reports:
  /// the ceil(q * n)-th smallest.
  std::uint64_t rank_of(double q) const {
    if (n_ == 0) return 0;
    auto k = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_)));
    if (k < 1) k = 1;
    if (k > n_) k = n_;
    return k;
  }

  /// Samples strictly beyond percentile q's rank.
  std::uint64_t beyond(double q) const { return n_ - rank_of(q); }

  /// Bucket holding the sample of rank k (1-based).
  std::size_t bucket_of_rank(std::uint64_t k) const {
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      cum += counts_[b];
      if (cum >= k) return b;
    }
    return kBuckets - 1;
  }

  /// Value of percentile q, interpolated linearly inside its bucket by
  /// the rank's position among the bucket's samples. 0 when empty.
  double percentile(double q) const {
    const std::uint64_t k = rank_of(q);
    if (k == 0) return 0.0;
    std::uint64_t before = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint64_t c = counts_[b];
      if (before + c >= k) {
        const double low = static_cast<double>(bucket_low(b));
        const std::uint64_t width = bucket_width(b);
        if (width == 1) return low;
        const double frac =
            (static_cast<double>(k - before) - 0.5) / static_cast<double>(c);
        return low + frac * static_cast<double>(width);
      }
      before += c;
    }
    return 0.0;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
};

}  // namespace perfbench
