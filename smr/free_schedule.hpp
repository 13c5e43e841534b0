// The shipped FreeSchedule policies (interface: smr/reclaimer.hpp,
// contract: docs/FREE_SCHEDULES.md):
//
//   FixedFreeSchedule         - mirrors the SmrConfig constants: the
//                               drain quantum is af_drain_per_op, the
//                               seal/scan threshold is batch_size
//                               regardless of who is registered. This is
//                               the paper's setup and the default behind
//                               every plain/_af/_pool name.
//   AdaptiveFreeSchedule      - a population-aware feedback controller:
//                               the seal/scan threshold is the
//                               configured batch prorated by the live
//                               fraction of the slot table (the
//                               batch-size-vs-population lesson from the
//                               large-batch-training literature), and
//                               the drain quantum tracks each lane's
//                               backlog against a drain horizon that
//                               tightens as the registered population
//                               grows, capped by the lane's measured
//                               ns-per-free so one op never stalls on a
//                               slow allocator path.
//   LatencyTargetFreeSchedule - the adaptive controller closed over the
//                               *observed* per-op tail: the harness
//                               pumps the merged p99.9 in through
//                               on_tail_latency, and a multiplicative
//                               scale on the adaptive quantum backs off
//                               while the tail overshoots
//                               SmrConfig::latency_target_us and creeps
//                               back up while it sits comfortably under.
//
// make_free_schedule is the only place in smr/ that reads the config's
// batching knobs; executors and scheme TUs consult the policy
// (ci/check.sh greps to keep it that way — and the same grep keeps
// latency counters out of the scheme TUs).
#pragma once

#include <memory>

#include "smr/reclaimer.hpp"

namespace emr::smr {

enum class ScheduleKind { kFixed, kAdaptive, kLatency };

class FixedFreeSchedule final : public FreeSchedule {
 public:
  explicit FixedFreeSchedule(const SmrConfig& cfg);

  const char* name() const override { return "fixed"; }
  std::size_t drain_quota(const LaneStats&) const override { return drain_; }
  std::size_t scan_threshold(std::size_t) const override { return batch_; }
  std::size_t pool_cap() const override { return pool_cap_; }
  /// Home-flush quantum mirrors the config constant, like every other
  /// fixed quantum: EMR_FLUSH_BATCH stashed blocks per op end.
  std::size_t flush_quota(const LaneStats&) const override {
    return flush_batch_;
  }
  /// Constant quantum: executors skip the per-op stats snapshot and
  /// drain-cost clocking, keeping the paper-reproduction rows on the
  /// pre-policy-layer hot path.
  bool consumes_lane_stats() const override { return false; }
  /// The per-op quantum is deliberately tiny (af_drain_per_op), so the
  /// default daemon scaling would barely move backlog between ticks.
  /// Off the op path a tick may swallow up to one sealed bag under
  /// pressure, and a slice of one when merely quiet.
  std::size_t daemon_quota(const LaneStats&, bool pressure) const override {
    if (pressure) return batch_;
    const std::size_t slice = batch_ / 8;
    return drain_ > slice ? drain_ : slice;
  }

 private:
  std::size_t drain_;
  std::size_t batch_;
  std::size_t pool_cap_;
  std::size_t flush_batch_;
};

class AdaptiveFreeSchedule : public FreeSchedule {
 public:
  explicit AdaptiveFreeSchedule(const SmrConfig& cfg);

  const char* name() const override { return "adaptive"; }
  std::size_t drain_quota(const LaneStats& lane) const override;
  std::size_t scan_threshold(std::size_t population) const override;
  std::size_t pool_cap() const override { return pool_cap_; }
  /// Backlog-proportional flush quantum: the lane's stash backlog over
  /// the same population-tightened horizon the drain controller uses,
  /// clamped to [1, EMR_FLUSH_BATCH]. A lane whose stash is being fed
  /// faster than it drains flushes harder; a quiet stash costs one
  /// block's worth of work per op end. No ns-per-free cap: flushed
  /// blocks take the local fast path, which is the cheap case the
  /// drain-side cap exists to protect.
  std::size_t flush_quota(const LaneStats& lane) const override;
  void on_population(std::size_t n) override {
    population_.store(n, std::memory_order_relaxed);
  }

  /// Last population the reclaimer pushed (live ThreadHandles).
  std::size_t population() const {
    return population_.load(std::memory_order_relaxed);
  }

 protected:
  // The latency-target subclass clamps its scaled quantum to the same
  // bounds the base controller honours.
  std::size_t drain_min() const { return drain_min_; }
  std::size_t drain_max() const { return drain_max_; }
  std::size_t flush_batch() const { return flush_batch_; }

 private:
  std::size_t batch_;
  std::size_t capacity_;      // slot_capacity(): full-table batch scale
  std::size_t base_threads_;  // configured steady-state population
  std::size_t drain_min_;
  std::size_t drain_max_;
  std::size_t pool_cap_;
  std::size_t flush_batch_;
  std::atomic<std::size_t> population_{0};
};

/// AdaptiveFreeSchedule steered by the observed per-op tail. The
/// harness's sampler thread measures the merged p99.9 every sample
/// period and pushes it through on_tail_latency; the schedule keeps a
/// multiplicative scale (fixed-point, kScaleUnit == 1.0) on the
/// adaptive quantum:
///
///   p99.9 > target          -> scale halves   (back off hard: the
///                              drain bursts are what stalls the tail)
///   p99.9 < 3/4 * target    -> scale grows 25% (relax gently while
///                              there is headroom, so backlog drains)
///
/// The scale is floored well above zero — a latency target can shrink
/// the quantum to drain_min but never stop reclamation entirely, so
/// backlog stays bounded even under an unreachable target.
class LatencyTargetFreeSchedule final : public AdaptiveFreeSchedule {
 public:
  static constexpr std::size_t kScaleUnit = 1024;  // fixed-point 1.0
  static constexpr std::size_t kScaleMin = 16;     // 1/64th of adaptive
  static constexpr std::size_t kScaleMax = 4 * kScaleUnit;

  explicit LatencyTargetFreeSchedule(const SmrConfig& cfg);

  const char* name() const override { return "latency"; }
  std::size_t drain_quota(const LaneStats& lane) const override;
  /// The adaptive flush quantum under the same tail scale as the drain
  /// quantum — a stressed tail shrinks home-flush bursts too — but
  /// floored at 1, never 0: a stash that stops draining strands remote
  /// blocks on live lanes, which the latency policy must not do.
  std::size_t flush_quota(const LaneStats& lane) const override;
  void on_tail_latency(std::uint64_t p999_ns) override;
  bool wants_latency_feedback() const override { return true; }
  /// The tail scale exists to keep drain bursts off the *op* path; a
  /// background-reclaimer tick frees off that path entirely, so its
  /// quantum is the unscaled adaptive one. Without this the daemon
  /// inherits the throttled op quota and the backlog the latency policy
  /// deliberately defers can outlive the traffic that produced it.
  std::size_t daemon_quota(const LaneStats& lane,
                           bool pressure) const override {
    const std::size_t q = AdaptiveFreeSchedule::drain_quota(lane);
    return pressure ? q * 8 : q * 2;
  }

  std::uint64_t target_ns() const { return target_ns_; }
  /// Current multiplier on the adaptive quantum, in 1/kScaleUnit units.
  std::size_t scale() const {
    return scale_.load(std::memory_order_relaxed);
  }
  /// Last p99.9 the driver pushed (0 before the first beat).
  std::uint64_t last_p999_ns() const {
    return last_p999_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t target_ns_;
  std::atomic<std::size_t> scale_{kScaleUnit};
  std::atomic<std::uint64_t> last_p999_{0};
};

/// Builds the policy, failing fast (std::invalid_argument naming the
/// knob) on nonsensical config: batch_size == 0, af_drain_per_op == 0,
/// flush_batch == 0, drain_min == 0, drain_max < drain_min, or a zero
/// latency_target_us for the latency policy. `kind` comes from the
/// factory name's suffix, the only way to choose a policy.
std::unique_ptr<FreeSchedule> make_free_schedule(ScheduleKind kind,
                                                 const SmrConfig& cfg);

}  // namespace emr::smr
