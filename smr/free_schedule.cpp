// FreeSchedule (declared in smr/reclaimer.hpp): the one place in smr/
// that reads the config's batching knobs. Executors and scheme TUs
// consult the schedule (ci/check.sh greps to keep it that way — and the
// same grep keeps latency counters out of the scheme TUs).
#include <algorithm>
#include <stdexcept>
#include <string>

#include "smr/reclaimer.hpp"

namespace emr::smr {

namespace {

/// Target number of lane ops over which the adaptive controller aims to
/// clear a lane's backlog when the registered population matches the
/// configured steady state. More registrants shorten the horizon
/// proportionally: the table is producing garbage faster than any one
/// lane's ops are ticking, so each op must carry more of the drain.
constexpr std::size_t kDrainHorizonOps = 256;

/// Ceiling on the time one op-end drain burst may spend freeing, given
/// the lane's measured ns-per-free. Keeps the adaptive quantum from
/// recreating the very free-call stalls the paper measures when the
/// allocator path is expensive (remote frees, cache flushes).
constexpr std::uint64_t kMaxDrainNsPerOp = 50'000;

std::size_t auto_pool_cap(const SmrConfig& cfg) {
  if (cfg.pool_cap != 0) return cfg.pool_cap;
  return std::max<std::size_t>(cfg.batch_size * 4, 1024);
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument(what);
}

}  // namespace

FreeSchedule::FreeSchedule(FreeMode mode, const SmrConfig& cfg)
    : mode_(mode),
      drain_(cfg.af_drain_per_op),
      batch_(cfg.batch_size),
      capacity_(cfg.slot_capacity()),
      base_threads_(
          static_cast<std::size_t>(cfg.num_threads < 1 ? 1
                                                       : cfg.num_threads)),
      drain_min_(cfg.drain_min),
      drain_max_(cfg.drain_max),
      pool_cap_(auto_pool_cap(cfg)),
      flush_batch_(cfg.flush_batch),
      target_ns_(cfg.latency_target_us * 1000) {
  require(cfg.batch_size != 0,
          "invalid SmrConfig::batch_size: 0 (EMR_BATCH must be >= 1)");
  require(cfg.af_drain_per_op != 0,
          "invalid SmrConfig::af_drain_per_op: 0 (EMR_AF_DRAIN must be "
          ">= 1)");
  require(cfg.flush_batch != 0,
          "invalid SmrConfig::flush_batch: 0 (EMR_FLUSH_BATCH must be >= 1)");
  require(cfg.drain_min != 0,
          "invalid SmrConfig::drain_min: 0 (EMR_DRAIN_MIN must be >= 1)");
  require(cfg.drain_max >= cfg.drain_min,
          "invalid drain clamp: drain_max=" + std::to_string(cfg.drain_max) +
              " < drain_min=" + std::to_string(cfg.drain_min) +
              " (EMR_DRAIN_MAX must be >= EMR_DRAIN_MIN)");
  require(mode != FreeMode::kLatency || cfg.latency_target_us != 0,
          "invalid SmrConfig::latency_target_us: 0 (EMR_LATENCY_TARGET_US "
          "must be >= 1 microsecond for the latency schedule)");
}

const char* FreeSchedule::name() const {
  switch (mode_) {
    case FreeMode::kAdaptive:
      return "adaptive";
    case FreeMode::kLatency:
      return "latency";
    default:
      return "fixed";
  }
}

std::size_t FreeSchedule::horizon() const {
  const std::size_t pop = std::max<std::size_t>(population(), 1);
  return std::max<std::size_t>(kDrainHorizonOps * base_threads_ / pop, 1);
}

std::size_t FreeSchedule::adaptive_drain(const LaneStats& lane) const {
  if (lane.backlog == 0) return drain_min_;
  std::size_t quota = static_cast<std::size_t>(lane.backlog) / horizon() + 1;
  // timed_drained, not drained: only clocked drain bursts feed
  // drain_ns, while drained also counts pool recycles and batch
  // whole-bag frees that would dilute the ns-per-free estimate and
  // defeat the stall cap.
  if (lane.timed_drained > 0 && lane.drain_ns > 0) {
    const std::uint64_t ns_per_free =
        std::max<std::uint64_t>(lane.drain_ns / lane.timed_drained, 1);
    quota = std::min<std::size_t>(
        quota, static_cast<std::size_t>(kMaxDrainNsPerOp / ns_per_free) + 1);
  }
  return std::clamp(quota, drain_min_, drain_max_);
}

std::size_t FreeSchedule::flush_quota(const LaneStats& lane) const {
  if (!adaptive()) return flush_batch_;
  const std::size_t quota =
      lane.stash_backlog == 0
          ? 1
          : static_cast<std::size_t>(lane.stash_backlog) / horizon() + 1;
  return scaled(std::min(quota, flush_batch_), 1, flush_batch_);
}

std::size_t FreeSchedule::daemon_quota(const LaneStats& lane,
                                       bool pressure) const {
  if (adaptive()) {
    const std::size_t q = adaptive_drain(lane);
    return pressure ? q * 8 : q * 2;
  }
  if (pressure) return batch_;
  return std::max(drain_, batch_ / 8);
}

std::size_t FreeSchedule::scan_threshold(std::size_t population) const {
  if (!adaptive()) return batch_;
  // Prorate the configured batch by the live fraction of the slot
  // table: the configured EMR_BATCH buys its amortization when every
  // slot is producing garbage, but a half-empty table reaches the same
  // per-thread amortization with half the limbo volume — so bags seal
  // (and scans trigger) sooner, and peak garbage tracks the population
  // instead of the worst-case constant.
  const std::size_t pop = std::clamp<std::size_t>(population, 1, capacity_);
  return std::max<std::size_t>(batch_ * pop / capacity_, 1);
}

void FreeSchedule::on_tail_latency(std::uint64_t p999_ns) {
  if (mode_ != FreeMode::kLatency) return;
  last_p999_.store(p999_ns, std::memory_order_relaxed);
  // Single writer (the harness sampler thread): plain load-modify-store
  // on the relaxed atomic is race-free; concurrent drain_quota readers
  // see either scale.
  std::size_t s = scale();
  if (p999_ns > target_ns_) {
    s = std::max(s / 2, kScaleMin);
  } else if (p999_ns * 4 < target_ns_ * 3) {
    s = std::min(s + s / 4 + 1, kScaleMax);
  }
  scale_.store(s, std::memory_order_relaxed);
}

}  // namespace emr::smr
