// The scheme-independent half of every Reclaimer: the registration-slot
// registry behind the ThreadHandle API, the cached seal/scan threshold,
// the teardown loop and the stats/instrument plumbing. Registration and
// release are deliberately coarse (one mutex): they happen at thread
// birth/death — at most once per churn interval — while the per-op paths
// stay lock-free and touch only the slot the handle pins.
#include <algorithm>

#include "core/timing.hpp"
#include "smr/reclaimer.hpp"

namespace emr::smr {

Reclaimer::Reclaimer(const SmrContext& ctx, const SmrConfig& cfg,
                     FreeExecutor& executor)
    : ctx_(ctx), executor_(executor), slot_state_(cfg.slot_capacity()) {
  refresh_threshold();
  free_slots_.reserve(slot_state_.size());
  // LIFO pop order hands out slot 0 first, matching the dense-tid layout
  // instruments and tests expect for a churn-free population.
  for (std::size_t i = slot_state_.size(); i > 0; --i) {
    free_slots_.push_back(static_cast<int>(i - 1));
  }
}

ThreadHandle Reclaimer::register_thread() {
  std::lock_guard<std::mutex> lock(reg_mu_);
  if (free_slots_.empty()) {
    throw std::runtime_error(
        "register_thread: all " + std::to_string(slot_state_.size()) +
        " registration slots are live (capacity = num_threads + "
        "extra_slots; raise SmrConfig::num_threads or "
        "SmrConfig::extra_slots — EMR_EXTRA_SLOTS from the harness)");
  }
  const int slot = free_slots_.back();
  free_slots_.pop_back();
  SlotState& s = slot_state_[static_cast<std::size_t>(slot)];
  ++s.generation;
  // Adoption hook first: the incoming thread owns the slot's parked
  // backlog before the slot is visible as active to ring/scan logic.
  on_slot_register(slot);
  s.active.store(true, std::memory_order_seq_cst);
  const std::size_t live =
      active_count_.fetch_add(1, std::memory_order_acq_rel) + 1;
  executor_.schedule().on_population(live);
  refresh_threshold();
  return ThreadHandle(this, slot, s.generation);
}

void Reclaimer::deregister(ThreadHandle& h) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  const int slot = h.slot_;
  SlotState& s = slot_state_[static_cast<std::size_t>(slot)];
  // Inactive first so scheme departure hooks (token hand-off, epoch
  // advance checks) already see the slot as vacant.
  s.active.store(false, std::memory_order_seq_cst);
  const std::size_t live =
      active_count_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  executor_.schedule().on_population(live);
  refresh_threshold();
  on_slot_deregister(slot);
  // After the scheme has parked the slot's bags, splice the departing
  // lane's remote-free stash into its bag queue: a vacant lane runs
  // no ops, so nothing would flush it until the daemon's next sweep, and
  // a daemon-less config would strand the blocks outright.
  executor_.on_lane_released(slot);
  free_slots_.push_back(slot);
}

void Reclaimer::refresh_threshold() {
  threshold_.store(
      std::max<std::size_t>(
          executor_.schedule().scan_threshold(active_slots()), 1),
      std::memory_order_relaxed);
}

void Reclaimer::flush_all() {
  for (std::size_t i = 0; i < slot_state_.size(); ++i) {
    const int slot = static_cast<int>(i);
    flush_slot(slot);
    executor_.quiesce(slot);
  }
}

SmrStats Reclaimer::stats() const {
  SmrStats st;
  // Exit counter before entry counter (the lane_stats() rule): a node is
  // freed only after its retire was counted, so a later-read `retired`
  // is never below an earlier-read `freed` and `pending` cannot wrap.
  st.freed = executor_.total_freed();
  st.retired = retired_.n.load(std::memory_order_relaxed);
  st.pending = st.retired - st.freed;
  st.epochs_advanced = epochs_advanced();
  return st;
}

void Reclaimer::progress_beat(int slot, std::uint64_t beat) const {
  // Every scheme funnels through here so the cross-scheme timelines and
  // garbage censuses stay comparable.
  if (ctx_.timeline != nullptr && ctx_.timeline->enabled()) {
    const std::uint64_t now = now_ns();
    ctx_.timeline->record(slot, EventKind::kEpochAdvance, now, now);
  }
  if (ctx_.garbage != nullptr && ctx_.garbage->enabled()) {
    ctx_.garbage->record(beat, stats().pending);
  }
}

SmrStats Reclaimer::stats_with_lanes() const {
  // Lanes first, then the scheme-wide totals: lane_stats() reads each
  // lane's exit counters (drained/flushed) before its entry counters
  // (enqueued/stashed), so a concurrent op can only make a lane look
  // slightly *behind* — derived gauges (backlog, stash_backlog) never go
  // transiently negative. The scheme totals are read last for the same
  // reason: they can only over-count completed work relative to the lane
  // rows, never report work the lanes have not yet seen. The snapshot as
  // a whole is still not a single atomic cut — rows taken while traffic
  // is live may disagree by in-flight ops — and consumers (JSON
  // emitters, the daemon tick) must treat it as monotone-consistent, not
  // exact.
  std::vector<LaneStats> lanes;
  lanes.reserve(executor_.lane_count());
  for (std::size_t i = 0; i < executor_.lane_count(); ++i) {
    lanes.push_back(executor_.lane_stats(static_cast<int>(i)));
  }
  SmrStats st = stats();
  st.lanes = std::move(lanes);
  return st;
}

}  // namespace emr::smr
