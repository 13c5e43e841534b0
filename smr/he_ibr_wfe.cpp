// Era-clock reclaimers: hazard eras (Ramalhete & Correia, DISC 2017),
// interval-based reclamation (Wen et al., PPoPP 2018) and wait-free eras
// (Nikolaev & Ravindran, PPoPP 2020). All three share one skeleton: a
// global era counter advanced every `epoch_freq` node allocations, nodes
// stamped with a lifetime interval [birth era, retire era], and a scan
// that hands the executor every retired node whose interval no active
// reservation intersects. They differ only in what a reader publishes:
//
//   he  - one era per protection slot; protect() republishes and
//         re-validates until the global era stops moving underneath it.
//   ibr - a single per-thread reservation interval [lower, upper];
//         begin_op pins both to the current era and protect() only ever
//         extends upper (the 2GE variant's one-store read path).
//   wfe - he with a bounded validate loop; after a few failed attempts
//         the thread publishes an open-ended reservation [era, +inf)
//         instead of looping. (The original gains wait freedom with
//         per-thread helper records; the open reservation is this
//         reproduction's bounded stand-in and is strictly more
//         conservative on the reclamation side.)
//
// Birth eras live in the intrusive smr::NodeHeader at the front of every
// node: alloc_node stamps the current era there and retire() reads it
// back, so a node's lifetime interval travels with the node itself (the
// IBR paper's birth_epoch field) instead of through a locked side table.
//
// Churn: a departing handle clears every reservation it published (its
// eras/interval/open floor can never pin reclamation again) and runs a
// departure scan whose freeable part drains through the executor's
// adopted hand-over — at the FreeSchedule quota per op — instead of one
// batch free; retires a live reservation still covers park in the slot
// for the next owner (or flush_all).
//
// Batching policy: the retire-list scan threshold is the base's cached
// FreeSchedule answer (fixed = the configured batch, adaptive = prorated
// by the registered population); this TU never reads the config's
// batching knobs.
#include <algorithm>
#include <atomic>
#include <vector>

#include "smr/internal.hpp"

namespace emr::smr::internal {
namespace {

constexpr int kWfeValidateBound = 4;

struct RetiredNode {
  void* p;
  std::uint64_t birth;
  std::uint64_t retire;
};

struct alignas(64) EraThread {
  // he/wfe: published eras, one per protection slot (0 = none).
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
  // ibr: the reservation interval (lower == 0 = inactive).
  std::atomic<std::uint64_t> lower{0};
  std::atomic<std::uint64_t> upper{0};
  // wfe fallback: reserves every era >= this value (0 = none).
  std::atomic<std::uint64_t> open{0};
  // Owner-private bookkeeping on its own line: every scan reads every
  // thread's reservations above, and the owner appends to retired on
  // every retire — a shared line would bounce once per scanned slot.
  alignas(64) RetireList<RetiredNode> retired;
  std::uint64_t allocs = 0;
};
static_assert(alignof(EraThread) == 64 && sizeof(EraThread) % 64 == 0,
              "EraThread must tile cache lines so the published "
              "reservations never share one with a neighbour slot");

const char* era_variant_name(EraVariant v) {
  switch (v) {
    case EraVariant::kHazardEras:
      return "he";
    case EraVariant::kInterval:
      return "ibr";
    case EraVariant::kWaitFreeEras:
      return "wfe";
  }
  return "era";
}

class EraReclaimer final : public Reclaimer {
 public:
  EraReclaimer(EraVariant variant, const SmrContext& ctx,
               const SmrConfig& cfg, FreeExecutor& executor)
      : Reclaimer(ctx, cfg, executor),
        name_(era_variant_name(variant)),
        variant_(variant),
        // Floor of 2 for the ds/ hand-over-hand slot alternation.
        nslots_(std::max<std::size_t>(cfg.hp_slots, 2)),
        epoch_freq_(std::max<std::size_t>(cfg.epoch_freq, 1)),
        threads_(cfg.slot_capacity()) {
    for (EraThread& t : threads_) {
      t.slots = std::make_unique<std::atomic<std::uint64_t>[]>(nslots_);
      for (std::size_t i = 0; i < nslots_; ++i) {
        t.slots[i].store(0, std::memory_order_relaxed);
      }
      t.retired.arm(threshold());
    }
  }

  ~EraReclaimer() override { flush_all(); }

  const char* name() const override { return name_; }
  const char* family() const override { return "era"; }

 protected:
  void begin_op_slot(int tid) override {
    if (variant_ != EraVariant::kInterval) return;
    EraThread& t = at(threads_, tid);
    const std::uint64_t e = era_.load(std::memory_order_acquire);
    t.lower.store(e, std::memory_order_relaxed);
    t.upper.store(e, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  void end_op_slot(int tid) override {
    EraThread& t = at(threads_, tid);
    switch (variant_) {
      case EraVariant::kInterval:
        t.upper.store(0, std::memory_order_relaxed);
        t.lower.store(0, std::memory_order_release);
        break;
      case EraVariant::kWaitFreeEras:
        t.open.store(0, std::memory_order_release);
        [[fallthrough]];
      case EraVariant::kHazardEras:
        for (std::size_t i = 0; i < nslots_; ++i) {
          if (t.slots[i].load(std::memory_order_relaxed) != 0) {
            t.slots[i].store(0, std::memory_order_release);
          }
        }
        break;
    }
  }

  void* protect_slot(int tid, int idx, LoadFn load,
                     const void* src) override {
    EraThread& t = at(threads_, tid);
    switch (variant_) {
      case EraVariant::kInterval: {
        // One announcement store per era move; the common path (era
        // unchanged since begin_op) is a plain load.
        for (;;) {
          void* p = load(src);
          const std::uint64_t e = era_.load(std::memory_order_acquire);
          if (t.upper.load(std::memory_order_relaxed) == e) return p;
          t.upper.store(e, std::memory_order_seq_cst);
          std::atomic_thread_fence(std::memory_order_seq_cst);
        }
      }
      case EraVariant::kHazardEras:
        return protect_eras(t, idx, load, src, /*bound=*/0);
      case EraVariant::kWaitFreeEras:
        return protect_eras(t, idx, load, src, kWfeValidateBound);
    }
    return load(src);
  }

  void retire_slot(int tid, void* p) override {
    EraThread& t = at(threads_, tid);
    const std::uint64_t e = era_.load(std::memory_order_acquire);
    const std::uint64_t birth = static_cast<const NodeHeader*>(p)->birth_era;
    if (t.retired.push(RetiredNode{p, birth, e})) scan(tid, t);
  }

  void* alloc_node_slot(int tid, std::size_t size) override {
    void* p = executor().alloc_node(tid, size);
    EraThread& t = at(threads_, tid);
    // Stamp the intrusive header; pool-recycled nodes are re-stamped here
    // every time they leave limbo through alloc_node.
    static_cast<NodeHeader*>(p)->birth_era =
        era_.load(std::memory_order_relaxed);
    if (++t.allocs % epoch_freq_ == 0) advance_era(tid);
    return p;
  }

  /// Departure: every reservation the thread published drops (a vacated
  /// slot can never pin an era interval), then one scan drains whatever
  /// no remaining reservation covers — through the executor's adoption
  /// path, at the schedule's quota per op; survivors park for the
  /// successor.
  void on_slot_deregister(int tid) override {
    EraThread& t = at(threads_, tid);
    clear_reservations(t);
    if (!t.retired.empty()) scan(tid, t, /*departing=*/true);
  }

  void flush_slot(int tid) override {
    EraThread& t = at(threads_, tid);
    clear_reservations(t);
    executor().hand_over(tid, /*adopted=*/false,
                         t.retired.take_all(threshold()));
  }

  std::uint64_t epochs_advanced() const override {
    return era_.load(std::memory_order_relaxed) - 1;
  }

 private:
  void clear_reservations(EraThread& t) {
    t.lower.store(0, std::memory_order_relaxed);
    t.upper.store(0, std::memory_order_relaxed);
    t.open.store(0, std::memory_order_release);
    for (std::size_t i = 0; i < nslots_; ++i) {
      if (t.slots[i].load(std::memory_order_relaxed) != 0) {
        t.slots[i].store(0, std::memory_order_release);
      }
    }
  }

  /// he/wfe read path: publish the current era in the slot, fence, and
  /// re-validate that the era did not move while loading. `bound` == 0
  /// loops until stable (he); otherwise after `bound` failures the
  /// thread publishes an open-ended reservation and returns (wfe).
  void* protect_eras(EraThread& t, int idx, LoadFn load, const void* src,
                     int bound) {
    std::atomic<std::uint64_t>& slot_era =
        t.slots[static_cast<std::size_t>(idx < 0 ? 0 : idx) % nslots_];
    std::uint64_t published = slot_era.load(std::memory_order_relaxed);
    std::uint64_t first_seen = 0;
    for (int attempt = 0;; ++attempt) {
      const std::uint64_t e = era_.load(std::memory_order_acquire);
      if (first_seen == 0) first_seen = e;
      if (e != published) {
        slot_era.store(e, std::memory_order_seq_cst);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        published = e;
      }
      void* p = load(src);
      if (era_.load(std::memory_order_acquire) == published) return p;
      if (bound != 0 && attempt + 1 >= bound) {
        // Reserve [first_seen, +inf), from the era this call *started*
        // at: any node unlinked-then-retired concurrently with the call
        // gets a retire era >= first_seen and is pinned, so one final
        // load is covered. (A node retired strictly before the call
        // began can no longer be reached from a live source or from a
        // node an earlier protect in this op still covers.)
        t.open.store(first_seen, std::memory_order_seq_cst);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        return load(src);
      }
    }
  }

  /// One read of every thread's published protection state, taken once
  /// per scan so classifying a node is O(log) instead of a fresh sweep
  /// of threads x slots acquire loads per retired node.
  struct ReservationSnapshot {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;  // ibr
    std::vector<std::uint64_t> eras;  // he/wfe slot eras, sorted
    std::uint64_t min_open = 0;       // wfe fallback floor; 0 = none
  };

  ReservationSnapshot snapshot_reservations() const {
    ReservationSnapshot s;
    for (const EraThread& t : threads_) {
      const std::uint64_t lo = t.lower.load(std::memory_order_acquire);
      if (lo != 0) {
        // A scan racing begin_op can observe lower before upper lands;
        // clamping to [lo, max(lo, hi)] keeps that window conservative.
        const std::uint64_t hi =
            std::max(lo, t.upper.load(std::memory_order_acquire));
        s.intervals.emplace_back(lo, hi);
      }
      const std::uint64_t open = t.open.load(std::memory_order_acquire);
      if (open != 0 && (s.min_open == 0 || open < s.min_open)) {
        s.min_open = open;
      }
      for (std::size_t i = 0; i < nslots_; ++i) {
        const std::uint64_t e = t.slots[i].load(std::memory_order_acquire);
        if (e != 0) s.eras.push_back(e);
      }
    }
    std::sort(s.eras.begin(), s.eras.end());
    return s;
  }

  /// True iff some snapshotted reservation intersects the node's
  /// lifetime interval [birth, retire].
  static bool reserved(const ReservationSnapshot& s, const RetiredNode& n) {
    if (s.min_open != 0 && n.retire >= s.min_open) return true;
    for (const auto& [lo, hi] : s.intervals) {
      if (n.birth <= hi && lo <= n.retire) return true;
    }
    const auto it =
        std::lower_bound(s.eras.begin(), s.eras.end(), n.birth);
    return it != s.eras.end() && *it <= n.retire;
  }

  void scan(int tid, EraThread& t, bool departing = false) {
    const ReservationSnapshot snap = snapshot_reservations();
    t.retired.scan(executor(), tid, departing, threshold(),
                   [&](const RetiredNode& n) { return reserved(snap, n); });
  }

  void advance_era(int tid) {
    const std::uint64_t e =
        era_.fetch_add(1, std::memory_order_acq_rel) + 1;
    progress_beat(tid, e);
  }

  const char* name_;
  EraVariant variant_;
  std::size_t nslots_;
  std::size_t epoch_freq_;
  std::vector<EraThread> threads_;
  std::atomic<std::uint64_t> era_{1};
};

}  // namespace

std::unique_ptr<Reclaimer> make_era(EraVariant variant,
                                    const SmrContext& ctx,
                                    const SmrConfig& cfg,
                                    FreeExecutor& executor) {
  return std::make_unique<EraReclaimer>(variant, ctx, cfg, executor);
}

}  // namespace emr::smr::internal
