// Classic hazard pointers (Michael, "Hazard Pointers: Safe Memory
// Reclamation for Lock-Free Objects", TPDS 2004). Each thread owns K
// single-writer hazard slots; protect() publishes the loaded pointer
// into a slot, fences, and re-reads the source until the publication is
// known to have been visible while the pointer was still reachable.
// Retired nodes collect in a per-thread list; once the list reaches the
// scan threshold the thread snapshots every slot in the system and hands
// the unprotected suffix to the FreeExecutor as one bag — so the
// paper's batch/amortized/pooling free schedules apply to HP retires
// exactly as they do to epoch bags.
//
// Churn: a departing handle nulls its hazard slots (nothing it ever
// protected stays pinned) and runs one departure scan over its retire
// list whose freeable part drains through the executor's adopted
// hand-over — at the FreeSchedule quota per op — instead of one batch free;
// survivors still hazarded by other threads park in the slot for the
// next owner's scans (or flush_all).
//
// Batching policy: the scan threshold is the base's cached FreeSchedule
// answer (fixed = the configured batch, adaptive = prorated by the
// registered population), floored at Michael's H+1 bound; this TU never
// reads the config's batching knobs.
#include <algorithm>
#include <atomic>
#include <vector>

#include "smr/internal.hpp"

namespace emr::smr::internal {
namespace {

struct alignas(64) HpThread {
  std::unique_ptr<std::atomic<void*>[]> slots;
  RetireList<void*> retired;
  // Scan scratch, cleared and reused: touched only by the slot's owner,
  // or under the registry lock by its departure scan.
  std::vector<void*> hazards;
};

class HpReclaimer final : public Reclaimer {
 public:
  HpReclaimer(const SmrContext& ctx, const SmrConfig& cfg,
              FreeExecutor& executor)
      : Reclaimer(ctx, cfg, executor),
        nlanes_(cfg.slot_capacity()),
        // Floor of 2: the ds/ traversals alternate two slots so the
        // previous hop stays protected while the next one publishes.
        nslots_(std::max<std::size_t>(cfg.hp_slots, 2)),
        threads_(cfg.slot_capacity()) {
    for (HpThread& t : threads_) {
      t.slots = std::make_unique<std::atomic<void*>[]>(nslots_);
      for (std::size_t i = 0; i < nslots_; ++i) {
        t.slots[i].store(nullptr, std::memory_order_relaxed);
      }
      t.retired.arm(scan_threshold());
      t.hazards.reserve(nlanes_ * nslots_);
    }
  }

  ~HpReclaimer() override { flush_all(); }

  const char* name() const override { return "hp"; }
  const char* family() const override { return "hp"; }

 protected:
  void end_op_slot(int slot_idx) override {
    clear_hazards(at(threads_, slot_idx));
  }

  void* protect_slot(int slot_idx, int idx, LoadFn load,
                     const void* src) override {
    HpThread& t = at(threads_, slot_idx);
    std::atomic<void*>& hp =
        t.slots[static_cast<std::size_t>(idx < 0 ? 0 : idx) % nslots_];
    void* p = load(src);
    for (;;) {
      hp.store(p, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      void* q = load(src);
      if (q == p) return p;  // publication was visible while p was live
      p = q;
    }
  }

  void retire_slot(int slot_idx, void* p) override {
    HpThread& t = at(threads_, slot_idx);
    if (t.retired.push(p)) scan(slot_idx, t);
  }

  void flush_slot(int slot_idx) override {
    HpThread& t = at(threads_, slot_idx);
    clear_hazards(t);
    executor().hand_over(slot_idx, /*adopted=*/false,
                         t.retired.take_all(scan_threshold()));
  }

  /// Departure: drop every hazard publication, then one scan hands the
  /// unprotected retires to the executor's adoption path (drained at
  /// the schedule's quota, never one burst); still-hazarded survivors
  /// park in the slot for the successor's scans.
  void on_slot_deregister(int slot_idx) override {
    HpThread& t = at(threads_, slot_idx);
    clear_hazards(t);
    if (!t.retired.empty()) scan(slot_idx, t, /*departing=*/true);
  }

  std::uint64_t epochs_advanced() const override {
    return scans_.load(std::memory_order_relaxed);
  }

 private:
  void clear_hazards(HpThread& t) {
    for (std::size_t i = 0; i < nslots_; ++i) {
      if (t.slots[i].load(std::memory_order_relaxed) != nullptr) {
        t.slots[i].store(nullptr, std::memory_order_release);
      }
    }
  }

  /// The schedule's threshold floored at Michael's R bound: a scan can
  /// only free anything once the list exceeds the total hazard count
  /// H = N*K.
  std::size_t scan_threshold() const {
    return std::max<std::size_t>(threshold(), nlanes_ * nslots_ + 1);
  }

  /// Snapshot every hazard slot, hand the unprotected retires to the
  /// executor, keep the protected ones for the next scan.
  void scan(int slot_idx, HpThread& t, bool departing = false) {
    std::vector<void*>& hazards = t.hazards;
    hazards.clear();
    for (const HpThread& th : threads_) {
      for (std::size_t i = 0; i < nslots_; ++i) {
        void* h = th.slots[i].load(std::memory_order_acquire);
        if (h != nullptr) hazards.push_back(h);
      }
    }
    std::sort(hazards.begin(), hazards.end());
    const std::uint64_t beat =
        scans_.fetch_add(1, std::memory_order_relaxed) + 1;
    progress_beat(slot_idx, beat);
    t.retired.scan(executor(), slot_idx, departing, scan_threshold(),
                   [&](void* p) {
                     return std::binary_search(hazards.begin(),
                                               hazards.end(), p);
                   });
  }

  std::size_t nlanes_;
  std::size_t nslots_;
  std::vector<HpThread> threads_;
  std::atomic<std::uint64_t> scans_{0};
};

}  // namespace

std::unique_ptr<Reclaimer> make_hp(const SmrContext& ctx,
                                   const SmrConfig& cfg,
                                   FreeExecutor& executor) {
  return std::make_unique<HpReclaimer>(ctx, cfg, executor);
}

}  // namespace emr::smr::internal
