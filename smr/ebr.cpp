// Epoch-based reclamation family: DEBRA (per-thread limbo bags),
// QSBR/RCU (quiescent-state announcement by release stores, no fence),
// and the leaking "none" baseline. Reads are plain loads — the
// begin_op/end_op bracket is the protection. The pointer-protecting
// schemes that used to alias this machinery live in their own
// translation units now (smr/hp.cpp, smr/he_ibr_wfe.cpp, smr/nbr.cpp).
//
// Epochs advance on demand: `need_` is the epoch the youngest sealed bag
// waits for (its seal stamp + 2), raised by a CAS-max at every seal and
// at every departure that leaves bags parked. An advance is attempted at
// the seal, at the departure and every 16th op end, and goes ahead only
// while epoch_ < need_ and every active announcement is at the current
// epoch. With no bag waiting the epoch stands still, so begin_op reads a
// line nobody writes. "none" never collects, so it never raises need_
// and its epoch never moves.
//
// Churn: a departing handle clears its announcement (so it can never pin
// the epoch again), seals its bag and drains whatever grace already
// allows; sealed bags that are still too young stay parked in the slot,
// stamped with their seal epoch, and the slot's next owner adopts them
// on registration (flush_all drains vacant slots at teardown). Every bag
// a departing thread leaves behind is marked adopted: when grace later
// admits it, it goes through the executor's adopted hand-over and drains
// at the FreeSchedule quota over the successor's next ops instead of in
// one free burst.
//
// Batching policy: the bag-seal threshold is the base's cached
// FreeSchedule answer (fixed = the configured batch, adaptive = prorated
// by the registered population); this TU never reads the config's
// batching knobs.
#include <atomic>
#include <vector>

#include "smr/internal.hpp"

namespace emr::smr::internal {
namespace {

constexpr std::uint64_t kAdvanceEveryOps = 16;

struct alignas(64) EbrSlot {
  // (epoch << 1) | active. Inactive threads never block an advance.
  std::atomic<std::uint64_t> announce{0};
  // Owner-private bookkeeping starts on its own cache line: every
  // advance scan reads every slot's announce, and the owner rewrites
  // bag/ops on every retire — sharing the line would bounce it across
  // the whole population once per epoch check. Bags are stamped with
  // their seal epoch.
  alignas(64) LimboBags limbo;
  std::uint64_t ops = 0;
};
static_assert(alignof(EbrSlot) == 64 && sizeof(EbrSlot) % 64 == 0,
              "EbrSlot must tile cache lines so announce never shares "
              "one with a neighbour slot");

class EbrReclaimer final : public Reclaimer {
 public:
  EbrReclaimer(const EbrOptions& opt, const SmrContext& ctx,
               const SmrConfig& cfg, FreeExecutor& executor)
      : Reclaimer(ctx, cfg, executor),
        opt_(opt),
        slots_(cfg.slot_capacity()) {}

  ~EbrReclaimer() override { flush_all(); }

  const char* name() const override { return opt_.name; }
  const char* family() const override { return "ebr"; }

 protected:
  void begin_op_slot(int slot_idx) override {
    EbrSlot& s = at(slots_, slot_idx);
    if (opt_.quiescent) {
      // Release, not relaxed (here and in end_op): an advance that
      // reads this announcement must happen after the reader's previous
      // op, or freeing what that op read is a data race.
      const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
      s.announce.store((e << 1) | 1, std::memory_order_release);
    } else {
      const std::uint64_t e = epoch_.load(std::memory_order_acquire);
      s.announce.store((e << 1) | 1, std::memory_order_seq_cst);
    }
  }

  void end_op_slot(int slot_idx) override {
    EbrSlot& s = at(slots_, slot_idx);
    s.announce.store(s.announce.load(std::memory_order_relaxed) & ~1ULL,
                     std::memory_order_release);
    if (++s.ops % kAdvanceEveryOps == 0) try_advance(slot_idx);
    if (!opt_.leak) collect_safe(slot_idx, s);
  }

  void retire_slot(int slot_idx, void* p) override {
    LimboBags& l = at(slots_, slot_idx).limbo;
    l.open.push_back(p);
    if (l.open.size() >= threshold()) {
      const std::uint64_t e = epoch();
      l.seal(e);
      raise_need(e + 2);
      try_advance(slot_idx);
    }
  }

  void flush_slot(int slot_idx) override {
    at(slots_, slot_idx).limbo.flush(executor(), slot_idx, epoch());
  }

  /// Generation hand-off: the incoming thread adopts its predecessor's
  /// parked bags, draining the ones whose grace has already elapsed.
  void on_slot_register(int slot_idx) override {
    if (!opt_.leak) collect_safe(slot_idx, at(slots_, slot_idx));
  }

  /// Departure: the announcement drops (a vacated slot can never hold
  /// an epoch back) and the limbo departs: every parked bag is adopted,
  /// and the parked bags ask for the departure stamp + 2.
  void on_slot_deregister(int slot_idx) override {
    EbrSlot& s = at(slots_, slot_idx);
    s.announce.store(0, std::memory_order_release);
    const std::uint64_t e = epoch();
    s.limbo.depart(e);
    if (!s.limbo.sealed.empty()) raise_need(e + 2);
    if (!opt_.leak) {
      try_advance(slot_idx);
      collect_safe(slot_idx, s);
    }
  }

  std::uint64_t epochs_advanced() const override {
    return epochs_advanced_.load(std::memory_order_relaxed);
  }

 private:
  /// The seal stamp: the current global epoch.
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Hands every bag two epochs behind the global epoch to the executor
  /// (adopted bags through the amortizing adoption path).
  void collect_safe(int slot_idx, EbrSlot& s) {
    if (s.limbo.sealed.empty()) return;
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    const auto safe = [e](const SealedBag& b) { return b.stamp + 2 <= e; };
    for (SealedBag b; s.limbo.take_safe(safe, b);) {
      executor().hand_over(slot_idx, b.adopted, std::move(b.nodes));
    }
  }

  /// CAS-max: a plain store could lower the need another lane raised
  /// for a younger bag, which would then never get its second advance.
  /// "none" never collects, so its bags never ask for an advance.
  void raise_need(std::uint64_t need) {
    if (opt_.leak) return;
    std::uint64_t cur = need_.load(std::memory_order_relaxed);
    while (cur < need && !need_.compare_exchange_weak(
                             cur, need, std::memory_order_relaxed)) {
    }
  }

  /// Moves the epoch one step, only while a sealed bag still waits for
  /// it and no active thread announces an older epoch.
  void try_advance(int slot_idx) {
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    if (e >= need_.load(std::memory_order_relaxed)) return;
    for (const EbrSlot& s : slots_) {
      const std::uint64_t a = s.announce.load(std::memory_order_acquire);
      if ((a & 1) != 0 && (a >> 1) != e) return;  // active in an old epoch
    }
    std::uint64_t expected = e;
    if (epoch_.compare_exchange_strong(expected, e + 1,
                                       std::memory_order_acq_rel)) {
      epochs_advanced_.fetch_add(1, std::memory_order_relaxed);
      progress_beat(slot_idx, e + 1);
    }
  }

  EbrOptions opt_;
  std::vector<EbrSlot> slots_;
  std::atomic<std::uint64_t> epoch_{0};
  // The epoch the youngest sealed bag needs; only ever raised.
  std::atomic<std::uint64_t> need_{0};
  std::atomic<std::uint64_t> epochs_advanced_{0};
};

}  // namespace

std::unique_ptr<Reclaimer> make_ebr(const EbrOptions& opt,
                                    const SmrContext& ctx,
                                    const SmrConfig& cfg,
                                    FreeExecutor& executor) {
  return std::make_unique<EbrReclaimer>(opt, ctx, cfg, executor);
}

}  // namespace emr::smr::internal
