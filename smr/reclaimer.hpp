// Safe-memory-reclamation interface. A Reclaimer decides *when* a retired
// node may be freed; its FreeExecutor decides *how* the free calls reach
// the allocator (one big batch per limbo bag, amortized per-op drains, or
// recycling through an object pool). The paper's subject is exactly that
// split: the same reclaimer can be catastrophic or fast depending on the
// free schedule it hands the allocator.
//
// Thread model: threads participate by holding a ThreadHandle obtained
// from Reclaimer::register_thread(). The handle is RAII — destruction (or
// release()) deregisters the thread, drains or hands off its retire
// backlog, and recycles its slot for a future thread. There is no fixed
// thread population: workloads where threads join and leave mid-run (the
// harness's churn mode) are first-class, and a departed thread can never
// pin the epoch or leak its limbo bags.
//
// Scheme families behind this interface (see docs/SMR_SCHEMES.md):
//   smr/ebr.cpp        - epoch-based: none, qsbr, rcu, debra
//   smr/token.cpp      - Token-EBR: token_naive, token_passfirst, token
//   smr/hp.cpp         - classic hazard pointers: hp
//   smr/he_ibr_wfe.cpp - era-clock schemes: he, ibr, wfe
//   smr/nbr.cpp        - neutralization-based: nbr, nbrplus
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/garbage.hpp"
#include "core/spinlock.hpp"
#include "core/timeline.hpp"

namespace emr::smr {

class Reclaimer;

/// Row `slot` of a per-slot (per-lane) table; slots are always in range.
template <typename Table>
auto& at(Table& rows, int slot) {
  assert(slot >= 0 && static_cast<std::size_t>(slot) < rows.size());
  return rows[static_cast<std::size_t>(slot)];
}

struct SmrConfig {
  /// Expected steady-state worker population; sizes the registration
  /// slot table together with `extra_slots`.
  int num_threads = 1;
  /// Registration slots beyond num_threads: headroom for a replacement
  /// thread registering while its predecessor's slot is still draining
  /// (churn overlap) and for the single-threaded teardown handle the
  /// ds/ destructors take. Floored at 1.
  std::size_t extra_slots = 2;
  /// Retires per limbo bag before the bag is sealed and an epoch advance
  /// is attempted (the paper's batch size; Experiment 2 uses 32768). The
  /// pointer-protecting schemes use the same value as their retire-list
  /// scan threshold, so EMR_BATCH drives every family's batching.
  /// Must be >= 1.
  std::size_t batch_size = 2048;
  /// Asynchronous-free drain rate: reclaimable objects freed per
  /// operation by the _af variants (section 7 prescribes ~frees/op).
  /// Must be >= 1. EMR_AF_DRAIN.
  std::size_t af_drain_per_op = 1;
  /// Per-thread protection slots for the hazard-class schemes (hp, he,
  /// wfe). Michael's HP calls this K; protect()'s `idx` is taken mod
  /// this count. EMR_HP_SLOTS.
  std::size_t hp_slots = 8;
  /// Era-clock advance frequency for he/ibr/wfe/nbr: the global era is
  /// bumped once per this many node allocations on any one thread (the
  /// IBR paper's epoch_freq). EMR_EPOCH_FREQ.
  std::size_t epoch_freq = 64;
  /// Pooling inventory cap per lane; 0 = auto (four batches, floored
  /// at 1024). EMR_POOL_CAP — the env path rejects non-positive values
  /// instead of silently repairing them.
  std::size_t pool_cap = 0;
  /// Clamp for the adaptive schedule's per-op drain quantum: the
  /// controller never drains fewer than drain_min or more than
  /// drain_max nodes at one op end. EMR_DRAIN_MIN / EMR_DRAIN_MAX.
  std::size_t drain_min = 1;
  std::size_t drain_max = 64;
  /// Tail-latency target for the latency-target schedule (*_latency
  /// names, EMR_LATENCY_TARGET_US): when the observed per-op p99.9
  /// overshoots this many microseconds the schedule shrinks its drain
  /// quantum, and relaxes it again while the tail sits comfortably
  /// under. Must be >= 1 for the latency schedule; other modes
  /// ignore it.
  std::uint64_t latency_target_us = 1000;
  /// Home-flush routing (docs/FREE_SCHEDULES.md): ceiling on how many
  /// stashed remote blocks the owning lane flushes locally at one op
  /// end — the FreeSchedule::flush_quota quantum. Bigger batches
  /// amortize the hand-off further but hold more dead memory in the
  /// stashes (the "too epic" trade-off one layer down). Must be >= 1.
  /// EMR_FLUSH_BATCH.
  std::size_t flush_batch = 64;
  /// Reclamation tenants sharing this bundle (docs/SERVICE_MODE.md):
  /// the executor keeps per-(lane, tenant) retire/enqueue/drain
  /// counters so one tenant's garbage crowding out another is a
  /// measurable number. 1 (the default) keeps every tenant-accounting
  /// path compiled out of the hot loop. EMR_TENANTS.
  int tenants = 1;

  /// Total registration slots: how many ThreadHandles may be live at
  /// once. Every per-thread array in the schemes, executors and modelled
  /// allocators is sized from this.
  std::size_t slot_capacity() const {
    const std::size_t base =
        static_cast<std::size_t>(num_threads < 1 ? 1 : num_threads);
    const std::size_t extra = extra_slots < 1 ? 1 : extra_slots;
    return base + extra;
  }
};

/// Shared services handed to a reclaimer at construction. Only
/// `allocator` is mandatory; null instruments are simply not recorded to.
struct SmrContext {
  alloc::Allocator* allocator = nullptr;
  Timeline* timeline = nullptr;
  GarbageCensus* garbage = nullptr;
};

/// Intrusive per-node header. Every pointer that flows through
/// alloc_node()/retire() must begin with one of these, and the bytes are
/// owned by the reclaimer. While the node is live, the era-clock schemes
/// (he/ibr/wfe) stamp its birth era here at allocation and read it back
/// at retire, so a node's lifetime interval travels with the node
/// instead of through a locked side table. From retire onward the word
/// is the node's NodeChain link: limbo bags, lane queues and home-flush
/// stashes thread the dead node through it, and alloc_node() zeroes it
/// again. Callers must never write to the header — allocate with
/// make_node<T>() (which preserves the stamp across construction) or
/// leave the first sizeof(NodeHeader) bytes untouched.
struct NodeHeader {
  std::uint64_t birth_era;
};
static_assert(sizeof(NodeHeader) == sizeof(void*),
              "the header word doubles as the NodeChain link");

/// A FIFO of retired nodes linked through their NodeHeader words — the
/// one bag format from retire to free. Limbo bags, scan hand-overs, the
/// executor's lane queues and the home-flush stash remainder are all
/// NodeChains, so moving nodes between them is an O(1) splice and never
/// allocates. A node belongs to at most one chain: moves leave the
/// source empty and copies are disallowed.
class NodeChain {
 public:
  NodeChain() = default;
  NodeChain(NodeChain&& o) noexcept { splice(std::move(o)); }
  NodeChain& operator=(NodeChain&& o) noexcept {
    assert(empty() && "assigning over a chain would drop its nodes");
    splice(std::move(o));
    return *this;
  }

  /// The link word of a dead node, read and written as bytes: the word
  /// was the live node's NodeHeader, so a typed access would alias it.
  static void* next(const void* node) {
    void* n = nullptr;
    std::memcpy(&n, node, sizeof n);
    return n;
  }
  static void set_next(void* node, void* n) { std::memcpy(node, &n, sizeof n); }

  /// Walks a null-terminated list already linked through the headers (a
  /// grabbed home-flush stash) into a chain.
  static NodeChain from_list(void* head) {
    NodeChain c;
    c.head_ = head;
    for (void* p = head; p != nullptr; p = next(p), ++c.size_) c.tail_ = p;
    return c;
  }

  bool empty() const { return head_ == nullptr; }
  std::size_t size() const { return size_; }

  void push_back(void* p) {
    set_next(p, nullptr);
    splice(from_list(p));
  }

  /// Unlinks and returns the oldest node. Its link is read here, so the
  /// caller may overwrite the header (a free, a stash push) at once.
  void* pop_front() {
    void* p = head_;
    head_ = next(p);
    --size_;
    return p;
  }

  /// Appends every node of `o` in order, leaving `o` empty.
  void splice(NodeChain&& o) {
    if (o.empty()) return;
    void* first = std::exchange(o.head_, nullptr);
    if (empty()) {
      head_ = first;
    } else {
      set_next(tail_, first);
    }
    tail_ = o.tail_;
    size_ += std::exchange(o.size_, 0);
  }

 private:
  void* head_ = nullptr;
  void* tail_ = nullptr;  // meaningful only while non-empty
  std::size_t size_ = 0;
};

/// Per-registration-slot counters every FreeExecutor maintains. The
/// FreeSchedule's adaptive controller samples them to size its drain
/// quantum, and Reclaimer::stats_with_lanes() surfaces them to the
/// harness. All fields are monotonic except `backlog`.
struct LaneStats {
  std::uint64_t ops = 0;       // completed operations on this lane
  std::uint64_t enqueued = 0;  // nodes handed over as reclaimable
  std::uint64_t drained = 0;   // nodes freed or pool-recycled
  std::uint64_t adopted = 0;   // nodes inherited from departing slots
  std::uint64_t backlog = 0;   // nodes currently held for this lane
  /// ns spent inside amortized drain bursts, and the node count those
  /// clocked bursts freed — the denominator for a ns-per-free estimate
  /// (`drained` also counts pool recycles and batch whole-bag frees,
  /// which are never clocked and would dilute it). Tracked only under
  /// an adaptive schedule (FreeSchedule::adaptive); the fixed schedule
  /// skips the clock reads and leaves both 0.
  std::uint64_t drain_ns = 0;
  std::uint64_t timed_drained = 0;
  /// Home-flush routing (docs/FREE_SCHEDULES.md). `stashed` counts
  /// blocks this lane diverted into some owner's stash instead of
  /// freeing them foreign; `flushed` counts blocks that left *this*
  /// lane's stash (flushed locally by the owner, drained by the
  /// daemon, or handed to the lane's bag queue when the lane
  /// departed); `stash_backlog` is the gauge of blocks currently
  /// sitting in this lane's stash (also folded into `backlog`).
  std::uint64_t stashed = 0;
  std::uint64_t flushed = 0;
  std::uint64_t stash_backlog = 0;
  /// Per-tenant split of this lane's traffic, indexed by tenant id.
  /// Populated by lane_stats() only when the bundle runs multiple
  /// tenants (SmrConfig::tenants > 1) — single-tenant bundles leave the
  /// vectors empty so the snapshot stays allocation-free. A tenant's
  /// outstanding debt on the lane is enqueued - drained.
  std::vector<std::uint64_t> tenant_enqueued;
  std::vector<std::uint64_t> tenant_drained;
};

/// One tenant's bundle-wide totals, summed over lanes by
/// FreeExecutor::tenant_stats(). `retired` counts Reclaimer::retire
/// calls attributed to the tenant (debt enters limbo); `enqueued` those
/// nodes reaching the executor (grace elapsed); `backlog` the ones the
/// executor still holds (enqueued - drained). Scheme-side limbo is
/// retired - enqueued.
struct TenantStats {
  std::uint64_t retired = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t drained = 0;
  std::uint64_t backlog = 0;
};

/// How the executor turns safe bags into allocator traffic and how its
/// schedule sizes every quantum — the one decision the paper varies.
/// One value per factory-name suffix:
///   kBatch     - plain names: a fresh bag is freed whole at hand-over
///                (the classical EBR behaviour the paper shows is
///                harmful).
///   kAmortized - _af: every bag is queued and each op end frees at most
///                af_drain_per_op (the paper's asynchronous-free fix).
///   kPool      - _pool: queued like kAmortized, but alloc_node recycles
///                from the queue first (section 3.3 pooling) and the op
///                end only trims what exceeds the pool cap.
///   kAdaptive  - _adaptive: amortized, with the drain quantum and the
///                seal/scan threshold sized by the population-aware
///                controller.
///   kLatency   - _latency: kAdaptive with the op-path quanta scaled by
///                the observed per-op tail.
enum class FreeMode { kBatch, kAmortized, kPool, kAdaptive, kLatency };

/// Free schedule: every batching decision in the retire->free pipeline
/// is answered here instead of by raw SmrConfig constants — how many
/// queued nodes the executor frees at one op end, how large a limbo bag
/// / retire list may grow before it seals or scans, and how much
/// inventory a kPool executor keeps. Executors and scheme TUs *ask* the
/// schedule; only its constructor (smr/free_schedule.cpp) reads the
/// config's batching knobs. docs/FREE_SCHEDULES.md has the contract.
///
/// kBatch, kAmortized and kPool run the *fixed* schedule: every quantum
/// mirrors a config constant, whoever is registered. kAdaptive and
/// kLatency run the *adaptive* controller: the seal/scan threshold is
/// the configured batch prorated by the live fraction of the slot table,
/// and the drain quantum tracks each lane's backlog against a drain
/// horizon that tightens as the registered population grows, capped by
/// the lane's measured ns-per-free so one op never stalls on a slow
/// allocator path. kLatency multiplies the op-path quanta by a tail
/// scale (fixed-point, kScaleUnit == 1.0) that the harness steers
/// through on_tail_latency:
///
///   p99.9 > target          -> scale halves   (back off hard: the
///                              drain bursts are what stalls the tail)
///   p99.9 < 3/4 * target    -> scale grows 25% (relax gently while
///                              there is headroom, so backlog drains)
///
/// The scale is floored well above zero — a latency target can shrink
/// the quantum to drain_min but never stop reclamation entirely, so
/// backlog stays bounded even under an unreachable target.
///
/// Thread model: the quanta are read concurrently from every lane, the
/// daemon and the sampler; on_population runs under the registration
/// lock and on_tail_latency on the one sampler thread. The mutable
/// state is relaxed atomics.
class FreeSchedule {
 public:
  static constexpr std::size_t kScaleUnit = 1024;  // fixed-point 1.0
  static constexpr std::size_t kScaleMin = 16;     // 1/64th of adaptive
  static constexpr std::size_t kScaleMax = 4 * kScaleUnit;

  /// Fails fast (std::invalid_argument naming the knob) on nonsensical
  /// config: batch_size == 0, af_drain_per_op == 0, flush_batch == 0,
  /// drain_min == 0, drain_max < drain_min, or a zero latency_target_us
  /// under kLatency.
  FreeSchedule(FreeMode mode, const SmrConfig& cfg);

  FreeMode mode() const { return mode_; }

  /// "fixed", "adaptive" or "latency" — the snapshots' schedule column.
  const char* name() const;

  /// True for the controller modes, the only ones whose quanta read
  /// LaneStats: the executor builds the per-op stats snapshot and clocks
  /// its drains only then (drain_ns stays 0 under the fixed schedule).
  bool adaptive() const {
    return mode_ == FreeMode::kAdaptive || mode_ == FreeMode::kLatency;
  }

  /// True when the schedule consumes on_tail_latency. The harness then
  /// arms the per-op latency recorder and the feedback pump even for
  /// trials that did not ask for latency measurement — a latency-target
  /// schedule without the signal would silently run open-loop.
  bool wants_latency_feedback() const { return mode_ == FreeMode::kLatency; }

  /// Nodes an amortizing drain may free at one op end on this lane. The
  /// executor treats the result as a hard per-op ceiling.
  std::size_t drain_quota(const LaneStats& lane) const {
    return adaptive() ? scaled(adaptive_drain(lane), drain_min_, drain_max_)
                      : drain_;
  }

  /// Home-flush quantum: how many blocks parked in this lane's
  /// remote-free stash the owner may flush locally at one op end, a hard
  /// per-op ceiling like drain_quota. Fixed: EMR_FLUSH_BATCH. Adaptive:
  /// the stash backlog over the drain horizon, clamped to
  /// [1, EMR_FLUSH_BATCH] — no ns-per-free cap, because flushed blocks
  /// take the cheap local path. kLatency scales it like drain_quota but
  /// floors it at 1: a stash that stops draining strands remote blocks.
  std::size_t flush_quota(const LaneStats& lane) const;

  /// Nodes one background-reclaimer tick may free from this lane
  /// (smr/reclaimer_daemon.hpp). Fixed: the per-op quantum is tiny, so a
  /// tick may swallow one sealed bag under pressure and a slice of one
  /// when merely quiet. Adaptive: the *unscaled* adaptive quantum x2, x8
  /// under pressure — the tail scale keeps bursts off the op path, and a
  /// tick runs off it.
  std::size_t daemon_quota(const LaneStats& lane, bool pressure) const;

  /// Bag size that seals a limbo bag (epoch/token families) or retire
  /// list size that triggers a scan (hp/he/ibr/wfe/nbr), given the
  /// number of currently registered threads. Schemes may floor the
  /// result (hp applies Michael's H+1 bound) but never exceed it.
  std::size_t scan_threshold(std::size_t population) const;

  /// A kPool executor's per-lane inventory cap.
  std::size_t pool_cap() const { return pool_cap_; }

  /// Population beat: the number of live ThreadHandles, pushed by the
  /// owning reclaimer after every register/deregister.
  void on_population(std::size_t n) {
    population_.store(n, std::memory_order_relaxed);
  }
  std::size_t population() const {
    return population_.load(std::memory_order_relaxed);
  }

  /// Tail-latency beat: the harness sampler pushes the merged p99.9
  /// here every sample period. Steers the scale under kLatency; a
  /// no-op for every other mode.
  void on_tail_latency(std::uint64_t p999_ns);

  std::uint64_t target_ns() const { return target_ns_; }
  /// Current multiplier on the adaptive quantum, in 1/kScaleUnit units.
  std::size_t scale() const { return scale_.load(std::memory_order_relaxed); }
  /// Last p99.9 the harness sampler pushed (0 before the first beat).
  std::uint64_t last_p999_ns() const {
    return last_p999_.load(std::memory_order_relaxed);
  }

 private:
  /// The controller's unscaled drain quantum, in [drain_min, drain_max].
  std::size_t adaptive_drain(const LaneStats& lane) const;
  /// Ops over which the controller aims to clear a lane's backlog.
  std::size_t horizon() const;
  /// `q` under the tail scale, clamped to [lo, hi]. At the unit scale
  /// (every mode but a steered kLatency) `q` is returned as is.
  std::size_t scaled(std::size_t q, std::size_t lo, std::size_t hi) const {
    const std::size_t s = scale();
    return s == kScaleUnit ? q : std::clamp(q * s / kScaleUnit, lo, hi);
  }

  FreeMode mode_;
  std::size_t drain_;         // af_drain_per_op
  std::size_t batch_;
  std::size_t capacity_;      // slot_capacity(): full-table batch scale
  std::size_t base_threads_;  // configured steady-state population
  std::size_t drain_min_;
  std::size_t drain_max_;
  std::size_t pool_cap_;
  std::size_t flush_batch_;
  std::uint64_t target_ns_;
  std::atomic<std::size_t> population_{0};
  std::atomic<std::size_t> scale_{kScaleUnit};
  std::atomic<std::uint64_t> last_p999_{0};
};

struct SmrStats {
  std::uint64_t retired = 0;
  std::uint64_t freed = 0;    // reached the allocator or was pool-recycled
  std::uint64_t pending = 0;  // retired - freed
  /// Scheme-specific progress beat: epoch advances (ebr), full token
  /// rotations (token), retire-list scans (hp), era advances (he/ibr/
  /// wfe/nbr).
  std::uint64_t epochs_advanced = 0;
  /// Per-registration-slot executor counters. Filled only by
  /// Reclaimer::stats_with_lanes(); plain stats() leaves it empty so
  /// the epoch-advance hot path never allocates.
  std::vector<LaneStats> lanes;
};

/// The free executor: the reclaimer hands bags of safe-to-reclaim nodes
/// here, and the executor turns them into allocator traffic according
/// to its FreeMode. *How much* to free at a time is not the executor's
/// call: every quantum comes from the FreeSchedule it owns, built from
/// the same mode.
///
/// Each lane keeps one NodeChain queue. A handed-over bag is spliced
/// onto its tail whole (O(1), no per-node copy, no allocation), and
/// op-end drains, the daemon, quiesce and pool recycling all pop from its
/// front.
///
/// Executors do not see thread identity at all: every entry point takes
/// the registration-slot `lane` the owning reclaimer derived from the
/// calling ThreadHandle (always below SmrConfig::slot_capacity()). A
/// lane changes hands when a slot is recycled — the successor thread
/// inherits (and keeps amortizing) whatever backlog its predecessor's
/// handle left behind.
///
/// Contract:
///  - Ownership of every pointer in a hand_over() bag transfers to the
///    executor; the reclaimer must never touch it again. Each such
///    pointer is released exactly once — either by a single
///    allocator->deallocate() (counted into total_freed()) or, under
///    kPool, by being handed back out of alloc_node() (also counted:
///    recycling is how the node leaves limbo).
///  - A node handed over is safe to reclaim *now*; the executor may
///    delay the actual free arbitrarily (delaying is always safe) but
///    may never free early, because it never sees unsafe nodes at all.
///  - alloc_node()/hand_over()/on_op_end() are called by the thread
///    currently owning `lane` only and are thread-safe across
///    *different* lanes (per-lane state, atomic counters). quiesce() and
///    destruction are single-threaded: callers must ensure no thread is
///    inside an operation.
///  - quiesce(lane) drains every node the executor still holds for that
///    lane; after quiesce has run for all lanes, backlog() == 0 and
///    total_freed() equals the number of nodes ever handed over.
///  - A background ReclaimerDaemon may call daemon_drain() on any lane
///    concurrently with the lane owner — but only after the bundle was
///    armed with set_daemon_hooked(true) *before threads started*. The
///    hook turns on a per-lane spinlock around every queue mutation;
///    unhooked bundles never touch the lock, so daemon-off runs are
///    instruction-identical to a build without the daemon.
///  - Home-flush routing (set_home_flush(true), the *_hf factory
///    names): a drain path about to free a block whose allocator home
///    lane differs from the freeing lane pushes it onto the home
///    lane's lock-free MPSC stash instead (one release-CAS, no
///    allocation — the link lives in the dead node's first 8 bytes).
///    The owner flushes its own stash locally at
///    FreeSchedule::flush_quota per op; the daemon covers departed or
///    idle lanes; a departing lane's stash joins its bag queue as an
///    adopted bag; quiesce() drains the lane's stash completely and
///    latches routing off, so teardown strands nothing. Routing off (the
///    default) touches none of this — non-hf bundles stay
///    instruction-identical to pre-routing builds.
class FreeExecutor {
 public:
  /// Builds the executor and its schedule; throws what the FreeSchedule
  /// constructor throws on nonsensical config.
  FreeExecutor(const SmrContext& ctx, const SmrConfig& cfg, FreeMode mode);

  /// Serves a node allocation. Under kPool it recycles the oldest
  /// queued node when one of the trial's node size is waiting; every
  /// other request goes to the allocator.
  void* alloc_node(int lane, std::size_t size);

  /// A bag of nodes is now safe to reclaim. Ownership transfers and
  /// `bag` is left empty. Under kBatch a fresh bag is freed on the spot,
  /// front to back; every other bag is spliced onto the lane's queue and
  /// drains at the schedule's quota per op. `adopted` marks a departing
  /// slot's hand-off (the churn-aware departure drain): it is always
  /// queued, in every mode, so it never reaches the allocator in one
  /// burst.
  void hand_over(int lane, bool adopted, NodeChain&& bag);

  /// Called once per completed operation (the amortization hook):
  /// counts the op, frees up to the schedule's drain quota from the
  /// lane's queue (under kPool only what exceeds the pool cap), then
  /// flushes the lane's home-flush stash.
  void on_op_end(int lane);

  /// Frees everything held for `lane`. Single-threaded use only.
  void quiesce(int lane);

  /// Nodes this executor has freed or recycled (== left limbo): every
  /// lane's `drained`, so no shared counter is bumped per free.
  std::uint64_t total_freed() const {
    return sum(lanes_, &LaneState::drained);
  }

  /// Allocations served from the queue (always 0 unless kPool).
  std::uint64_t total_pooled_allocs() const {
    return pooled_allocs_.load(std::memory_order_relaxed);
  }

  // ---- home-flush routing (docs/FREE_SCHEDULES.md) ----

  /// Arms remote-free routing through the per-lane owner stashes. The
  /// factory flips it once at construction for *_hf names; must not
  /// change while threads run.
  void set_home_flush(bool on) { home_flush_ = on; }
  bool home_flush() const { return home_flush_; }

  /// Blocks ever diverted into a stash, summed over lanes.
  std::uint64_t total_stashed() const {
    return sum(lanes_, &LaneState::stashed);
  }
  /// Blocks that ever left a stash (owner flush, daemon drain,
  /// departure adoption, quiesce), summed over lanes. At any quiescent
  /// point total_stashed() == total_flushed() + total_stash_backlog();
  /// after flush_all the backlog term is zero — the exact-ledger
  /// teardown check.
  std::uint64_t total_flushed() const {
    return sum(stash_, &RemoteStash::flushed);
  }
  /// Blocks currently sitting in stashes, summed over lanes.
  std::uint64_t total_stash_backlog() const {
    return sum(stash_, &RemoteStash::backlog);
  }

  /// Registry hook: `lane`'s owner deregistered. Hands the lane's stash
  /// to its queue as an adopted bag so a departed lane never strands
  /// blocks — the successor (or daemon, or flush_all) drains them at
  /// the usual quota instead of in a burst. Called under the
  /// registration lock while the slot is unowned.
  void on_lane_released(int lane);

  /// Nodes held for all lanes: bag queues plus stashes.
  std::uint64_t backlog() const {
    return sum(lanes_, &LaneState::backlog) + total_stash_backlog();
  }

  /// The schedule every quantum is sourced from; its mode() is this
  /// executor's.
  FreeSchedule& schedule() { return schedule_; }
  const FreeSchedule& schedule() const { return schedule_; }

  /// Snapshot of one lane's counters. Readable from any thread.
  LaneStats lane_stats(int lane) const;

  std::size_t lane_count() const { return lanes_.size(); }

  // ---- multi-tenant accounting (SmrConfig::tenants > 1) ----

  int tenant_count() const { return tenants_; }

  /// Tags `lane`'s *subsequent* traffic — retires, hand-overs, drains —
  /// with `tenant`. The harness stores the tenant before each op;
  /// relaxed is enough because only the lane owner reads it back on the
  /// same call path. No-op bookkeeping when single-tenant.
  void set_lane_tenant(int lane, std::uint32_t tenant) {
    if (multi_tenant_) {
      at(lanes_, lane).tenant.store(clamp_tenant(tenant),
                                 std::memory_order_relaxed);
    }
  }

  std::uint32_t lane_tenant(int lane) const {
    return at(lanes_, lane).tenant.load(std::memory_order_relaxed);
  }

  /// One retire on `lane` attributed to its current tenant. Called by
  /// Reclaimer::retire() — a single relaxed RMW, and a plain branch
  /// when single-tenant.
  void note_tenant_retired(int lane) {
    note_tenant(&TenantCell::retired, lane, lane_tenant(lane), 1);
  }

  /// One tenant's totals summed over lanes. Readable from any thread;
  /// zeros when single-tenant or out of range.
  TenantStats tenant_stats(int tenant) const;

  // ---- background-daemon hooks (smr/reclaimer_daemon.hpp) ----

  /// Arms (or disarms) the per-lane locking that makes daemon_drain
  /// safe against lane owners. Must be called while no thread is inside
  /// an operation and no daemon is running — the harness flips it once
  /// at trial setup. Plain bool: the arming itself is not a
  /// synchronization point.
  void set_daemon_hooked(bool on) { daemon_hooked_ = on; }
  bool daemon_hooked() const { return daemon_hooked_; }

  /// Frees up to `quota` nodes of `lane`'s backlog from the daemon
  /// thread, whose own registration slot is `daemon_lane` — the frees
  /// go to the daemon's allocator lane (its thread cache), the stats to
  /// the drained lane. The queue goes first, then the stash. Under
  /// kPool the inventory at or under the pool cap is left alone
  /// (recycling stock is not debt). Requires daemon_hooked(); returns
  /// nodes freed.
  std::size_t daemon_drain(int lane, std::size_t quota, int daemon_lane);

 private:
  /// The queued nodes of one hand-over and the tenant it was attributed
  /// to.
  struct TenantRun {
    std::uint64_t count;
    std::uint32_t tenant;
  };

  struct alignas(64) LaneState {
    /// The lane's queue. Only the lane's owning thread (or a registry
    /// hook while the slot is unowned) touches it — plus, when a daemon
    /// is hooked, the daemon under `mu`; `backlog` mirrors its size for
    /// readers.
    NodeChain queue;
    /// The queue's hand-overs in queue order, so each drained node is
    /// booked to the tenant of its bag. Kept only when multi-tenant, so
    /// a single-tenant lane never touches it. Owned like `queue`.
    std::deque<TenantRun> runs;
    /// Un-flushed remainder of the last stash grab: the drainer takes
    /// the whole Treiber stack in one exchange but flushes only
    /// flush_quota blocks per op, so the rest waits here. Owned like
    /// `queue`; counted in RemoteStash::backlog until freed.
    NodeChain stash;
    /// Guards `queue`, `runs` and `stash`; taken only while a daemon is
    /// hooked (uncontended test-and-set otherwise skipped entirely).
    Spinlock mu;
    /// Hot per-op counters start on their own cache line (alignas
    /// below): the sampler/daemon read them concurrently, and sharing
    /// a line with the owner-mutated queue above would ping-pong every
    /// hand-over.
    alignas(64) std::atomic<std::uint32_t> tenant{0};
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> enqueued{0};
    std::atomic<std::uint64_t> drained{0};
    std::atomic<std::uint64_t> adopted_total{0};
    /// Nodes in `queue`, written only by whoever holds it.
    std::atomic<std::uint64_t> backlog{0};
    std::atomic<std::uint64_t> drain_ns{0};
    std::atomic<std::uint64_t> timed_drained{0};
    /// Blocks this lane diverted into some owner's stash (monotonic).
    std::atomic<std::uint64_t> stashed{0};
  };
  static_assert(alignof(LaneState) == 64 && sizeof(LaneState) % 64 == 0,
                "LaneState must tile cache lines so lanes never share");

  /// One lane's remote-free stash: a lock-free MPSC Treiber stack any
  /// lane pushes onto (release-CAS; the link overlays the dead node's
  /// NodeHeader) and only the owner — or the daemon/quiesce path under
  /// the lane lock — pops, via a single exchange. Lives apart from
  /// LaneState on its own cache line because *foreign* lanes write it:
  /// pushers must not drag the owner's hot counters around with the
  /// head pointer. `backlog` is incremented before the push publishes
  /// and decremented only after a block leaves (free or adoption), so
  /// the gauge never reads negative. `flushed` counts every exit.
  struct alignas(64) RemoteStash {
    std::atomic<void*> head{nullptr};
    std::atomic<std::uint64_t> backlog{0};
    std::atomic<std::uint64_t> flushed{0};
  };
  static_assert(sizeof(RemoteStash) == 64,
                "RemoteStash must own exactly one cache line");

  /// Sums one counter over every row of a per-lane table.
  template <typename Row>
  static std::uint64_t sum(const std::vector<Row>& rows,
                           std::atomic<std::uint64_t> Row::*counter) {
    std::uint64_t t = 0;
    for (const Row& r : rows) t += (r.*counter).load(std::memory_order_relaxed);
    return t;
  }

  /// The lane's queue lock, engaged only while a daemon is hooked —
  /// unhooked bundles pay one predictable branch.
  std::unique_lock<Spinlock> lock_lane(LaneState& l) const {
    return daemon_hooked_ ? std::unique_lock<Spinlock>(l.mu)
                          : std::unique_lock<Spinlock>();
  }

  /// Queue nodes a drain must leave in place: the pool cap under kPool
  /// (recycling inventory), 0 otherwise.
  std::size_t queue_floor() const {
    return schedule_.mode() == FreeMode::kPool ? schedule_.pool_cap() : 0;
  }

  /// The one queue pop: takes up to `quota` nodes off the front of
  /// `lane`'s queue, leaving at least `floor`, books each drained
  /// against its run's tenant and passes it to `sink` — a free (op-end
  /// drains route it; the daemon and quiesce free directly) or kPool
  /// recycling. Takes the lane lock when hooked; returns nodes taken.
  template <typename Sink>
  std::size_t drain(int lane, std::size_t quota, std::size_t floor,
                    Sink sink);

  /// Frees one node through the allocator on `alloc_lane` — through
  /// free_local_hint when `local_hint` (the stash flush, whose
  /// cross-lane cost was already paid in bulk), deallocate otherwise —
  /// timing it into the trial timeline as a kFreeCall when
  /// instrumentation is on, and counting it drained on `stats_lane`.
  void free_node(int stats_lane, int alloc_lane, void* p,
                 bool local_hint = false);

  /// The hot-path free for every op-end and batch free: when home-flush
  /// routing is armed and `p`'s allocator home lane is a different live
  /// lane than `alloc_lane`, the block is pushed onto the home lane's
  /// stash (counted `stashed` on `stats_lane`) instead of being freed
  /// foreign; otherwise it is a plain free_node. quiesce() never routes
  /// (it frees directly), and the first quiesce latches routing off for
  /// the rest of the teardown pass so interleaved hand-over/quiesce
  /// loops cannot re-scatter blocks into already-quiesced stashes.
  void routed_free(int stats_lane, int alloc_lane, void* p);

  /// Pushes `p` onto `home`'s stash. Lock-free, called from any lane.
  void stash_push(int stats_lane, int home, void* p);

  /// Flushes up to `quota` blocks from `lane`'s own stash through
  /// allocator->free_local_hint on `alloc_lane` (the owner passes its
  /// own lane; the daemon its own slot). Takes the lane lock when
  /// hooked; returns blocks freed.
  std::size_t drain_stash(int lane, std::size_t quota, int alloc_lane);

  /// Per-op stash flush at the schedule's flush_quota; no-op unless
  /// routing is armed and the lane's stash is non-empty. Also re-arms
  /// routing after a mid-run flush_all (the teardown latch), which is
  /// safe here because on_op_end proves the bundle is live again.
  void maybe_flush_stash(int lane);

  /// Books a clocked op-end drain burst (started at `t0`, `n` nodes)
  /// into the lane's drain_ns/timed_drained — only for adaptive
  /// schedules; the fixed one never reads the clock.
  void note_drain_time(LaneState& l, std::uint64_t t0, std::size_t n);

  std::uint32_t clamp_tenant(std::uint32_t t) const {
    return t < static_cast<std::uint32_t>(tenants_) ? t : 0;
  }

  /// One (lane, tenant) row of the multi-tenant books.
  struct TenantCell {
    std::atomic<std::uint64_t> retired{0};
    std::atomic<std::uint64_t> enqueued{0};
    std::atomic<std::uint64_t> drained{0};
  };

  TenantCell& tenant_cell(int lane, std::uint32_t t) const {
    return tenant_cells_[static_cast<std::size_t>(lane) *
                             static_cast<std::size_t>(tenants_) +
                         t];
  }

  /// Adds `n` to one counter of (lane, tenant t)'s cell; no-op when
  /// single-tenant.
  void note_tenant(std::atomic<std::uint64_t> TenantCell::*counter,
                   int lane, std::uint32_t t, std::uint64_t n) {
    if (multi_tenant_ && n > 0) {
      (tenant_cell(lane, t).*counter).fetch_add(n, std::memory_order_relaxed);
    }
  }

  /// The lane snapshot a schedule quantum is computed from. Built only
  /// for adaptive schedules; the fixed quanta ignore it.
  LaneStats quota_stats(int lane) const {
    return schedule_.adaptive() ? lane_stats(lane) : LaneStats{};
  }

  SmrContext ctx_;
  int tenants_;
  bool multi_tenant_;
  bool daemon_hooked_ = false;
  /// Home-flush routing armed (set_home_flush). Plain bool like
  /// daemon_hooked_: flipped only while no thread runs.
  bool home_flush_ = false;
  /// Teardown latch: set by the first quiesce() so the rest of an
  /// interleaved flush_all pass frees directly instead of routing;
  /// cleared by maybe_flush_stash when ops resume. Relaxed atomic —
  /// it only gates an optimization, never correctness.
  std::atomic<bool> teardown_{false};
  std::vector<LaneState> lanes_;
  std::vector<RemoteStash> stash_;
  FreeSchedule schedule_;
  /// kPool: the node size recycling serves (the first size requested —
  /// trials use one node size) and how many allocations it served. Every
  /// lane bumps the latter; its own cache line keeps the fields every op
  /// reads (lanes_, the routing flags, the schedule) off the bouncing
  /// line.
  alignas(64) std::atomic<std::size_t> common_size_{0};
  std::atomic<std::uint64_t> pooled_allocs_{0};
  // lane-major [lane][tenant] grid, allocated only when multi-tenant.
  std::unique_ptr<TenantCell[]> tenant_cells_;
};

/// RAII thread registration. A thread joins a reclaimer's population
/// with register_thread(), drives every read-side call through the
/// returned handle, and leaves by letting the handle die (or calling
/// release() early). Internally the handle pins one registration slot —
/// the dense lane index every per-thread array in the scheme, executor
/// and allocator layers is keyed by — plus the slot's generation, which
/// bumps each time the slot is recycled to a new thread.
///
/// Contract:
///  - One live thread per handle at a time; handles are movable, never
///    copyable. A thread may hold handles on several reclaimers, and a
///    single-threaded driver may multiplex several handles of one
///    reclaimer (the tests do), but two threads must never share one.
///  - Release only outside an operation (no live Guard on the handle).
///    Releasing hands the slot's retire backlog to the scheme's
///    departure path: anything already safe drains, the rest is adopted
///    by the slot's next owner or by flush_all() — never leaked, and
///    the departed thread never pins the epoch.
///  - Handles must not outlive their Reclaimer.
class ThreadHandle {
 public:
  ThreadHandle() = default;
  ThreadHandle(ThreadHandle&& o) noexcept
      : r_(o.r_), slot_(o.slot_), gen_(o.gen_) {
    o.r_ = nullptr;
    o.slot_ = -1;
  }
  ThreadHandle& operator=(ThreadHandle&& o) noexcept {
    if (this != &o) {
      release();
      r_ = o.r_;
      slot_ = o.slot_;
      gen_ = o.gen_;
      o.r_ = nullptr;
      o.slot_ = -1;
    }
    return *this;
  }
  ~ThreadHandle() { release(); }

  ThreadHandle(const ThreadHandle&) = delete;
  ThreadHandle& operator=(const ThreadHandle&) = delete;

  /// Deregisters now (idempotent); the handle is detached afterwards.
  void release();

  bool attached() const { return r_ != nullptr; }

  /// The registration slot (dense lane index). Meaningful only while
  /// attached; exposed for instruments and allocator lanes.
  int slot() const { return slot_; }

  /// How many threads (including this one) have owned the slot.
  std::uint64_t generation() const { return gen_; }

  Reclaimer& reclaimer() const { return *r_; }

 private:
  friend class Reclaimer;
  ThreadHandle(Reclaimer* r, int slot, std::uint64_t gen)
      : r_(r), slot_(slot), gen_(gen) {}

  Reclaimer* r_ = nullptr;
  int slot_ = -1;
  std::uint64_t gen_ = 0;
};

/// A safe-memory-reclamation scheme.
///
/// Contract:
///  - Thread model: every read-side call is made through a live
///    ThreadHandle from register_thread(). A given handle's
///    begin_op/protect/retire/end_op/alloc_node calls are made by one
///    thread at a time, bracketed begin_op..end_op per operation.
///    Different handles run concurrently; implementations communicate
///    between them only through atomics (announcements, hazard slots,
///    era reservations).
///  - retire(h, p) transfers ownership of `p` to the scheme. The node
///    must already be unreachable from the structure (unlinked). It will
///    be released exactly once: handed to the FreeExecutor no earlier
///    than when no concurrent protect()/begin_op() publication still
///    covers it. A handle released with retires still in limbo does not
///    leak them — the departure path drains what grace already allows
///    and leaves the rest for the slot's next owner or flush_all().
///  - protect(h, idx, load, src) returns a pointer read through
///    `load(src)` that is guaranteed not to be handed to the executor
///    until the protection lapses (end_op for slot/era schemes; the next
///    neutralized protect for nbr). Epoch-class schemes return the plain
///    load — their begin_op/end_op bracket is the protection.
///  - flush_all() is the teardown path: callers guarantee no thread is
///    inside an operation; the scheme drops every publication, hands all
///    retired nodes (every slot's, vacant ones included) to the executor
///    and quiesces it, leaving stats().pending == 0. It is idempotent
///    and runs again from the destructor.
///  - stats() may be called concurrently with operations; counters are
///    monotonic and may be momentarily inconsistent with each other.
///
/// Skeleton: the base owns everything that happens *after* a scheme
/// decides a node is safe — the context, the FreeExecutor, the retire
/// counter, the cached seal/scan threshold, the op-end executor hook,
/// unpublished-node deallocation and the teardown loop. A scheme
/// implements only its protocol, through the protected `*_slot` hooks,
/// `flush_slot`, the slot hand-off hooks and `epochs_advanced`
/// (docs/SMR_SCHEMES.md tabulates them).
class Reclaimer {
 public:
  virtual ~Reclaimer() = default;

  /// Joins the calling thread to the population: claims a free slot
  /// (recycling released ones through a free-list), bumps its
  /// generation, runs the scheme's adoption hook, and returns the RAII
  /// handle. Throws std::runtime_error when all slot_capacity() slots
  /// are live — the error names the capacity and the knobs that raise
  /// it (SmrConfig::num_threads/extra_slots, EMR_EXTRA_SLOTS from the
  /// harness).
  ThreadHandle register_thread();

  void begin_op(ThreadHandle& h) { begin_op_slot(check(h)); }
  void end_op(ThreadHandle& h) {
    const int slot = check(h);
    end_op_slot(slot);
    executor_.on_op_end(slot);
  }

  /// Loads a pointer through `load(src)` under this scheme's protection
  /// (hazard-pointer-class schemes publish + fence + validate; epoch
  /// schemes are a plain load). `idx` selects the protection slot; any
  /// non-negative value is accepted (taken mod the slot count). The
  /// returned word is exactly what `load` produced — tag bits a structure
  /// keeps in the low pointer bits come back intact, and a tagged result
  /// means the source node is being unlinked (restart from a root rather
  /// than dereferencing it).
  using LoadFn = void* (*)(const void* src);
  void* protect(ThreadHandle& h, int idx, LoadFn load, const void* src) {
    return protect_slot(check(h), idx, load, src);
  }

  /// Read-side validation hook: true while every pointer obtained earlier
  /// in this operation is still protected. Schemes that can revoke
  /// protection mid-operation override it — NBR returns false once the
  /// thread has been neutralized (re-announcing at the current era as it
  /// does), after which the caller must drop every pointer it holds and
  /// restart from a structure root. Lock-free traversals call this once
  /// per hop; all other schemes return true unconditionally.
  bool validate(ThreadHandle& h) { return validate_slot(check(h)); }

  void retire(ThreadHandle& h, void* p) {
    const int slot = check(h);
    // Attribute the debt to the lane's current tenant before it enters
    // limbo (a plain branch when single-tenant).
    executor_.note_tenant_retired(slot);
    retired_.n.fetch_add(1, std::memory_order_relaxed);
    retire_slot(slot, p);
  }

  /// Node allocation goes through the reclaimer so pooling variants can
  /// serve it from the executor's queue and era schemes can stamp birth
  /// eras.
  void* alloc_node(ThreadHandle& h, std::size_t size) {
    return alloc_node_slot(check(h), size);
  }

  /// Returns a node that was never published to the structure (or is
  /// being torn down single-threadedly) straight to the allocator.
  void dealloc_unpublished(ThreadHandle& h, void* p) {
    ctx_.allocator->deallocate(check(h), p);
  }

  /// Handle-less unpublished-node return for teardown paths that may
  /// run with the slot table exhausted (destructors must not throw).
  /// Uses lane 0; callers guarantee no thread is operating through
  /// this reclaimer — the same single-threaded contract as flush_all().
  void dealloc_teardown(void* p) { ctx_.allocator->deallocate(0, p); }

  /// Quiesces and frees every retired node: each slot's flush_slot hook
  /// hands over what the slot holds, then the slot's executor lane is
  /// quiesced. Call only when no thread is inside an operation (trial
  /// teardown, tests).
  void flush_all();

  SmrStats stats() const;

  /// stats() plus the executor's per-lane counters (SmrStats::lanes):
  /// one LaneStats per registration slot. Costs a vector allocation —
  /// meant for instruments and traces, not hot paths.
  SmrStats stats_with_lanes() const;

  FreeExecutor& executor() const { return executor_; }
  virtual const char* name() const = 0;

  /// Implementation family: "ebr", "token", "hp", "era", or "nbr".
  /// Lets tests and CI assert that the pointer-protecting names are not
  /// quietly aliased onto the epoch machinery.
  virtual const char* family() const = 0;

  /// Registration-slot table size (SmrConfig::slot_capacity()).
  std::size_t slot_capacity() const { return slot_state_.size(); }

  /// True while a live ThreadHandle owns `slot`. Readable from any
  /// thread; schemes use it to route around vacant slots (the token
  /// ring) and tests to observe churn.
  bool slot_active(int slot) const {
    const std::size_t i = static_cast<std::size_t>(slot);
    return i < slot_state_.size() &&
           slot_state_[i].active.load(std::memory_order_acquire);
  }

  /// Currently registered handles.
  std::size_t active_slots() const {
    return active_count_.load(std::memory_order_acquire);
  }

 protected:
  Reclaimer(const SmrContext& ctx, const SmrConfig& cfg,
            FreeExecutor& executor);

  // Per-slot entry points the scheme TUs implement. `slot` is the dense
  // lane index the public handle API resolved; one thread drives a slot
  // at a time (the handle contract), distinct slots run concurrently.
  virtual void begin_op_slot(int slot) { (void)slot; }
  virtual void end_op_slot(int slot) = 0;
  virtual void* protect_slot(int slot, int idx, LoadFn load,
                             const void* src) {
    (void)slot;
    (void)idx;
    return load(src);  // epoch-class schemes: reads need no publication
  }
  virtual bool validate_slot(int slot) {
    (void)slot;
    return true;
  }
  virtual void retire_slot(int slot, void* p) = 0;
  virtual void* alloc_node_slot(int slot, std::size_t size) {
    return executor_.alloc_node(slot, size);
  }

  /// Teardown hook: drop the slot's publications and hand everything it
  /// still holds to the executor. flush_all() quiesces the lane after.
  virtual void flush_slot(int slot) = 0;

  /// Generation hand-off hooks, run under the registry lock while the
  /// slot is unowned (register: before the slot goes active, so the
  /// incoming thread may adopt a predecessor's aged backlog;
  /// deregister: after it went inactive, so the scheme drops the
  /// departing thread's publications — announcements, hazard slots, era
  /// reservations — and drains or parks its retire backlog). Concurrent
  /// readers may be scanning the slot's atomics throughout.
  virtual void on_slot_register(int slot) { (void)slot; }
  virtual void on_slot_deregister(int slot) { (void)slot; }

  /// Scheme-specific progress beat count reported as
  /// SmrStats::epochs_advanced.
  virtual std::uint64_t epochs_advanced() const = 0;

  /// The free schedule's seal/scan threshold for the live population,
  /// floored at 1. Cached out of the per-retire path and refreshed on
  /// every register/deregister — the only input a shipped schedule's
  /// scan_threshold reads besides the config.
  std::size_t threshold() const {
    return threshold_.load(std::memory_order_relaxed);
  }

  /// Records one progress beat (epoch advance, token rotation, scan, era
  /// tick) with the current pending count into the trial instruments.
  void progress_beat(int slot, std::uint64_t beat) const;

 private:
  friend class ThreadHandle;

  void deregister(ThreadHandle& h);
  void refresh_threshold();

  int check(const ThreadHandle& h) const {
    if (h.r_ != this) {
      throw std::logic_error(
          "ThreadHandle is detached or belongs to another reclaimer");
    }
    return h.slot_;
  }

  struct alignas(64) SlotState {
    std::atomic<bool> active{false};
    std::uint64_t generation = 0;
  };

  SmrContext ctx_;
  FreeExecutor& executor_;
  std::vector<SlotState> slot_state_;
  std::vector<int> free_slots_;  // LIFO: hottest slot is reused first
  std::mutex reg_mu_;
  std::atomic<std::size_t> active_count_{0};
  std::atomic<std::size_t> threshold_{1};
  /// Every lane's retire bumps this; its own cache line keeps the
  /// read-mostly fields above (and the scheme's) off the bouncing line.
  struct alignas(64) Counter {
    std::atomic<std::uint64_t> n{0};
  };
  Counter retired_;
};

inline void ThreadHandle::release() {
  if (r_ != nullptr) {
    r_->deregister(*this);
    r_ = nullptr;
    slot_ = -1;
  }
}

/// make_reclaimer's result. Destruction order matters: the reclaimer
/// flushes through the executor (which owns the schedule), so the
/// executor is declared first and destroyed last.
struct ReclaimerBundle {
  std::unique_ptr<FreeExecutor> executor;
  std::unique_ptr<Reclaimer> reclaimer;
};

/// RAII read-side guard: one Guard brackets one structure operation
/// (begin_op at construction, end_op at destruction) on behalf of a
/// registered ThreadHandle, and every hazardous load inside the bracket
/// goes through protect(). This is the whole read-side protocol a
/// lock-free structure needs:
///
///   Guard g(handle);
///   Node* n = g.protect(0, root_);          // slot 0
///   while (...) {
///     if (ds::is_marked(n)) goto restart;   // source was being unlinked
///     if (!g.validate()) goto restart;      // NBR neutralization
///     n = g.protect(depth & 1, n->next);    // parent stays protected
///   }
///
/// protect() alternating between two slots keeps the previous hop's node
/// protected while the next one is published — the hand-over-hand pattern
/// every hazard-class scheme needs; epoch-class schemes ignore the slot.
/// Guards do not nest on one handle: a thread runs one guarded operation
/// at a time, and must not release the handle while a Guard is live.
class Guard {
 public:
  explicit Guard(ThreadHandle& h) : r_(h.reclaimer()), h_(h) {
    r_.begin_op(h_);
  }
  ~Guard() { r_.end_op(h_); }

  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

  /// Protected load of `src`, tag bits preserved (see
  /// Reclaimer::protect).
  template <typename T>
  T* protect(int slot, const std::atomic<T*>& src) {
    return static_cast<T*>(r_.protect(h_, slot, &load_fn<T>, &src));
  }

  /// True while earlier pointers from this guard are still protected;
  /// false means restart from a root (NBR neutralization).
  bool validate() { return r_.validate(h_); }

  /// Retires an unlinked node through the guarded reclaimer.
  void retire(void* p) { r_.retire(h_, p); }

  ThreadHandle& handle() const { return h_; }
  Reclaimer& reclaimer() const { return r_; }

 private:
  template <typename T>
  static void* load_fn(const void* src) {
    return static_cast<const std::atomic<T*>*>(src)->load(
        std::memory_order_acquire);
  }

  Reclaimer& r_;
  ThreadHandle& h_;
};

/// Deallocation cursor for single-threaded teardown (the ds/
/// destructors): registers a transient handle when a slot is free — so
/// the frees land on their own allocator lane — and degrades to the
/// handle-less dealloc_teardown() path when the table is exhausted,
/// because a destructor must not let register_thread()'s exhaustion
/// error escape. Callers guarantee no thread is operating through the
/// reclaimer for the cursor's lifetime (the flush_all() contract).
class TeardownCursor {
 public:
  explicit TeardownCursor(Reclaimer& r) : r_(r) {
    try {
      h_ = r_.register_thread();
    } catch (const std::runtime_error&) {
      // Full slot table: fall back to lane 0. Teardown is
      // single-threaded, so the lane is quiescent even when its owner
      // is still registered.
    }
  }

  void dealloc(void* p) {
    if (h_.attached()) {
      r_.dealloc_unpublished(h_, p);
    } else {
      r_.dealloc_teardown(p);
    }
  }

 private:
  Reclaimer& r_;
  ThreadHandle h_;
};

/// Allocates a node through the handle's reclaimer and constructs a T in
/// it while preserving the reclaimer's NodeHeader stamp (T's constructor
/// would otherwise zero the birth era). T must be standard-layout with a
/// NodeHeader as its first member.
template <typename T, typename... Args>
T* make_node(ThreadHandle& h, Args&&... args) {
  static_assert(std::is_standard_layout_v<T>,
                "node types must be standard-layout so the NodeHeader "
                "stays at offset 0");
  static_assert(sizeof(T) >= sizeof(NodeHeader));
  void* p = h.reclaimer().alloc_node(h, sizeof(T));
  const NodeHeader stamp = *static_cast<const NodeHeader*>(p);
  T* t = new (p) T(std::forward<Args>(args)...);
  *reinterpret_cast<NodeHeader*>(t) = stamp;
  return t;
}

}  // namespace emr::smr
