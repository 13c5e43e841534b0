// The single FreeExecutor (declared in smr/reclaimer.hpp). Every mode
// shares one per-lane FIFO of handed-over bags and one drain routine;
// the mode, read from the executor's schedule, decides only whether a
// fresh bag skips the queue (kBatch) and whether alloc_node recycles
// from it (kPool).
#include <algorithm>
#include <limits>

#include "core/timing.hpp"
#include "smr/reclaimer.hpp"

namespace emr::smr {

namespace {
constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
}  // namespace

FreeExecutor::FreeExecutor(const SmrContext& ctx, const SmrConfig& cfg,
                           FreeMode mode)
    : ctx_(ctx),
      tenants_(cfg.tenants < 1 ? 1 : cfg.tenants),
      multi_tenant_(tenants_ > 1),
      lanes_(cfg.slot_capacity()),
      stash_(cfg.slot_capacity()),
      schedule_(mode, cfg) {
  if (multi_tenant_) {
    // Value-initialized atomic grids: every counter starts at zero.
    const std::size_t cells =
        lanes_.size() * static_cast<std::size_t>(tenants_);
    tenant_retired_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(cells);
    tenant_enqueued_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(cells);
    tenant_drained_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(cells);
  }
}

void* FreeExecutor::alloc_node(int lane, std::size_t size) {
  if (schedule_.mode() == FreeMode::kPool) {
    // Trials use one node size; recycle only for that size and fall
    // back to the allocator for anything else.
    LaneState& l = lane_at(lane);
    std::size_t expected = 0;
    common_size_.compare_exchange_strong(expected, size,
                                         std::memory_order_relaxed);
    if (size == common_size_.load(std::memory_order_relaxed) &&
        l.backlog.load(std::memory_order_relaxed) != 0) {
      void* p = nullptr;
      {
        const auto lock = lock_lane(l);
        const std::uint64_t held = l.backlog.load(std::memory_order_relaxed);
        if (held != 0) {
          p = pop_node(lane, l);
          l.backlog.store(held - 1, std::memory_order_relaxed);
        }
      }
      if (p != nullptr) {
        pooled_allocs_.fetch_add(1, std::memory_order_relaxed);
        freed_.fetch_add(1, std::memory_order_relaxed);  // left via reuse
        l.drained.fetch_add(1, std::memory_order_relaxed);
        return p;
      }
    }
  }
  // Every node must have room for the reclaimer-owned intrusive header,
  // and the header must never be indeterminate: schemes that don't stamp
  // birth eras would otherwise hand make_node() uninitialized bytes.
  void* p =
      ctx_.allocator->allocate(lane, std::max(size, sizeof(NodeHeader)));
  static_cast<NodeHeader*>(p)->birth_era = 0;
  return p;
}

void FreeExecutor::hand_over(int lane, bool adopted,
                             std::vector<void*>&& bag) {
  if (bag.empty()) return;
  LaneState& l = lane_at(lane);
  const std::uint64_t n = bag.size();
  l.enqueued.fetch_add(n, std::memory_order_relaxed);
  if (adopted) l.adopted_total.fetch_add(n, std::memory_order_relaxed);
  const std::uint32_t tenant = lane_tenant(lane);
  note_tenant(tenant_enqueued_, lane, tenant, n);
  if (schedule_.mode() == FreeMode::kBatch && !adopted) {
    // The whole bag is freed on the spot: it enters and leaves the
    // tenant's books in one step.
    note_tenant(tenant_drained_, lane, tenant, n);
    Timeline* tl = ctx_.timeline;
    const bool instrumented = tl != nullptr && tl->enabled();
    const std::uint64_t t0 = instrumented ? now_ns() : 0;
    for (void* p : bag) routed_free(lane, lane, p);
    if (instrumented) tl->record(lane, EventKind::kBatchFree, t0, now_ns());
    return;
  }
  const auto lock = lock_lane(l);
  l.bags.push_back(QueuedBag{std::move(bag), 0, tenant});
  l.backlog.store(l.backlog.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
}

void* FreeExecutor::pop_node(int lane, LaneState& l) {
  QueuedBag& b = l.bags.front();
  void* p = b.nodes[b.next++];
  note_tenant(tenant_drained_, lane, b.tenant, 1);
  if (b.next == b.nodes.size()) l.bags.pop_front();
  return p;
}

std::size_t FreeExecutor::drain(int lane, std::size_t quota,
                                std::size_t floor, int alloc_lane,
                                bool route) {
  LaneState& l = lane_at(lane);
  if (quota == 0 || l.backlog.load(std::memory_order_relaxed) <= floor) {
    return 0;
  }
  const auto lock = lock_lane(l);
  const std::uint64_t held = l.backlog.load(std::memory_order_relaxed);
  if (held <= floor) return 0;
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(quota, held - floor));
  for (std::size_t i = 0; i < n; ++i) {
    void* p = pop_node(lane, l);
    if (route) {
      routed_free(lane, alloc_lane, p);
    } else {
      free_node(lane, alloc_lane, p);
    }
  }
  l.backlog.store(held - n, std::memory_order_relaxed);
  return n;
}

void FreeExecutor::on_op_end(int lane) {
  LaneState& l = lane_at(lane);
  l.ops.fetch_add(1, std::memory_order_relaxed);
  const std::size_t floor = queue_floor();
  if (l.backlog.load(std::memory_order_relaxed) > floor) {
    const std::size_t quota = schedule_.drain_quota(quota_stats(lane));
    const std::uint64_t t0 = schedule_.adaptive() ? now_ns() : 0;
    note_drain_time(l, t0, drain(lane, quota, floor, lane, /*route=*/true));
  }
  maybe_flush_stash(lane);
}

void FreeExecutor::quiesce(int lane) {
  // Latch routing off for the rest of the teardown pass: the schemes'
  // flush_all loops interleave hand-over and quiesce per lane, and a
  // post-quiesce hand-over must not scatter blocks into stashes that
  // were already drained. Pre-latch pushes are safe — every lane's
  // quiesce drains its own stash below, and flush_all visits them all.
  teardown_.store(true, std::memory_order_relaxed);
  drain(lane, kAll, 0, lane, /*route=*/false);
  if (home_flush_) {
    while (drain_stash(lane, kAll, lane) != 0) {
    }
  }
}

std::size_t FreeExecutor::daemon_drain(int lane, std::size_t quota,
                                       int daemon_lane) {
  std::size_t n =
      drain(lane, quota, queue_floor(), daemon_lane, /*route=*/false);
  // Orphan/idle stash coverage: when routing is armed, the remaining
  // quota flushes this lane's stash from the daemon — the path that
  // keeps departed or idle lanes from stranding stashed blocks. The
  // frees go through free_local_hint (remote attribution stays exact;
  // the per-block penalty was amortized by the batch hand-off).
  if (home_flush_ && n < quota) {
    n += drain_stash(lane, quota - n, daemon_lane);
  }
  return n;
}

void FreeExecutor::note_drain_time(LaneState& l, std::uint64_t t0,
                                   std::size_t n) {
  if (!schedule_.adaptive()) return;
  l.drain_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  l.timed_drained.fetch_add(n, std::memory_order_relaxed);
}

void FreeExecutor::free_node(int stats_lane, int alloc_lane, void* p,
                             bool local_hint) {
  Timeline* tl = ctx_.timeline;
  const bool instrumented = tl != nullptr && tl->enabled();
  const std::uint64_t t0 = instrumented ? now_ns() : 0;
  if (local_hint) {
    ctx_.allocator->free_local_hint(alloc_lane, p);
  } else {
    ctx_.allocator->deallocate(alloc_lane, p);
  }
  if (instrumented) {
    tl->record(alloc_lane, EventKind::kFreeCall, t0, now_ns());
  }
  freed_.fetch_add(1, std::memory_order_relaxed);
  lane_at(stats_lane).drained.fetch_add(1, std::memory_order_relaxed);
}

void FreeExecutor::routed_free(int stats_lane, int alloc_lane, void* p) {
  if (home_flush_ && !teardown_.load(std::memory_order_relaxed)) {
    const int home = ctx_.allocator->home_lane(p);
    if (home >= 0 && home != alloc_lane &&
        static_cast<std::size_t>(home) < stash_.size()) {
      stash_push(stats_lane, home, p);
      return;
    }
  }
  free_node(stats_lane, alloc_lane, p);
}

void FreeExecutor::stash_push(int stats_lane, int home, void* p) {
  lane_at(stats_lane).stashed.fetch_add(1, std::memory_order_relaxed);
  RemoteStash& s = stash_[static_cast<std::size_t>(home)];
  // Gauge up *before* the node publishes: a drainer can only decrement
  // after its acquire-exchange observed this push's release-CAS, which
  // orders the increment first — the gauge never reads negative.
  s.backlog.fetch_add(1, std::memory_order_relaxed);
  // The node is dead (ownership transferred at hand-over), so its first
  // 8 bytes — the NodeHeader the reclaimer owns — carry the intrusive
  // link. Plain store is race-free: publication happens via the head.
  void* old = s.head.load(std::memory_order_relaxed);
  do {
    *static_cast<void**>(p) = old;
  } while (!s.head.compare_exchange_weak(old, p, std::memory_order_release,
                                         std::memory_order_relaxed));
}

std::size_t FreeExecutor::drain_stash(int lane, std::size_t quota,
                                      int alloc_lane) {
  RemoteStash& s = stash_[static_cast<std::size_t>(lane)];
  if (quota == 0 || s.backlog.load(std::memory_order_relaxed) == 0) {
    return 0;
  }
  LaneState& l = lane_at(lane);
  const std::uint64_t t0 = schedule_.adaptive() ? now_ns() : 0;
  std::size_t n = 0;
  {
    const auto lock = lock_lane(l);
    while (n < quota) {
      if (l.stash_chain == nullptr) {
        // Grab the whole Treiber stack in one exchange; the remainder
        // over quota waits in the private chain for the next flush.
        l.stash_chain = s.head.exchange(nullptr, std::memory_order_acquire);
        if (l.stash_chain == nullptr) break;
      }
      void* p = l.stash_chain;
      l.stash_chain = *static_cast<void**>(p);
      free_node(lane, alloc_lane, p, /*local_hint=*/true);
      s.flushed.fetch_add(1, std::memory_order_relaxed);
      s.backlog.fetch_sub(1, std::memory_order_relaxed);
      ++n;
    }
  }
  note_drain_time(l, t0, n);
  return n;
}

void FreeExecutor::maybe_flush_stash(int lane) {
  if (!home_flush_) return;
  if (teardown_.load(std::memory_order_relaxed)) {
    // A mid-run flush_all latched routing off; an op ending proves the
    // bundle is live again, so re-arm.
    teardown_.store(false, std::memory_order_relaxed);
  }
  if (stash_[static_cast<std::size_t>(lane)].backlog.load(
          std::memory_order_relaxed) == 0) {
    return;
  }
  drain_stash(lane, schedule_.flush_quota(quota_stats(lane)), lane);
}

void FreeExecutor::on_lane_released(int lane) {
  if (!home_flush_) return;
  RemoteStash& s = stash_[static_cast<std::size_t>(lane)];
  LaneState& l = lane_at(lane);
  std::vector<void*> bag;
  {
    const auto lock = lock_lane(l);
    void* p = l.stash_chain;
    l.stash_chain = nullptr;
    while (p != nullptr) {
      bag.push_back(p);
      p = *static_cast<void**>(p);
    }
    p = s.head.exchange(nullptr, std::memory_order_acquire);
    while (p != nullptr) {
      bag.push_back(p);
      p = *static_cast<void**>(p);
    }
  }
  if (bag.empty()) return;
  // The blocks leave the stash (counted flushed) and re-enter as an
  // adopted bag, so the successor — or the daemon, or flush_all —
  // drains them at the usual quota instead of in a burst.
  s.flushed.fetch_add(bag.size(), std::memory_order_relaxed);
  s.backlog.fetch_sub(bag.size(), std::memory_order_relaxed);
  hand_over(lane, /*adopted=*/true, std::move(bag));
}

LaneStats FreeExecutor::lane_stats(int lane) const {
  const LaneState& l = lane_at(lane);
  const RemoteStash& st = stash_[static_cast<std::size_t>(lane)];
  LaneStats s;
  s.ops = l.ops.load(std::memory_order_relaxed);
  // Mid-trial snapshots are unsynchronized by design (one relaxed load
  // per counter; no lock on the hot path), so pairs of counters can
  // tear. The exit-side counters (drained, flushed) are read *before*
  // their entry-side partners (enqueued, stashed): exits only follow
  // entries, so a later-read entry counter is always >= the
  // earlier-read exit counter and derived gauges (enqueued - drained,
  // stashed - flushed) never go negative. The backlog gauges are
  // maintained entry-first for the same reason (see stash_push) rather
  // than derived here.
  s.drained = l.drained.load(std::memory_order_relaxed);
  s.enqueued = l.enqueued.load(std::memory_order_relaxed);
  s.adopted = l.adopted_total.load(std::memory_order_relaxed);
  s.flushed = st.flushed.load(std::memory_order_relaxed);
  s.stashed = l.stashed.load(std::memory_order_relaxed);
  s.stash_backlog = st.backlog.load(std::memory_order_relaxed);
  s.backlog = l.backlog.load(std::memory_order_relaxed) + s.stash_backlog;
  s.drain_ns = l.drain_ns.load(std::memory_order_relaxed);
  s.timed_drained = l.timed_drained.load(std::memory_order_relaxed);
  if (multi_tenant_) {
    const std::size_t t_count = static_cast<std::size_t>(tenants_);
    s.tenant_enqueued.resize(t_count);
    s.tenant_drained.resize(t_count);
    for (std::size_t t = 0; t < t_count; ++t) {
      const std::size_t cell =
          tenant_cell(lane, static_cast<std::uint32_t>(t));
      s.tenant_drained[t] =
          tenant_drained_[cell].load(std::memory_order_relaxed);
      s.tenant_enqueued[t] =
          tenant_enqueued_[cell].load(std::memory_order_relaxed);
    }
  }
  return s;
}

TenantStats FreeExecutor::tenant_stats(int tenant) const {
  TenantStats out;
  if (!multi_tenant_ || tenant < 0 || tenant >= tenants_) return out;
  const auto t = static_cast<std::uint32_t>(tenant);
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    const std::size_t cell = tenant_cell(static_cast<int>(lane), t);
    out.retired += tenant_retired_[cell].load(std::memory_order_relaxed);
    // drained before enqueued: enqueue counters are bumped before nodes
    // enter a backlog and drain counters after they leave, so this read
    // order keeps the derived backlog non-negative.
    out.drained += tenant_drained_[cell].load(std::memory_order_relaxed);
    out.enqueued += tenant_enqueued_[cell].load(std::memory_order_relaxed);
  }
  out.backlog = out.enqueued > out.drained ? out.enqueued - out.drained : 0;
  return out;
}

}  // namespace emr::smr
