// The single FreeExecutor (declared in smr/reclaimer.hpp). Every mode
// shares one per-lane NodeChain queue and one drain routine; the mode,
// read from the executor's schedule, decides only whether a fresh bag
// skips the queue (kBatch) and whether alloc_node recycles from it
// (kPool).
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
    tenant_cells_ = std::make_unique<TenantCell[]>(
        lanes_.size() * static_cast<std::size_t>(tenants_));
  }
}

template <typename Sink>
std::size_t FreeExecutor::drain(int lane, std::size_t quota,
                                std::size_t floor, Sink sink) {
  LaneState& l = at(lanes_, lane);
  if (quota == 0 || l.backlog.load(std::memory_order_relaxed) <= floor) {
    return 0;
  }
  const auto lock = lock_lane(l);
  const std::uint64_t held = l.backlog.load(std::memory_order_relaxed);
  if (held <= floor) return 0;
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(quota, held - floor));
  for (std::size_t i = 0; i < n; ++i) {
    if (multi_tenant_) {
      TenantRun& r = l.runs.front();
      note_tenant(&TenantCell::drained, lane, r.tenant, 1);
      if (--r.count == 0) l.runs.pop_front();
    }
    sink(l.queue.pop_front());
  }
  l.backlog.store(held - n, std::memory_order_relaxed);
  return n;
}

void* FreeExecutor::alloc_node(int lane, std::size_t size) {
  void* p = nullptr;
  if (schedule_.mode() == FreeMode::kPool) {
    // Trials use one node size; recycle only for that size and fall
    // back to the allocator for anything else.
    std::size_t expected = 0;
    common_size_.compare_exchange_strong(expected, size,
                                         std::memory_order_relaxed);
    if (size == common_size_.load(std::memory_order_relaxed) &&
        drain(lane, 1, 0, [&p](void* q) { p = q; }) != 0) {
      pooled_allocs_.fetch_add(1, std::memory_order_relaxed);
      // Left via reuse.
      at(lanes_, lane).drained.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Every node must have room for the reclaimer-owned intrusive header,
  // and the header must never be indeterminate: a fresh block holds
  // uninitialized bytes and a recycled one its old queue link, and
  // schemes that don't stamp birth eras would hand either to make_node().
  if (p == nullptr) {
    p = ctx_.allocator->allocate(lane, std::max(size, sizeof(NodeHeader)));
  }
  static_cast<NodeHeader*>(p)->birth_era = 0;
  return p;
}

void FreeExecutor::hand_over(int lane, bool adopted, NodeChain&& bag) {
  if (bag.empty()) return;
  LaneState& l = at(lanes_, lane);
  const std::uint64_t n = bag.size();
  l.enqueued.fetch_add(n, std::memory_order_relaxed);
  if (adopted) l.adopted_total.fetch_add(n, std::memory_order_relaxed);
  const std::uint32_t tenant = lane_tenant(lane);
  note_tenant(&TenantCell::enqueued, lane, tenant, n);
  if (schedule_.mode() == FreeMode::kBatch && !adopted) {
    // The whole bag is freed on the spot: it enters and leaves the
    // tenant's books in one step.
    note_tenant(&TenantCell::drained, lane, tenant, n);
    Timeline* tl = ctx_.timeline;
    const bool instrumented = tl != nullptr && tl->enabled();
    const std::uint64_t t0 = instrumented ? now_ns() : 0;
    while (!bag.empty()) routed_free(lane, lane, bag.pop_front());
    if (instrumented) tl->record(lane, EventKind::kBatchFree, t0, now_ns());
    return;
  }
  const auto lock = lock_lane(l);
  l.queue.splice(std::move(bag));
  if (multi_tenant_) l.runs.push_back(TenantRun{n, tenant});
  l.backlog.store(l.backlog.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
}

void FreeExecutor::on_op_end(int lane) {
  LaneState& l = at(lanes_, lane);
  l.ops.fetch_add(1, std::memory_order_relaxed);
  const std::size_t floor = queue_floor();
  if (l.backlog.load(std::memory_order_relaxed) > floor) {
    const std::size_t quota = schedule_.drain_quota(quota_stats(lane));
    const std::uint64_t t0 = schedule_.adaptive() ? now_ns() : 0;
    note_drain_time(l, t0, drain(lane, quota, floor, [&](void* p) {
                      routed_free(lane, lane, p);
                    }));
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
  drain(lane, kAll, 0, [&](void* p) { free_node(lane, lane, p); });
  if (home_flush_) {
    while (drain_stash(lane, kAll, lane) != 0) {
    }
  }
}

std::size_t FreeExecutor::daemon_drain(int lane, std::size_t quota,
                                       int daemon_lane) {
  std::size_t n = drain(lane, quota, queue_floor(), [&](void* p) {
    free_node(lane, daemon_lane, p);
  });
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
  at(lanes_, stats_lane).drained.fetch_add(1, std::memory_order_relaxed);
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
  at(lanes_, stats_lane).stashed.fetch_add(1, std::memory_order_relaxed);
  RemoteStash& s = at(stash_, home);
  // Gauge up *before* the node publishes: a drainer can only decrement
  // after its acquire-exchange observed this push's release-CAS, which
  // orders the increment first — the gauge never reads negative.
  s.backlog.fetch_add(1, std::memory_order_relaxed);
  // The node is dead (ownership transferred at hand-over), so its first
  // 8 bytes — the NodeHeader the reclaimer owns — carry the intrusive
  // link. Plain store is race-free: publication happens via the head.
  void* old = s.head.load(std::memory_order_relaxed);
  do {
    NodeChain::set_next(p, old);
  } while (!s.head.compare_exchange_weak(old, p, std::memory_order_release,
                                         std::memory_order_relaxed));
}

std::size_t FreeExecutor::drain_stash(int lane, std::size_t quota,
                                      int alloc_lane) {
  RemoteStash& s = at(stash_, lane);
  if (quota == 0 || s.backlog.load(std::memory_order_relaxed) == 0) {
    return 0;
  }
  LaneState& l = at(lanes_, lane);
  const std::uint64_t t0 = schedule_.adaptive() ? now_ns() : 0;
  std::size_t n = 0;
  {
    const auto lock = lock_lane(l);
    while (n < quota) {
      if (l.stash.empty()) {
        // Grab the whole Treiber stack in one exchange; the remainder
        // over quota waits in the private chain for the next flush.
        l.stash = NodeChain::from_list(
            s.head.exchange(nullptr, std::memory_order_acquire));
        if (l.stash.empty()) break;
      }
      free_node(lane, alloc_lane, l.stash.pop_front(), /*local_hint=*/true);
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
  if (at(stash_, lane).backlog.load(std::memory_order_relaxed) == 0) return;
  drain_stash(lane, schedule_.flush_quota(quota_stats(lane)), lane);
}

void FreeExecutor::on_lane_released(int lane) {
  if (!home_flush_) return;
  RemoteStash& s = at(stash_, lane);
  LaneState& l = at(lanes_, lane);
  NodeChain bag;
  {
    const auto lock = lock_lane(l);
    bag = std::move(l.stash);
    bag.splice(NodeChain::from_list(
        s.head.exchange(nullptr, std::memory_order_acquire)));
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
  const LaneState& l = at(lanes_, lane);
  const RemoteStash& st = at(stash_, lane);
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
      const TenantCell& c = tenant_cell(lane, static_cast<std::uint32_t>(t));
      s.tenant_drained[t] = c.drained.load(std::memory_order_relaxed);
      s.tenant_enqueued[t] = c.enqueued.load(std::memory_order_relaxed);
    }
  }
  return s;
}

TenantStats FreeExecutor::tenant_stats(int tenant) const {
  TenantStats out;
  if (!multi_tenant_ || tenant < 0 || tenant >= tenants_) return out;
  const auto t = static_cast<std::uint32_t>(tenant);
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    const TenantCell& c = tenant_cell(static_cast<int>(lane), t);
    out.retired += c.retired.load(std::memory_order_relaxed);
    // drained before enqueued: enqueue counters are bumped before nodes
    // enter a backlog and drain counters after they leave, so this read
    // order keeps the derived backlog non-negative.
    out.drained += c.drained.load(std::memory_order_relaxed);
    out.enqueued += c.enqueued.load(std::memory_order_relaxed);
  }
  out.backlog = out.enqueued > out.drained ? out.enqueued - out.drained : 0;
  return out;
}

}  // namespace emr::smr
