// Tests of the benchmark's own parts: the allocator decorator, the
// histogram, the output checks, and that tracing leaves the program's
// allocator traffic unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <random>
#include <vector>

#include "alloc/factory.hpp"
#include "checks.hpp"
#include "driver.hpp"
#include "histogram.hpp"
#include "smr/factory.hpp"
#include "timed_allocator.hpp"

using namespace perfbench;

namespace {

/// Records which virtual was called and returns distinctive values.
class FakeAllocator final : public emr::alloc::Allocator {
 public:
  struct Calls {
    int allocate = 0, deallocate = 0, home_lane = 0, free_local_hint = 0,
        flush = 0, stats = 0, name = 0;
    int last_tid = -1;
  };
  explicit FakeAllocator(Calls* c) : c_(c) {}

  void* allocate(int tid, std::size_t) override {
    ++c_->allocate;
    c_->last_tid = tid;
    return &block_;
  }
  void deallocate(int tid, void*) override {
    ++c_->deallocate;
    c_->last_tid = tid;
  }
  int home_lane(void*) const override {
    ++c_->home_lane;
    return 7;
  }
  void free_local_hint(int tid, void*) override {
    ++c_->free_local_hint;
    c_->last_tid = tid;
  }
  void flush_thread_caches() override { ++c_->flush; }
  emr::alloc::AllocStats stats() const override {
    ++c_->stats;
    emr::alloc::AllocStats s;
    s.totals.n_alloc = 11;
    s.peak_bytes_mapped = 13;
    return s;
  }
  const char* name() const override {
    ++c_->name;
    return "fake";
  }

 private:
  Calls* c_;
  long block_ = 0;
};

TEST(TimedAllocator, ForwardsEveryVirtual) {
  FakeAllocator::Calls calls;
  auto fake = std::make_unique<FakeAllocator>(&calls);
  void* const block = fake->allocate(0, 8);
  calls = {};
  TimedAllocator timed(std::move(fake), 2);

  EXPECT_EQ(timed.allocate(1, 16), block);
  timed.deallocate(1, block);
  timed.free_local_hint(0, block);
  EXPECT_EQ(timed.home_lane(block), 7);
  timed.flush_thread_caches();
  const emr::alloc::AllocStats s = timed.stats();
  EXPECT_STREQ(timed.name(), "fake");

  EXPECT_EQ(calls.allocate, 1);
  EXPECT_EQ(calls.deallocate, 1);
  EXPECT_EQ(calls.free_local_hint, 1);
  EXPECT_EQ(calls.home_lane, 1);
  EXPECT_EQ(calls.flush, 1);
  EXPECT_EQ(calls.stats, 1);
  EXPECT_EQ(calls.name, 1);
  EXPECT_EQ(calls.last_tid, 0);
  EXPECT_EQ(s.totals.n_alloc, 11u);
  EXPECT_EQ(s.peak_bytes_mapped, 13u);

  // Timed calls land on their lane; a lane past the table on the
  // overflow cell.
  EXPECT_EQ(timed.cell(1).alloc_calls, 1u);
  EXPECT_EQ(timed.cell(1).free_calls, 1u);
  EXPECT_EQ(timed.cell(0).free_calls, 1u);
  timed.deallocate(99, block);
  timed.deallocate(-1, block);
  EXPECT_EQ(timed.cell(99).free_calls, 2u);
  EXPECT_EQ(timed.cell(1).free_calls, 1u);
}

TEST(Histogram, PercentilesMatchSortedReference) {
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 200000; ++i) {
    // Log-uniform over 1 .. 2^30, plus a run of exact small values.
    const double e = std::uniform_real_distribution<double>(0, 30)(rng);
    values.push_back(static_cast<std::uint64_t>(std::exp2(e)));
  }
  for (std::uint64_t v = 0; v < 64; ++v) values.push_back(v);
  Histogram h;
  for (std::uint64_t v : values) h.record(v);
  std::sort(values.begin(), values.end());
  ASSERT_EQ(h.count(), values.size());
  for (double q : {0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 0.99999, 1.0}) {
    const std::uint64_t k = h.rank_of(q);
    const double ref = static_cast<double>(values[k - 1]);
    const double got = h.percentile(q);
    const double tol = std::max(1.0, ref / 64.0);
    EXPECT_NEAR(got, ref, tol) << "q=" << q;
    EXPECT_EQ(h.beyond(q), values.size() - k);
  }
  Histogram small;
  for (std::uint64_t v : {3, 9, 9, 40}) small.record(v);
  EXPECT_EQ(small.percentile(0.5), 9.0);
  EXPECT_EQ(small.percentile(1.0), 40.0);
  EXPECT_EQ(Histogram().percentile(0.5), 0.0);
}

TEST(Histogram, BucketsTileTheRange) {
  for (std::size_t b = 0; b + 1 < Histogram::kBuckets; ++b) {
    ASSERT_EQ(Histogram::bucket_low(b) + Histogram::bucket_width(b),
              Histogram::bucket_low(b + 1))
        << b;
    ASSERT_EQ(Histogram::bucket_of(Histogram::bucket_low(b)), b);
  }
  EXPECT_EQ(Histogram::bucket_of(~0ULL), Histogram::kBuckets - 1);
}

/// A queue over std::deque that can lose or repeat an item.
class FakeQueue final : public emr::ds::ConcurrentQueue {
 public:
  enum class Fault { kNone, kDrop, kDuplicate };
  explicit FakeQueue(Fault f) : fault_(f) {}

  bool enqueue(emr::smr::ThreadHandle&, std::uint64_t v) override {
    if (fault_ == Fault::kDrop && ++enqueues_ == 5) return true;
    items_.push_back(v);
    return true;
  }
  bool dequeue(emr::smr::ThreadHandle&, std::uint64_t* out) override {
    if (items_.empty()) return false;
    *out = items_.front();
    if (fault_ == Fault::kDuplicate && ++dequeues_ == 3) return true;
    items_.pop_front();
    return true;
  }
  const char* name() const override { return "fake"; }
  std::size_t node_size() const override { return 0; }

 private:
  Fault fault_;
  std::deque<std::uint64_t> items_;
  int enqueues_ = 0;
  int dequeues_ = 0;
};

struct Reclaimer {
  Reclaimer() {
    emr::alloc::AllocConfig acfg;
    acfg.max_threads = 4;
    alloc = emr::alloc::make_allocator("system", acfg);
    emr::smr::SmrContext ctx;
    ctx.allocator = alloc.get();
    bundle = emr::smr::make_reclaimer("debra", ctx, emr::smr::SmrConfig{});
  }
  std::unique_ptr<emr::alloc::Allocator> alloc;
  emr::smr::ReclaimerBundle bundle;
};

std::uint64_t run_fake_queue(FakeQueue::Fault fault) {
  Reclaimer r;
  emr::smr::ThreadHandle h = r.bundle.reclaimer->register_thread();
  FakeQueue q(fault);
  QueueChecker checker(1);
  std::uint64_t enqueued = 0;
  for (std::uint64_t seq = 0; seq < 20; ++seq) {
    if (q.enqueue(h, queue_value(0, seq))) ++enqueued;
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && q.dequeue(h, &v); ++i) checker.on_dequeued(v);
  return check_queue(q, h, checker, enqueued);
}

TEST(QueueCheck, AcceptsAFaithfulQueue) {
  EXPECT_EQ(run_fake_queue(FakeQueue::Fault::kNone), 0u);
}

TEST(QueueCheck, RejectsADroppedItem) {
  EXPECT_GT(run_fake_queue(FakeQueue::Fault::kDrop), 0u);
}

TEST(QueueCheck, RejectsADuplicatedItem) {
  EXPECT_GT(run_fake_queue(FakeQueue::Fault::kDuplicate), 0u);
}

TEST(QueueCheck, RejectsAnUnknownProducer) {
  QueueChecker checker(1);
  checker.on_dequeued(queue_value(3, 0));
  EXPECT_EQ(checker.bad(), 1u);
}

TEST(SetCheck, RejectsAnUnbookedChange) {
  Reclaimer r;
  emr::ds::SetConfig cfg;
  cfg.keyrange = 64;
  auto set = emr::ds::make_set("abtree", cfg, r.bundle.reclaimer.get());
  {
    emr::smr::ThreadHandle h = r.bundle.reclaimer->register_thread();
    SetLedger ledger(64, 1);
    set->insert(h, 2);
    ledger.mark_prefilled(2);
    set->insert(h, 5);
    ++ledger.lane(0)[5];
    EXPECT_EQ(ledger.check(*set, h), 0u);
    set->erase(h, 2);  // not booked
    set->insert(h, 9);  // not booked
    EXPECT_EQ(ledger.check(*set, h), 2u);
  }
  set.reset();
  r.bundle.reclaimer->flush_all();
}

/// A single-threaded, op-count-bounded window is deterministic, so the
/// traced one must drive the allocator exactly as the untraced one does.
void expect_same_traffic(const std::string& reclaimer) {
  WorkloadSpec spec = *find_workload("abtree-orig");
  spec.reclaimer = reclaimer;
  spec.workers = 1;
  spec.keyrange = 1 << 12;
  spec.batch = 1024;  // larger than the thread cache, so bags flush
  RunOptions opts;
  opts.seed = 3;
  opts.op_limit = 30000;
  const WindowResult plain = run_window(spec, opts, false);
  const WindowResult traced = run_window(spec, opts, true);
  EXPECT_EQ(plain.failed, 0u);
  EXPECT_EQ(traced.failed, 0u);
  EXPECT_EQ(plain.calls, 30000u);
  EXPECT_EQ(traced.calls, 30000u);
  EXPECT_GT(plain.alloc_window.n_alloc, 0u);
  const auto same = [](const emr::alloc::AllocTotals& a,
                       const emr::alloc::AllocTotals& b) {
    EXPECT_EQ(a.n_alloc, b.n_alloc);
    EXPECT_EQ(a.n_free, b.n_free);
    EXPECT_EQ(a.n_remote_free, b.n_remote_free);
    EXPECT_EQ(a.n_flush, b.n_flush);
  };
  same(plain.alloc_window, traced.alloc_window);
  same(plain.alloc_final, traced.alloc_final);
  EXPECT_GT(plain.alloc_window.n_flush, 0u);
  // Every free the traced window saw happened inside a data-structure call.
  EXPECT_EQ(traced.alloc_in_ops.free_calls, traced.alloc_window.n_free);
}

TEST(Tracing, LeavesAllocatorTrafficUnchangedBatchFree) {
  expect_same_traffic("debra");
}

TEST(Tracing, LeavesAllocatorTrafficUnchangedAmortizedFree) {
  expect_same_traffic("debra_af");
}

}  // namespace
