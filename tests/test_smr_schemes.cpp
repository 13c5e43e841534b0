// Scheme-faithfulness suite, parameterized over every factory name the
// benches can ask for: a node that a reader currently protects is never
// handed to the free schedule (not freed, not pool-recycled), every
// retired node is freed at teardown, and the pointer-protecting names
// resolve to their own families rather than aliasing the epoch
// machinery. Scheme-specific behaviours (HP scan partitioning, era
// grace, NBR neutralization) get their own cases at the bottom.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "smr/factory.hpp"
#include "tests/tracking_allocator.hpp"

namespace {

using namespace emr;
using test::TrackingAllocator;

void* load_ptr(const void* s) {
  return static_cast<const std::atomic<void*>*>(s)->load(
      std::memory_order_acquire);
}

struct SchemeWorld {
  TrackingAllocator allocator;
  smr::SmrContext ctx;
  smr::SmrConfig cfg;
  smr::ReclaimerBundle bundle;
  std::vector<smr::ThreadHandle> handles;

  explicit SchemeWorld(const std::string& name, std::size_t batch = 8,
                       int threads = 2) {
    ctx.allocator = &allocator;
    cfg.num_threads = threads;
    cfg.batch_size = batch;
    cfg.af_drain_per_op = 4;
    cfg.epoch_freq = 16;  // advance the era clock within small tests
    bundle = smr::make_reclaimer(name, ctx, cfg);
    for (int t = 0; t < threads; ++t) {
      handles.push_back(r().register_thread());
    }
  }

  smr::Reclaimer& r() { return *bundle.reclaimer; }
  smr::ThreadHandle& h(int t) {
    return handles[static_cast<std::size_t>(t)];
  }
};

class SmrSchemeTest : public ::testing::TestWithParam<std::string> {};

// smr::all_factory_names() is the factory's own single source of truth
// for every constructible name (bases x the suffix grammar), so new
// names are covered here automatically.
INSTANTIATE_TEST_SUITE_P(
    AllFactoryNames, SmrSchemeTest,
    ::testing::ValuesIn(smr::all_factory_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// The core protection invariant: thread 0 protects a node mid-op;
// thread 1 unlinks and retires that node, then churns hard enough to
// drive scans, epoch advances, token passes and executor drains. The
// protected node must survive all of it — and must not be served back
// out of the pool either — until the protector's operation ends. After
// teardown every retired node must have been freed exactly once.
TEST_P(SmrSchemeTest, NoFreeWhileProtectedAndAllFreedAtTeardown) {
  const std::string name = GetParam();
  SchemeWorld w(name);

  void* x = w.r().alloc_node(w.h(0), 64);
  std::atomic<void*> src{x};
  w.r().begin_op(w.h(0));
  ASSERT_EQ(w.r().protect(w.h(0), 0, load_ptr, &src), x) << name;

  // Lane 1 "unlinks" x and retires it, then churns.
  w.r().begin_op(w.h(1));
  w.r().retire(w.h(1), x);
  w.r().end_op(w.h(1));
  for (int i = 0; i < 400; ++i) {
    w.r().begin_op(w.h(1));
    void* p = w.r().alloc_node(w.h(1), 64);
    EXPECT_NE(p, x) << name << ": protected node served out of the pool";
    w.r().retire(w.h(1), p);
    w.r().end_op(w.h(1));
  }

  EXPECT_EQ(w.allocator.freed_count(x), 0u)
      << name << ": node freed while a reader still protects it";

  w.r().end_op(w.h(0));
  w.r().flush_all();
  const smr::SmrStats st = w.r().stats();
  EXPECT_EQ(st.retired, 401u) << name;
  EXPECT_EQ(st.pending, 0u) << name;
  EXPECT_EQ(w.allocator.live(), 0u) << name;
}

// Protection slots are per-(tid, idx): releasing one thread's op leaves
// other retires reclaimable, and repeated protect calls on many slots
// never confuse the accounting. Every end_op reaches the executor's
// op-end hook exactly once on its own lane.
TEST_P(SmrSchemeTest, MultiSlotTraversalAccountsExactly) {
  const std::string name = GetParam();
  SchemeWorld w(name);

  for (int round = 0; round < 8; ++round) {
    w.r().begin_op(w.h(0));
    std::vector<void*> nodes;
    for (int i = 0; i < 12; ++i) {
      void* p = w.r().alloc_node(w.h(0), 64);
      std::atomic<void*> src{p};
      EXPECT_EQ(w.r().protect(w.h(0), i, load_ptr, &src), p) << name;
      nodes.push_back(p);
    }
    w.r().end_op(w.h(0));
    w.r().begin_op(w.h(1));
    for (void* p : nodes) w.r().retire(w.h(1), p);
    w.r().end_op(w.h(1));
    // Lane 1 runs two ops per round so a miscounted lane cannot hide.
    w.r().begin_op(w.h(1));
    w.r().end_op(w.h(1));
  }
  w.r().flush_all();
  const smr::SmrStats st = w.r().stats_with_lanes();
  EXPECT_EQ(st.retired, 96u) << name;
  EXPECT_EQ(st.pending, 0u) << name;
  EXPECT_EQ(w.allocator.live(), 0u) << name;
  ASSERT_EQ(st.lanes.size(), w.r().slot_capacity()) << name;
  const int slot0 = w.h(0).slot();
  const int slot1 = w.h(1).slot();
  for (std::size_t l = 0; l < st.lanes.size(); ++l) {
    const std::uint64_t want = static_cast<int>(l) == slot0   ? 8u
                               : static_cast<int>(l) == slot1 ? 16u
                                                              : 0u;
    EXPECT_EQ(st.lanes[l].ops, want) << name << " lane " << l;
  }
}

// The anti-aliasing check the CI smoke also enforces: every pointer-
// protecting name must resolve to its own implementation family.
TEST(SmrFamilies, PointerSchemesAreNotEbrAliases) {
  const struct {
    const char* name;
    const char* family;
  } kExpected[] = {
      {"none", "ebr"},     {"qsbr", "ebr"},     {"rcu", "ebr"},
      {"debra", "ebr"},    {"token", "token"},  {"token_naive", "token"},
      {"token_passfirst", "token"},             {"hp", "hp"},
      {"he", "era"},       {"ibr", "era"},      {"wfe", "era"},
      {"nbr", "nbr"},      {"nbrplus", "nbr"},
  };
  for (const auto& e : kExpected) {
    SchemeWorld w(e.name);
    EXPECT_STREQ(w.r().family(), e.family) << e.name;
    EXPECT_STREQ(w.r().name(), e.name);
  }
  for (const char* name : {"hp", "he", "ibr", "wfe", "nbr", "nbrplus"}) {
    SchemeWorld w(name);
    EXPECT_STRNE(w.r().family(), "ebr")
        << name << " fell back to EBR aliasing";
  }
}

// Suffixed forms of the fixed token variants are outside the name
// grammar (and outside all_factory_names()' coverage), so the factory
// must refuse them instead of constructing untested combinations.
TEST(SmrFamilies, FixedTokenVariantsTakeNoSuffix) {
  TrackingAllocator allocator;
  smr::SmrContext ctx;
  ctx.allocator = &allocator;
  smr::SmrConfig cfg;
  for (const char* name :
       {"token_naive_af", "token_naive_pool", "token_naive_adaptive",
        "token_passfirst_af", "token_passfirst_pool",
        "token_passfirst_adaptive"}) {
    EXPECT_THROW(smr::make_reclaimer(name, ctx, cfg),
                 std::invalid_argument)
        << name;
  }
}

// HP partitions a full retire list in one scan: everything except the
// hazarded node reaches the allocator immediately, with no epoch grace.
TEST(SmrHp, ScanFreesUnprotectedImmediately) {
  SchemeWorld w("hp", /*batch=*/8);
  void* x = w.r().alloc_node(w.h(0), 64);
  std::atomic<void*> src{x};
  w.r().begin_op(w.h(0));
  w.r().protect(w.h(0), 0, load_ptr, &src);

  w.r().begin_op(w.h(1));
  w.r().retire(w.h(1), x);
  // Push past the scan threshold (batch floored at N*K+1 hazards).
  for (int i = 0; i < 96; ++i) {
    w.r().retire(w.h(1), w.r().alloc_node(w.h(1), 64));
  }
  w.r().end_op(w.h(1));

  const smr::SmrStats st = w.r().stats();
  EXPECT_GT(st.freed, 0u) << "scan should free unprotected retires";
  EXPECT_EQ(w.allocator.freed_count(x), 0u);
  EXPECT_GE(st.epochs_advanced, 1u);  // counts scans for hp

  w.r().end_op(w.h(0));
  w.r().flush_all();
  EXPECT_EQ(w.allocator.live(), 0u);
}

// Era schemes only reclaim nodes whose [birth, retire] interval no
// reservation intersects; with no readers at all, a full bag drains on
// the next scan.
TEST(SmrEra, UnreservedIntervalsReclaimWithoutReaders) {
  for (const char* name : {"he", "ibr", "wfe"}) {
    SchemeWorld w(name, /*batch=*/16);
    for (int i = 0; i < 96; ++i) {
      w.r().begin_op(w.h(0));
      w.r().retire(w.h(0), w.r().alloc_node(w.h(0), 64));
      w.r().end_op(w.h(0));
    }
    EXPECT_GT(w.r().stats().freed, 0u) << name;
    w.r().flush_all();
    EXPECT_EQ(w.r().stats().pending, 0u) << name;
    EXPECT_EQ(w.allocator.live(), 0u) << name;
  }
}

// NBR's defining move: a neutralized reader that polls validate()
// learns its read block is dead, restarts at the current era and
// thereby abandons its claim on earlier retires — which then become
// freeable — while a reader that never polls keeps blocking them.
// (protect() itself never restarts: it must not invalidate the pointer
// it is about to return.)
TEST(SmrNbr, NeutralizedReaderRestartsAndUnblocksReclamation) {
  for (const char* name : {"nbr", "nbrplus"}) {
    SchemeWorld w(name, /*batch=*/8);
    void* x = w.r().alloc_node(w.h(0), 64);
    std::atomic<void*> src{x};

    w.r().begin_op(w.h(0));
    w.r().protect(w.h(0), 0, load_ptr, &src);

    // Churn: retires + era advances set lane 0's neutralize flag, but
    // until the reader polls validate() the old announcement stands.
    w.r().begin_op(w.h(1));
    w.r().retire(w.h(1), x);
    w.r().end_op(w.h(1));
    auto churn = [&w](int ops) {
      for (int i = 0; i < ops; ++i) {
        w.r().begin_op(w.h(1));
        w.r().retire(w.h(1), w.r().alloc_node(w.h(1), 64));
        w.r().end_op(w.h(1));
      }
    };
    churn(200);
    EXPECT_EQ(w.allocator.freed_count(x), 0u)
        << name << ": unacknowledged neutralization must not unprotect";

    // The reader polls: validate() reports the neutralization, restarts
    // the read block, and x's retire era falls out of every active
    // announcement on the next churn round.
    EXPECT_FALSE(w.r().validate(w.h(0)))
        << name << ": churn should have neutralized the reader";
    EXPECT_TRUE(w.r().validate(w.h(0)))
        << name << ": a restarted block validates cleanly again";
    churn(200);
    // freed_count, not is_live: the allocator may have recycled x's
    // address for a later churn node by the time we look.
    EXPECT_GE(w.allocator.freed_count(x), 1u)
        << name << ": restarted reader should unblock reclamation";

    w.r().end_op(w.h(0));
    w.r().flush_all();
    EXPECT_EQ(w.r().stats().pending, 0u) << name;
    EXPECT_EQ(w.allocator.live(), 0u) << name;
  }
}

}  // namespace
