// The ds/ layer's correctness suite: single-threaded model checks
// against std::set, Guard-protection semantics over the tracking
// allocator, a multi-threaded guarded-traversal stress (the TSAN target
// in ci/check.sh), and a teardown sweep across every ds x reclaimer
// pair proving nothing leaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "ds/set.hpp"
#include "smr/factory.hpp"
#include "tests/tracking_allocator.hpp"

namespace {

using namespace emr;
using test::TrackingAllocator;

struct DsWorld {
  TrackingAllocator allocator;
  smr::SmrContext ctx;
  smr::SmrConfig cfg;
  smr::ReclaimerBundle bundle;
  std::unique_ptr<ds::ConcurrentSet> set;
  // Declared after `set`: handles release before the structure's
  // destructor registers its own teardown handle. One handle per lane;
  // single-threaded tests multiplex them, the concurrent stress hands
  // each worker thread exactly one.
  std::vector<smr::ThreadHandle> handles;

  DsWorld(const std::string& ds_name, const std::string& reclaimer,
          std::uint64_t keyrange = 512, int threads = 4,
          std::size_t batch = 16) {
    ctx.allocator = &allocator;
    cfg.num_threads = threads;
    cfg.batch_size = batch;
    cfg.epoch_freq = 16;
    bundle = smr::make_reclaimer(reclaimer, ctx, cfg);
    ds::SetConfig dcfg;
    dcfg.keyrange = keyrange;
    dcfg.num_threads = threads;
    set = ds::make_set(ds_name, dcfg, bundle.reclaimer.get());
    for (int t = 0; t < threads; ++t) {
      handles.push_back(bundle.reclaimer->register_thread());
    }
  }

  smr::ThreadHandle& h(int t) {
    return handles[static_cast<std::size_t>(t)];
  }

  /// Releases every handle, tears the structure down and drains the
  /// reclaimer; afterwards the tracking allocator must report zero live
  /// nodes.
  void teardown() {
    handles.clear();
    set.reset();
    bundle.reclaimer->flush_all();
  }
};

// ------------------------------------------------------ model checking

class DsModelTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllStructures, DsModelTest,
                         ::testing::ValuesIn(ds::set_names()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

// Every structure must agree with std::set on a long random op stream,
// including the return value of every insert/erase/contains.
TEST_P(DsModelTest, MatchesStdSetSingleThreaded) {
  for (const char* reclaimer : {"debra", "hp"}) {
    DsWorld w(GetParam(), reclaimer, /*keyrange=*/256);
    std::set<std::uint64_t> model;
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t key = rng.next_range(256);
      const std::uint64_t dice = rng.next_range(3);
      if (dice == 0) {
        ASSERT_EQ(w.set->insert(w.h(0), key), model.insert(key).second)
            << reclaimer << " op " << i;
      } else if (dice == 1) {
        ASSERT_EQ(w.set->erase(w.h(0), key), model.erase(key) == 1)
            << reclaimer << " op " << i;
      } else {
        ASSERT_EQ(w.set->contains(w.h(0), key), model.count(key) == 1)
            << reclaimer << " op " << i;
      }
    }
    // Every model key is present, every non-key absent.
    for (std::uint64_t k = 0; k < 256; ++k) {
      ASSERT_EQ(w.set->contains(w.h(0), k), model.count(k) == 1)
          << reclaimer;
    }
    w.teardown();
    EXPECT_EQ(w.allocator.live(), 0u) << reclaimer;
  }
}

// ------------------------------------------------------- abtree index

// abtree finds a key's leaf as segment key / 28 of the key range, with
// every key >= keyrange in the last leaf. 21509 keys give 769 leaves —
// enough for three levels of the fanout-16 separator index abtree once
// walked to find them — and a last segment holding only 5 in-range keys
// (21504..21508). The keys sit on
// every segment edge (28k-1, 28k, 28k+27), and whole segments fill the
// first leaves, both sides of the index's top-level boundary at leaf 49
// and the last two leaves, so an index that packs more than 28 of them
// into one leaf refuses an insert std::set accepts.
TEST(DsAbtreeIndex, SegmentEdgesMatchStdSet) {
  constexpr std::uint64_t kKeyrange = 21509;
  constexpr std::uint64_t kCap = 28;
  std::set<std::uint64_t> pool;
  for (std::uint64_t base = 0; base < kKeyrange; base += kCap) {
    if (base > 0) pool.insert(base - 1);
    pool.insert(base);
    if (base + kCap - 1 < kKeyrange) pool.insert(base + kCap - 1);
  }
  for (std::uint64_t seg : {0, 1, 48, 49, 767, 768}) {
    const std::uint64_t end = std::min((seg + 1) * kCap, kKeyrange);
    for (std::uint64_t k = seg * kCap; k < end; ++k) pool.insert(k);
  }
  const std::vector<std::uint64_t> keys(pool.begin(), pool.end());
  for (const char* reclaimer : {"debra", "hp"}) {
    DsWorld w("abtree", reclaimer, kKeyrange);
    std::set<std::uint64_t> model;
    Rng rng(13);
    // Fill first, in shuffled order: every key fits its leaf.
    std::vector<std::uint64_t> order = keys;
    rng.shuffle(order);
    for (std::uint64_t key : order) {
      ASSERT_TRUE(w.set->insert(w.h(0), key)) << reclaimer << " key " << key;
      model.insert(key);
    }
    for (int i = 0; i < 40000; ++i) {
      const std::uint64_t key = keys[rng.next_range(keys.size())];
      const std::uint64_t dice = rng.next_range(3);
      if (dice == 0) {
        ASSERT_EQ(w.set->insert(w.h(0), key), model.insert(key).second)
            << reclaimer << " key " << key;
      } else if (dice == 1) {
        ASSERT_EQ(w.set->erase(w.h(0), key), model.erase(key) == 1)
            << reclaimer << " key " << key;
      } else {
        ASSERT_EQ(w.set->contains(w.h(0), key), model.count(key) == 1)
            << reclaimer << " key " << key;
      }
    }
    for (std::uint64_t k = 0; k < kKeyrange; ++k) {
      ASSERT_EQ(w.set->contains(w.h(0), k), model.count(k) == 1)
          << reclaimer << " key " << k;
    }
    w.teardown();
    EXPECT_EQ(w.allocator.live(), 0u) << reclaimer;
  }
}

// Keys >= keyrange are out of contract and share the last leaf with the
// last segment's in-range keys: with that leaf full, the 29th distinct
// key is refused (and stays absent), the leaf before it takes none of
// them, and erasing one key of the shared leaf admits the 29th.
TEST(DsAbtreeIndex, KeysPastTheRangeShareTheLastLeaf) {
  constexpr std::uint64_t kKeyrange = 21509;
  constexpr std::uint64_t kLastBase = 21504;  // 768 * 28
  DsWorld w("abtree", "debra", kKeyrange);
  smr::ThreadHandle& h = w.h(0);
  for (std::uint64_t k = kLastBase - 28; k < kLastBase; ++k) {
    ASSERT_TRUE(w.set->insert(h, k)) << k;  // the full leaf before it
  }
  for (std::uint64_t k = kLastBase; k < kKeyrange; ++k) {
    ASSERT_TRUE(w.set->insert(h, k)) << k;
  }
  std::vector<std::uint64_t> past = {kKeyrange, kKeyrange + 1, 1u << 20,
                                     std::uint64_t{1} << 40, ~std::uint64_t{0}};
  for (std::uint64_t k = 30000; past.size() < 28 - 5; k += 1000) {
    past.push_back(k);
  }
  for (std::uint64_t k : past) {
    ASSERT_TRUE(w.set->insert(h, k)) << k;
    ASSERT_TRUE(w.set->contains(h, k)) << k;
  }
  const std::uint64_t extra = kKeyrange + 7;
  EXPECT_FALSE(w.set->insert(h, extra));
  EXPECT_FALSE(w.set->contains(h, extra));
  // Room in the leaf before it does not help: that is a different leaf.
  ASSERT_TRUE(w.set->erase(h, kLastBase - 1));
  EXPECT_FALSE(w.set->insert(h, extra));
  ASSERT_TRUE(w.set->erase(h, kLastBase));
  EXPECT_TRUE(w.set->insert(h, extra));
  EXPECT_TRUE(w.set->contains(h, extra));
  for (std::uint64_t k : past) EXPECT_TRUE(w.set->contains(h, k)) << k;
  w.teardown();
  EXPECT_EQ(w.allocator.live(), 0u);
}

// ---------------------------------------------------- guard protection

// A Guard's protect() must keep the node alive against a concurrent
// retire + churn storm for every scheme family, and releasing the guard
// (plus a flush) must let it go.
TEST(DsGuard, NoFreeWhileGuardProtects) {
  for (const char* name :
       {"debra", "qsbr", "token", "hp", "he", "ibr", "wfe", "nbr"}) {
    TrackingAllocator allocator;
    smr::SmrContext ctx;
    ctx.allocator = &allocator;
    smr::SmrConfig cfg;
    cfg.num_threads = 2;
    cfg.batch_size = 8;
    cfg.epoch_freq = 16;
    smr::ReclaimerBundle bundle = smr::make_reclaimer(name, ctx, cfg);
    smr::Reclaimer& r = *bundle.reclaimer;
    smr::ThreadHandle h0 = r.register_thread();
    smr::ThreadHandle h1 = r.register_thread();

    void* x = r.alloc_node(h0, 64);
    std::atomic<void*> src{x};
    {
      smr::Guard g(h0);
      EXPECT_EQ(g.protect(0, src), x) << name;
      EXPECT_TRUE(g.validate()) << name;

      // Lane 1 unlinks + retires x, then churns hard enough to drive
      // scans and era advances.
      src.store(nullptr, std::memory_order_release);
      {
        smr::Guard g1(h1);
        g1.retire(x);
      }
      for (int i = 0; i < 400; ++i) {
        smr::Guard g1(h1);
        g1.retire(r.alloc_node(h1, 64));
      }
      EXPECT_EQ(allocator.freed_count(x), 0u)
          << name << ": node freed while a Guard protects it";
    }
    r.flush_all();
    EXPECT_GE(allocator.freed_count(x), 1u) << name;
    EXPECT_EQ(allocator.live(), 0u) << name;
  }
}

// The NBR-specific Guard path: validate() returns false after a
// neutralization (re-announcing as it does), true otherwise.
TEST(DsGuard, ValidateReportsNeutralization) {
  TrackingAllocator allocator;
  smr::SmrContext ctx;
  ctx.allocator = &allocator;
  smr::SmrConfig cfg;
  cfg.num_threads = 2;
  cfg.batch_size = 8;
  cfg.epoch_freq = 4;
  smr::ReclaimerBundle bundle = smr::make_reclaimer("nbr", ctx, cfg);
  smr::Reclaimer& r = *bundle.reclaimer;
  smr::ThreadHandle h0 = r.register_thread();
  smr::ThreadHandle h1 = r.register_thread();

  {
    smr::Guard g(h0);
    EXPECT_TRUE(g.validate());
    // Churn on lane 1 until lane 0 is neutralized.
    bool neutralized = false;
    for (int i = 0; i < 2000 && !neutralized; ++i) {
      smr::Guard g1(h1);
      g1.retire(r.alloc_node(h1, 64));
      neutralized = !g.validate();
    }
    EXPECT_TRUE(neutralized) << "churn never neutralized the reader";
    EXPECT_TRUE(g.validate()) << "validate must reset after a restart";
  }
  r.flush_all();
  EXPECT_EQ(allocator.live(), 0u);
}

// ------------------------------------------- multi-threaded traversal

class DsConcurrentTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    LockFreeStructures, DsConcurrentTest,
    ::testing::Values("abtree", "occtree", "dgt"),
    [](const ::testing::TestParamInfo<std::string>& i) { return i.param; });

// Readers traverse (guarded, lock-free) while writers insert/erase and
// retirement churns underneath them. The tracking allocator asserts on
// any double free or foreign free; under the TSAN build in ci/check.sh
// this is also the data-race check for every guard protocol. token and
// debra_af add the limbo chain, whose links are written into retired
// nodes readers may still traverse, and the queued lane chain.
TEST_P(DsConcurrentTest, GuardedTraversalsRaceReclamation) {
  for (const char* reclaimer :
       {"debra", "hp", "ibr", "nbr", "debra_pool", "token", "debra_af"}) {
    constexpr std::uint64_t kKeyrange = 128;  // small: maximal collisions
    DsWorld w(GetParam(), reclaimer, kKeyrange, /*threads=*/4,
              /*batch=*/8);
    for (std::uint64_t k = 0; k < kKeyrange; k += 2) {
      w.set->insert(w.h(0), k);
    }

    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int tid = 0; tid < 2; ++tid) {
      threads.emplace_back([&, tid] {  // writers
        smr::ThreadHandle& h = w.h(tid);
        Rng rng(100 + tid);
        for (int i = 0; i < 4000; ++i) {
          const std::uint64_t key = rng.next_range(kKeyrange);
          if (rng.next_range(2) == 0) {
            w.set->insert(h, key);
          } else {
            w.set->erase(h, key);
          }
        }
        stop.store(true, std::memory_order_release);
      });
    }
    for (int tid = 2; tid < 4; ++tid) {
      threads.emplace_back([&, tid] {  // readers
        smr::ThreadHandle& h = w.h(tid);
        Rng rng(200 + tid);
        std::uint64_t found = 0;
        while (!stop.load(std::memory_order_acquire)) {
          found += w.set->contains(h, rng.next_range(kKeyrange)) ? 1 : 0;
        }
        EXPECT_GE(found, 0u);  // keep `found` observable
      });
    }
    for (std::thread& t : threads) t.join();

    // Single-threaded again: the structure must still be a set.
    std::set<std::uint64_t> seen;
    for (std::uint64_t k = 0; k < kKeyrange; ++k) {
      if (w.set->contains(w.h(0), k)) seen.insert(k);
      EXPECT_EQ(w.set->insert(w.h(0), k), seen.count(k) == 0) << reclaimer;
    }
    w.teardown();
    EXPECT_EQ(w.allocator.live(), 0u)
        << GetParam() << " x " << reclaimer;
    EXPECT_EQ(w.allocator.allocs(), w.allocator.frees())
        << GetParam() << " x " << reclaimer;
  }
}

// ------------------------------------------------------ teardown sweep

// Every ds x reclaimer-name pair (all bases x batch/_af/_pool) must
// free every node it ever allocated once the structure is destroyed and
// the reclaimer flushed.
TEST(DsTeardown, EveryPairFreesEverything) {
  for (const std::string& ds_name : ds::set_names()) {
    for (const std::string& reclaimer : smr::all_factory_names()) {
      DsWorld w(ds_name, reclaimer, /*keyrange=*/128, /*threads=*/2);
      Rng rng(3);
      for (int i = 0; i < 400; ++i) {
        smr::ThreadHandle& h = w.h(i & 1);
        const std::uint64_t key = rng.next_range(128);
        switch (rng.next_range(3)) {
          case 0:
            w.set->insert(h, key);
            break;
          case 1:
            w.set->erase(h, key);
            break;
          default:
            w.set->contains(h, key);
            break;
        }
      }
      w.teardown();
      EXPECT_EQ(w.allocator.live(), 0u) << ds_name << " x " << reclaimer;
      EXPECT_EQ(w.allocator.allocs(), w.allocator.frees())
          << ds_name << " x " << reclaimer;
      EXPECT_EQ(w.bundle.reclaimer->stats().pending, 0u)
          << ds_name << " x " << reclaimer;
    }
  }
}

// -------------------------------------------------------- factory misc

TEST(DsFactory, UnknownNamesFailFastWithValidList) {
  TrackingAllocator allocator;
  smr::SmrContext ctx;
  ctx.allocator = &allocator;
  smr::SmrConfig cfg;
  smr::ReclaimerBundle bundle = smr::make_reclaimer("debra", ctx, cfg);
  try {
    ds::make_set("btree9000", {}, bundle.reclaimer.get());
    FAIL() << "unknown ds name must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("abtree"), std::string::npos)
        << "error must list the valid names, got: " << e.what();
  }
  EXPECT_THROW(ds::node_size_for_ds("nope"), std::invalid_argument);
}

TEST(DsFactory, NodeSizesComeFromRealNodeTypes) {
  // The sizes the paper quotes, now derived from sizeof the real nodes.
  EXPECT_EQ(ds::node_size_for_ds("abtree"), 240u);
  EXPECT_EQ(ds::node_size_for_ds("occtree"), 64u);
  EXPECT_EQ(ds::node_size_for_ds("dgt"), 96u);
  EXPECT_EQ(ds::node_size_for_ds("shardedset"), 32u);
  for (const std::string& name : ds::set_names()) {
    TrackingAllocator allocator;
    smr::SmrContext ctx;
    ctx.allocator = &allocator;
    smr::SmrConfig cfg;
    smr::ReclaimerBundle bundle = smr::make_reclaimer("debra", ctx, cfg);
    auto set = ds::make_set(name, {}, bundle.reclaimer.get());
    EXPECT_EQ(set->node_size(), ds::node_size_for_ds(name)) << name;
    EXPECT_EQ(set->name(), name);
  }
}

}  // namespace
