// The queue subsystem's correctness suite: single-threaded model checks
// against std::deque, capacity/backpressure behavior, a multi-threaded
// producer/consumer stress over the guarded per-hop traversal (the TSAN
// target in ci/check.sh, checking FIFO-per-producer with no loss and no
// duplication), and a teardown sweep across every queue x reclaimer
// pair proving nothing leaks — including the MS queue's dummy node.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "ds/queue.hpp"
#include "smr/factory.hpp"
#include "tests/tracking_allocator.hpp"

namespace {

using namespace emr;
using test::TrackingAllocator;

struct QueueWorld {
  TrackingAllocator allocator;
  smr::SmrContext ctx;
  smr::SmrConfig cfg;
  smr::ReclaimerBundle bundle;
  std::unique_ptr<ds::ConcurrentQueue> queue;
  // Declared after `queue`: handles release before the structure's
  // destructor registers its own teardown handle.
  std::vector<smr::ThreadHandle> handles;

  QueueWorld(const std::string& queue_name, const std::string& reclaimer,
             std::uint64_t capacity = 0, int threads = 4,
             std::size_t batch = 16) {
    ctx.allocator = &allocator;
    cfg.num_threads = threads;
    cfg.batch_size = batch;
    cfg.epoch_freq = 16;
    bundle = smr::make_reclaimer(reclaimer, ctx, cfg);
    ds::QueueConfig qcfg;
    qcfg.capacity = capacity;
    qcfg.num_threads = threads;
    queue = ds::make_queue(queue_name, qcfg, bundle.reclaimer.get());
    for (int t = 0; t < threads; ++t) {
      handles.push_back(bundle.reclaimer->register_thread());
    }
  }

  smr::ThreadHandle& h(int t) {
    return handles[static_cast<std::size_t>(t)];
  }

  void teardown() {
    handles.clear();
    queue.reset();
    bundle.reclaimer->flush_all();
  }
};

// Producer-tagged values: the producer id rides the high bits, a
// per-producer sequence number the low bits, so a consumer can check
// FIFO order per producer and global no-loss/no-duplication.
constexpr std::uint64_t tag(std::uint64_t pid, std::uint64_t seq) {
  return (pid << 32) | seq;
}
constexpr std::uint64_t tag_pid(std::uint64_t v) { return v >> 32; }
constexpr std::uint64_t tag_seq(std::uint64_t v) {
  return v & 0xFFFF'FFFFull;
}

// ------------------------------------------------------ model checking

class QueueModelTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllQueues, QueueModelTest,
                         ::testing::ValuesIn(ds::queue_names()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

// Every queue flavor must agree with std::deque on a long random op
// stream: same success/failure on every op, same value out of every
// successful dequeue, in the same order.
TEST_P(QueueModelTest, MatchesStdDequeSingleThreaded) {
  for (const char* reclaimer : {"debra", "hp"}) {
    QueueWorld w(GetParam(), reclaimer);
    std::deque<std::uint64_t> model;
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
      if (rng.next_range(2) == 0) {
        const std::uint64_t v = rng.next_range(1u << 20);
        ASSERT_TRUE(w.queue->enqueue(w.h(0), v)) << reclaimer << " op " << i;
        model.push_back(v);
      } else {
        std::uint64_t got = 0;
        const bool ok = w.queue->dequeue(w.h(0), &got);
        ASSERT_EQ(ok, !model.empty()) << reclaimer << " op " << i;
        if (ok) {
          ASSERT_EQ(got, model.front()) << reclaimer << " op " << i;
          model.pop_front();
        }
      }
    }
    // Drain: the remaining contents must come out in model order.
    while (!model.empty()) {
      std::uint64_t got = 0;
      ASSERT_TRUE(w.queue->dequeue(w.h(0), &got)) << reclaimer;
      ASSERT_EQ(got, model.front()) << reclaimer;
      model.pop_front();
    }
    std::uint64_t got = 0;
    EXPECT_FALSE(w.queue->dequeue(w.h(0), &got)) << reclaimer;
    w.teardown();
    EXPECT_EQ(w.allocator.live(), 0u) << reclaimer;
  }
}

// Bounded queues refuse enqueues at capacity (and only at capacity):
// the pipeline workload's backpressure contract.
TEST_P(QueueModelTest, CapacityBoundsEnqueue) {
  QueueWorld w(GetParam(), "debra", /*capacity=*/4);
  std::uint64_t got = 0;
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(w.queue->enqueue(w.h(0), i)) << i;
  }
  EXPECT_FALSE(w.queue->enqueue(w.h(0), 99)) << "enqueue past capacity";
  ASSERT_TRUE(w.queue->dequeue(w.h(0), &got));
  EXPECT_EQ(got, 0u);
  EXPECT_TRUE(w.queue->enqueue(w.h(0), 4))
      << "a dequeue must reopen one slot";
  EXPECT_FALSE(w.queue->enqueue(w.h(0), 99));
  for (std::uint64_t want = 1; want <= 4; ++want) {
    ASSERT_TRUE(w.queue->dequeue(w.h(0), &got));
    EXPECT_EQ(got, want);
  }
  EXPECT_FALSE(w.queue->dequeue(w.h(0), &got));
  w.teardown();
  EXPECT_EQ(w.allocator.live(), 0u);
}

// ------------------------------------------- multi-threaded pipelines

class QueueConcurrentTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllQueues, QueueConcurrentTest,
                         ::testing::ValuesIn(ds::queue_names()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

// Two producers and two consumers churn while retirement runs
// underneath the guarded hops. Afterwards: every enqueued value came
// out exactly once (no loss, no duplication), and each consumer saw
// every producer's values in increasing sequence order (FIFO per
// producer — the linearizable-queue guarantee observable without a
// global dequeue log). The tracking allocator asserts on any double or
// foreign free; under the TSAN build in ci/check.sh this is also the
// data-race check for the queue's traversal protocol. token and debra_af
// add the limbo chain, whose links are written into retired nodes readers
// may still traverse, and the queued lane chain.
TEST_P(QueueConcurrentTest, ConcurrentPipelineKeepsFifoPerProducer) {
  for (const char* reclaimer :
       {"debra", "hp", "ibr", "nbr", "debra_pool", "token", "debra_af"}) {
    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    constexpr std::uint64_t kPerProducer = 4000;
    QueueWorld w(GetParam(), reclaimer, /*capacity=*/256,
                 /*threads=*/kProducers + kConsumers, /*batch=*/8);

    std::atomic<int> live_producers{kProducers};
    std::vector<std::vector<std::uint64_t>> consumed(kConsumers);
    std::vector<std::thread> threads;
    for (int pid = 0; pid < kProducers; ++pid) {
      threads.emplace_back([&, pid] {
        smr::ThreadHandle& h = w.h(pid);
        for (std::uint64_t seq = 0; seq < kPerProducer; ++seq) {
          while (!w.queue->enqueue(
              h, tag(static_cast<std::uint64_t>(pid), seq))) {
            std::this_thread::yield();  // full: wait for a consumer
          }
        }
        live_producers.fetch_sub(1, std::memory_order_release);
      });
    }
    for (int cid = 0; cid < kConsumers; ++cid) {
      threads.emplace_back([&, cid] {
        smr::ThreadHandle& h = w.h(kProducers + cid);
        std::vector<std::uint64_t>& out =
            consumed[static_cast<std::size_t>(cid)];
        std::uint64_t v = 0;
        while (true) {
          if (w.queue->dequeue(h, &v)) {
            out.push_back(v);
          } else if (live_producers.load(std::memory_order_acquire) == 0) {
            // Empty with no producer left: one final poll below (the
            // last enqueue may still be racing the emptiness check).
            if (!w.queue->dequeue(h, &v)) break;
            out.push_back(v);
          } else {
            std::this_thread::yield();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();

    // FIFO per producer within each consumer's local order.
    std::map<std::uint64_t, std::uint64_t> seen_count;
    for (int cid = 0; cid < kConsumers; ++cid) {
      std::uint64_t last_seq[kProducers];
      bool any[kProducers] = {};
      for (std::uint64_t v : consumed[static_cast<std::size_t>(cid)]) {
        const std::uint64_t pid = tag_pid(v);
        ASSERT_LT(pid, static_cast<std::uint64_t>(kProducers)) << reclaimer;
        if (any[pid]) {
          ASSERT_GT(tag_seq(v), last_seq[pid])
              << reclaimer << ": consumer " << cid
              << " saw producer " << pid << " out of order";
        }
        any[pid] = true;
        last_seq[pid] = tag_seq(v);
        ++seen_count[v];
      }
    }
    // No loss, no duplication, globally.
    ASSERT_EQ(seen_count.size(), kProducers * kPerProducer) << reclaimer;
    for (const auto& [v, n] : seen_count) {
      ASSERT_EQ(n, 1u) << reclaimer << ": value " << v << " dequeued "
                       << n << " times";
    }
    w.teardown();
    EXPECT_EQ(w.allocator.live(), 0u) << GetParam() << " x " << reclaimer;
    EXPECT_EQ(w.allocator.allocs(), w.allocator.frees())
        << GetParam() << " x " << reclaimer;
  }
}

// ------------------------------------------------------ teardown sweep

// Every queue x reclaimer-name pair (all bases x batch/_af/_pool) must
// free every node it ever allocated — including the MS queue's dummy —
// once the queue is destroyed and the reclaimer flushed.
TEST(QueueTeardown, EveryPairFreesEverything) {
  for (const std::string& queue_name : ds::queue_names()) {
    for (const std::string& reclaimer : smr::all_factory_names()) {
      QueueWorld w(queue_name, reclaimer, /*capacity=*/0, /*threads=*/2);
      Rng rng(3);
      std::uint64_t got = 0;
      for (int i = 0; i < 400; ++i) {
        smr::ThreadHandle& h = w.h(i & 1);
        if (rng.next_range(2) == 0) {
          w.queue->enqueue(h, rng.next_range(1u << 16));
        } else {
          w.queue->dequeue(h, &got);
        }
      }
      w.teardown();
      EXPECT_EQ(w.allocator.live(), 0u)
          << queue_name << " x " << reclaimer;
      EXPECT_EQ(w.allocator.allocs(), w.allocator.frees())
          << queue_name << " x " << reclaimer;
      EXPECT_EQ(w.bundle.reclaimer->stats().pending, 0u)
          << queue_name << " x " << reclaimer;
    }
  }
}

// -------------------------------------------------------- factory misc

TEST(QueueFactory, UnknownNamesFailFastWithValidList) {
  TrackingAllocator allocator;
  smr::SmrContext ctx;
  ctx.allocator = &allocator;
  smr::SmrConfig cfg;
  smr::ReclaimerBundle bundle = smr::make_reclaimer("debra", ctx, cfg);
  try {
    ds::make_queue("ringbuffer9000", {}, bundle.reclaimer.get());
    FAIL() << "unknown queue name must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("msqueue"), std::string::npos)
        << "error must list the valid names, got: " << e.what();
  }
  EXPECT_THROW(ds::node_size_for_queue("nope"), std::invalid_argument);
  EXPECT_THROW(ds::make_queue("msqueue", {}, nullptr),
               std::invalid_argument);
}

TEST(QueueFactory, NodeSizesComeFromRealNodeTypes) {
  EXPECT_EQ(ds::node_size_for_queue("msqueue"), 64u);
  EXPECT_EQ(ds::node_size_for_queue("lockedqueue"), 32u);
  for (const std::string& name : ds::queue_names()) {
    TrackingAllocator allocator;
    smr::SmrContext ctx;
    ctx.allocator = &allocator;
    smr::SmrConfig cfg;
    smr::ReclaimerBundle bundle = smr::make_reclaimer("debra", ctx, cfg);
    auto q = ds::make_queue(name, {}, bundle.reclaimer.get());
    EXPECT_EQ(q->node_size(), ds::node_size_for_queue(name)) << name;
    EXPECT_EQ(q->name(), name);
  }
}

}  // namespace
