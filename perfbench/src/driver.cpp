#include "driver.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "alloc/factory.hpp"
#include "checks.hpp"
#include "clock.hpp"
#include "ds/queue.hpp"
#include "ds/set.hpp"
#include "smr/factory.hpp"

namespace perfbench {

namespace emr_alloc = emr::alloc;
namespace emr_smr = emr::smr;
namespace emr_ds = emr::ds;

const char* kind_name(OpKind k) {
  switch (k) {
    case OpKind::kInsert:
      return "insert";
    case OpKind::kErase:
      return "erase";
    case OpKind::kLookup:
      return "lookup";
    case OpKind::kEnqueue:
      return "enqueue";
    case OpKind::kDequeue:
      return "dequeue";
  }
  return "?";
}

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kAll = [] {
    WorkloadSpec orig;
    orig.name = "abtree-orig";
    orig.ds = "abtree";
    orig.reclaimer = "debra";
    orig.workers = 3;
    orig.keyrange = 1ULL << 20;
    orig.insert_pct = 50;
    orig.erase_pct = 50;
    orig.batch = 32768;
    orig.remote_penalty_ns = 150;

    WorkloadSpec af = orig;
    af.name = "abtree-af";
    af.reclaimer = "debra_af";

    WorkloadSpec readmostly = orig;
    readmostly.name = "abtree-readmostly";
    readmostly.insert_pct = 5;
    readmostly.erase_pct = 5;

    WorkloadSpec queue;
    queue.name = "queue-remote";
    queue.queue = true;
    queue.ds = "msqueue";
    queue.reclaimer = "hp";
    queue.workers = 2;  // one producer, one consumer
    queue.batch = 2048;
    queue.remote_penalty_ns = 500;
    queue.queue_capacity = 4096;
    // A producer/consumer pair settles into one of several interleavings
    // per start, which sets its p50 and p999; many short rounds sample
    // them. Its steady state is reached within milliseconds.
    queue.rounds = 20;
    queue.warmup_seconds = 0.1;
    return std::vector<WorkloadSpec>{orig, af, readmostly, queue};
  }();
  return kAll;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

// ------------------------------------------------------------------ rng

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : s_(seed) {}
  std::uint64_t next() {  // splitmix64
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }

 private:
  std::uint64_t s_;
};

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  return r.next();
}

// --------------------------------------------------------------- pinning

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// ----------------------------------------------------------------- stack

struct Stack {
  std::unique_ptr<emr_alloc::Allocator> alloc;
  TimedAllocator* timed = nullptr;
  emr_smr::ReclaimerBundle bundle;
  std::unique_ptr<emr_ds::ConcurrentSet> set;
  std::unique_ptr<emr_ds::ConcurrentQueue> queue;
  /// Worker handles, registered first so worker w runs on lane w.
  std::vector<emr_smr::ThreadHandle> handles;
  std::unique_ptr<SetLedger> ledger;
  std::uint64_t prefilled = 0;
};

std::unique_ptr<Stack> build_stack(const WorkloadSpec& spec,
                                   std::uint64_t seed, bool traced) {
  auto st = std::make_unique<Stack>();
  emr_smr::SmrConfig scfg;
  scfg.num_threads = spec.workers;
  scfg.batch_size = spec.batch;

  emr_alloc::AllocConfig acfg;
  acfg.max_threads = static_cast<int>(scfg.slot_capacity());
  acfg.remote_free_penalty_ns = spec.remote_penalty_ns;
  acfg.remote_penalty_explicit = true;
  auto inner = emr_alloc::make_allocator(spec.allocator, acfg);
  if (traced) {
    auto timed =
        std::make_unique<TimedAllocator>(std::move(inner), acfg.max_threads);
    st->timed = timed.get();
    st->alloc = std::move(timed);
  } else {
    st->alloc = std::move(inner);
  }

  emr_smr::SmrContext ctx;
  ctx.allocator = st->alloc.get();
  st->bundle = emr_smr::make_reclaimer(spec.reclaimer, ctx, scfg);
  emr_smr::Reclaimer& r = *st->bundle.reclaimer;

  if (spec.queue) {
    emr_ds::QueueConfig qcfg;
    qcfg.capacity = spec.queue_capacity;
    qcfg.num_threads = spec.workers;
    st->queue = emr_ds::make_queue(spec.ds, qcfg, &r);
  } else {
    emr_ds::SetConfig dcfg;
    dcfg.keyrange = spec.keyrange;
    dcfg.num_threads = spec.workers;
    st->set = emr_ds::make_set(spec.ds, dcfg, &r);
  }
  for (int w = 0; w < spec.workers; ++w) {
    st->handles.push_back(r.register_thread());
  }

  if (spec.queue) {
    // Half full, from the producer's lane: value i is sequence number i.
    const std::uint64_t want = spec.queue_capacity / 2;
    for (; st->prefilled < want; ++st->prefilled) {
      if (!st->queue->enqueue(st->handles[0],
                              queue_value(0, st->prefilled))) {
        throw std::runtime_error("queue prefill refused");
      }
    }
  } else {
    // Every even key, in an order shuffled from the seed, on a transient
    // registration as the library's own harness does.
    st->ledger = std::make_unique<SetLedger>(spec.keyrange, spec.workers);
    std::vector<std::uint64_t> keys;
    keys.reserve(spec.keyrange / 2);
    for (std::uint64_t k = 0; k < spec.keyrange; k += 2) keys.push_back(k);
    Rng rng(stream_seed(seed, 0xFEED));
    for (std::size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.below(i)]);
    }
    emr_smr::ThreadHandle h = r.register_thread();
    for (std::uint64_t k : keys) {
      if (!st->set->insert(h, k)) {
        throw std::runtime_error("set prefill refused a fresh key");
      }
      st->ledger->mark_prefilled(k);
    }
  }
  return st;
}

/// Destroys the structure, drains the reclaimer and returns how many
/// nodes the teardown ledger says leaked: reclaimer pending after
/// flush_all plus the allocator's allocate/free imbalance.
std::uint64_t teardown(std::unique_ptr<Stack> st,
                       emr_alloc::AllocTotals* out) {
  st->handles.clear();
  st->set.reset();
  st->queue.reset();
  st->bundle.reclaimer->flush_all();
  st->alloc->flush_thread_caches();
  const emr_smr::SmrStats s = st->bundle.reclaimer->stats();
  const emr_alloc::AllocTotals a = st->alloc->stats().totals;
  if (out != nullptr) *out = a;
  const std::uint64_t imbalance =
      a.n_alloc > a.n_free ? a.n_alloc - a.n_free : a.n_free - a.n_alloc;
  return s.pending + imbalance;
}

// --------------------------------------------------------------- workers

enum Phase : int { kWarmup, kPark, kWindow, kStop };

/// Slowest ops each worker of a traced window keeps as per-op records.
constexpr std::size_t kKeptRecords = 1024;

struct Shared {
  std::atomic<int> phase{kWarmup};
  std::atomic<int> parked{0};
  /// Length of one latency slice of the window; 0 = one slice.
  std::uint64_t slice_ticks = 0;
  std::size_t slices = 1;
};

struct OpOutcome {
  OpKind kind;
  bool ok;         // the call did what it was asked
  bool completed;  // counts as a completed op (a refused queue call not)
};

bool is_update(OpKind k) { return k != OpKind::kLookup; }

struct alignas(64) WorkerState {
  /// Completed window ops, read by the main thread's sampler.
  std::atomic<std::uint64_t> progress{0};
  alignas(64) std::vector<Histogram> slices;
  std::size_t slice = 0;
  std::uint64_t next_cut = ~0ULL;
  std::uint64_t slice_ticks = 0;
  std::array<Histogram, kNumKinds> by_kind;
  std::uint64_t calls = 0, completed = 0, refused = 0;
  std::uint64_t updates = 0, update_ok = 0;
  std::uint64_t window_start = 0, window_end = 0, op_ticks = 0;
  AllocCell in_ops;
  std::uint64_t max_frees = 0, ops_with_free = 0;
  TailBuckets tail;
  std::vector<OpRecord> slowest;  // min-heap on dur_ticks
  std::size_t keep = 0;
  std::uint8_t id = 0;
  std::exception_ptr error;
  std::atomic<bool> done{false};  // set when the worker leaves its loop

  void open_window(std::uint64_t now, std::uint64_t step) {
    window_start = now;
    slice_ticks = step;
    next_cut = step != 0 ? now + step : ~0ULL;
  }

  Histogram& latency_at(std::uint64_t t) {
    if (t >= next_cut && slice + 1 < slices.size()) {
      ++slice;
      next_cut += slice_ticks;
    }
    return slices[slice];
  }

  void record(const OpOutcome& o, std::uint64_t t0, std::uint64_t t1) {
    const std::uint64_t d = t1 - t0;
    ++calls;
    op_ticks += d;
    if (is_update(o.kind)) {
      ++updates;
      if (o.ok) ++update_ok;
    }
    if (!o.completed) {
      ++refused;
      return;
    }
    ++completed;
    latency_at(t1).record(d);
    progress.store(completed, std::memory_order_relaxed);
  }

  /// record() plus the op's allocator child spans, read from the lane's
  /// TimedAllocator cell before and after the call.
  void record_traced(const OpOutcome& o, std::uint64_t t0, std::uint64_t t1,
                     const AllocCell& before, const AllocCell& after) {
    const std::uint64_t frees = after.free_calls - before.free_calls;
    const std::uint64_t free_t = after.free_ticks - before.free_ticks;
    const std::uint64_t allocs = after.alloc_calls - before.alloc_calls;
    const std::uint64_t alloc_t = after.alloc_ticks - before.alloc_ticks;
    in_ops.free_calls += frees;
    in_ops.free_ticks += free_t;
    in_ops.alloc_calls += allocs;
    in_ops.alloc_ticks += alloc_t;
    if (frees != 0) {
      ++ops_with_free;
      max_frees = std::max(max_frees, frees);
    }
    record(o, t0, t1);
    if (!o.completed) return;
    const std::uint64_t d = t1 - t0;
    by_kind[static_cast<std::size_t>(o.kind)].record(d);
    const std::size_t b = Histogram::bucket_of(d);
    tail.free_ops[b] += frees != 0 ? 1 : 0;
    tail.free_ticks[b] += free_t;
    tail.dur_ticks[b] += d;
    if (keep == 0 ||
        (slowest.size() == keep && d <= slowest.front().dur_ticks)) {
      return;
    }
    const auto slower = [](const OpRecord& a, const OpRecord& b2) {
      return a.dur_ticks > b2.dur_ticks;
    };
    if (slowest.size() == keep) {
      std::pop_heap(slowest.begin(), slowest.end(), slower);
      slowest.pop_back();
    }
    OpRecord rec;
    rec.start_ticks = t0 - window_start;
    rec.dur_ticks = d;
    rec.free_ticks = free_t;
    rec.alloc_ticks = alloc_t;
    rec.frees = static_cast<std::uint32_t>(frees);
    rec.allocs = static_cast<std::uint32_t>(allocs);
    rec.kind = o.kind;
    rec.worker = id;
    slowest.push_back(rec);
    std::push_heap(slowest.begin(), slowest.end(), slower);
  }
};

/// The closed loop every worker runs: generate an op, time the
/// data-structure call, book the result. Ops is the workload's op
/// source with next()/exec()/after().
template <bool kTraced, typename Ops>
void drive(Shared& sh, WorkerState& s, const AllocCell* cell,
           std::uint64_t op_limit, Ops& ops) {
  // Starting from kWarmup makes a worker that first looks after the
  // main thread has moved on still park, or open its window, like the rest.
  int seen = kWarmup;
  bool window = false;
  for (;;) {
    const int p = sh.phase.load(std::memory_order_acquire);
    if (p == kStop) break;
    if (p != seen) {
      if (p == kPark) {
        sh.parked.fetch_add(1, std::memory_order_acq_rel);
        while (sh.phase.load(std::memory_order_acquire) == kPark) cpu_relax();
        continue;
      }
      seen = p;
      window = true;
      s.open_window(ticks(), sh.slice_ticks);
    }
    if (op_limit != 0 && s.calls == op_limit) break;
    const auto op = ops.next();
    AllocCell before;
    if constexpr (kTraced) before = *cell;
    const std::uint64_t t0 = ticks();
    const OpOutcome o = ops.exec(op);
    const std::uint64_t t1 = ticks();
    ops.after(op, o);
    if (!window) continue;
    if constexpr (kTraced) {
      s.record_traced(o, t0, t1, before, *cell);
    } else {
      s.record(o, t0, t1);
    }
  }
  s.window_end = ticks();
}

struct SetOps {
  emr_ds::ConcurrentSet& set;
  emr_smr::ThreadHandle& h;
  Rng rng;
  std::int16_t* net;
  std::uint64_t keyrange;
  int insert_pct;
  int update_pct;

  struct Op {
    OpKind kind;
    std::uint64_t key;
  };

  Op next() {
    const std::uint64_t key = rng.below(keyrange);
    const auto r = static_cast<int>(rng.below(100));
    const OpKind k = r < insert_pct   ? OpKind::kInsert
                     : r < update_pct ? OpKind::kErase
                                      : OpKind::kLookup;
    return {k, key};
  }
  OpOutcome exec(const Op& op) {
    bool ok = false;
    switch (op.kind) {
      case OpKind::kInsert:
        ok = set.insert(h, op.key);
        break;
      case OpKind::kErase:
        ok = set.erase(h, op.key);
        break;
      default:
        ok = set.contains(h, op.key);
        break;
    }
    return {op.kind, ok, true};
  }
  void after(const Op& op, const OpOutcome& o) {
    if (!o.ok) return;
    if (op.kind == OpKind::kInsert) ++net[op.key];
    if (op.kind == OpKind::kErase) --net[op.key];
  }
};

struct QueueOps {
  emr_ds::ConcurrentQueue& q;
  emr_smr::ThreadHandle& h;
  bool producer;
  std::uint64_t next_seq;  // producer: next sequence number to enqueue
  QueueChecker* checker;   // consumer
  std::uint64_t got = 0;

  struct Op {};
  Op next() { return {}; }
  OpOutcome exec(Op) {
    const bool ok = producer ? q.enqueue(h, queue_value(0, next_seq))
                             : q.dequeue(h, &got);
    return {producer ? OpKind::kEnqueue : OpKind::kDequeue, ok, ok};
  }
  void after(Op, const OpOutcome& o) {
    if (!o.ok) return;
    if (producer) {
      ++next_seq;
    } else {
      checker->on_dequeued(got);
    }
  }
};

template <bool kTraced>
void run_worker(const WorkloadSpec& spec, Stack& st, Shared& sh,
                WorkerState& s, int w, std::uint64_t seed,
                std::uint64_t op_limit, QueueChecker* checker,
                std::uint64_t* enqueued) {
  emr_smr::ThreadHandle& h = st.handles[static_cast<std::size_t>(w)];
  const AllocCell* cell = kTraced ? &st.timed->cell(h.slot()) : nullptr;
  if (spec.queue) {
    QueueOps ops{*st.queue, h, w == 0, st.prefilled, checker};
    drive<kTraced>(sh, s, cell, op_limit, ops);
    if (w == 0) *enqueued = ops.next_seq;
  } else {
    SetOps ops{*st.set,
               h,
               Rng(stream_seed(seed, static_cast<std::uint64_t>(w) + 1)),
               st.ledger->lane(w),
               spec.keyrange,
               spec.insert_pct,
               spec.insert_pct + spec.erase_pct};
    drive<kTraced>(sh, s, cell, op_limit, ops);
  }
}

std::uint64_t backlog_now(const emr_smr::Reclaimer& r) {
  std::uint64_t sum = 0;
  for (const emr_smr::LaneStats& l : r.stats_with_lanes().lanes) {
    sum += l.backlog;
  }
  return sum;
}

/// into += sign * x, field by field (unsigned, so a later += undoes a -=).
void add_totals(emr_alloc::AllocTotals& into, const emr_alloc::AllocTotals& x,
                int sign) {
  const auto u = static_cast<std::uint64_t>(static_cast<std::int64_t>(sign));
  into.n_alloc += u * x.n_alloc;
  into.n_free += u * x.n_free;
  into.n_remote_free += u * x.n_remote_free;
  into.n_flush += u * x.n_flush;
  into.ns_in_free += u * x.ns_in_free;
  into.ns_in_flush += u * x.ns_in_flush;
  into.ns_in_lock += u * x.ns_in_lock;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

const std::vector<int>& allowed_cpus() {
  // Taken once, before the driver pins its main thread.
  static const std::vector<int> kCpus = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    if (cpus.empty()) cpus.push_back(0);
    return cpus;
  }();
  return kCpus;
}

int worker_cpu(const WorkloadSpec& spec, int w) {
  const std::vector<int>& cpus = allowed_cpus();
  const auto n = static_cast<int>(cpus.size());
  if (spec.queue && w == 1) return cpus[static_cast<std::size_t>(n - 1)];
  return cpus[static_cast<std::size_t>((1 + w) % n)];
}

WindowResult run_window(const WorkloadSpec& spec, const RunOptions& opts,
                        bool traced) {
  WindowResult r;
  pin_to(allowed_cpus().front());

  std::unique_ptr<Stack> st;
  double spent = 0;
  for (int i = 0; i < 200 && (i == 0 || spent < opts.setup_seconds); ++i) {
    if (st) r.failed += teardown(std::move(st), nullptr);
    const std::uint64_t t0 = steady_ns();
    st = build_stack(spec, opts.seed, traced);
    r.setup_s.push_back(static_cast<double>(steady_ns() - t0) * 1e-9);
    spent += r.setup_s.back();
  }
  emr_smr::Reclaimer& rec = *st->bundle.reclaimer;

  Shared sh;
  const bool timed_window = opts.op_limit == 0;
  if (timed_window) {
    sh.slices =
        static_cast<std::size_t>(std::max(1.0, std::round(opts.seconds)));
    sh.slice_ticks = static_cast<std::uint64_t>(
        opts.seconds * 1e9 / static_cast<double>(sh.slices) / ns_per_tick());
  }
  const int n = spec.workers;
  std::vector<std::unique_ptr<WorkerState>> ws;
  for (int w = 0; w < n; ++w) {
    ws.push_back(std::make_unique<WorkerState>());
    ws.back()->slices.resize(sh.slices);
    ws.back()->keep = traced ? kKeptRecords : 0;
    ws.back()->id = static_cast<std::uint8_t>(w);
  }
  QueueChecker checker(1);
  std::uint64_t enqueued = st->prefilled;

  const bool warm = timed_window && spec.warmup_seconds > 0;
  sh.phase.store(warm ? kWarmup : kWindow);
  emr_alloc::AllocStats alloc_begin;
  emr_smr::SmrStats smr_begin;
  if (!warm) {
    alloc_begin = st->alloc->stats();
    smr_begin = rec.stats();
  }

  std::vector<std::thread> threads;
  // An op-limited window ends when every worker reaches its limit.
  const auto join_all = [&](bool stop) {
    if (stop) sh.phase.store(kStop, std::memory_order_release);
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  };
  try {
    for (int w = 0; w < n; ++w) {
      threads.emplace_back([&, w] {
        WorkerState& s = *ws[static_cast<std::size_t>(w)];
        try {
          pin_to(worker_cpu(spec, w));
          if (traced) {
            run_worker<true>(spec, *st, sh, s, w, opts.seed, opts.op_limit,
                             &checker, &enqueued);
          } else {
            run_worker<false>(spec, *st, sh, s, w, opts.seed, opts.op_limit,
                              &checker, &enqueued);
          }
        } catch (...) {
          s.error = std::current_exception();
          s.window_end = ticks();
        }
        s.done.store(true, std::memory_order_release);
      });
    }

    if (warm) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(spec.warmup_seconds));
      // Park every worker between two ops so the library counters are
      // read while no thread is inside the allocator.
      sh.phase.store(kPark, std::memory_order_release);
      for (;;) {
        int held = sh.parked.load(std::memory_order_acquire);
        for (const auto& s : ws) {
          held += s->done.load(std::memory_order_acquire) ? 1 : 0;
        }
        if (held >= n) break;
        std::this_thread::yield();
      }
      alloc_begin = st->alloc->stats();
      smr_begin = rec.stats();
      sh.phase.store(kWindow, std::memory_order_release);
    }

    if (timed_window) {
      constexpr int kIntervals = 20;
      const std::uint64_t start = steady_ns();
      const auto len = static_cast<std::uint64_t>(opts.seconds * 1e9);
      const std::uint64_t step = len / kIntervals;
      std::uint64_t next_cut = start + step;
      std::uint64_t last_cut = start;
      std::uint64_t last_total = 0;
      int tick = 0;
      for (;;) {
        const std::uint64_t now = steady_ns();
        r.peak_pending = std::max(r.peak_pending, rec.stats().pending);
        if (traced && tick++ % 8 == 0) {
          r.peak_backlog = std::max(r.peak_backlog, backlog_now(rec));
        }
        if (now >= next_cut) {
          std::uint64_t total = 0;
          for (const auto& s : ws) {
            total += s->progress.load(std::memory_order_relaxed);
          }
          r.interval_mops.push_back(static_cast<double>(total - last_total) /
                                    static_cast<double>(now - last_cut) *
                                    1e3);
          last_total = total;
          last_cut = now;
          next_cut += step;
        }
        if (now >= start + len) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Every op the round completed over its whole window, stalls and all.
      r.round_mops.push_back(static_cast<double>(last_total) /
                             static_cast<double>(last_cut - start) * 1e3);
      r.window_s = static_cast<double>(steady_ns() - start) * 1e-9;
    }
    join_all(timed_window);
  } catch (...) {
    join_all(true);
    throw;
  }
  for (const auto& s : ws) {
    if (s->error) std::rethrow_exception(s->error);
  }

  {
    const emr_alloc::AllocStats a = st->alloc->stats();
    add_totals(r.alloc_window, a.totals, 1);
    add_totals(r.alloc_window, alloc_begin.totals, -1);
    r.peak_mapped_bytes = a.peak_bytes_mapped;
    const emr_smr::SmrStats s = rec.stats();
    r.retired = s.retired - smr_begin.retired;
    r.freed = s.freed - smr_begin.freed;
    r.epochs = s.epochs_advanced - smr_begin.epochs_advanced;
  }
  r.slices.resize(sh.slices);
  for (const auto& sp : ws) {
    const WorkerState& s = *sp;
    for (std::size_t i = 0; i < sh.slices; ++i) {
      r.slices[i].merge(s.slices[i]);
      r.latency.merge(s.slices[i]);
    }
    for (int k = 0; k < kNumKinds; ++k) {
      r.by_kind[static_cast<std::size_t>(k)].merge(
          s.by_kind[static_cast<std::size_t>(k)]);
    }
    r.calls += s.calls;
    r.completed += s.completed;
    r.refused += s.refused;
    r.updates += s.updates;
    r.update_ok += s.update_ok;
    r.wall_ticks += s.window_end - s.window_start;
    r.op_ticks += s.op_ticks;
    r.alloc_in_ops.alloc_calls += s.in_ops.alloc_calls;
    r.alloc_in_ops.alloc_ticks += s.in_ops.alloc_ticks;
    r.alloc_in_ops.free_calls += s.in_ops.free_calls;
    r.alloc_in_ops.free_ticks += s.in_ops.free_ticks;
    r.max_frees_in_op = std::max(r.max_frees_in_op, s.max_frees);
    r.ops_with_free += s.ops_with_free;
    if (traced) {
      for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        r.tail.free_ops[b] += s.tail.free_ops[b];
        r.tail.free_ticks[b] += s.tail.free_ticks[b];
        r.tail.dur_ticks[b] += s.tail.dur_ticks[b];
      }
    }
    r.records.insert(r.records.end(), s.slowest.begin(), s.slowest.end());
  }
  if (!timed_window) {
    r.window_s = ticks_to_ns(static_cast<double>(r.wall_ticks)) * 1e-9 / n;
  }

  if (spec.queue) {
    r.failed += check_queue(*st->queue, st->handles[1], checker, enqueued);
  } else {
    r.failed += st->ledger->check(*st->set, st->handles[0]);
  }
  r.failed += teardown(std::move(st), &r.alloc_final);
  return r;
}

namespace {

void absorb(WindowResult& into, WindowResult&& r) {
  auto append = [](auto& to, auto& from) {
    to.insert(to.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
  };
  append(into.setup_s, r.setup_s);
  append(into.round_mops, r.round_mops);
  append(into.interval_mops, r.interval_mops);
  append(into.slices, r.slices);
  append(into.records, r.records);
  into.window_s += r.window_s;
  into.latency.merge(r.latency);
  for (std::size_t k = 0; k < into.by_kind.size(); ++k) {
    into.by_kind[k].merge(r.by_kind[k]);
  }
  into.calls += r.calls;
  into.completed += r.completed;
  into.refused += r.refused;
  into.updates += r.updates;
  into.update_ok += r.update_ok;
  into.wall_ticks += r.wall_ticks;
  into.op_ticks += r.op_ticks;
  into.alloc_in_ops.alloc_calls += r.alloc_in_ops.alloc_calls;
  into.alloc_in_ops.alloc_ticks += r.alloc_in_ops.alloc_ticks;
  into.alloc_in_ops.free_calls += r.alloc_in_ops.free_calls;
  into.alloc_in_ops.free_ticks += r.alloc_in_ops.free_ticks;
  into.max_frees_in_op = std::max(into.max_frees_in_op, r.max_frees_in_op);
  into.ops_with_free += r.ops_with_free;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    into.tail.free_ops[b] += r.tail.free_ops[b];
    into.tail.free_ticks[b] += r.tail.free_ticks[b];
    into.tail.dur_ticks[b] += r.tail.dur_ticks[b];
  }
  into.peak_backlog = std::max(into.peak_backlog, r.peak_backlog);
  add_totals(into.alloc_window, r.alloc_window, 1);
  into.peak_mapped_bytes =
      std::max(into.peak_mapped_bytes, r.peak_mapped_bytes);
  into.retired += r.retired;
  into.freed += r.freed;
  into.epochs += r.epochs;
  into.peak_pending = std::max(into.peak_pending, r.peak_pending);
  into.failed += r.failed;
  into.alloc_final = r.alloc_final;
}

}  // namespace

WindowResult run_rounds(const WorkloadSpec& spec, const RunOptions& opts,
                        bool traced, int rounds) {
  rounds = std::max(rounds, 1);
  WindowResult all;
  RunOptions round = opts;
  round.seconds = opts.seconds / rounds;
  round.setup_seconds = opts.setup_seconds / rounds;
  for (int i = 0; i < rounds; ++i) {
    round.seed = stream_seed(opts.seed, 0xB0B0 + static_cast<std::uint64_t>(i));
    absorb(all, run_window(spec, round, traced));
  }
  return all;
}

// --------------------------------------------------------------- metrics

double throughput_mops(const WindowResult& r) {
  // Each round counts every op over its whole window, so a stall in the
  // program lowers every round; the median only drops a round the host
  // disturbed.
  if (!r.round_mops.empty()) return median(r.round_mops);
  return r.window_s > 0 ? static_cast<double>(r.completed) / r.window_s * 1e-6
                        : 0.0;
}

namespace {

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

/// Percentile q in microseconds: the median over the window's slices
/// that keep at least ten samples beyond q, or the whole window's when
/// no slice does. The note names the slices used and their range.
Metric latency_metric(const WindowResult& r, const char* name, double q) {
  std::vector<double> per_slice;
  for (const Histogram& h : r.slices) {
    if (h.count() != 0 && h.beyond(q) >= 10) {
      per_slice.push_back(ticks_to_ns(h.percentile(q)) * 1e-3);
    }
  }
  std::string note = "window n=" + std::to_string(r.latency.count()) +
                     " beyond=" + std::to_string(r.latency.beyond(q));
  if (per_slice.empty()) {
    return {name, ticks_to_ns(r.latency.percentile(q)) * 1e-3, "us",
            "whole window; " + note};
  }
  const auto [lo, hi] = std::minmax_element(per_slice.begin(), per_slice.end());
  note = "median of " + std::to_string(per_slice.size()) + " slices (" +
         std::to_string(*lo) + " .. " + std::to_string(*hi) + "); " + note;
  return {name, median(per_slice), "us", note};
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Share of the ops in the buckets at or above percentile q that called
/// free, and the share of their time spent in free.
std::pair<double, double> tail_free_shares(const WindowResult& r, double q) {
  const std::uint64_t k = r.latency.rank_of(q);
  if (k == 0) return {0.0, 0.0};
  const std::size_t from = r.latency.bucket_of_rank(k);
  std::uint64_t ops = 0, free_ops = 0, free_t = 0, dur = 0;
  for (std::size_t b = from; b < Histogram::kBuckets; ++b) {
    ops += r.latency.bucket_count(b);
    free_ops += r.tail.free_ops[b];
    free_t += r.tail.free_ticks[b];
    dur += r.tail.dur_ticks[b];
  }
  return {ratio(static_cast<double>(free_ops), static_cast<double>(ops)),
          ratio(static_cast<double>(free_t), static_cast<double>(dur))};
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const WindowResult& r) {
  const auto [lo, hi] =
      std::minmax_element(r.setup_s.begin(), r.setup_s.end());
  const std::string setup_note =
      "median of " + std::to_string(r.setup_s.size()) + " builds, min " +
      std::to_string(*lo) + " max " + std::to_string(*hi);
  const auto [rlo, rhi] =
      std::minmax_element(r.round_mops.begin(), r.round_mops.end());
  const auto [ilo, ihi] =
      std::minmax_element(r.interval_mops.begin(), r.interval_mops.end());
  const std::string mops_note =
      "median over " + std::to_string(r.round_mops.size()) +
      " rounds of completed ops / window (" + std::to_string(*rlo) + " .. " +
      std::to_string(*rhi) + "); " + std::to_string(r.interval_mops.size()) +
      " intervals " + std::to_string(*ilo) + " .. " + std::to_string(*ihi);
  return {
      {"throughput_mops", throughput_mops(r), "Mops/s", mops_note},
      latency_metric(r, "latency_p50_us", 0.5),
      latency_metric(r, "latency_p99_us", 0.99),
      latency_metric(r, "latency_p999_us", 0.999),
      latency_metric(r, "latency_p99999_us", 0.99999),
      {"peak_garbage_nodes", static_cast<double>(r.peak_pending), "count",
       "max of Reclaimer::stats().pending, sampled every 1 ms"},
      {"peak_rss_mib", peak_rss_mib(), "MiB", "VmHWM of the process"},
      {"failed_ops_share",
       ratio(static_cast<double>(r.failed), static_cast<double>(r.completed)),
       "share", std::to_string(r.failed) + " rejected"},
      {"setup_s", median(r.setup_s), "s", setup_note},
  };
}

std::vector<Metric> per_layer_metrics(const WindowResult& r,
                                      double untraced_mops) {
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  const auto ns = [](std::uint64_t t) {
    return ticks_to_ns(static_cast<double>(t));
  };
  const double calls = d(r.calls);
  const double wall_ns = ns(r.wall_ticks);
  const AllocCell& a = r.alloc_in_ops;
  const double free_ns = ns(a.free_ticks);
  const double alloc_ns = ns(a.alloc_ticks);
  const double op_ns = ns(r.op_ticks);
  const emr_alloc::AllocTotals& w = r.alloc_window;
  const auto p999 = tail_free_shares(r, 0.999);
  const auto p99999 = tail_free_shares(r, 0.99999);
  Histogram updates;
  for (OpKind k : {OpKind::kInsert, OpKind::kErase, OpKind::kEnqueue,
                   OpKind::kDequeue}) {
    updates.merge(r.by_kind[static_cast<std::size_t>(k)]);
  }
  const double traced_mops = throughput_mops(r);
  return {
      {"alloc.free.busy_share", ratio(free_ns, wall_ns), "share",
       "free time inside ds calls / worker wall time"},
      {"alloc.free.ns_per_call", ratio(free_ns, d(a.free_calls)), "ns", ""},
      {"alloc.free.per_op", ratio(d(a.free_calls), calls), "count", ""},
      {"alloc.flush.busy_share", ratio(d(w.ns_in_flush), wall_ns), "share",
       "Allocator::stats() ns_in_flush"},
      {"alloc.flush.per_kop", ratio(d(w.n_flush), calls) * 1e3, "count", ""},
      {"alloc.lock_wait.busy_share", ratio(d(w.ns_in_lock), wall_ns), "share",
       "Allocator::stats() ns_in_lock"},
      {"alloc.remote_free_share", ratio(d(w.n_remote_free), d(w.n_free)),
       "share", ""},
      {"alloc.allocate.ns_per_call", ratio(alloc_ns, d(a.alloc_calls)), "ns",
       ""},
      {"alloc.allocate.per_op", ratio(d(a.alloc_calls), calls), "count", ""},
      {"alloc.allocate.busy_share", ratio(alloc_ns, wall_ns), "share", ""},
      {"alloc.peak_mapped_mib", d(r.peak_mapped_bytes) / (1024.0 * 1024.0),
       "MiB", ""},
      {"smr.max_frees_in_one_op", d(r.max_frees_in_op), "count", ""},
      {"smr.ops_with_free_share", ratio(d(r.ops_with_free), calls), "share",
       ""},
      {"smr.epochs_per_kop", ratio(d(r.epochs), calls) * 1e3, "count", ""},
      {"smr.retired_per_op", ratio(d(r.retired), calls), "count", ""},
      {"smr.freed_per_op", ratio(d(r.freed), calls), "count", ""},
      {"smr.backlog.peak", d(r.peak_backlog), "count",
       "executor backlog over lanes, stats_with_lanes()"},
      {"ds.self_ns_per_op", ratio(op_ns - free_ns - alloc_ns, calls), "ns",
       "ds call time minus allocator time inside it"},
      {"ds.op_ns.p50", ticks_to_ns(r.latency.percentile(0.5)), "ns",
       "completed ops"},
      {"ds.op_ns.p999", ticks_to_ns(r.latency.percentile(0.999)), "ns",
       "completed ops"},
      {"ds.op_ns.update.p50", ticks_to_ns(updates.percentile(0.5)), "ns",
       "insert/erase/enqueue/dequeue"},
      {"ds.op_ns.update.p999", ticks_to_ns(updates.percentile(0.999)), "ns",
       "insert/erase/enqueue/dequeue"},
      {"ds.update_success_share", ratio(d(r.update_ok), d(r.updates)),
       "share", ""},
      {"ds.queue.refused_share", ratio(d(r.refused), calls), "share",
       "0 on set workloads"},
      {"tail.p999.free_ops_share", p999.first, "share", ""},
      {"tail.p999.free_time_share", p999.second, "share", ""},
      {"tail.p99999.free_time_share", p99999.second, "share", ""},
      {"driver.self_ns_per_op", ratio(wall_ns - op_ns, calls), "ns",
       "loop, op generation, booking, clock reads"},
      {"trace.wall_ns_per_op", ratio(wall_ns, calls), "ns",
       "= ds.self_ns_per_op + allocator ns/op inside ds calls + "
       "driver.self_ns_per_op"},
      {"trace.overhead_share", 1.0 - ratio(traced_mops, untraced_mops),
       "share",
       "1 - traced/untraced throughput_mops (" + std::to_string(traced_mops) +
           " / " + std::to_string(untraced_mops) + ")"},
  };
}

std::vector<Metric> per_kind_metrics(const WindowResult& r) {
  std::vector<Metric> out;
  for (int k = 0; k < kNumKinds; ++k) {
    const Histogram& h = r.by_kind[static_cast<std::size_t>(k)];
    if (h.count() == 0) continue;
    const std::string base =
        std::string("ds.op_ns.") + kind_name(static_cast<OpKind>(k));
    const std::string n = "n=" + std::to_string(h.count());
    out.push_back({base + ".p50", ticks_to_ns(h.percentile(0.5)), "ns", n});
    out.push_back({base + ".p999", ticks_to_ns(h.percentile(0.999)), "ns", n});
  }
  return out;
}

}  // namespace perfbench
