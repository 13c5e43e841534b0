// Workload definitions and the closed-loop driver. The driver builds the
// library's stack through its public factories
//   alloc::make_allocator -> smr::make_reclaimer -> ds::make_set/make_queue
// prefills it, runs worker threads for a measured window, and checks the
// structure's final state. In a traced window the allocator is wrapped in
// TimedAllocator and each worker attributes the allocator time inside
// every data-structure call to that call.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "histogram.hpp"
#include "smr/reclaimer.hpp"
#include "timed_allocator.hpp"

namespace perfbench {

enum class OpKind : std::uint8_t {
  kInsert,
  kErase,
  kLookup,
  kEnqueue,
  kDequeue
};
constexpr int kNumKinds = 5;
const char* kind_name(OpKind k);

struct WorkloadSpec {
  std::string name;
  bool queue = false;
  std::string ds;
  std::string reclaimer;
  std::string allocator = "je_model";
  /// Worker threads; the driver's main thread comes on top.
  int workers = 1;
  /// Set workloads: keys are drawn uniformly from [0, keyrange) and the
  /// structure is prefilled with every even key.
  std::uint64_t keyrange = 0;
  int insert_pct = 0;
  int erase_pct = 0;  // the rest of the mix is lookups
  /// Retire batch (epoch schemes) or retire-list scan threshold (hp).
  std::size_t batch = 0;
  /// Modelled remote-free cost, fixed (no start-up calibration).
  std::uint64_t remote_penalty_ns = 0;
  /// Queue workloads: capacity; prefilled to half.
  std::uint64_t queue_capacity = 0;
  /// Untraced rounds a --trace 0 run splits its time into (see
  /// run_rounds), and the warm-up before each round's window.
  int rounds = 5;
  double warmup_seconds = 0.5;
};

const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 1.0;
  /// Stacks built per window: one, and more until `setup_seconds` of
  /// set-up time has passed (at most 200). The last one is measured.
  double setup_seconds = 0;
  /// > 0: no warm-up, and each worker stops after this many calls in the
  /// window instead of at the deadline (deterministic single-thread runs).
  std::uint64_t op_limit = 0;
};

/// One kept per-op record of a traced window.
struct OpRecord {
  std::uint64_t start_ticks = 0;  // from the round's window start
  std::uint64_t dur_ticks = 0;
  std::uint64_t free_ticks = 0;   // child spans: allocator calls inside
  std::uint64_t alloc_ticks = 0;
  std::uint32_t frees = 0;
  std::uint32_t allocs = 0;
  OpKind kind = OpKind::kInsert;
  std::uint8_t worker = 0;
};

/// Per-latency-bucket sums over completed ops of a traced window, so the
/// ops above a percentile can be attributed after the run.
struct TailBuckets {
  using Sums = std::vector<std::uint64_t>;
  Sums free_ops = Sums(Histogram::kBuckets, 0);
  Sums free_ticks = Sums(Histogram::kBuckets, 0);
  Sums dur_ticks = Sums(Histogram::kBuckets, 0);
};

struct WindowResult {
  std::vector<double> setup_s;
  double window_s = 0;
  /// Completed ops per second, in millions: completed ops over window
  /// time, one entry per timed round.
  std::vector<double> round_mops;
  /// The same per sampling interval (20 per round), kept for diagnosis.
  std::vector<double> interval_mops;
  Histogram latency;  // completed ops, in ticks
  /// The same ops split by the one-second slice of the window they ended
  /// in (equal slices of about one second each).
  std::vector<Histogram> slices;
  std::array<Histogram, kNumKinds> by_kind;
  std::uint64_t calls = 0;      // data-structure calls, refused ones too
  std::uint64_t completed = 0;  // calls that did their work
  std::uint64_t refused = 0;    // queue: full on enqueue, empty on dequeue
  std::uint64_t updates = 0;    // insert/erase/enqueue/dequeue calls
  std::uint64_t update_ok = 0;
  std::uint64_t wall_ticks = 0;  // worker windows, summed
  std::uint64_t op_ticks = 0;    // time inside data-structure calls
  // Traced only.
  AllocCell alloc_in_ops;        // allocator calls inside data-structure calls
  std::uint64_t max_frees_in_op = 0;
  std::uint64_t ops_with_free = 0;
  TailBuckets tail;
  std::vector<OpRecord> records;
  std::uint64_t peak_backlog = 0;
  // Library counters: their change over the window, and peaks.
  emr::alloc::AllocTotals alloc_window;
  std::uint64_t peak_mapped_bytes = 0;
  std::uint64_t retired = 0, freed = 0, epochs = 0;
  std::uint64_t peak_pending = 0;
  // Output check.
  std::uint64_t failed = 0;
  /// Allocator totals after teardown (structure destroyed, flush_all).
  emr::alloc::AllocTotals alloc_final;
};

/// Builds the stacks opts asks for (all but the last torn down again),
/// runs one measured window on the last and checks it.
WindowResult run_window(const WorkloadSpec& spec, const RunOptions& opts,
                        bool traced);

/// `rounds` windows of opts.seconds / rounds each, every one on a fresh
/// stack and fresh threads with its own seed derived from opts.seed,
/// pooled into one result. A queue's producer/consumer interleaving
/// settles into a different regime on each start, so pooling rounds
/// keeps one run's figures from hanging on a single draw.
WindowResult run_rounds(const WorkloadSpec& spec, const RunOptions& opts,
                        bool traced, int rounds);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

/// The end-to-end metrics of an untraced window.
std::vector<Metric> end_to_end_metrics(const WindowResult& r);
/// The per-layer metrics of a traced window; `untraced_mops` is the
/// untraced window's throughput from the same run.
std::vector<Metric> per_layer_metrics(const WindowResult& r,
                                      double untraced_mops);
/// Per-kind op-time quantiles, printed for the kinds a workload runs.
std::vector<Metric> per_kind_metrics(const WindowResult& r);

double throughput_mops(const WindowResult& r);

/// CPU list the driver pins to, as the process found it at start.
const std::vector<int>& allowed_cpus();

/// Fixed pin layout: the main thread on the first allowed CPU, set
/// workers on the ones after it; the queue's producer and consumer on
/// the second and the last, as far apart as the list allows.
int worker_cpu(const WorkloadSpec& spec, int w);

}  // namespace perfbench
