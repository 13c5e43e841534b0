// Home-flush routing figure (docs/FREE_SCHEDULES.md): the asymmetric
// producer/consumer pipeline is the workload where every dequeue-side
// free is foreign (bench_fig_queue), so it is also the workload where
// rerouting those frees back to their owners pays the most. The _hf
// twins push each about-to-be-freed foreign block onto its home lane's
// stash; the owner flushes it locally at FreeSchedule::flush_quota per
// op end. This sweep puts the plain and _hf forms side by side and then
// sweeps EMR_FLUSH_BATCH on the _hf form: remote share and the dequeue
// tail collapse under routing, while an oversized flush batch parks
// dead blocks in the stashes long enough to re-inflate peak garbage —
// the paper's "too epic" trade-off one layer down.
//
//   EMR_RECLAIMER  - base reclaimer (suffixes stripped; debra)
//   EMR_DS         - queue flavor (msqueue | lockedqueue; msqueue)
//   --json <path>  - mirror the table as JSON (bench_common);
//                    ci/check.sh points this at the committed
//                    BENCH_fig_homeflush.json snapshot
//
// `bench_fig_homeflush --smoke` runs calibrated 4+4 pipeline cells
// (scatter pin, modeled jemalloc, explicit 500 ns remote penalty) and
// fails unless, aggregated over two seeds: (a) every run progresses,
// accounts exactly, and — for _hf cells — the stash ledger balances
// (stashed == flushed, zero backlog at teardown) while non-hf cells
// never touch a stash, (b) routing collapses the remote-free share
// (hp_af >= 0.9 foreign, hp_af_hf <= 0.25), and (c) the _hf dequeue
// p99.9 improves on the plain _af one without mops falling below 80%
// of the plain form's (faster is expected — the rerouted frees stop
// paying the penalty).
#include <cstring>

#include "bench_common.hpp"
#include "core/latency.hpp"
#include "ds/queue.hpp"
#include "smr/factory.hpp"

using namespace emr;
using namespace emr::bench;

namespace {

/// One (reclaimer, flush_batch) cell: seeds merge into per-kind
/// histograms, mops averages, allocator counters and the stash ledger
/// sum.
struct Cell {
  LatencyHistogram enq_hist;
  LatencyHistogram deq_hist;
  std::string schedule;
  double mops_sum = 0;
  int runs = 0;
  bool accounted = true;
  std::uint64_t remote_frees = 0;
  std::uint64_t frees = 0;
  std::uint64_t stashed = 0;
  std::uint64_t flushed = 0;
  std::uint64_t stash_backlog_end = 0;
  std::uint64_t peak_garbage = 0;  // max over seeds
  std::uint64_t penalty_ns = 0;
  std::string clock = "steady";
  std::string pin = "off";

  double mops() const { return runs > 0 ? mops_sum / runs : 0.0; }
  double remote_share() const {
    return frees > 0 ? static_cast<double>(remote_frees) /
                           static_cast<double>(frees)
                     : 0.0;
  }
  double deq_p999_us() const {
    return latency_percentile(deq_hist, 0.999) / 1000.0;
  }
};

harness::TrialConfig smoke_config(const std::string& reclaimer,
                                  std::size_t flush_batch) {
  harness::TrialConfig cfg;
  cfg.workload = "pipeline";
  cfg.ds = "msqueue";
  cfg.producers = 4;
  cfg.queue_cap = 8192;
  cfg.reclaimer = reclaimer;
  cfg.allocator = "je";
  cfg.nthreads = 8;
  cfg.measure_ms = 150;
  cfg.enable_latency = true;
  cfg.enable_garbage = true;
  // Scatter pin spreads producers and consumers across the topology so
  // the consumer-side frees are cross-core in the modeled sense too.
  cfg.pin = "scatter";
  // Same modeled-cost calibration as bench_fig_queue: 128-node bags,
  // 32-slot tcaches, and an explicit 500 ns remote penalty the gates
  // below are tuned to (startup calibration must not substitute the
  // host's measured cost).
  cfg.smr.batch_size = 128;
  cfg.smr.epoch_freq = 32;
  cfg.alloc.tcache_cap = 32;
  cfg.alloc.remote_free_penalty_ns = 500;
  cfg.alloc.remote_penalty_explicit = true;
  cfg.smr.drain_max = 256;
  cfg.smr.latency_target_us = 15;
  cfg.smr.flush_batch = flush_batch;
  return cfg;
}

void add_cell_row(const Cell& cell, const harness::TrialConfig& cfg,
                  harness::Table* table) {
  table->add_row(
      {cfg.reclaimer, cell.schedule, std::to_string(cfg.smr.flush_batch),
       std::to_string(cfg.producers), std::to_string(cfg.nthreads), cfg.ds,
       harness::fixed(cell.mops(), 3),
       harness::fixed(latency_percentile(cell.enq_hist, 0.999) / 1000.0, 2),
       harness::fixed(cell.deq_p999_us(), 2),
       harness::fixed(cell.remote_share(), 3),
       std::to_string(cell.stashed), std::to_string(cell.flushed),
       std::to_string(cell.stash_backlog_end),
       std::to_string(cell.peak_garbage), std::to_string(cell.penalty_ns),
       cell.clock, cell.pin});
}

Cell run_cell(const std::string& name, std::size_t flush_batch,
              const std::uint64_t* seeds, int nseeds,
              harness::Table* table) {
  Cell cell;
  harness::TrialConfig cfg;
  for (int i = 0; i < nseeds; ++i) {
    cfg = smoke_config(name, flush_batch);
    cfg.seed = seeds[i];
    harness::Trial trial(cfg);
    const harness::TrialResult r = trial.run();
    // Exact accounting plus the stash ledger: every rerouted block must
    // have left its stash by teardown (r.stashed/r.flushed are read
    // after flush_all), and a non-hf run must never touch the routing
    // layer.
    const bool hf = trial.reclaimer().executor().home_flush();
    const bool ledger_ok =
        hf ? (r.stashed == r.flushed && r.stash_backlog_end == 0)
           : (r.stashed == 0 && r.flushed == 0);
    const bool good = r.ops > 0 && r.lat_ops > 0 &&
                      trial.reclaimer().stats().pending == 0 &&
                      trial.reclaimer().executor().backlog() == 0 &&
                      ledger_ok;
    cell.accounted &= good;
    cell.schedule = trial.schedule().name();
    cell.penalty_ns = r.remote_penalty_ns;
    cell.clock = r.clock_source;
    cell.pin = r.pin_mode;
    cell.enq_hist.add(trial.latency().merged_channel(harness::Op::kEnqueue));
    cell.deq_hist.add(trial.latency().merged_channel(harness::Op::kDequeue));
    cell.mops_sum += r.mops;
    cell.remote_frees += r.alloc_diff.totals.n_remote_free;
    cell.frees += r.alloc_diff.totals.n_free;
    cell.stashed += r.stashed;
    cell.flushed += r.flushed;
    cell.stash_backlog_end += r.stash_backlog_end;
    cell.peak_garbage =
        std::max(cell.peak_garbage, trial.garbage().peak_garbage());
    ++cell.runs;
    std::printf(
        "%-16s sched=%-8s fb=%-5llu seed=%-4llu mops=%-6s deq_p999=%-8s "
        "remote=%-5s stashed=%-8llu peak_garbage=%-8llu %s\n",
        name.c_str(), trial.schedule().name(),
        static_cast<unsigned long long>(flush_batch),
        static_cast<unsigned long long>(cfg.seed),
        harness::fixed(r.mops, 2).c_str(),
        (harness::fixed(
             r.kind_lat[harness::Op::kDequeue].p999_ns / 1000.0, 1) +
         "us")
            .c_str(),
        harness::fixed(r.alloc_diff.totals.n_free > 0
                           ? static_cast<double>(
                                 r.alloc_diff.totals.n_remote_free) /
                                 static_cast<double>(
                                     r.alloc_diff.totals.n_free)
                           : 0.0,
                       3)
            .c_str(),
        static_cast<unsigned long long>(r.stashed),
        static_cast<unsigned long long>(trial.garbage().peak_garbage()),
        good ? "ok" : "FAILED");
  }
  if (table != nullptr) add_cell_row(cell, cfg, table);
  return cell;
}

int run_smoke(int argc, char** argv) {
  // hp, not debra, for the same reason as bench_fig_queue: hp's scan
  // fires locally at the retire-list threshold, so the consumer-side
  // frees land inside the window regardless of CI interleaving.
  const std::uint64_t kSeeds[] = {42, 1042};
  const int kNumSeeds = 2;
  harness::Table table(
      {"reclaimer", "schedule", "flush_batch", "producers", "threads",
       "ds", "mops", "enq_p999_us", "deq_p999_us", "remote_share",
       "stashed", "flushed", "stash_backlog_end", "peak_garbage",
       "penalty_ns", "clock", "pin"});

  constexpr std::size_t kDefaultFlush = 64;
  bool ok = true;
  Cell af = run_cell("hp_af", kDefaultFlush, kSeeds, kNumSeeds, &table);
  Cell hf = run_cell("hp_af_hf", kDefaultFlush, kSeeds, kNumSeeds, &table);
  Cell adaptive_hf =
      run_cell("hp_adaptive_hf", kDefaultFlush, kSeeds, kNumSeeds, &table);
  Cell latency_hf =
      run_cell("hp_latency_hf", kDefaultFlush, kSeeds, kNumSeeds, &table);
  // EMR_FLUSH_BATCH sweep on the routed form: a tiny quantum flushes
  // eagerly; an oversized one re-parks garbage in the stashes.
  Cell hf_small = run_cell("hp_af_hf", 16, kSeeds, kNumSeeds, &table);
  Cell hf_huge = run_cell("hp_af_hf", 4096, kSeeds, kNumSeeds, &table);
  ok &= af.accounted && hf.accounted && adaptive_hf.accounted &&
        latency_hf.accounted && hf_small.accounted && hf_huge.accounted;

  std::printf("\nremote-free share: hp_af=%.3f hp_af_hf=%.3f "
              "(adaptive_hf=%.3f latency_hf=%.3f)\n",
              af.remote_share(), hf.remote_share(),
              adaptive_hf.remote_share(), latency_hf.remote_share());
  std::printf("dequeue p99.9: hp_af=%.1fus hp_af_hf=%.1fus (mops %.3f vs "
              "%.3f)\n",
              af.deq_p999_us(), hf.deq_p999_us(), af.mops(), hf.mops());
  std::printf("peak garbage vs flush batch: fb16=%llu fb64=%llu "
              "fb4096=%llu\n",
              static_cast<unsigned long long>(hf_small.peak_garbage),
              static_cast<unsigned long long>(hf.peak_garbage),
              static_cast<unsigned long long>(hf_huge.peak_garbage));

  // (b) Routing is what collapses the foreign-free share: in the 4+4
  // split every consumer-side free is foreign (>= 0.9 — the only local
  // frees are queue-pool effects), and with routing on the owner frees
  // its own blocks back (<= 0.25 leaves room for large-allocation
  // bypass and daemonless edge drains).
  if (af.remote_share() < 0.9) {
    std::printf("FAILED: hp_af remote share (%.3f) below 0.9 — the "
                "asymmetric split is not charging foreign frees\n",
                af.remote_share());
    ok = false;
  }
  if (hf.remote_share() > 0.25) {
    std::printf("FAILED: hp_af_hf remote share (%.3f) above 0.25 — "
                "routing is not bringing frees home\n",
                hf.remote_share());
    ok = false;
  }
  // Routing must actually route: a pipeline window moves hundreds of
  // thousands of nodes, so a near-zero stash count means the layer is
  // disarmed.
  if (hf.stashed < 1000) {
    std::printf("FAILED: hp_af_hf stashed only %llu blocks\n",
                static_cast<unsigned long long>(hf.stashed));
    ok = false;
  }
  // (c) The tail improves without giving up throughput: consumers stop
  // paying the per-block foreign-free penalty inside dequeues. The mops
  // bound is one-sided — rerouting the penalized frees legitimately
  // RAISES throughput (that is the win); what the tail story must not
  // ride on is the routed form quietly doing less work.
  if (hf.deq_p999_us() >= af.deq_p999_us()) {
    std::printf("FAILED: hp_af_hf dequeue p99.9 (%.1fus) does not improve "
                "on hp_af (%.1fus)\n",
                hf.deq_p999_us(), af.deq_p999_us());
    ok = false;
  }
  if (af.mops() <= 0 || hf.mops() < 0.8 * af.mops()) {
    std::printf("FAILED: hp_af_hf mops (%.3f) fell below 80%% of hp_af's "
                "(%.3f) — the tail improvement must not ride on a "
                "throughput loss\n",
                hf.mops(), af.mops());
    ok = false;
  }

  maybe_write_json(table, json_path_from_args(argc, argv));
  std::printf("bench_fig_homeflush --smoke: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke(argc, argv);
  }

  harness::TrialConfig base = default_config();
  base.workload = "pipeline";
  base.enable_latency = true;
  base.enable_garbage = true;
  bool is_queue = false;
  for (const std::string& n : ds::queue_names()) is_queue |= (n == base.ds);
  if (!is_queue) base.ds = "msqueue";
  const std::string reclaimer_base =
      smr::reclaimer_base_name(base.reclaimer);
  harness::print_banner(
      "Home-flush routing: foreign frees rerouted to their owners",
      "beyond the paper: per-owner remote-free stashes "
      "(docs/FREE_SCHEDULES.md)",
      describe(base) + " reclaimer=" + reclaimer_base +
          " cap=" + std::to_string(base.queue_cap));

  harness::Table table(
      {"reclaimer", "schedule", "flush_batch", "producers", "threads",
       "ds", "mops", "enq_p999_us", "deq_p999_us", "remote_share",
       "stashed", "flushed", "stash_backlog_end", "peak_garbage",
       "penalty_ns", "clock", "pin"});
  const char* kForms[] = {"_af", "_af_hf", "_adaptive_hf", "_latency_hf"};
  const std::size_t kFlushBatches[] = {16, 64, 1024, 4096};
  for (int nthreads : default_thread_sweep()) {
    const int producers = nthreads / 2;
    if (producers == 0) continue;  // the split needs >= 2 threads
    for (const char* form : kForms) {
      const std::string name = reclaimer_base + form;
      const bool hf = std::strstr(form, "_hf") != nullptr;
      for (const std::size_t fb : kFlushBatches) {
        if (!hf && fb != 64) continue;  // flush_batch is dead weight off
        harness::TrialConfig cfg = base;
        cfg.nthreads = nthreads;
        cfg.producers = producers;
        cfg.reclaimer = name;
        cfg.smr.flush_batch = fb;
        harness::Trial trial(cfg);
        const harness::TrialResult r = trial.run();
        Cell cell;
        cell.schedule = trial.schedule().name();
        cell.penalty_ns = r.remote_penalty_ns;
        cell.clock = r.clock_source;
        cell.pin = r.pin_mode;
        cell.enq_hist.add(
            trial.latency().merged_channel(harness::Op::kEnqueue));
        cell.deq_hist.add(
            trial.latency().merged_channel(harness::Op::kDequeue));
        cell.mops_sum += r.mops;
        cell.remote_frees += r.alloc_diff.totals.n_remote_free;
        cell.frees += r.alloc_diff.totals.n_free;
        cell.stashed += r.stashed;
        cell.flushed += r.flushed;
        cell.stash_backlog_end += r.stash_backlog_end;
        cell.peak_garbage = trial.garbage().peak_garbage();
        ++cell.runs;
        add_cell_row(cell, cfg, &table);
        std::printf(
            "  t=%-3d p=%-2d %-18s fb=%-5llu %7.2f Mops/s deq_p999=%-8s "
            "remote=%.3f stashed=%llu peak_garbage=%llu\n",
            nthreads, producers, cfg.reclaimer.c_str(),
            static_cast<unsigned long long>(fb), r.mops,
            (harness::fixed(
                 r.kind_lat[harness::Op::kDequeue].p999_ns / 1000.0, 1) +
             "us")
                .c_str(),
            cell.remote_share(),
            static_cast<unsigned long long>(r.stashed),
            static_cast<unsigned long long>(cell.peak_garbage));
      }
    }
  }
  std::printf("\n");
  table.print();
  table.write_csv(harness::out_dir() + "fig_homeflush.csv");
  std::printf("\nCSV: %sfig_homeflush.csv\n", harness::out_dir().c_str());
  maybe_write_json(table, json_path_from_args(argc, argv));
  return 0;
}
