// Tail latency vs free schedule (ROADMAP item 2): the paper's harm —
// batch free can be harmful — is a *tail* phenomenon, so this sweep
// puts p50/p99/p99.9/max next to mops for one base reclaimer under the
// fixed batch schedule (the paper's default), fixed amortized `_af`
// (the paper's fix), `_adaptive` (the population-aware controller) and
// `_latency` (the tail-steered controller: the harness pumps the
// observed p99.9 into the schedule, which backs its drain quantum off
// while the tail overshoots EMR_LATENCY_TARGET_US). The headline shape:
// fixed-batch p99.9 blows up by the whole-bag drain cost while mops
// stays flat — throughput alone cannot see the harm.
//
//   EMR_RECLAIMER         - base reclaimer (suffixes stripped; debra)
//   EMR_LATENCY_TARGET_US - p99.9 target for the _latency rows
//   --json <path>         - mirror the table as JSON (bench_common);
//                           ci/check.sh points this at the committed
//                           BENCH_fig_latency.json snapshot
//
// `bench_fig_latency --smoke` runs a calibrated 8-thread cell on the
// modeled jemalloc (small tcache + remote-free penalty, so one
// whole-bag drain costs ~batch x penalty while an _af op never frees
// more than one flush burst) and fails unless, aggregated over two
// seeds: (a) every run progresses and accounts exactly, (b) fixed-batch
// p99.9 >= 2x the _af p99.9 while their mops differ by < 20%, and
// (c) the _latency schedule holds p99.9 inside 2x its configured
// target — the band an uncontrolled adaptive burst misses.
#include <cstring>

#include "bench_common.hpp"
#include "core/latency.hpp"
#include "smr/factory.hpp"

using namespace emr;
using namespace emr::bench;

namespace {

const char* kSuffixes[] = {"", "_af", "_adaptive", "_latency"};

/// One (reclaimer-name, seed-set) cell: seeds merge into one histogram
/// (percentiles over the union) and mops averages.
struct Cell {
  LatencyHistogram hist;
  // Per-op-kind split (insert/erase/lookup channels): the batch drain
  // rides the erase path — where retire lives — so its tail dwarfs the
  // read-side ones.
  LatencyHistogram ins_hist;
  LatencyHistogram ers_hist;
  LatencyHistogram lkp_hist;
  std::string schedule;
  bool feedback = false;  // the schedule steers by the observed tail
  double mops_sum = 0;
  int runs = 0;
  bool accounted = true;  // ops > 0, pending == 0, empty backlog
  // Hardware-realism metadata (identical across seeds): the effective
  // remote-free penalty, the clock the recorders ran on, the pin mode.
  std::uint64_t penalty_ns = 0;
  std::string clock = "steady";
  std::string pin = "off";

  double mops() const { return runs > 0 ? mops_sum / runs : 0.0; }
  double p999_us() const { return latency_percentile(hist, 0.999) / 1000.0; }
};

constexpr std::uint64_t kSmokeTargetUs = 15;

harness::TrialConfig smoke_config(const std::string& reclaimer) {
  harness::TrialConfig cfg;
  cfg.ds = "dgt";
  cfg.reclaimer = reclaimer;
  cfg.allocator = "je";
  cfg.nthreads = 8;  // the acceptance gate's ">= 8 threads" cell
  cfg.keyrange = 4096;
  cfg.measure_ms = 150;
  cfg.enable_latency = true;
  // The tail gap runs through the modeled remote-free cost: a sealed
  // 128-node bag freed whole inside one op crosses the 32-slot tcache
  // four times, paying ~batch x penalty (~64 us) in that op, while an
  // _af op never pays more than one 16-block flush (~8 us). Batch 128
  // keeps drains frequent enough (one per ~500 merged ops at a ~25%
  // erase-hit rate) to sit above the p99.9 rank.
  cfg.smr.batch_size = 128;
  cfg.smr.epoch_freq = 32;
  cfg.alloc.tcache_cap = 32;
  cfg.alloc.remote_free_penalty_ns = 500;
  // The gates below are tuned to this exact penalty: keep startup
  // calibration from substituting the host's measured cache-line cost.
  cfg.alloc.remote_penalty_explicit = true;
  // A permissive clamp so the _adaptive/_latency quantum is decided by
  // the controllers (ns-per-free cap, tail feedback), not the default
  // drain_max ceiling.
  cfg.smr.drain_max = 256;
  cfg.smr.latency_target_us = kSmokeTargetUs;
  return cfg;
}

Cell run_cell(const std::string& name, const std::uint64_t* seeds,
              int nseeds, harness::Table* table) {
  Cell cell;
  for (int i = 0; i < nseeds; ++i) {
    harness::TrialConfig cfg = smoke_config(name);
    cfg.seed = seeds[i];
    harness::Trial trial(cfg);
    const harness::TrialResult r = trial.run();
    const bool good = r.ops > 0 && r.lat_ops > 0 &&
                      trial.reclaimer().stats().pending == 0 &&
                      trial.reclaimer().executor().backlog() == 0;
    cell.accounted &= good;
    cell.schedule = trial.schedule().name();
    cell.feedback = trial.schedule().wants_latency_feedback();
    cell.penalty_ns = r.remote_penalty_ns;
    cell.clock = r.clock_source;
    cell.pin = r.pin_mode;
    cell.hist.add(trial.latency().merged());
    cell.ins_hist.add(trial.latency().merged_channel(harness::Op::kInsert));
    cell.ers_hist.add(trial.latency().merged_channel(harness::Op::kErase));
    cell.lkp_hist.add(trial.latency().merged_channel(harness::Op::kLookup));
    cell.mops_sum += r.mops;
    ++cell.runs;
    std::printf(
        "%-16s sched=%-8s seed=%-4llu ops=%-8llu mops=%-6s p50=%-8s "
        "p99=%-8s p999=%-8s max=%-9s %s\n",
        name.c_str(), trial.schedule().name(),
        static_cast<unsigned long long>(cfg.seed),
        static_cast<unsigned long long>(r.ops),
        harness::fixed(r.mops, 2).c_str(),
        (harness::fixed(r.lat_p50_ns / 1000.0, 1) + "us").c_str(),
        (harness::fixed(r.lat_p99_ns / 1000.0, 1) + "us").c_str(),
        (harness::fixed(r.lat_p999_ns / 1000.0, 1) + "us").c_str(),
        (harness::fixed(static_cast<double>(r.lat_max_ns) / 1000.0, 1) +
         "us")
            .c_str(),
        good ? "ok" : "FAILED");
  }
  if (table != nullptr) {
    const LatencyHistogram& h = cell.hist;
    table->add_row(
        {"8", name, cell.schedule, harness::fixed(cell.mops(), 3),
         harness::fixed(latency_percentile(h, 0.50) / 1000.0, 2),
         harness::fixed(latency_percentile(h, 0.99) / 1000.0, 2),
         harness::fixed(latency_percentile(h, 0.999) / 1000.0, 2),
         harness::fixed(static_cast<double>(h.max_ns) / 1000.0, 2),
         harness::fixed(latency_percentile(cell.ins_hist, 0.999) / 1000.0,
                        2),
         harness::fixed(latency_percentile(cell.ers_hist, 0.999) / 1000.0,
                        2),
         harness::fixed(latency_percentile(cell.lkp_hist, 0.999) / 1000.0,
                        2),
         std::to_string(h.count),
         std::to_string(cell.feedback ? kSmokeTargetUs : 0),
         std::to_string(cell.penalty_ns), cell.clock, cell.pin});
  }
  return cell;
}

int run_smoke(int argc, char** argv) {
  // hp, not debra: the smoke runs 8 workers on however few cores CI
  // offers, and an epoch-consensus scheme barely advances under that
  // oversubscription — its bags defer past the window and the batch
  // tail looks deceptively clean. hp's scan fires locally at the
  // retire-list threshold, so the whole-batch scan+free lands inside a
  // measured op regardless of scheduler interleaving.
  const std::string base = "hp";
  const std::uint64_t kSeeds[] = {42, 1042};
  const int kNumSeeds = 2;
  harness::Table table({"threads", "reclaimer", "schedule", "mops",
                        "p50_us", "p99_us", "p999_us", "max_us",
                        "ins_p999_us", "ers_p999_us", "lkp_p999_us", "ops",
                        "target_us", "penalty_ns", "clock", "pin"});

  Cell cells[4];
  bool ok = true;
  for (int s = 0; s < 4; ++s) {
    cells[s] = run_cell(base + kSuffixes[s], kSeeds, kNumSeeds, &table);
    ok &= cells[s].accounted;
  }

  const double p999_batch = cells[0].p999_us();
  const double p999_af = cells[1].p999_us();
  const double p999_latency = cells[3].p999_us();
  const double mops_batch = cells[0].mops();
  const double mops_af = cells[1].mops();
  std::printf(
      "\nmerged p99.9: batch=%.1fus af=%.1fus adaptive=%.1fus "
      "latency=%.1fus (target %llu us)\n",
      p999_batch, p999_af, cells[2].p999_us(), p999_latency,
      static_cast<unsigned long long>(kSmokeTargetUs));
  std::printf("mops: batch=%.3f af=%.3f (diff %.1f%%)\n", mops_batch,
              mops_af,
              mops_af > 0
                  ? 100.0 * (mops_batch > mops_af ? mops_batch - mops_af
                                                  : mops_af - mops_batch) /
                        mops_af
                  : 0.0);

  // (b) The paper's invisible harm: the whole-bag drains push the tail
  // out by multiples while throughput stays flat.
  if (p999_batch < 2.0 * p999_af) {
    std::printf("FAILED: fixed-batch p99.9 (%.1fus) is not >= 2x the _af "
                "p99.9 (%.1fus)\n",
                p999_batch, p999_af);
    ok = false;
  }
  const double mops_diff =
      mops_batch > mops_af ? mops_batch - mops_af : mops_af - mops_batch;
  if (mops_af <= 0 || mops_diff >= 0.20 * mops_af) {
    std::printf("FAILED: batch vs _af mops differ by >= 20%% "
                "(batch=%.3f af=%.3f) — the tail story must not ride on a "
                "throughput gap\n",
                mops_batch, mops_af);
    ok = false;
  }
  // (c) The tail-steered controller holds its band: within 2x of the
  // configured target (log2 buckets bound the percentile's resolution
  // to a factor of 2, so the band is one bucket of slack).
  if (p999_latency > 2.0 * static_cast<double>(kSmokeTargetUs)) {
    std::printf("FAILED: _latency p99.9 (%.1fus) misses the target band "
                "(<= 2x %llu us)\n",
                p999_latency,
                static_cast<unsigned long long>(kSmokeTargetUs));
    ok = false;
  }

  maybe_write_json(table, json_path_from_args(argc, argv));
  std::printf("bench_fig_latency --smoke: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke(argc, argv);
  }

  harness::TrialConfig base = default_config();
  base.enable_latency = true;
  const std::string reclaimer_base =
      smr::reclaimer_base_name(base.reclaimer);
  harness::print_banner(
      "Tail latency: per-op p50/p99/p99.9 vs free schedule",
      "beyond the paper: batch free's harm is a tail phenomenon "
      "(ROADMAP item 2)",
      describe(base) + " reclaimer=" + reclaimer_base +
          " target_us=" + std::to_string(base.smr.latency_target_us));

  harness::Table table({"threads", "reclaimer", "schedule", "mops",
                        "p50_us", "p99_us", "p999_us", "max_us",
                        "ins_p999_us", "ers_p999_us", "lkp_p999_us", "ops",
                        "target_us", "penalty_ns", "clock", "pin"});
  for (int nthreads : default_thread_sweep()) {
    for (const char* suffix : kSuffixes) {
      harness::TrialConfig cfg = base;
      cfg.nthreads = nthreads;
      cfg.reclaimer = reclaimer_base + suffix;
      harness::Trial trial(cfg);
      const harness::TrialResult r = trial.run();
      const bool is_latency = trial.schedule().wants_latency_feedback();
      table.add_row({std::to_string(nthreads), cfg.reclaimer,
                     trial.schedule().name(), harness::fixed(r.mops, 3),
                     harness::fixed(r.lat_p50_ns / 1000.0, 2),
                     harness::fixed(r.lat_p99_ns / 1000.0, 2),
                     harness::fixed(r.lat_p999_ns / 1000.0, 2),
                     harness::fixed(
                         static_cast<double>(r.lat_max_ns) / 1000.0, 2),
                     harness::fixed(
                         r.kind_lat[harness::Op::kInsert].p999_ns / 1000.0,
                         2),
                     harness::fixed(
                         r.kind_lat[harness::Op::kErase].p999_ns / 1000.0,
                         2),
                     harness::fixed(
                         r.kind_lat[harness::Op::kLookup].p999_ns / 1000.0,
                         2),
                     std::to_string(r.lat_ops),
                     std::to_string(is_latency ? cfg.smr.latency_target_us
                                               : 0),
                     std::to_string(r.remote_penalty_ns), r.clock_source,
                     r.pin_mode});
      std::printf(
          "  t=%-3d %-16s %7.2f Mops/s  p50=%-8s p99=%-8s p999=%-8s "
          "max=%s\n",
          nthreads, cfg.reclaimer.c_str(), r.mops,
          (harness::fixed(r.lat_p50_ns / 1000.0, 1) + "us").c_str(),
          (harness::fixed(r.lat_p99_ns / 1000.0, 1) + "us").c_str(),
          (harness::fixed(r.lat_p999_ns / 1000.0, 1) + "us").c_str(),
          (harness::fixed(static_cast<double>(r.lat_max_ns) / 1000.0, 1) +
           "us")
              .c_str());
    }
  }
  std::printf("\n");
  table.print();
  table.write_csv(harness::out_dir() + "fig_latency.csv");
  std::printf("\nCSV: %sfig_latency.csv\n", harness::out_dir().c_str());
  maybe_write_json(table, json_path_from_args(argc, argv));
  return 0;
}
