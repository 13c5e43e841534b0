// Every paper figure and table, plus the laptop-scale ablations, as one
// table of specs run by one loop (README.md maps ids to figures).
//
//   bench_paper [id...]   run the named figures (no id = every figure)
//   bench_paper --list    print each id with its paper reference and title
//
// Each cell (table row) runs EMR_TRIALS trials at seeds seed, seed+1, ...
// and reports their mean (min/max Mops/s excepted). Timelines and censuses
// render from the first trial. A paired spec runs each cell as X and X_af.
// A gate makes a paper claim the exit status.
#include <array>
#include <cmath>
#include <functional>
#include <type_traits>

#include "bench_common.hpp"
#include "smr/factory.hpp"

using namespace emr;
using namespace emr::bench;
using harness::TrialConfig;

namespace {

enum Metric {
  kMops, kMinMops, kMaxMops, kOpsPerSec, kPeakMiB,
  kEpochs, kRotations,  // epochs in the window / advanced since start
  kPctFree, kPctFlush, kPctLock,
  kFreed, kFreedPerFreeSec, kPending, kAllocs, kPooled, kFlushes,
  kBatchEvents, kAvgBatchUs,                 // timeline: kBatchFree
  kFreeCalls, kLongFreeCalls, kMaxFreeMs,    // timeline: kFreeCall
  kCensusEpochs, kPeakGarbage, kAvgGarbage,  // garbage census
  kNumMetrics
};
using Values = std::array<double, kNumMetrics>;

std::string format(Metric m, double v) {
  switch (m) {
    case kMops: case kMinMops: case kMaxMops: case kMaxFreeMs:
      return harness::fixed(v, 2);
    case kPeakMiB: case kPctFree: case kPctFlush: case kPctLock:
    case kAvgBatchUs:
      return harness::fixed(v, 1);
    case kOpsPerSec: case kFreed: case kFreedPerFreeSec: case kPending:
    case kAllocs: case kPooled: case kPeakGarbage:
      return harness::human_count(v);
    default:
      return std::to_string(std::llround(v));
  }
}

Values measure(harness::Trial& trial, const harness::TrialResult& r) {
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  const alloc::AllocTotals& a = r.alloc_diff.totals;
  const double free_s = d(a.ns_in_free) / 1e9;
  // In Metric order; the timeline and census entries are filled below.
  Values v = {r.mops, r.mops, r.mops, r.mops * 1e6,
              d(r.peak_bytes_mapped) / (1024.0 * 1024.0),
              d(r.epochs_in_window), d(r.smr_stats.epochs_advanced),
              r.pct_free, r.pct_flush, r.pct_lock, d(r.freed_in_window),
              free_s > 0 ? d(r.freed_in_window) / free_s : 0,
              d(r.smr_stats.pending), d(a.n_alloc),
              d(trial.reclaimer().executor().total_pooled_allocs()),
              d(a.n_flush)};
  double batch_ns = 0;
  for (int t = 0; t < trial.timeline().lane_count(); ++t) {
    for (const TimelineEvent& e : trial.timeline().events(t)) {
      const double ns = d(e.t_end - e.t_start);
      if (e.kind == EventKind::kBatchFree) {
        ++v[kBatchEvents];
        batch_ns += ns;
      } else if (e.kind == EventKind::kFreeCall) {
        ++v[kFreeCalls];
        if (ns > 100'000) ++v[kLongFreeCalls];
        v[kMaxFreeMs] = std::max(v[kMaxFreeMs], ns / 1e6);
      }
    }
  }
  if (v[kBatchEvents] > 0) v[kAvgBatchUs] = batch_ns / v[kBatchEvents] / 1e3;
  const auto census = trial.garbage().aggregate();
  v[kCensusEpochs] = d(census.size());
  for (const auto& [epoch, g] : census) {
    v[kPeakGarbage] = std::max(v[kPeakGarbage], d(g));
    v[kAvgGarbage] += d(g) / v[kCensusEpochs];
  }
  return v;
}

struct Cell {
  std::vector<std::string> labels;
  std::function<void(TrialConfig&)> tweak = [](TrialConfig&) {};
  std::string tag = "";  // suffix of the cell's timeline/census CSV names
};

struct Column {
  const char* header;
  Metric metric;
};

struct Spec {
  const char* id;
  const char* ref;
  const char* title;
  const char* csv;  // table CSV stem under EMR_OUT; null = print only
  void (*base)(TrialConfig&);
  std::vector<std::string> label_headers;
  std::vector<Cell> (*cells)();
  std::vector<Column> columns;
  const char* note;            // the paper's shape, printed after the table
  const char* pair = nullptr;  // header of the X side of an X vs X_af pair
  const char* timeline_csv = nullptr;  // set = render the timeline; + tag
  const char* garbage_csv = nullptr;   // set = render the census; + tag
  // Timeline events rendered; amortized reclaimers always show free calls.
  EventKind trace = EventKind::kBatchFree;
  bool (*gate)(const std::vector<Values>& rows) = nullptr;
};

/// One cell per value: labelled by the value, `set` applies it.
template <class T, class Set>
std::vector<Cell> each(const std::vector<T>& values, Set set) {
  std::vector<Cell> cells;
  for (const T& v : values) {
    std::string label;
    if constexpr (std::is_arithmetic_v<T>) label = std::to_string(v);
    else label = v;
    cells.push_back({{label}, [=](TrialConfig& c) { set(c, v); }, label});
  }
  return cells;
}

std::vector<Cell> reclaimers(const std::vector<std::string>& names) {
  return each(names, [](TrialConfig& c, std::string n) { c.reclaimer = n; });
}

/// threads × cells: every cell at every thread count (EMR_THREADS by
/// default), cell-major; the thread label goes first or last in the row.
std::vector<Cell> threads_x(const std::vector<Cell>& cells, bool first,
                            std::vector<int> sweep = default_thread_sweep()) {
  std::vector<Cell> out;
  for (const Cell& c : cells) {
    for (int n : sweep) {
      Cell t = c;
      t.labels.insert(first ? t.labels.begin() : t.labels.end(),
                      std::to_string(n));
      t.tweak = [tweak = c.tweak, n](TrialConfig& cfg) {
        tweak(cfg);
        cfg.nthreads = n;
      };
      t.tag = (c.tag.empty() ? "" : c.tag + "_") + std::to_string(n) + "t";
      out.push_back(std::move(t));
    }
  }
  return out;
}

void at_max(TrialConfig& c) { c.nthreads = max_threads(); }
void debra(TrialConfig& c) { c.reclaimer = "debra"; }
void debra_at_max(TrialConfig& c) {
  at_max(c);
  debra(c);
}
void on_dgt(TrialConfig& c) {
  c.ds = "dgt";  // the paper's DGT key range is a tenth of the ABtree's
  c.keyrange = std::max<std::uint64_t>(64, c.keyrange / 10);
}

// Exp. 2's mechanism as a count, not a time: both sides free nodes, and AF
// pays at least a fifth fewer tcache flushes per freed node than batch
// (rows: batch, AF). Working AF reads about half; an AF that drains whole
// batches reads 1.00 +- 0.01, and the margin keeps it from passing on noise.
bool fewer_flushes_per_free(const std::vector<Values>& rows) {
  const auto per_kfree = [](const Values& v) {
    return v[kFreed] > 0 ? 1e3 * v[kFlushes] / v[kFreed] : 0.0;
  };
  const Values& batch = rows.front();
  const Values& af = rows.back();
  const bool ok = batch[kFreed] > 0 && af[kFreed] > 0 &&
                  per_kfree(af) < 0.8 * per_kfree(batch);
  std::printf("gate: tcache flushes per 1000 frees: batch %.2f (%.0f freed), "
              "AF %.2f (%.0f freed) -> %s\n", per_kfree(batch), batch[kFreed],
              per_kfree(af), af[kFreed], ok ? "PASS" : "FAIL");
  return ok;
}

const std::vector<std::string> kExp1 = {
    "token_af", "debra_af", "debra", "token", "qsbr", "rcu", "ibr",
    "nbr",      "nbrplus",  "he",    "hp",    "wfe",  "none"};
const std::vector<std::string> kToken = {"token_naive", "token_passfirst",
                                         "token", "token_af"};
const std::vector<Column> kScaling = {
    {"Mops/s", kMops}, {"min", kMinMops}, {"max", kMaxMops},
    {"peak_MiB", kPeakMiB}};
const std::vector<Column> kMopsOnly = {{"Mops/s", kMops}};
std::vector<Cell> exp2() { return reclaimers(smr::experiment2_reclaimers()); }

const std::vector<Spec> kSpecs = {
    {"fig01", "Fig. 1", "Figure 1: ABtree vs OCCtree, DEBRA vs leak",
     "fig01_scaling", nullptr, {"threads", "ds", "reclaimer"}, [] {
       std::vector<Cell> cells;
       for (const std::string r : {"debra", "none"}) {
         for (const std::string ds : {"abtree", "occtree"}) {
           cells.push_back(
               {{ds, r}, [=](TrialConfig& c) { c.ds = ds; c.reclaimer = r; }});
         }
       }
       return threads_x(cells, true);
     }, kScaling, "with DEBRA the ABtree flattens at high thread counts while "
     "the OCCtree scales; leaking closes the gap at a large memory cost"},
    {"fig02", "Fig. 2", "Figure 2: timelines of batch frees, moderate vs high "
     "threads", nullptr, debra, {"threads"}, [] {
       return threads_x({Cell{}}, true, {std::max(1, max_threads() / 2),
                                         max_threads()});
     }, {{"Mops/s", kMops}, {"batch_events", kBatchEvents},
         {"avg_batch_us", kAvgBatchUs}},
     "at the higher count avg_batch_us grows far past the 2x that doubled "
     "batches explain", nullptr, "fig02_timeline_"},
    {"fig03", "Fig. 3, Fig. 17", "Figure 3 / Figure 17: individual free "
     "calls, batch vs amortized", nullptr, [](TrialConfig& c) {
       at_max(c);
       c.timeline_min_duration_ns = 1'000;  // record free calls > 1us
     }, {"reclaimer"}, [] { return reclaimers({"debra", "debra_af"}); },
     {{"Mops/s", kMops}, {"free_calls>1us", kFreeCalls},
      {"free_calls>0.1ms", kLongFreeCalls}, {"max_free_ms", kMaxFreeMs}},
     "batch free shows many more high-latency free calls than amortized",
     nullptr, "fig03_freecalls_", nullptr, EventKind::kFreeCall},
    {"fig04", "Fig. 4", "Figure 4: garbage per epoch, batch free vs amortized "
     "free", nullptr, at_max, {"reclaimer"},
     [] { return reclaimers({"debra", "debra_af"}); },
     {{"epochs", kCensusEpochs}, {"peak_garbage", kPeakGarbage},
      {"avg_garbage", kAvgGarbage}},
     "amortized free cuts the peaks; the average grows only slightly",
     nullptr, nullptr, "fig04_garbage_"},
    {"fig05", "Fig. 5", "Figure 5: Naive Token-EBR performance + peak memory",
     "fig05_token_naive", nullptr, {"threads", "reclaimer"},
     [] { return threads_x(reclaimers({"token_naive", "debra"}), true); },
     {{"Mops/s", kMops}, {"peak_MiB", kPeakMiB}, {"pending_garbage", kPending}},
     "naive token-EBR looks fast but its peak memory grows far past DEBRA's"},
    {"fig06to09", "Figs. 6-9", "Figures 6-9: Token-EBR variants, timelines + "
     "garbage census", "fig06to09_token", at_max, {"variant"}, [] {
       std::vector<Cell> cells = reclaimers(kToken);
       cells.back().tweak = [](TrialConfig& c) {
         c.reclaimer = "token_af";
         c.timeline_min_duration_ns = 100'000;  // Fig 9: calls > 0.1 ms
       };
       return cells;
     }, {{"Mops/s", kMops}, {"epochs(rotations)", kRotations},
         {"peak_garbage", kPeakGarbage}, {"peak_MiB", kPeakMiB}},
     "naive: one serial curve of frees, unbounded garbage; pass-first: "
     "growing batches; periodic: lower peak; amortized: no pile-up",
     nullptr, "fig0609_timeline_", "fig0609_garbage_"},
    {"fig10", "Fig. 10", "Figure 10: Token-EBR variants, throughput + peak "
     "memory vs threads", "fig10_token_scaling", nullptr,
     {"threads", "reclaimer"}, [] {
       return threads_x(reclaimers({"token_naive", "token_passfirst", "token",
                                    "token_af", "debra"}), true);
     }, kScaling, "amortized token-EBR leads in throughput and peak memory "
     "at high thread counts"},
    {"fig11a", "Fig. 11a", "Figure 11a / Experiment 1: token_af vs the state "
     "of the art", "fig11a_exp1", nullptr, {"threads", "reclaimer"},
     [] { return threads_x(reclaimers(kExp1), true); },
     {{"Mops/s", kMops}, {"min", kMinMops}, {"max", kMaxMops}},
     "token_af wins everywhere (~1.7x the next best, 7-9x hp/he); both AF "
     "algorithms beat none"},
    {"fig11b", "Fig. 11b", "Figure 11b / Experiment 2: ORIG vs AF for ten "
     "reclaimers", "fig11b_exp2", at_max, {"reclaimer"}, exp2, kMopsOnly,
     "AF improves nine of ten algorithms (up to 2.3x; he about even)",
     "ORIG"},
    {"fig12", "Fig. 12", "Figure 12: ORIG vs AF across threads, per "
     "reclaimer (ABtree)", "fig12_orig_vs_af", nullptr,
     {"reclaimer", "threads"}, [] { return threads_x(exp2(), false); },
     kMopsOnly, "AF/ORIG grows with the thread count", "ORIG"},
    {"fig13", "Fig. 13", "Figure 13: ORIG vs AF across threads, per "
     "reclaimer (DGT tree)", "fig13_dgt_orig_vs_af", on_dgt,
     {"reclaimer", "threads"}, [] { return threads_x(exp2(), false); },
     kMopsOnly, "Fig. 12 repeated on the DGT tree", "ORIG"},
    {"fig14", "Fig. 14", "Figure 14: token_af vs all reclaimers across "
     "threads (DGT tree)", "fig14_dgt_exp1", on_dgt, {"threads", "reclaimer"},
     [] { return threads_x(reclaimers(kExp1), true); }, kMopsOnly,
     "Experiment 1 repeated on the DGT tree"},
    {"fig18to29", "Figs. 18-29", "Figures 18-29: DEBRA timelines for "
     "JE/TC/MI at each thread count", "fig18to29_summary", [](TrialConfig& c) {
       debra(c);
       c.enable_garbage = true;  // peak_garbage; the census is not rendered
     }, {"alloc", "threads"}, [] {
       const auto alloc = [](TrialConfig& c, auto a) { c.allocator = a; };
       return threads_x(each<std::string>({"je", "tc", "mi"}, alloc), false);
     }, {{"Mops/s", kMops}, {"batch_events", kBatchEvents},
         {"avg_batch_us", kAvgBatchUs}, {"peak_garbage", kPeakGarbage}},
     "JE and TC batch frees lengthen with threads; MI's stay short",
     nullptr, "fig1829_"},
    {"tab01", "Table 1", "Table 1: JE-model free overhead (ABtree + DEBRA)",
     "tab01_overhead", [](TrialConfig& c) { debra(c); c.allocator = "je"; },
     {"threads"}, [] { return threads_x({Cell{}}, true); },
     {{"ops/s", kOpsPerSec}, {"epochs", kEpochs}, {"%free", kPctFree},
      {"%flush", kPctFlush}, {"%lock", kPctLock}},
     "(192t) 43.4M ops/s, 1980 epochs, 59.5% free, 58.8% flush, 39.8% lock"},
    {"tab02", "Table 2", "Table 2: amortized free vs batch free (JE model)",
     "tab02_af", at_max, {"approach"}, [] {
       std::vector<Cell> cells = reclaimers({"debra", "debra_af"});
       cells[0].labels = {"JE batch"};
       cells[1].labels = {"JE amort."};
       return cells;
     }, {{"ops/s", kOpsPerSec}, {"freed", kFreed}, {"%free", kPctFree},
         {"%flush", kPctFlush}, {"%lock", kPctLock},
         {"freed/s-of-freeing", kFreedPerFreeSec}},
     "(192t) AF frees more in less free time (~8x) and runs ~2.6x faster",
     nullptr, nullptr, nullptr, EventKind::kBatchFree,
     fewer_flushes_per_free},
    {"tab04", "Table 4", "Table 4: Token-EBR variant analysis", "tab04_token",
     at_max, {"algorithm"}, [] { return reclaimers(kToken); },
     {{"ops/s", kOpsPerSec}, {"%free", kPctFree}, {"freed", kFreed}},
     "(192t) naive 73.7M/3.3%/7M; pass-first 52.4M/45.4%/98M; periodic "
     "54.4M/47.1%/118M; amortized 123.7M/14.7%/323M"},
    {"ablation_af_rate", "section 7 guidance", "Ablation: amortized-free "
     "drain rate (objects freed per operation)", "ablation_af_rate",
     [](TrialConfig& c) { at_max(c); c.reclaimer = "debra_af"; },
     {"drain/op"}, [] {
       const auto drain = [](TrialConfig& c, std::size_t k) {
         c.smr.af_drain_per_op = k;
       };
       return each<std::size_t>({1, 2, 4, 8, 32, 128}, drain);
     }, {{"Mops/s", kMops}, {"%free", kPctFree}, {"%flush", kPctFlush},
         {"end_backlog", kPending}},
     "k=1 suffices for the ABtree; large k re-batches frees and loses AF"},
    {"ablation_deferred", "footnote 3 (future work)", "Ablation: "
     "allocator-side deferred flush vs reclaimer-side AF",
     "ablation_deferred", at_max, {"configuration"}, [] {
       std::vector<Cell> cells;
       for (const std::string r : {"debra", "debra_af"}) {
         for (const bool d : {false, true}) {
           cells.push_back({{r + (d ? " + deferred JE" : " + stock JE")},
                            [=](TrialConfig& c) {
                              c.reclaimer = r;
                              c.alloc.deferred_flush = d;
                            }});
         }
       }
       return cells;
     }, {{"Mops/s", kMops}, {"%free", kPctFree}, {"%flush", kPctFlush},
         {"%lock", kPctLock}},
     "'debra + deferred JE' approaches 'debra_af + stock JE'"},
    {"ablation_pooling", "section 3.3 + footnote 4", "Ablation: batch vs "
     "amortized vs pooling free (extension)", "ablation_pooling", at_max,
     {"policy"}, [] {
       return reclaimers({"debra", "debra_af", "debra_pool", "token",
                          "token_af", "token_pool"});
     }, {{"Mops/s", kMops}, {"%free", kPctFree}, {"%lock", kPctLock},
         {"allocator_allocs", kAllocs}, {"pooled_allocs", kPooled}},
     "pooling serves most node allocations from the executor queue"},
    {"ablation_remote_penalty", "DESIGN.md substitution", "Ablation: "
     "remote-free penalty sensitivity (batch vs AF)",
     "ablation_remote_penalty", debra_at_max, {"penalty_ns"}, [] {
       const auto penalty = [](TrialConfig& c, std::uint64_t ns) {
         c.alloc.remote_free_penalty_ns = ns;
         c.alloc.remote_penalty_explicit = true;  // calibration must not win
       };
       return each<std::uint64_t>({0, 50, 150, 500, 2000}, penalty);
     }, kMopsOnly, "the AF advantage grows with the remote-free cost",
     "batch"},
    {"ablation_tcache", "section 3.2 mechanism", "Ablation: tcache capacity "
     "and flush fraction (JE model, batch free)", "ablation_tcache",
     debra_at_max, {"tcache_cap", "flush_frac"}, [] {
       std::vector<Cell> cells;
       for (const std::size_t cap : {32, 128, 512}) {
         for (const double frac : {0.25, 0.75}) {
           cells.push_back({{std::to_string(cap), harness::fixed(frac, 2)},
                            [=](TrialConfig& c) {
                              c.alloc.tcache_cap = cap;
                              c.alloc.flush_fraction = frac;
                            }});
         }
       }
       return cells;
     }, {{"Mops/s", kMops}, {"%flush", kPctFlush}, {"%lock", kPctLock},
         {"flushes", kFlushes}},
     "larger caches absorb bigger batches before a flush"},
    {"ablation_workload_mix", "workload extension", "Ablation: update "
     "fraction (reads displace allocator traffic)", "ablation_workload_mix",
     debra_at_max, {"updates%"}, [] {
       return each<int>({100, 50, 20, 5}, [](TrialConfig& c, int pct) {
         c.insert_frac = c.erase_frac = pct / 200.0;
       });
     }, kMopsOnly, "the batch-vs-AF gap shrinks as reads displace updates",
     "batch"},
};

/// Runs `cfg` for its trials: the mean of every metric, min/max Mops/s.
Values run_cell(const Spec& s, const TrialConfig& cfg, const Cell& cell) {
  Values mean{};
  double lo = 0, hi = 0;
  const int trials = std::max(cfg.trials, 1);
  for (int i = 0; i < trials; ++i) {
    TrialConfig one = cfg;
    one.seed = cfg.seed + static_cast<std::uint64_t>(i);
    harness::Trial trial(one);
    const harness::TrialResult r = trial.run();
    const std::string out = harness::out_dir();
    if (i == 0 && s.timeline_csv) {
      const EventKind kind =
          trial.schedule().mode() == smr::FreeMode::kAmortized
              ? EventKind::kFreeCall : s.trace;
      std::printf("\n--- %s: '#' = %s, '|' = epoch advance ---\n%s",
                  cell.tag.c_str(), event_kind_name(kind),
                  trial.timeline().render_ascii(kind, 16, 100).c_str());
      trial.timeline().dump_csv(out + s.timeline_csv + cell.tag + ".csv");
    }
    if (i == 0 && s.garbage_csv) {
      std::printf("\n--- %s: garbage per epoch ---\n%s", cell.tag.c_str(),
                  trial.garbage().render_ascii(100, 8).c_str());
      trial.garbage().dump_csv(out + s.garbage_csv + cell.tag + ".csv");
    }
    const Values v = measure(trial, r);
    for (int m = 0; m < kNumMetrics; ++m) mean[m] += v[m] / trials;
    lo = i == 0 ? r.mops : std::min(lo, r.mops);
    hi = std::max(hi, r.mops);
  }
  mean[kMinMops] = lo;
  mean[kMaxMops] = hi;
  return mean;
}

/// Runs one spec: banner, cells, table, CSV, note. False if its gate fails.
bool run(const Spec& s) {
  TrialConfig base = default_config();
  if (s.base) s.base(base);
  base.enable_timeline |= s.timeline_csv != nullptr;
  base.enable_garbage |= s.garbage_csv != nullptr;
  harness::print_banner(
      s.title, std::string("PPoPP'24 \"Are Your Epochs Too Epic?\" ") + s.ref,
      describe(base));

  std::vector<std::string> headers = s.label_headers;
  const std::vector<std::string> sides =
      s.pair ? std::vector<std::string>{std::string(s.pair) + " ", "AF "}
             : std::vector<std::string>{""};
  for (const std::string& side : sides) {
    for (const Column& c : s.columns) headers.push_back(side + c.header);
  }
  if (s.pair) headers.push_back(std::string("AF/") + s.pair);
  harness::Table table(headers);

  std::vector<Values> rows;  // a paired cell keeps its AF side
  int improved = 0;
  for (const Cell& cell : s.cells()) {
    TrialConfig cfg = base;
    cell.tweak(cfg);
    std::vector<Values> runs = {run_cell(s, cfg, cell)};
    if (s.pair) {
      cfg.reclaimer += "_af";
      runs.push_back(run_cell(s, cfg, cell));
    }
    std::vector<std::string> row = cell.labels;
    for (const Values& v : runs) {
      for (const Column& c : s.columns) {
        row.push_back(format(c.metric, v[c.metric]));
      }
    }
    if (s.pair) {
      const Metric m = s.columns[0].metric;
      const double ratio = runs[0][m] > 0 ? runs[1][m] / runs[0][m] : 0;
      improved += ratio > 1.0;
      row.push_back(harness::fixed(ratio, 2) + "x");
    }
    table.add_row(std::move(row));
    rows.push_back(runs.back());
  }

  std::printf("\n");
  table.print();
  if (s.csv) {
    const std::string path = harness::out_dir() + s.csv + ".csv";
    table.write_csv(path);
    std::printf("CSV: %s\n", path.c_str());
  }
  if (s.pair) {
    std::printf("AF beat %s in %d of %zu cells\n", s.pair, improved,
                table.rows());
  }
  std::printf("paper shape: %s\n\n", s.note);
  return !s.gate || s.gate(rows);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Spec*> chosen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const Spec& s : kSpecs) {
        std::printf("%-24s %-25s %s\n", s.id, s.ref, s.title);
      }
      return 0;
    }
    const auto it = std::find_if(kSpecs.begin(), kSpecs.end(),
                                 [&](const Spec& s) { return arg == s.id; });
    if (it == kSpecs.end()) {
      std::fprintf(stderr, "bench_paper: unknown figure id '%s'; valid ids:",
                   arg.c_str());
      for (const Spec& s : kSpecs) std::fprintf(stderr, " %s", s.id);
      std::fprintf(stderr, "\n");
      return 2;
    }
    chosen.push_back(&*it);
  }
  if (chosen.empty()) {
    for (const Spec& s : kSpecs) chosen.push_back(&s);
  }
  bool ok = true;
  for (const Spec* s : chosen) ok = run(*s) && ok;
  return ok ? 0 : 1;
}
