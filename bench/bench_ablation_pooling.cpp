// Extension ablation: batch free vs amortized free vs object pooling (the
// optimization §3.3 declines and footnote 4 credits for VBR's results).
// Expected: pooling ≥ AF ≥ batch — pooling avoids most allocator
// interaction altogether, while AF makes that interaction fast.
#include "bench_common.hpp"

using namespace emr;
using namespace emr::bench;

int main() {
  harness::TrialConfig base = default_config();
  base.nthreads = max_threads();
  harness::print_banner(
      "Ablation: batch vs amortized vs pooling free (extension)",
      "PPoPP'24 \"Are Your Epochs Too Epic?\" section 3.3 + footnote 4",
      describe(base));

  harness::Table table({"policy", "Mops/s", "%free", "%lock",
                        "allocator_allocs", "pooled_allocs"});
  for (const char* reclaimer : {"debra", "debra_af", "debra_pool",
                                "token", "token_af", "token_pool"}) {
    harness::TrialConfig cfg = base;
    cfg.reclaimer = reclaimer;
    harness::Trial trial(cfg);
    const harness::TrialResult r = trial.run();
    const std::uint64_t pooled =
        trial.reclaimer().executor().total_pooled_allocs();
    table.add_row({reclaimer, harness::fixed(r.mops, 2),
                   harness::fixed(r.pct_free, 1),
                   harness::fixed(r.pct_lock, 1),
                   harness::human_count(static_cast<double>(
                       r.alloc_diff.totals.n_alloc)),
                   harness::human_count(static_cast<double>(pooled))});
  }
  table.print();
  table.write_csv(harness::out_dir() + "ablation_pooling.csv");
  std::printf("\nexpected: pooling serves most node allocations from the "
              "executor queue (paper footnote 4: why VBR beats allocator-"
              "bound EBRs).\n");
  return 0;
}
