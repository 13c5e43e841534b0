// Figure 3 (a,b) + supplementary Figure 17: timelines of *individual free
// calls* for batch free vs amortized free at the highest thread count.
// Paper shape: batch free shows many high-latency free calls (tcache
// flushes); amortized free shows almost none.
#include "bench_common.hpp"

using namespace emr;
using namespace emr::bench;

namespace {

struct FreeCallStats {
  std::uint64_t calls = 0;
  std::uint64_t long_calls = 0;  // > 0.1 ms, Fig 9's visibility threshold
  std::uint64_t max_ns = 0;
};

FreeCallStats collect(harness::Trial& trial, int nthreads) {
  FreeCallStats s;
  for (int t = 0; t < nthreads; ++t) {
    for (std::size_t i = 0; i < trial.timeline().event_count(t); ++i) {
      const TimelineEvent& e = trial.timeline().events(t)[i];
      if (e.kind != EventKind::kFreeCall) continue;
      ++s.calls;
      const std::uint64_t d = e.t_end - e.t_start;
      if (d > 100'000) ++s.long_calls;
      s.max_ns = std::max(s.max_ns, d);
    }
  }
  return s;
}

}  // namespace

int main() {
  harness::TrialConfig base = default_config();
  base.nthreads = max_threads();
  base.enable_timeline = true;
  base.timeline_min_duration_ns = 1'000;  // record free calls > 1us
  harness::print_banner(
      "Figure 3 / Figure 17: individual free calls, batch vs amortized",
      "PPoPP'24 \"Are Your Epochs Too Epic?\" Fig. 3, Fig. 17",
      describe(base));

  for (const char* reclaimer : {"debra", "debra_af"}) {
    harness::TrialConfig cfg = base;
    cfg.reclaimer = reclaimer;
    harness::Trial trial(cfg);
    const harness::TrialResult r = trial.run();
    const FreeCallStats s = collect(trial, cfg.nthreads);

    std::printf("\n--- %s (%s free) ---\n", reclaimer,
                trial.schedule().mode() == smr::FreeMode::kAmortized
                    ? "amortized"
                    : "batch");
    std::fputs(
        trial.timeline().render_ascii(EventKind::kFreeCall, 20, 100).c_str(),
        stdout);
    std::printf("throughput %.2f Mops/s; free calls >1us: %llu; "
                ">0.1ms: %llu; max %.2f ms\n",
                r.mops, static_cast<unsigned long long>(s.calls),
                static_cast<unsigned long long>(s.long_calls),
                static_cast<double>(s.max_ns) / 1e6);
    const std::string csv = harness::out_dir() + "fig03_freecalls_" +
                            reclaimer + ".csv";
    trial.timeline().dump_csv(csv);
    std::printf("CSV: %s\n", csv.c_str());
  }
  std::printf("\npaper shape: the batch-free timeline shows many more "
              "high-latency free calls than the amortized one.\n");
  return 0;
}
