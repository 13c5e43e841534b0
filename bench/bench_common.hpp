// Shared configuration for the bench binaries (bench_paper runs every
// paper figure and table; README.md lists the rest). Each runs at laptop
// scale by default and scales to the paper's setup only through the
// EMR_* environment variables catalogued in EXPERIMENTS.md.
//
// The argv-driven benches accept `--json <path>` (or EMR_JSON): the
// result table is mirrored as a JSON array via harness::emit_json, the
// format of the committed BENCH_*.json snapshots that ci/check.sh
// writes. json_path_from_args and maybe_write_json are the two lines a
// bench needs to opt in.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "harness/report.hpp"
#include "harness/workload.hpp"

namespace emr::bench {

/// Laptop-scale defaults shared by all binaries; env overrides win.
inline harness::TrialConfig default_config() {
  harness::TrialConfig cfg;
  cfg.ds = "abtree";
  cfg.reclaimer = "debra";
  cfg.allocator = "je";
  cfg.nthreads = 4;
  cfg.keyrange = 1 << 14;
  cfg.measure_ms = 200;
  cfg.trials = 1;
  cfg.smr.batch_size = 2048;
  // Model the four-socket machine's remote-free cost so the RBF effect is
  // visible at laptop scale (DESIGN.md, substitution table).
  cfg.alloc.remote_free_penalty_ns = 150;

  // Apply env overrides on top. apply_env_overrides only touches fields
  // whose EMR_* variable is actually present, so the laptop defaults
  // above win whenever the environment is silent.
  harness::apply_env_overrides(cfg);
  return cfg;
}

/// Default thread sweep: oversubscribes the machine (the analogue of the
/// paper's walk from one socket to four).
inline std::vector<int> default_thread_sweep() {
  return harness::thread_sweep_from_env({1, 2, 4, 8, 16});
}

/// Largest thread count of the sweep (the paper's "192 threads" column).
inline int max_threads() {
  const auto sweep = default_thread_sweep();
  int m = 1;
  for (int t : sweep) m = std::max(m, t);
  return m;
}

/// `--json <path>` from argv, falling back to EMR_JSON; empty when
/// neither is present.
inline std::string json_path_from_args(int argc, char** argv) {
  std::string path = env_str("EMR_JSON", "");
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") path = argv[i + 1];
  }
  return path;
}

/// Mirrors `table` to `path` as JSON when a path was given.
inline void maybe_write_json(const harness::Table& table,
                             const std::string& path) {
  if (path.empty()) return;
  if (table.write_json(path)) {
    std::printf("JSON: %s\n", path.c_str());
  } else {
    std::printf("bench: failed to write JSON to %s\n", path.c_str());
  }
}

inline std::string describe(const harness::TrialConfig& cfg) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ds=%s alloc=%s keyrange=%llu ms=%d trials=%d batch=%zu "
                "penalty=%lluns",
                cfg.ds.c_str(), cfg.allocator.c_str(),
                static_cast<unsigned long long>(cfg.keyrange),
                cfg.measure_ms, cfg.trials, cfg.smr.batch_size,
                static_cast<unsigned long long>(
                    cfg.alloc.remote_free_penalty_ns));
  return buf;
}

}  // namespace emr::bench
