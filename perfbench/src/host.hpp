// Provenance printed with every result: the host it ran on and the
// effective configuration, so a number is never separated from what
// produced it.
#pragma once

#include <string>

#include "driver.hpp"

namespace perfbench {

/// CPU model, CPU count, cache sizes, kernel and benchmark clocks,
/// compiler, build type, and the commit and source hash the runner
/// passed in ("unknown" when not given).
std::string host_json(const std::string& commit,
                      const std::string& source_hash);

/// The workload's library configuration plus the run's options, rounds
/// per window and pin layout.
std::string config_json(const WorkloadSpec& spec, const RunOptions& opts,
                        bool trace, int rounds);

}  // namespace perfbench
