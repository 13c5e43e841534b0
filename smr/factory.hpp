// Reclaimer factory. Names:
//
//   none | qsbr | rcu | debra | hp | he | ibr | wfe | nbr | nbrplus
//   token_naive | token_passfirst | token
//
// Every bundle carries one FreeExecutor; the suffix picks its FreeMode
// and schedule. A plain name frees each fresh bag whole (FreeMode::
// kBatch, the paper's ORIG). Any base name takes an `_af` suffix
// (kAmortized: asynchronous per-op free, the paper's fix), a `_pool`
// suffix (kPool: object pooling), an `_adaptive` suffix (kAmortized
// under the population-aware AdaptiveFreeSchedule controller), or a
// `_latency` suffix (kAmortized under the tail-steered
// LatencyTargetFreeSchedule — see docs/FREE_SCHEDULES.md and
// docs/LATENCY.md). `token_af` /
// `token_pool` / `token_adaptive` / `token_latency` run the
// pass-first token policy (token_passfirst's) over that executor mode
// and schedule. An outermost `_hf` suffix arms home-flush routing. Every
// bundle carries the FreeSchedule policy that answers its batching
// questions. The name is the only way to choose the mode, the schedule
// and the routing.
#pragma once

#include <string>
#include <vector>

#include "smr/reclaimer.hpp"

namespace emr::smr {

/// Builds the named reclaimer with its free executor. Throws
/// std::invalid_argument for an unknown name.
ReclaimerBundle make_reclaimer(const std::string& name, const SmrContext& ctx,
                               const SmrConfig& cfg);

/// The ten base algorithms of the paper's Experiment 2 (Fig. 11b): each
/// is benchmarked ORIG vs `_af`.
const std::vector<std::string>& experiment2_reclaimers();

/// Every base name make_reclaimer accepts (without suffixes).
const std::vector<std::string>& reclaimer_names();

/// Every constructible name: all bases crossed with the suffix grammar
/// (the two fixed token variants take no
/// `_af`/`_pool`/`_adaptive`/`_latency`).
/// The single source of truth for sweeps that claim to cover "all
/// names" — the smoke check and the parameterized scheme tests both
/// iterate this.
const std::vector<std::string>& all_factory_names();

/// Strips a `_af`/`_pool`/`_adaptive`/`_latency` suffix according to
/// the same grammar make_reclaimer uses ("token_passfirst" stays
/// whole).
std::string reclaimer_base_name(const std::string& name);

}  // namespace emr::smr
