// google-benchmark micro suite for the ds/ layer: guarded lookup and
// update costs per structure, per reclaimer family.
//
// `bench_micro_ds --smoke` runs a correctness smoke instead: every
// ds name x every base reclaimer name is constructed, driven through a
// randomized op stream cross-checked against std::set, torn down, and
// fails the run if results diverge or any node stays unaccounted (the
// allocator must see exactly as many frees as allocations).
// ci/check.sh runs this after bench_micro_smr --smoke.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "alloc/factory.hpp"
#include "core/rng.hpp"
#include "ds/set.hpp"
#include "smr/factory.hpp"

namespace {

using namespace emr;

struct DsWorld {
  std::unique_ptr<alloc::Allocator> allocator;
  smr::SmrContext ctx;
  smr::SmrConfig cfg;
  smr::ReclaimerBundle bundle;
  std::unique_ptr<ds::ConcurrentSet> set;
  std::vector<smr::ThreadHandle> handles;

  DsWorld(const std::string& ds_name, const std::string& reclaimer,
          std::uint64_t keyrange) {
    cfg.num_threads = 2;
    cfg.batch_size = 64;
    cfg.epoch_freq = 16;
    alloc::AllocConfig acfg;
    acfg.max_threads = static_cast<int>(cfg.slot_capacity());
    allocator = alloc::make_allocator("system", acfg);
    ctx.allocator = allocator.get();
    bundle = smr::make_reclaimer(reclaimer, ctx, cfg);
    ds::SetConfig dcfg;
    dcfg.keyrange = keyrange;
    dcfg.num_threads = 2;
    set = ds::make_set(ds_name, dcfg, bundle.reclaimer.get());
    for (int t = 0; t < cfg.num_threads; ++t) {
      handles.push_back(bundle.reclaimer->register_thread());
    }
  }

  /// Release before the set dies so the teardown slot is free.
  void teardown() {
    handles.clear();
    set.reset();
    bundle.reclaimer->flush_all();
  }

  smr::ThreadHandle& h(int t) { return handles[static_cast<std::size_t>(t)]; }
};

void BM_GuardedContains(benchmark::State& state, const char* ds_name,
                        const char* reclaimer) {
  DsWorld w(ds_name, reclaimer, 4096);
  // Every even key in shuffled order, as the harness prefill does: a
  // sorted stream would build the unbalanced occtree as a 2048-deep list.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 4096; k += 2) keys.push_back(k);
  Rng rng(1);
  rng.shuffle(keys);
  for (std::uint64_t k : keys) w.set->insert(w.h(0), k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.set->contains(w.h(0), rng.next_range(4096)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_GuardedContains, abtree_debra, "abtree", "debra");
BENCHMARK_CAPTURE(BM_GuardedContains, abtree_hp, "abtree", "hp");
BENCHMARK_CAPTURE(BM_GuardedContains, occtree_debra, "occtree", "debra");
BENCHMARK_CAPTURE(BM_GuardedContains, occtree_hp, "occtree", "hp");
BENCHMARK_CAPTURE(BM_GuardedContains, dgt_debra, "dgt", "debra");
BENCHMARK_CAPTURE(BM_GuardedContains, dgt_hp, "dgt", "hp");
BENCHMARK_CAPTURE(BM_GuardedContains, sharded_debra, "shardedset", "debra");

void BM_UpdateChurn(benchmark::State& state, const char* ds_name,
                    const char* reclaimer) {
  DsWorld w(ds_name, reclaimer, 4096);
  Rng rng(2);
  for (auto _ : state) {
    const std::uint64_t key = rng.next_range(4096);
    w.set->insert(w.h(0), key);
    w.set->erase(w.h(0), key);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK_CAPTURE(BM_UpdateChurn, abtree_debra, "abtree", "debra");
BENCHMARK_CAPTURE(BM_UpdateChurn, abtree_ibr, "abtree", "ibr");
BENCHMARK_CAPTURE(BM_UpdateChurn, occtree_debra, "occtree", "debra");
BENCHMARK_CAPTURE(BM_UpdateChurn, dgt_debra, "dgt", "debra");
BENCHMARK_CAPTURE(BM_UpdateChurn, dgt_hp, "dgt", "hp");

// --------------------------------------------------------------- smoke

/// Drives one ds x reclaimer pair through 2000 randomized ops on two
/// interleaved lanes, model-checked against std::set, then verifies the
/// teardown accounting closes. Returns false on any violation.
bool smoke_one(const std::string& ds_name, const std::string& reclaimer) {
  bool model_ok = true;
  std::uint64_t n_alloc = 0;
  std::uint64_t n_free = 0;
  {
    DsWorld w(ds_name, reclaimer, /*keyrange=*/128);
    std::set<std::uint64_t> model;
    Rng rng(11);
    for (int i = 0; i < 2000 && model_ok; ++i) {
      smr::ThreadHandle& h = w.h(i & 1);
      const std::uint64_t key = rng.next_range(128);
      switch (rng.next_range(3)) {
        case 0:
          model_ok = w.set->insert(h, key) == model.insert(key).second;
          break;
        case 1:
          model_ok = w.set->erase(h, key) == (model.erase(key) == 1);
          break;
        default:
          model_ok = w.set->contains(h, key) == (model.count(key) == 1);
          break;
      }
    }
    w.teardown();
    const alloc::AllocStats st = w.allocator->stats();
    n_alloc = st.totals.n_alloc;
    n_free = st.totals.n_free;
  }
  const bool accounted = n_alloc == n_free;
  std::printf("%-11s x %-17s %-7s allocs=%-5llu frees=%-5llu %s\n",
              ds_name.c_str(), reclaimer.c_str(),
              model_ok ? "ok" : "MODEL-DIVERGED",
              static_cast<unsigned long long>(n_alloc),
              static_cast<unsigned long long>(n_free),
              accounted ? "" : "LEAK");
  return model_ok && accounted;
}

int run_smoke() {
  bool ok = true;
  for (const std::string& ds_name : emr::ds::set_names()) {
    for (const std::string& reclaimer : smr::reclaimer_names()) {
      ok &= smoke_one(ds_name, reclaimer);
    }
  }
  std::printf("bench_micro_ds --smoke: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
