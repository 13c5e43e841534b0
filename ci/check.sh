#!/usr/bin/env bash
# CI smoke: configure + build + ctest + every paper figure end-to-end at
# laptop scale. Mirrors the tier-1 verify line in ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"

# Reclaimer smoke: every factory name (all bases x batch/_af/_pool)
# constructs, accounts exactly, and no pointer-protecting name falls
# back to EBR aliasing (the binary exits non-zero on either violation).
"$BUILD_DIR/bench_micro_smr" --smoke

# Data-structure smoke: every ds x base-reclaimer pair model-checks
# against std::set and accounts every node at teardown.
"$BUILD_DIR/bench_micro_ds" --smoke

# Allocator smoke: every factory name keeps exact books (alloc/free
# counts, remote attribution, the >4096 B large-allocation bypass);
# unavailable real backends are reported as skips, never failures.
"$BUILD_DIR/bench_micro_alloc" --smoke

# Determinism gate: with EMR_PIN=off and model allocators under a fixed
# seed, the counter-only smoke output must be bit-identical run to run
# (and hence identical to the pre-hardware-realism harness — neither
# pinning defaults, calibration on a box where it can't measure, nor
# the TSC clock may leak into the modelled counters).
EMR_PIN=off EMR_SEED=42 "$BUILD_DIR/bench_micro_alloc" --smoke > "$BUILD_DIR/det_a.txt"
EMR_PIN=off EMR_SEED=42 "$BUILD_DIR/bench_micro_alloc" --smoke > "$BUILD_DIR/det_b.txt"
if ! diff -u "$BUILD_DIR/det_a.txt" "$BUILD_DIR/det_b.txt"; then
  echo "ci/check.sh: bench_micro_alloc --smoke is not deterministic" \
       "under EMR_PIN=off with model allocators" >&2
  exit 1
fi

# Thread-churn smoke: every Experiment-2 reclaimer (batched and _af)
# survives workers deregistering/registering mid-trial — progress under
# churn, pending == 0 and an empty executor backlog after teardown.
"$BUILD_DIR/bench_ablation_churn" --smoke

# Free-schedule smoke: every Experiment-2 reclaimer in batch, _af and
# _adaptive form runs under churn and accounts exactly; aggregated over
# the set, the adaptive schedule's peak garbage stays within 2x of _af
# while the fixed batch schedule remains the worst case.
"$BUILD_DIR/bench_ablation_adaptive" --smoke

# Tail-latency smoke: the figure behind ROADMAP item 2 — fixed-batch
# p99.9 blows up by multiples while mops stays flat, and the _latency
# schedule pulls the tail back inside its target band. Writes the
# committed snapshot at the repo root (test_report parses it strictly).
"$BUILD_DIR/bench_fig_latency" --smoke --json BENCH_fig_latency.json
test -s BENCH_fig_latency.json

# Service-mode smoke (ROADMAP item 3, docs/SERVICE_MODE.md): the offered
# schedule is deterministic per seed, open-loop queueing p99.9 explodes
# past saturation while the served rate stays in the capacity band, and
# on the hot/cold-tenant churn scenario the aggressive daemon clears the
# idle-tail garbage that daemon-off strands. Writes the committed
# snapshot at the repo root (test_report parses it strictly).
"$BUILD_DIR/bench_fig_service" --smoke --json BENCH_fig_service.json
test -s BENCH_fig_service.json

# Queue-pipeline smoke (ROADMAP items 3+4): the MPMC queue under the
# role-split workload — the asymmetric layout must charge a higher
# remote-free share than the symmetric one, and its fixed-batch dequeue
# p99.9 must blow past 2x the _af tail at comparable mops, over two
# seeds. Writes the committed snapshot at the repo root (test_report
# parses it strictly).
"$BUILD_DIR/bench_fig_queue" --smoke --json BENCH_fig_queue.json
test -s BENCH_fig_queue.json

# Home-flush routing smoke (docs/FREE_SCHEDULES.md): on the asymmetric
# pipeline the _hf forms must reroute foreign frees home — remote share
# collapses from >= 0.9 (plain _af) to <= 0.25, the dequeue p99.9
# improves without a throughput loss over two seeds, and the stash
# ledger balances exactly (stashed == flushed, zero backlog at
# teardown).
# Writes the committed snapshot at the repo root (test_report parses it
# strictly).
"$BUILD_DIR/bench_fig_homeflush" --smoke --json BENCH_fig_homeflush.json
test -s BENCH_fig_homeflush.json

# Policy-layer invariant: the executor and scheme TUs ask the
# FreeSchedule for every batching quantum; only smr/free_schedule.cpp
# may read the raw SmrConfig batching knobs. The scan covers every smr/
# source but the policy layer, so a new or deleted file can neither
# escape it nor blind it (grep on a missing file exits 2, which `if`
# would read as clean).
SMR_POLICY_CLIENTS=()
for f in smr/*.cpp smr/*.hpp; do
  case "$f" in
    smr/free_schedule.cpp) ;;
    *) SMR_POLICY_CLIENTS+=("$f") ;;
  esac
done
if grep -nE 'cfg_?\.\s*(batch_size|af_drain_per_op|latency_target_us|flush_batch)' \
    "${SMR_POLICY_CLIENTS[@]}"; then
  echo "ci/check.sh: executor/scheme TU reads a raw batching knob —" \
       "route it through FreeSchedule (smr/free_schedule.cpp)" >&2
  exit 1
fi

# Same boundary for the latency feedback loop: schemes and executors
# never touch the recorder or its percentile math — the harness records,
# the FreeSchedule consumes on_tail_latency.
if grep -nE 'LatencyRecorder|LatencyHistogram|latency_percentile' \
    "${SMR_POLICY_CLIENTS[@]}"; then
  echo "ci/check.sh: scheme TU/executor reads latency counters —" \
       "tail feedback flows only through FreeSchedule::on_tail_latency" >&2
  exit 1
fi

# End-to-end: every paper figure (bench_paper with no id) must exit 0,
# tab02's flush-per-free gate included, and leave a non-empty CSV per
# spec: its table, or for fig02-fig04, which print their table only, the
# first timeline/census dump.
export EMR_MS="${EMR_MS:-30}" EMR_THREADS="${EMR_THREADS:-1 2}" \
       EMR_TRIALS=1 EMR_KEYRANGE="${EMR_KEYRANGE:-4096}" \
       EMR_OUT="$BUILD_DIR/emr_out"
rm -rf "$EMR_OUT"  # the ctest smoke writes here too; check this run's CSVs
"$BUILD_DIR/bench_paper"
for stem in fig01_scaling 'fig02_timeline_*' fig03_freecalls_debra \
    fig04_garbage_debra fig05_token_naive fig06to09_token \
    fig10_token_scaling fig11a_exp1 fig11b_exp2 fig12_orig_vs_af \
    fig13_dgt_orig_vs_af fig14_dgt_exp1 fig18to29_summary tab01_overhead \
    tab02_af tab04_token ablation_af_rate ablation_deferred \
    ablation_pooling ablation_remote_penalty ablation_tcache \
    ablation_workload_mix; do
  set -- "$BUILD_DIR"/emr_out/$stem.csv
  if ! test -s "$1"; then
    echo "ci/check.sh: bench_paper left no CSV for $stem" >&2
    exit 1
  fi
done

# Benchmark output checks: perfbench's own tests guard the output check
# of every workload BENCHMARK.json declares. They build from perfbench/
# (Release, as perfbench/run.py builds it) into their own tree; the
# target exists only when CMake found GTest (grep reads the whole list:
# -q would close the pipe early and trip pipefail).
PERF_DIR="${PERF_DIR:-build-perfbench}"
cmake -S perfbench -B "$PERF_DIR" -DCMAKE_BUILD_TYPE=Release
if cmake --build "$PERF_DIR" --target help | grep -w perfbench_tests \
    > /dev/null; then
  cmake --build "$PERF_DIR" -j"$JOBS" --target perfbench_tests
  "$PERF_DIR/perfbench_tests"
else
  echo "ci/check.sh: GTest not found, skipping perfbench_tests"
fi

# TSAN: race-check the lock-free guarded traversals on every run. The
# sanitized tree skips the bench binaries to keep the double build cheap;
# the filter runs the multi-threaded reader/writer stress over every
# guard protocol (debra/hp/ibr/nbr/debra_pool/token/debra_af x
# abtree/occtree/dgt).
TSAN_DIR="${TSAN_DIR:-build-tsan}"
cmake -B "$TSAN_DIR" -S . -DEMR_SANITIZE=thread -DEMR_BUILD_BENCHES=OFF
cmake --build "$TSAN_DIR" -j"$JOBS"
if [ -x "$TSAN_DIR/test_ds" ]; then
  "$TSAN_DIR/test_ds" --gtest_filter='*Concurrent*'
  # Queue producer/consumer churn: the MS queue's guarded per-hop
  # traversal (and the locked baseline) race retirement across every
  # guard protocol, with FIFO-per-producer and no-loss checks on top.
  "$TSAN_DIR/test_queue" --gtest_filter='*Concurrent*'
  # ThreadHandle churn stress: register/deregister racing guarded
  # traversals over every reclaimer family (including the _adaptive
  # executors, whose lane-stats counters feed the controller), and the
  # EBR epoch-on-demand cases: retiring lanes raising the shared need
  # beside lookup-only lanes.
  "$TSAN_DIR/test_handle_lifecycle" \
      --gtest_filter='*ChurnStress*:*EpochDemand*'
  # Adaptive-executor lane-stats counters: a stats_with_lanes reader
  # races registration churn and retire-heavy lanes.
  "$TSAN_DIR/test_free_schedule" --gtest_filter='*Concurrent*'
  # Reclaimer-daemon stress: daemon start/stop cycles racing
  # ThreadHandle register/deregister churn and retires across every
  # reclaimer family, with exact ledger checks after the dust settles.
  "$TSAN_DIR/test_service" --gtest_filter='*DaemonChurn*'
  # Home-flush MPSC stash: many producer lanes push one owner's stash
  # while the owner concurrently flushes — no loss, no double free,
  # exact stashed == flushed ledger after teardown.
  "$TSAN_DIR/test_homeflush" --gtest_filter='*Concurrent*'
else
  # Without GTest the unit suites (and this race check) don't build;
  # mirror the main build's degrade-with-a-warning behaviour.
  echo "ci/check.sh: GTest not found, skipping the TSAN ds race check"
fi

# ASAN+UBSAN: the same concurrent stress filters as the TSAN leg, plus
# the whole smr, scheme, free-schedule and home-flush suites, in a tree
# that aborts on the first use-after-free, leak, overflow or undefined
# behaviour report.
ASAN_DIR="${ASAN_DIR:-build-asan}"
cmake -B "$ASAN_DIR" -S . -DEMR_SANITIZE=address,undefined \
      -DEMR_BUILD_BENCHES=OFF
cmake --build "$ASAN_DIR" -j"$JOBS"
if [ -x "$ASAN_DIR/test_ds" ]; then
  export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
  "$ASAN_DIR/test_ds" --gtest_filter='*Concurrent*'
  "$ASAN_DIR/test_queue" --gtest_filter='*Concurrent*'
  "$ASAN_DIR/test_handle_lifecycle" \
      --gtest_filter='*ChurnStress*:*EpochDemand*'
  "$ASAN_DIR/test_service" --gtest_filter='*DaemonChurn*'
  "$ASAN_DIR/test_smr_schemes"
  "$ASAN_DIR/test_smr"
  "$ASAN_DIR/test_free_schedule"
  "$ASAN_DIR/test_homeflush"
  unset UBSAN_OPTIONS
else
  echo "ci/check.sh: GTest not found, skipping the ASAN+UBSAN leg"
fi

# Real-allocator leg: an EMR_REAL_ALLOC=ON tree routes the bare
# je/tc/mi names to the actual libraries wherever find_library located
# them. The smokes gate accounting (and the Table 3 pipeline) against
# every real backend that linked; when none did — the common offline CI
# case — the binaries print per-name skips and the tab03 smoke exits
# non-zero, which this leg treats as a graceful skip rather than a
# failure (bench_micro_alloc still gates the 4 model names).
REAL_DIR="${REAL_DIR:-build-real}"
cmake -B "$REAL_DIR" -S . -DEMR_REAL_ALLOC=ON -DEMR_BUILD_TESTS=OFF
cmake --build "$REAL_DIR" -j"$JOBS" --target bench_micro_alloc bench_tab03_allocators
"$REAL_DIR/bench_micro_alloc" --smoke
TAB03_OUT="$("$REAL_DIR/bench_tab03_allocators" --smoke)" && TAB03_RC=0 || TAB03_RC=$?
echo "$TAB03_OUT"
if [ "$TAB03_RC" -ne 0 ]; then
  if echo "$TAB03_OUT" | grep -q "no backend available"; then
    echo "ci/check.sh: no real allocator library on this box — skipped"
  else
    echo "ci/check.sh: real-allocator smoke FAILED" >&2
    exit 1
  fi
fi

echo "ci/check.sh: OK"
