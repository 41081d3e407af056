#!/usr/bin/env bash
# CI matrix driver. One mode per invocation, or everything:
#
#   scripts/check.sh            # plain: RelWithDebInfo build + ctest
#   scripts/check.sh plain      # same, spelled out
#   scripts/check.sh lint       # build polarlint, prove it on the fixture
#                               # corpus, lint the tree + audit tsan.supp;
#                               # prints per-pass timing and the per-rule
#                               # findings table, validates the JSON
#                               # findings sidecar
#   scripts/check.sh format     # clang-format --dry-run (SKIP if missing)
#   scripts/check.sh tidy       # clang-tidy build (SKIP if missing)
#   scripts/check.sh tsan       # ThreadSanitizer build + tests
#   scripts/check.sh asan       # AddressSanitizer build + tests
#   scripts/check.sh ubsan      # UBSan build + tests (no-recover: hard fail)
#   scripts/check.sh wthread    # clang -Werror=thread-safety build + tests
#                               # (SKIP if clang is missing)
#   scripts/check.sh smoke      # micro_commit commit-path smoke run with a
#                               # short measure window; fails if the bench
#                               # errors or the metrics sidecar is missing;
#                               # also runs the bank_transfer example whose
#                               # exit code checks balance conservation,
#                               # repeats the TsoClient tests 40 times, and
#                               # the torn seqlocked-write, interleaved
#                               # CTS-backfill and out-of-order log-landing
#                               # tests 20 times each; each repeat step runs
#                               # under a 300 s timeout, so a starved waiter
#                               # fails the mode instead of stalling it
#   scripts/check.sh chaos      # seeded fault-injection soak: benches under
#                               # DefaultChaosPlan(42) plus an online node
#                               # takeover; sidecars must show faults fired
#   scripts/check.sh --all      # every mode above, in order; fail fast
#
# (legacy spellings `thread`/`address` are accepted for tsan/asan.)
#
# Each mode configures its own build directory (build, build-lint,
# build-tsan, ...) so sanitizer and tooling caches never collide. Modes
# that need a tool the host lacks (clang-format, clang-tidy) print SKIP and
# exit 0 — the matrix stays green on toolchains that only carry gcc.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc)"

# halt_on_error makes a sanitizer report fail the test that produced it;
# tsan.supp whitelists the by-design seqlock races. detect_deadlocks=0:
# the per-frame page latches form ordering cycles by design (deadlock
# freedom comes from the B-tree descent discipline, which the
# potential-deadlock detector cannot model; the lock-rank checker enforces
# the order everywhere else); race detection is unaffected.
export TSAN_OPTIONS="halt_on_error=1 detect_deadlocks=0 suppressions=$PWD/tsan.supp ${TSAN_OPTIONS:-}"
export ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1 ${UBSAN_OPTIONS:-}"

build_and_test() {  # <build-dir> [extra cmake args...]
  local dir="$1"; shift
  cmake -B "${dir}" -S . "$@"
  cmake --build "${dir}" -j "${JOBS}"
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

run_mode() {
  local mode="$1"
  echo "==== check.sh: ${mode} ===="
  case "${mode}" in
    plain)
      build_and_test build
      ;;
    lint)
      # The lint/lint_selftest/lint_perf ctest targets also run in every
      # full suite; this mode is the fast loop AND the reporting surface:
      # running the binary directly (instead of through ctest) shows the
      # per-pass timing and per-rule findings tables, enforces the perf
      # bound, and leaves the findings sidecar where CI can diff it.
      cmake -B build-lint -S .
      cmake --build build-lint -j "${JOBS}" --target polarlint
      ./build-lint/tools/polarlint/polarlint \
        --self-test tools/polarlint/fixtures
      local lint_sidecar="build-lint/polarlint.findings.json"
      ./build-lint/tools/polarlint/polarlint --root . \
        --json "${lint_sidecar}" --tsan-supp tsan.supp \
        --max-wall-ms 20000 src
      # The sidecar is load-bearing (the lock-order edge list ships in it),
      # so its absence or an empty schema is a failure, not a shrug.
      if [[ ! -s "${lint_sidecar}" ]]; then
        echo "FAIL: findings sidecar ${lint_sidecar} missing or empty" >&2
        return 1
      fi
      if ! grep -q '"schema": "polarlint.findings.v1"' "${lint_sidecar}"; then
        echo "FAIL: ${lint_sidecar} lacks the polarlint.findings.v1 tag" >&2
        return 1
      fi
      if ! grep -q '"lock_order"' "${lint_sidecar}"; then
        echo "FAIL: ${lint_sidecar} lacks the lock_order edge list" >&2
        return 1
      fi
      # The CFG stats block is how CI notices the flow tier silently
      # degrading to span mode: zero blocks or zero fixpoint iterations
      # would mean the lockset passes analyzed nothing.
      if ! grep -q '"cfg"' "${lint_sidecar}"; then
        echo "FAIL: ${lint_sidecar} lacks the cfg stats block" >&2
        return 1
      fi
      if ! grep -q '"fixpoint_iterations"' "${lint_sidecar}"; then
        echo "FAIL: ${lint_sidecar} lacks the fixpoint_iterations stats" >&2
        return 1
      fi
      echo "lint OK: sidecar ${lint_sidecar}"
      ;;
    format)
      if ! command -v clang-format >/dev/null 2>&1; then
        echo "SKIP: clang-format not installed"
        return 0
      fi
      # shellcheck disable=SC2046
      clang-format --dry-run -Werror \
        $(find src tests bench examples tools -name '*.h' -o -name '*.cc')
      ;;
    tidy)
      if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "SKIP: clang-tidy not installed"
        return 0
      fi
      cmake -B build-tidy -S . -DPOLARMP_TIDY=ON
      cmake --build build-tidy -j "${JOBS}"
      ;;
    tsan)
      build_and_test build-tsan -DPOLARMP_SANITIZE=thread
      ;;
    asan)
      build_and_test build-asan -DPOLARMP_SANITIZE=address
      ;;
    ubsan)
      build_and_test build-ubsan -DPOLARMP_SANITIZE=undefined
      ;;
    wthread)
      # Clang's thread-safety analysis over the capability annotations
      # (common/thread_annotations.h). The annotations are no-ops under gcc,
      # so this is the one mode that actually proves them.
      if ! command -v clang++ >/dev/null 2>&1; then
        echo "SKIP: clang++ not installed (thread-safety analysis needs clang)"
        return 0
      fi
      CC=clang CXX=clang++ cmake -B build-wthread -S . \
        -DPOLARMP_THREAD_SAFETY=ON
      cmake --build build-wthread -j "${JOBS}"
      ctest --test-dir build-wthread --output-on-failure -j "${JOBS}"
      ;;
    smoke)
      # Commit-pipeline smoke: the micro_commit bench at a short measure
      # window exercises group formation and same-thread commit
      # finalization under real thread interleavings, and must emit its
      # metrics sidecar (the group-size histogram rides in it).
      cmake -B build -S .
      cmake --build build -j "${JOBS}" --target micro_commit
      local smoke_dir="build/smoke"
      mkdir -p "${smoke_dir}"
      POLARMP_BENCH_MEASURE_MS=300 POLARMP_BENCH_WARMUP_MS=100 \
        POLARMP_METRICS_DIR="${smoke_dir}" ./build/bench/micro_commit
      local sidecar="${smoke_dir}/micro_commit.metrics.json"
      if [[ ! -s "${sidecar}" ]]; then
        echo "FAIL: metrics sidecar ${sidecar} missing or empty" >&2
        return 1
      fi
      if ! grep -q 'log_writer.group_size' "${sidecar}"; then
        echo "FAIL: ${sidecar} lacks the log_writer.group_size histogram" >&2
        return 1
      fi
      # Index-cache smoke: the micro_cache bench sweeps cache off/on plus
      # an invalidation-churn phase; its sidecar must carry the cache
      # counter families and the derived fabric-ops figure.
      cmake --build build -j "${JOBS}" --target micro_cache
      POLARMP_BENCH_MEASURE_MS=300 POLARMP_BENCH_WARMUP_MS=100 \
        POLARMP_METRICS_DIR="${smoke_dir}" ./build/bench/micro_cache
      local cache_sidecar="${smoke_dir}/micro_cache.metrics.json"
      if [[ ! -s "${cache_sidecar}" ]]; then
        echo "FAIL: metrics sidecar ${cache_sidecar} missing or empty" >&2
        return 1
      fi
      if ! grep -q 'index_cache.hits' "${cache_sidecar}"; then
        echo "FAIL: ${cache_sidecar} lacks the index_cache counters" >&2
        return 1
      fi
      if ! grep -q 'fabric_ops_per_txn' "${cache_sidecar}"; then
        echo "FAIL: ${cache_sidecar} lacks derived fabric_ops_per_txn" >&2
        return 1
      fi
      # Bank-transfer invariant: the example's exit code IS its self-check
      # (total balance exactly conserved across concurrent cross-node
      # transfers). Two seeds keep the smoke fast; EXPERIMENTS.md records
      # the 20-seed sweep.
      cmake --build build -j "${JOBS}" --target bank_transfer
      for seed in 17 23; do
        POLARMP_BANK_SEED="${seed}" ./build/examples/bank_transfer
      done
      # Repeated interleaving tests. Each step runs under a timeout: a
      # waiter starved by its peers fails the mode instead of stalling it.
      local repeat_timeout=300
      # Linear Lamport coalescing depends on real thread interleavings, so
      # one pass samples it; 40 repeats gate its stability.
      cmake --build build -j "${JOBS}" --target polarmp_tests
      timeout "${repeat_timeout}" ./build/tests/polarmp_tests \
        --gtest_filter='TsoClientTest.*' --gtest_repeat=40 --gtest_brief=1
      # Commit-time CTS backfill walks right past splits that a concurrent
      # writer on the same node makes; 20 repeats sample its interleavings.
      timeout "${repeat_timeout}" ./build/tests/polarmp_tests \
        --gtest_filter='TxnTest.InterleavedWritersBackfillRowsEachOthersSplitsMoved' \
        --gtest_repeat=20 --gtest_brief=1
      # The seqlocked reader must outwait a torn write's window however
      # slowly it is scheduled; 20 repeats gate that.
      timeout "${repeat_timeout}" ./build/tests/polarmp_tests \
        --gtest_filter='FaultInjectionTest.TornSeqlockedWriteNeverSurfacesMixedImage' \
        --gtest_repeat=20 --gtest_brief=1
      # Overlapping log forces land out of order; durable must stop at the
      # hole, and no handle may complete ahead of the landed prefix.
      timeout "${repeat_timeout}" ./build/tests/polarmp_tests \
        --gtest_filter='LogStoreTest.OutOfOrderLandingStopsAtTheHole:CommitPipelineTest.SecondForceOverlapsButWaitsForTheFirstToLand:CommitPipelineTest.NoHandleCompletesAheadOfTheLandedPrefix' \
        --gtest_repeat=20 --gtest_brief=1
      echo "smoke OK: sidecars ${sidecar} ${cache_sidecar}"
      ;;
    chaos)
      # Seeded fault-plan soak. The fabric injects transient unavailability,
      # timeouts, delayed/duplicated writes and torn seqlocked writes at the
      # DefaultChaosPlan(42) rates while micro_commit runs its normal
      # sweep, and fig15 additionally crashes a node under load and has the
      # survivor take it over online. Green means the retry/backoff wrappers
      # absorbed every transient (the benches exit 0) and the sidecars
      # prove faults actually fired — a chaos run where nothing was
      # injected is a configuration bug, not a pass.
      cmake -B build -S .
      cmake --build build -j "${JOBS}" --target micro_commit
      cmake --build build -j "${JOBS}" --target fig15_recovery
      local chaos_dir="build/chaos"
      mkdir -p "${chaos_dir}"
      POLARMP_FAULT_SEED=42 POLARMP_BENCH_MEASURE_MS=300 \
        POLARMP_BENCH_WARMUP_MS=100 POLARMP_METRICS_DIR="${chaos_dir}" \
        ./build/bench/micro_commit
      local mc_sidecar="${chaos_dir}/micro_commit.metrics.json"
      if ! grep -Eq '"fabric\.faults_injected": [1-9]' "${mc_sidecar}"; then
        echo "FAIL: ${mc_sidecar}: no faults injected under chaos" >&2
        return 1
      fi
      if ! grep -Eq '"fabric\.retries": [1-9]' "${mc_sidecar}"; then
        echo "FAIL: ${mc_sidecar}: no retries under chaos" >&2
        return 1
      fi
      # Reply-loss dedup hits are plan-rate dependent, so require the
      # counter family, not a count.
      if ! grep -q 'fabric.rpc_dedup_hits' "${mc_sidecar}"; then
        echo "FAIL: ${mc_sidecar} lacks fabric.rpc_dedup_hits" >&2
        return 1
      fi
      POLARMP_FAULT_SEED=42 POLARMP_BENCH_CRASH_MS=1500 \
        POLARMP_METRICS_DIR="${chaos_dir}" ./build/bench/fig15_recovery
      local f15_sidecar="${chaos_dir}/fig15_recovery.metrics.json"
      if ! grep -Eq '"cluster\.takeovers": [1-9]' "${f15_sidecar}"; then
        echo "FAIL: ${f15_sidecar}: online takeover did not run" >&2
        return 1
      fi
      if ! grep -Eq '"fabric\.faults_injected": [1-9]' "${f15_sidecar}"; then
        echo "FAIL: ${f15_sidecar}: no faults injected under chaos" >&2
        return 1
      fi
      echo "chaos OK: sidecars ${mc_sidecar} ${f15_sidecar}"
      ;;
    *)
      echo "usage: $0 [plain|lint|format|tidy|tsan|asan|ubsan|wthread|smoke|chaos|--all]" >&2
      return 2
      ;;
  esac
}

MODE="${1:-plain}"
case "${MODE}" in
  thread) MODE=tsan ;;
  address) MODE=asan ;;
esac

if [[ "${MODE}" == "--all" ]]; then
  for m in format lint plain smoke chaos wthread ubsan asan tsan tidy; do
    run_mode "${m}"
  done
  echo "==== check.sh: all modes passed ===="
else
  run_mode "${MODE}"
fi
