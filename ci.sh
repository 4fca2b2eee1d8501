#!/usr/bin/env bash
# rumlab CI: the tier-1 suite in Release (plus the table benches' stdout
# against bench/golden/, and a rumbench build, smoke run and exact counts
# against bench/golden/rumbench_exact.txt), then the same suite and the
# rumbench smoke run under AddressSanitizer with UBSan and libstdc++
# assertions, then the concurrency tier under ThreadSanitizer.
#
#   ./ci.sh            # all three stages
#   ./ci.sh release    # just the Release build + tests
#   ./ci.sh asan       # just the ASan + UBSan build + tests + rumbench smoke
#   ./ci.sh tsan       # just the TSan build + concurrency tier
#
# Tiers are ctest labels set in tests/CMakeLists.txt: the TSan stage runs
# the `tsan` label by default (TSan's ~10x slowdown makes the full suite
# take tens of minutes); set RUMLAB_CI_FULL_TSAN=1 to run everything under
# TSan as well. Every test carries a ctest timeout, so a hang fails the
# stage instead of stalling it.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"
STAGE="${1:-all}"
case "${STAGE}" in
  all|release|asan|tsan) ;;
  *)
    echo "usage: $0 [all|release|asan|tsan]" >&2
    exit 2
    ;;
esac

# Runs ctest in a build tree; a label or filter that selects nothing would
# pass vacuously, so it fails instead.
run_ctest() {
  local name="$1" build_dir="$2" test_filter="$3"
  echo "=== ${name}: ctest ==="
  local selected
  selected="$(cd "${build_dir}" && ctest -N ${test_filter} |
    sed -n 's/^Total Tests: //p')"
  if [[ -z "${selected}" || "${selected}" -eq 0 ]]; then
    echo "${name}: ctest ${test_filter} selects no tests" >&2
    exit 1
  fi
  (cd "${build_dir}" && ctest --output-on-failure -j "${JOBS}" ${test_filter})
}

configure_stage() {
  local name="$1" build_dir="$2" sanitize="$3" build_type="$4"
  echo "=== ${name}: configure (${build_dir}) ==="
  # Warnings fail the build (CMAKE_COMPILE_WARNING_AS_ERROR: CMake >= 3.24).
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE="${build_type}" \
    -DRUMLAB_SANITIZE="${sanitize}" \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
}

run_stage() {
  local name="$1" build_dir="$2" sanitize="$3" test_filter="$4"
  configure_stage "${name}" "${build_dir}" "${sanitize}" "${5}"
  echo "=== ${name}: build (${build_dir}) ==="
  cmake --build "${build_dir}" -j "${JOBS}"
  run_ctest "${name}" "${build_dir}" "${test_filter}"
}

# Fails unless every test file that starts threads (std::thread, or a
# workload spec's `concurrency =`) is a test carrying the `tsan` label: an
# unlabelled one would drop out of the TSan stage without a sound.
check_tsan_labels() {
  local build_dir="$1" labelled file missing=0
  echo "=== tsan: every threaded test carries the tsan label ==="
  labelled="$(cd "${build_dir}" && ctest -N -L tsan)"
  for file in $(grep -lE 'std::thread|\.concurrency[[:space:]]*=' \
    tests/*.cc || true); do
    if ! grep -qE "Test +#[0-9]+: $(basename "${file}" .cc)\$" \
      <<<"${labelled}"; then
      echo "tsan: ${file} starts threads, but ctest -N -L tsan" \
        "does not list it (tests/CMakeLists.txt)" >&2
      missing=1
    fi
  done
  if [[ "${missing}" -ne 0 ]]; then
    exit 1
  fi
}

if [[ "${STAGE}" == "all" || "${STAGE}" == "release" ]]; then
  run_stage "release" "build-ci" "" "" "Release"
  echo "=== release: table bench output vs bench/golden ==="
  # The table benches run on simulated devices with seeded workloads, so
  # their stdout is deterministic: it is committed in bench/golden/ and must
  # match byte for byte. When a change moves a number on purpose, rebuild
  # build-ci and regenerate every table golden from the repository root with
  #   for f in bench/golden/bench_*.txt; do
  #     build-ci/bench/"$(basename "$f" .txt)" >"$f"; done
  # then review the diff before committing it.
  TABLE_BENCHES=(bench_props bench_table1 bench_fig1_rum_space
    bench_fig2_hierarchy bench_fig3_tunable bench_ablation_bloom
    bench_ablation_compaction bench_ablation_cracking bench_ablation_bitmap
    bench_ablation_filters bench_ablation_hotcold bench_wizard)
  for bench in "${TABLE_BENCHES[@]}"; do
    if ! "build-ci/bench/${bench}" | diff -u "bench/golden/${bench}.txt" -;
    then
      echo "release: ${bench} stdout differs from bench/golden/${bench}.txt" >&2
      exit 1
    fi
  done
  echo "${#TABLE_BENCHES[@]} table benches match bench/golden/"
  echo "=== release: rumbench configure + build (build-ci/rumbench) ==="
  # rumbench (rumbench/CMakeLists.txt) compiles ../src into its own library,
  # so a src change that breaks it would otherwise surface only when the
  # benchmark runs. Build it warning-free and run its smoke test (the
  # `bench` label: every workload at 1% scale, oracle and determinism).
  cmake -S rumbench -B build-ci/rumbench -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
  cmake --build build-ci/rumbench -j "${JOBS}"
  run_ctest "release" build-ci/rumbench "-L bench"
  echo "=== release: rumbench exact counts vs bench/golden ==="
  # Every workload at seed 1 and 1% scale (about 1 s for all four): its
  # exact counts (pins, blocks, cache hits, compactions, result digest)
  # are deterministic, printed as sorted "workload key value" lines and
  # committed in bench/golden/rumbench_exact.txt. When a change moves a
  # count on purpose, regenerate it from the repository root with
  #   python3 bench/rumbench_exact.py build-ci/rumbench/rumbench \
  #     >bench/golden/rumbench_exact.txt
  # and review the diff before committing it.
  python3 bench/rumbench_exact.py build-ci/rumbench/rumbench \
    >build-ci/rumbench/rumbench_exact.txt
  if ! diff -u bench/golden/rumbench_exact.txt \
    build-ci/rumbench/rumbench_exact.txt; then
    echo "release: rumbench exact counts differ from" \
      "bench/golden/rumbench_exact.txt" >&2
    exit 1
  fi
  echo "rumbench exact counts match bench/golden/rumbench_exact.txt"
  echo "=== release: machine-readable bench smoke ==="
  # The two JSON-emitting benches must run and produce parseable output; no
  # thresholds are enforced here (wall-clock is not comparable across CI
  # hosts), only the schema contract. Both smoke runs write their own files:
  # only an unfiltered run may write BENCH_wallclock.json, and only a full
  # sweep BENCH_concurrency.json.
  (cd build-ci/bench &&
    ./bench_wallclock --benchmark_filter='(Get|Insert)/(btree|lsm-leveled)$' \
      --benchmark_min_time=0.02 \
      --benchmark_context=rumlab_commit="$(git rev-parse HEAD 2>/dev/null ||
        echo unknown)" \
      --benchmark_out=BENCH_wallclock_smoke.json \
      --benchmark_out_format=json >/dev/null &&
    ./bench_concurrency --smoke >/dev/null &&
    python3 -m json.tool BENCH_wallclock_smoke.json >/dev/null &&
    python3 -m json.tool BENCH_concurrency_smoke.json >/dev/null &&
    echo "BENCH_wallclock_smoke.json + BENCH_concurrency_smoke.json parse OK")
  # Row presence: the benchmarks bench_wallclock lists must be exactly the
  # baseline's rows, both ways. It times nothing, so it runs even when the
  # wall-clock guards below are skipped.
  echo "=== release: baseline row presence ==="
  build-ci/bench/bench_wallclock --benchmark_list_tests=true \
    >build-ci/bench/BENCH_wallclock_list.txt
  python3 bench/guard.py --listed build-ci/bench/BENCH_wallclock_list.txt \
    BENCH_wallclock.json
  # Disabled-layers overhead guard: with tracing and metrics off (the
  # defaults), the Get path must stay within 3% (geomean) of the committed
  # BENCH_wallclock.json baseline. This is what makes "tracing is cheap
  # when disabled" an enforced contract rather than a comment. Wall-clock
  # baselines are host-specific: set RUMLAB_SKIP_BENCH_GUARD=1 on hosts
  # that did not produce the committed baseline, and refresh the baseline
  # when it moves for a good reason: from the repository root run
  #   build-ci/bench/bench_wallclock \
  #     --benchmark_context=rumlab_commit="$(git rev-parse HEAD)"
  # (unfiltered, so it rewrites BENCH_wallclock.json) and commit the JSON.
  if [[ "${RUMLAB_SKIP_BENCH_GUARD:-0}" == "1" ]]; then
    echo "=== release: bench guard skipped (RUMLAB_SKIP_BENCH_GUARD=1) ==="
  else
    # Each guard runs its family three times and hands the passes to
    # bench/guard.py, which compares the per-row floor with the baseline
    # (3% geomean limit) and fails if any baseline row of the family is
    # missing from the fresh run.
    guard() {
      local label="$1" family="$2"
      echo "=== release: ${label} guard (<3%) ==="
      (cd build-ci/bench &&
        for pass in 1 2 3; do
          ./bench_wallclock --benchmark_filter="${family}" \
            --benchmark_min_time=0.25 \
            --benchmark_out="BENCH_${label}_guard${pass}.json" \
            --benchmark_out_format=json >/dev/null
        done)
      python3 bench/guard.py --family "${family}" --limit 1.03 \
        BENCH_wallclock.json build-ci/bench/BENCH_"${label}"_guard{1,2,3}.json
    }
    # Get path with tracing and metrics off (the defaults): keeps "tracing
    # is cheap when disabled" enforced. MultiGet64 rides along: the batched
    # read path is a first-class Get path.
    guard get '^(Get|MultiGet64)/'
    # The one-seek range scan (cross-run index + k-way merge) on the
    # structures it touches, plus the sorted ideal.
    guard scan \
      '^Scan(16|128|4K)/(btree|lsm-leveled|lsm-tiered|sorted-column)$|^ScanHot'
  fi
fi

if [[ "${STAGE}" == "all" || "${STAGE}" == "asan" ]]; then
  run_stage "asan" "build-asan" "address" "" "Debug"
  echo "=== asan: rumbench configure + build (build-asan/rumbench) ==="
  # rumbench has no sanitizer option of its own, so the flags that
  # RUMLAB_SANITIZE=address adds (CMakeLists.txt) come in through the
  # standard CMake flag variables. RelWithDebInfo keeps the smoke run's
  # 1%-scale workloads quick under the sanitizers.
  sanitize="-fsanitize=address -fsanitize=undefined"
  sanitize+=" -fno-sanitize-recover=undefined"
  debug="-D_GLIBCXX_ASSERTIONS -g -fno-omit-frame-pointer"
  cmake -S rumbench -B build-asan/rumbench -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${sanitize} ${debug}" \
    -DCMAKE_EXE_LINKER_FLAGS="${sanitize}" \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
  cmake --build build-asan/rumbench -j "${JOBS}"
  run_ctest "asan" build-asan/rumbench "-L bench"
fi

if [[ "${STAGE}" == "all" || "${STAGE}" == "tsan" ]]; then
  # The `tsan` label (tests/CMakeLists.txt) marks the tests with real
  # concurrency: worker threads, sharded stacks shared across threads,
  # per-thread trace rings. The recorders of one RumCounters must be
  # serialized (src/core/counters.h); this stage is what catches a pair
  # that is not.
  TSAN_FILTER="-L tsan"
  if [[ "${RUMLAB_CI_FULL_TSAN:-0}" == "1" ]]; then
    TSAN_FILTER=""
  fi
  # The label check needs only a configured tree, so it runs before the
  # sanitized build.
  configure_stage "tsan" "build-tsan" "thread" "Debug"
  check_tsan_labels "build-tsan"
  run_stage "tsan" "build-tsan" "thread" "${TSAN_FILTER}" "Debug"
fi

echo "=== ci.sh: all requested stages passed ==="
