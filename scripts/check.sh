#!/usr/bin/env bash
# Pre-merge check, also the only entry point CI is allowed to call:
# tier-1 build + ctest, and/or the same suite under AddressSanitizer +
# UndefinedBehaviorSanitizer (-DXMEM_SANITIZE).
#
#   $ scripts/check.sh             # both passes (local pre-merge default)
#   $ scripts/check.sh --tier1     # Release build (warnings as errors)
#                                  # + tier-1 ctest only, which includes
#                                  # the chaos suite, every bench's paper
#                                  # claims and the a10/a11/m2 sweep
#                                  # checks, plus the xmem_bench
#                                  # correctness smoke (bench/xmem_bench,
#                                  # Release, in build-bench)
#   $ scripts/check.sh --sanitize  # ASan+UBSan build + ctest only
#   $ scripts/check.sh --tsan      # ThreadSanitizer build
#                                  # (-DXMEM_SANITIZE=thread) + tier-1
#                                  # ctest: the data-race leg of the
#                                  # determinism contract
#   $ scripts/check.sh --lint      # xmem-lint v2 tree-wide (src, tools,
#                                  # bench, examples, tests) against the
#                                  # committed baseline, plus the fixture
#                                  # selftest; ends with a grep-able
#                                  # "CHECK: lint OK/FAIL" verdict
#   $ scripts/check.sh --bench     # host-perf gate: xmem_bench at HEAD
#                                  # vs HEAD^1, fails on `regressed` or a
#                                  # failed correctness check (~12 min).
#                                  # The parent is HEAD^1 only: squash a
#                                  # branch to one commit on main first
#   $ scripts/check.sh --report    # telemetry report: export the a9
#                                  # incast-restart and a11 incast time
#                                  # series and render
#                                  # build/telemetry/report.md (markdown
#                                  # tables + sparklines via xmem_report,
#                                  # including any postmortem bundles
#                                  # found in build/telemetry/)
#   $ scripts/check.sh --format    # clang-format check-only pass
#   $ scripts/check.sh --tidy      # clang-tidy build (XMEM_TIDY=ON)
#
# --format and --tidy need clang tooling the dev container may not ship;
# when the tool is absent they skip with an explicit "skipped" verdict
# (CI installs the tools, so the real gate always runs there).
#
# Exits nonzero the moment any build or test step fails (set -e +
# pipefail; a trap prints a grep-able FAIL verdict), and ends with
# exactly one "CHECK " verdict line either way, so CI and humans can
# `grep '^CHECK '` instead of scraping build output.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

# Any failure under `set -e` lands here: one grep-able verdict, nonzero
# exit propagated to the caller (CI job turns red).
trap 'status=$?; if [[ $status -ne 0 ]]; then echo "CHECK FAIL (exit $status)"; fi' EXIT

run_tier1=1
run_sanitize=1
run_tsan=0
run_lint=0
run_format=0
run_tidy=0
run_bench=0
run_report=0
mode="tier1 + sanitize"  # named in the final verdict line
usage() {
  echo "usage: $0 [--tier1|--sanitize|--tsan|--lint|--format|--tidy|--bench|--report]" >&2
  echo "(at most one flag; run one mode per call)" >&2
  exit 2
}
# One mode per call: a second flag would silently switch the first one's
# passes off (`--tier1 --sanitize` used to build nothing and pass).
[[ $# -le 1 ]] || usage
solo() { run_tier1=0; run_sanitize=0; mode=$1; }
if [[ $# -eq 1 ]]; then
  case "$1" in
    --tier1) run_sanitize=0; mode=tier1 ;;
    --sanitize) run_tier1=0; mode=sanitize ;;
    --tsan) solo tsan; run_tsan=1 ;;
    --lint) solo lint; run_lint=1 ;;
    --format) solo format; run_format=1 ;;
    --tidy) solo tidy; run_tidy=1 ;;
    --bench) solo bench; run_bench=1 ;;
    --report) solo report; run_report=1 ;;
    *) usage ;;
  esac
fi

if [[ "$run_tier1" == 1 ]]; then
  # Both tier-1 builds must be warning-free: every warning is an error
  # here (CMake >= 3.24), so a new one fails the gate at its source line.
  echo "== tier-1: Release build (warnings as errors) + ctest =="
  cmake -B "$repo/build" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
  cmake --build "$repo/build" -j "$jobs"
  ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"
  # The benchmark is a CMake package of its own. Its smoke test runs every
  # workload's correctness checks (exactly-once counters, per-sender FIFO,
  # every WRITE acknowledged) and requires a sim digest that repeats
  # across runs and changes with the seed.
  echo "== tier-1: xmem_bench correctness smoke =="
  cmake -B "$repo/build-bench" -S "$repo/bench/xmem_bench" \
        -DCMAKE_BUILD_TYPE=Release -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
  cmake --build "$repo/build-bench" --target xmem_bench -j "$jobs"
  ctest --test-dir "$repo/build-bench" -R '^xmem_bench_smoke$' \
    --output-on-failure
fi

if [[ "$run_sanitize" == 1 ]]; then
  echo "== sanitizers: ASan + UBSan build + ctest =="
  cmake -B "$repo/build-asan" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DXMEM_SANITIZE=address,undefined
  cmake --build "$repo/build-asan" -j "$jobs"
  ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs"
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "== tsan: ThreadSanitizer build + tier-1 ctest =="
  cmake -B "$repo/build-tsan" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DXMEM_SANITIZE=thread
  cmake --build "$repo/build-tsan" -j "$jobs"
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs"
fi

if [[ "$run_lint" == 1 ]]; then
  echo "== lint: xmem-lint v2 tree-wide + fixture selftest =="
  cmake -B "$repo/build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$repo/build" --target xmem_lint -j "$jobs"
  lint_bin="$repo/build/tools/xmem_lint/xmem_lint"
  # Tree-wide against the committed baseline: any non-baselined finding,
  # or a stale baseline entry, fails the gate. Findings print in the
  # `path:line: [rule] message` format the CI problem matcher
  # (.github/problem-matchers/xmem-lint.json) turns into PR annotations.
  lint_status=0
  "$lint_bin" --baseline "$repo/tools/xmem_lint/baseline.txt" \
    "$repo/src" "$repo/tools" "$repo/bench" "$repo/examples" "$repo/tests" \
    || lint_status=$?
  "$repo/tools/xmem_lint/selftest.sh" "$lint_bin" "$repo"
  # Fail fast with a grep-able per-gate verdict (distinct from the final
  # "CHECK " line so dashboards can key on the lint gate specifically).
  if [[ "$lint_status" -ne 0 ]]; then
    echo "CHECK: lint FAIL (xmem-lint exit $lint_status)"
    exit "$lint_status"
  fi
  echo "CHECK: lint OK"
fi

if [[ "$run_bench" == 1 ]]; then
  # HEAD^1 is main's tip for a pull request's merge commit. git archive
  # exports its src/ and bench/xmem_bench/ without leaving a worktree.
  echo "== bench: xmem_bench, parent (HEAD^1) vs change (HEAD) =="
  perf="$repo/build-perf"
  # git archive stamps files with the commit's time, which can be older
  # than a previous parent build's objects, so that build is not reused.
  rm -rf "$perf/parent-src" "$perf/parent" "$perf/runs"
  mkdir -p "$perf/parent-src" "$perf/runs"
  git -C "$repo" archive HEAD^1 src bench/xmem_bench |
    tar -x -C "$perf/parent-src"
  # RelWithDebInfo is the build type bench/xmem_bench/run.py measures.
  for side in parent change; do
    src="$repo"
    [[ "$side" == parent ]] && src="$perf/parent-src"
    cmake -B "$perf/$side" -S "$src/bench/xmem_bench" \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$perf/$side" --target xmem_bench -j "$jobs"
  done
  # Five pairs per seed, alternating which side runs first.
  bench_status=0
  for seed in 1 2; do
    for pair in 1 2 3 4 5; do
      order=(parent change)
      if (( pair % 2 == 0 )); then order=(change parent); fi
      for side in "${order[@]}"; do
        run="$perf/runs/$side-seed$seed-$pair"
        if ! "$perf/$side/xmem_bench" --seed "$seed" --reps 3 \
             --json "$run.json" > "$run.log"; then
          echo "xmem_bench failed a correctness check: $run.log"
          bench_status=1
        fi
      done
    done
    echo "-- seed $seed: medians of 5 runs per side --"
    table="$perf/compare-seed$seed.txt"
    "$perf/change/xmem_bench" --compare "$perf"/runs/parent-seed$seed-*.json \
      -- "$perf"/runs/change-seed$seed-*.json | tee "$table" || bench_status=1
    # The job's step summary gets the table even when the gate fails.
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
      printf '### xmem_bench, seed %s\n\n```\n%s\n```\n' "$seed" \
        "$(cat "$table")" >> "$GITHUB_STEP_SUMMARY"
    fi
  done
  # Fail fast with a grep-able per-gate verdict (distinct from the final
  # "CHECK " line so dashboards can key on the bench gate specifically).
  if [[ "$bench_status" -ne 0 ]]; then
    echo "CHECK: bench FAIL (regressed, or a correctness check failed)"
    exit "$bench_status"
  fi
  echo "CHECK: bench OK"
fi

if [[ "$run_report" == 1 ]]; then
  echo "== report: telemetry exports + markdown rendering =="
  cmake -B "$repo/build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$repo/build" -j "$jobs" \
    --target a9_incast_timeseries a11_cc_matrix xmem_report
  tdir="$repo/build/telemetry"
  mkdir -p "$tdir"
  "$repo/build/bench/a9_incast_timeseries" \
    --timeseries "$tdir/a9_timeseries.json"
  # a11's 16:1 incast under DCQCN+PFC; its --json rows come from the
  # a11_jobs_identity ctest instead.
  "$repo/build/bench/a11_cc_matrix" \
    --timeseries "$tdir/a11_incast_timeseries.json" > /dev/null
  # Fold in any flight-recorder bundles a prior (chaos) run left behind.
  bundles=()
  while IFS= read -r -d '' f; do bundles+=("$f"); done \
    < <(find "$tdir" -name '*postmortem*.json' -print0 | sort -z)
  "$repo/build/tools/xmem_report/xmem_report" \
    --title "xmem telemetry report" --out "$tdir/report.md" \
    "$tdir/a9_timeseries.json" "$tdir/a11_incast_timeseries.json" \
    ${bundles[@]+"${bundles[@]}"}
  echo "report written to $tdir/report.md"
fi

if [[ "$run_format" == 1 ]]; then
  echo "== format: clang-format check-only pass =="
  if command -v clang-format >/dev/null 2>&1; then
    (cd "$repo" && git ls-files '*.hpp' '*.cpp' |
       xargs clang-format --dry-run --Werror)
  else
    echo "clang-format not installed; skipping"
    mode="format skipped: clang-format not installed"
  fi
fi

if [[ "$run_tidy" == 1 ]]; then
  echo "== tidy: clang-tidy build (XMEM_TIDY=ON) =="
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake -B "$repo/build-tidy" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
          -DXMEM_TIDY=ON
    cmake --build "$repo/build-tidy" -j "$jobs"
  else
    echo "clang-tidy not installed; skipping"
    mode="tidy skipped: clang-tidy not installed"
  fi
fi

echo "CHECK OK ($mode)"
