#!/usr/bin/env bash
# Pre-merge check, also the only entry point CI is allowed to call:
# tier-1 build + ctest, and/or the same suite under AddressSanitizer +
# UndefinedBehaviorSanitizer (-DXMEM_SANITIZE).
#
#   $ scripts/check.sh             # both passes (local pre-merge default)
#   $ scripts/check.sh --tier1     # Release build + tier-1 ctest only,
#                                  # plus the xmem_bench correctness
#                                  # smoke (bench/xmem_bench, Release,
#                                  # in build-bench)
#   $ scripts/check.sh --sanitize  # ASan+UBSan build + ctest only
#   $ scripts/check.sh --fast      # alias for --tier1 (kept for habit)
#   $ scripts/check.sh --chaos     # Release build + chaos-labeled ctests
#                                  # (fault injection + invariant suite)
#   $ scripts/check.sh --tsan      # ThreadSanitizer build (-DXMEM_TSAN=ON)
#                                  # + tier-1 ctest: the data-race leg of
#                                  # the determinism contract
#   $ scripts/check.sh --lint      # xmem-lint v2 tree-wide (src, tools,
#                                  # bench, examples, tests) against the
#                                  # committed baseline, plus the fixture
#                                  # selftest; ends with a grep-able
#                                  # "CHECK: lint OK/FAIL" verdict
#   $ scripts/check.sh --bench     # perf gate: re-run the pinned bench
#                                  # set and compare against the committed
#                                  # baseline in BENCH_PR5.json (warn past
#                                  # BENCH_TOLERANCE, fail past
#                                  # BENCH_FAIL_FACTOR)
#   $ scripts/check.sh --report    # telemetry report: run the a9
#                                  # incast-restart scenario, export its
#                                  # time series and render
#                                  # build/telemetry/report.md (markdown
#                                  # tables + sparklines via xmem_report,
#                                  # including any postmortem bundles
#                                  # found in build/telemetry/)
#   $ scripts/check.sh --format    # clang-format check-only pass
#   $ scripts/check.sh --tidy      # clang-tidy build (XMEM_TIDY=ON)
#   $ scripts/check.sh --cache     # lookup-cache suite: build + run the
#                                  # cache-focused tier-1 tests and the
#                                  # a10 cache bench (JSON exported to
#                                  # <build>/telemetry/a10_cache_zipf.json)
#   $ scripts/check.sh --cache-asan   # same suite under ASan+UBSan
#   $ scripts/check.sh --cc        # congestion-control suite: build + run
#                                  # the DCQCN/PFC/RNIC-focused tier-1
#                                  # tests and the a11 CC matrix bench
#                                  # (JSON + incast time series exported
#                                  # to <build>/telemetry/)
#   $ scripts/check.sh --cc-asan   # same suite under ASan+UBSan
#   $ scripts/check.sh --sweep     # parallel sweep engine suite: build +
#                                  # run the thread-pool / sweep-driver
#                                  # tests, the m2 scaling bench, and the
#                                  # byte-identity harness (a10 + a11 run
#                                  # at --jobs 1 and --jobs 4; their
#                                  # "results" payloads must match to the
#                                  # byte — only the "sweep" execution
#                                  # header may differ)
#
# --cache/--cache-asan accept `--cache-policy <lru|lfu|fifo>`: exported
# as XMEM_CACHE_POLICY, which LookupCache::policy_from_env() picks up
# wherever a test or bench leaves the eviction policy unspecified. This
# is the CI cache-matrix passthrough — the workflow never sets env vars
# itself, it only passes this flag.
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
run_chaos=0
run_tsan=0
run_lint=0
run_format=0
run_tidy=0
run_bench=0
run_report=0
run_cache=0
cache_asan=0
cache_policy=""
run_cc=0
cc_asan=0
run_sweep=0
usage() {
  echo "usage: $0 [--tier1|--sanitize|--tsan|--fast|--chaos|--lint|--format|--tidy|--bench|--report|--cache|--cache-asan|--cc|--cc-asan|--sweep] [--cache-policy <lru|lfu|fifo>]" >&2
  exit 2
}
solo() { run_tier1=0; run_sanitize=0; }
while [[ $# -gt 0 ]]; do
  case "$1" in
    --tier1|--fast) run_sanitize=0 ;;
    --sanitize) run_tier1=0 ;;
    --chaos) solo; run_chaos=1 ;;
    --tsan) solo; run_tsan=1 ;;
    --lint) solo; run_lint=1 ;;
    --format) solo; run_format=1 ;;
    --tidy) solo; run_tidy=1 ;;
    --bench) solo; run_bench=1 ;;
    --report) solo; run_report=1 ;;
    --cache) solo; run_cache=1 ;;
    --cache-asan) solo; run_cache=1; cache_asan=1 ;;
    --cc) solo; run_cc=1 ;;
    --cc-asan) solo; run_cc=1; cc_asan=1 ;;
    --sweep) solo; run_sweep=1 ;;
    --cache-policy)
      [[ $# -ge 2 ]] || usage
      cache_policy=$2; shift
      case "$cache_policy" in
        lru|lfu|fifo) ;;
        *) echo "check.sh: unknown cache policy '$cache_policy'" >&2; exit 2 ;;
      esac ;;
    *) usage ;;
  esac
  shift
done

if [[ "$run_tier1" == 1 ]]; then
  echo "== tier-1: Release build + ctest =="
  cmake -B "$repo/build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$repo/build" -j "$jobs"
  ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"
  # The benchmark is a CMake package of its own. Its smoke test runs every
  # workload's correctness checks (exactly-once counters, per-sender FIFO,
  # every WRITE acknowledged) and requires a sim digest that repeats
  # across runs and changes with the seed.
  echo "== tier-1: xmem_bench correctness smoke =="
  cmake -B "$repo/build-bench" -S "$repo/bench/xmem_bench" \
        -DCMAKE_BUILD_TYPE=Release
  cmake --build "$repo/build-bench" --target xmem_bench -j "$jobs"
  ctest --test-dir "$repo/build-bench" -R '^xmem_bench_smoke$' \
    --output-on-failure
fi

if [[ "$run_chaos" == 1 ]]; then
  echo "== chaos: Release build + chaos-labeled ctest =="
  cmake -B "$repo/build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$repo/build" -j "$jobs"
  # When CI routes flight-recorder postmortems to an artifact directory
  # (XMEM_POSTMORTEM_DIR), make sure the tests can actually write there.
  if [[ -n "${XMEM_POSTMORTEM_DIR:-}" ]]; then
    mkdir -p "$XMEM_POSTMORTEM_DIR"
  fi
  ctest --test-dir "$repo/build" -L chaos --output-on-failure -j "$jobs"
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
        -DXMEM_TSAN=ON
  cmake --build "$repo/build-tsan" -j "$jobs"
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs"
  # Replica isolation is machine-checked, not asserted: drive the sweep
  # engine's real fan-out (m2's 8 replicas at 1/2/4/8 workers) under
  # TSan. Any shared mutable state between replicas is a race report
  # here. TSan wall-clock is meaningless, so the JSON goes to /dev/null
  # and only the exit code (digest byte-identity) gates.
  echo "== tsan: m2 parallel sweep under ThreadSanitizer =="
  "$repo/build-tsan/bench/m2_parallel_scale" --json /dev/null
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

if [[ "$run_cache" == 1 ]]; then
  if [[ -n "$cache_policy" ]]; then
    export XMEM_CACHE_POLICY="$cache_policy"
  fi
  if [[ "$cache_asan" == 1 ]]; then
    echo "== cache suite (ASan+UBSan, policy=${cache_policy:-default}) =="
    cache_build="$repo/build-asan"
    cmake -B "$cache_build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DXMEM_SANITIZE=address,undefined
  else
    echo "== cache suite (Release, policy=${cache_policy:-default}) =="
    cache_build="$repo/build"
    cmake -B "$cache_build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$cache_build" -j "$jobs" \
    --target lookup_cache_test lookup_table_test channel_set_test \
    channel_test a10_cache_zipf
  # Everything cache-adjacent: the cache unit suite plus the primitive
  # and channel-health integration tests that exercise it end to end.
  ctest --test-dir "$cache_build" -R "lookup|channel" --output-on-failure \
    -j "$jobs"
  mkdir -p "$cache_build/telemetry"
  "$cache_build/bench/a10_cache_zipf" \
    --json "$cache_build/telemetry/a10_cache_zipf.json"
fi

if [[ "$run_cc" == 1 ]]; then
  if [[ "$cc_asan" == 1 ]]; then
    echo "== congestion-control suite (ASan+UBSan) =="
    cc_build="$repo/build-asan"
    cmake -B "$cc_build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DXMEM_SANITIZE=address,undefined
  else
    echo "== congestion-control suite (Release) =="
    cc_build="$repo/build"
    cmake -B "$cc_build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$cc_build" -j "$jobs" \
    --target dcqcn_channel_test pfc_test dctcp_test rnic_test roce_test \
    channel_test a11_cc_matrix
  # Everything congestion-adjacent: the DCQCN rate-machine / CNP / RTO
  # unit suite plus the PFC, ECN (DCTCP), RNIC responder, RoCE framing
  # and channel integration tests that exercise the loop end to end.
  ctest --test-dir "$cc_build" -R "dcqcn|pfc|dctcp|rnic|roce|^channel" \
    --output-on-failure -j "$jobs"
  mkdir -p "$cc_build/telemetry"
  # The full 4x3 matrix is one deterministic run; its verdicts compare
  # designs against each other, so it is never sliced per-design.
  "$cc_build/bench/a11_cc_matrix" \
    --json "$cc_build/telemetry/a11_cc_matrix.json" \
    --timeseries "$cc_build/telemetry/a11_incast_timeseries.json"
fi

if [[ "$run_sweep" == 1 ]]; then
  echo "== sweep: parallel engine tests + m2 scaling + byte-identity =="
  cmake -B "$repo/build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$repo/build" -j "$jobs" \
    --target thread_pool_test determinism_test sim_test \
    m2_parallel_scale a10_cache_zipf a11_cc_matrix
  # The engine's unit surface (pool backpressure/shutdown/exceptions,
  # driver merge order, Rng::split) plus the cross-jobs determinism case.
  ctest --test-dir "$repo/build" -R "thread_pool|determinism|^sim" \
    --output-on-failure -j "$jobs"
  mkdir -p "$repo/build/telemetry"
  "$repo/build/bench/m2_parallel_scale" \
    --json "$repo/build/telemetry/m2_parallel_scale.json"
  # Byte-identity of the deterministic payload: each matrix bench run
  # serially and at 4 workers must write identical bytes up to the
  # "sweep" execution-record header (which records the actual jobs/cores
  # and so legitimately differs — DESIGN.md §17).
  for b in a10_cache_zipf a11_cc_matrix; do
    "$repo/build/bench/$b" --jobs 1 \
      --json "$repo/build/telemetry/${b}_j1.json" > /dev/null
    "$repo/build/bench/$b" --jobs 4 \
      --json "$repo/build/telemetry/${b}_j4.json" > /dev/null
    python3 - "$repo/build/telemetry/${b}_j1.json" \
      "$repo/build/telemetry/${b}_j4.json" <<'PYEOF'
import sys
a, b = (open(p).read().split('"sweep"')[0] for p in sys.argv[1:3])
if a != b:
    sys.exit("sweep byte-identity FAIL: deterministic payload differs "
             "between jobs=1 and jobs=4")
PYEOF
    echo "sweep: $b payload byte-identical at jobs=1 and jobs=4"
  done
fi

if [[ "$run_bench" == 1 ]]; then
  echo "== bench: pinned perf set vs committed baseline =="
  cmake -B "$repo/build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
  # bench.sh re-records the 'post' entries and runs perf_gate compare,
  # which exits nonzero only past BENCH_FAIL_FACTOR (default 2.0x).
  bench_status=0
  "$repo/scripts/bench.sh" || bench_status=$?
  # Post the perf trajectory as the job's step summary (markdown) before
  # failing, so a red gate still ships the table it failed on.
  if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    "$repo/scripts/bench.sh" --summary >> "$GITHUB_STEP_SUMMARY" || true
  fi
  # Fail fast with a grep-able per-gate verdict (distinct from the final
  # "CHECK " line so dashboards can key on the bench gate specifically).
  if [[ "$bench_status" -ne 0 ]]; then
    echo "CHECK: bench FAIL (perf gate exit $bench_status)"
    exit "$bench_status"
  fi
  echo "CHECK: bench OK"
fi

if [[ "$run_report" == 1 ]]; then
  echo "== report: telemetry exports + markdown rendering =="
  cmake -B "$repo/build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$repo/build" -j "$jobs" \
    --target a9_incast_timeseries xmem_report
  tdir="$repo/build/telemetry"
  mkdir -p "$tdir"
  "$repo/build/bench/a9_incast_timeseries" \
    --timeseries "$tdir/a9_timeseries.json"
  # Fold in any flight-recorder bundles a prior (chaos) run left behind.
  bundles=()
  while IFS= read -r -d '' f; do bundles+=("$f"); done \
    < <(find "$tdir" -name '*postmortem*.json' -print0 | sort -z)
  "$repo/build/tools/xmem_report/xmem_report" \
    --title "xmem telemetry report" --out "$tdir/report.md" \
    "$tdir/a9_timeseries.json" ${bundles[@]+"${bundles[@]}"}
  echo "report written to $tdir/report.md"
fi

format_skipped=0
if [[ "$run_format" == 1 ]]; then
  echo "== format: clang-format check-only pass =="
  if command -v clang-format >/dev/null 2>&1; then
    (cd "$repo" && git ls-files '*.hpp' '*.cpp' |
       xargs clang-format --dry-run --Werror)
  else
    echo "clang-format not installed; skipping"
    format_skipped=1
  fi
fi

tidy_skipped=0
if [[ "$run_tidy" == 1 ]]; then
  echo "== tidy: clang-tidy build (XMEM_TIDY=ON) =="
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake -B "$repo/build-tidy" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
          -DXMEM_TIDY=ON
    cmake --build "$repo/build-tidy" -j "$jobs"
  else
    echo "clang-tidy not installed; skipping"
    tidy_skipped=1
  fi
fi

if [[ "$run_tier1" == 1 && "$run_sanitize" == 1 ]]; then
  echo "CHECK OK (tier1 + sanitize)"
elif [[ "$run_tier1" == 1 ]]; then
  echo "CHECK OK (tier1)"
elif [[ "$run_chaos" == 1 ]]; then
  echo "CHECK OK (chaos)"
elif [[ "$run_tsan" == 1 ]]; then
  echo "CHECK OK (tsan)"
elif [[ "$run_lint" == 1 ]]; then
  echo "CHECK OK (lint)"
elif [[ "$run_bench" == 1 ]]; then
  echo "CHECK OK (bench)"
elif [[ "$run_cache" == 1 && "$cache_asan" == 1 ]]; then
  echo "CHECK OK (cache-asan policy=${cache_policy:-default})"
elif [[ "$run_cache" == 1 ]]; then
  echo "CHECK OK (cache policy=${cache_policy:-default})"
elif [[ "$run_cc" == 1 && "$cc_asan" == 1 ]]; then
  echo "CHECK OK (cc-asan)"
elif [[ "$run_cc" == 1 ]]; then
  echo "CHECK OK (cc)"
elif [[ "$run_sweep" == 1 ]]; then
  echo "CHECK OK (sweep)"
elif [[ "$run_report" == 1 ]]; then
  echo "CHECK OK (report)"
elif [[ "$run_format" == 1 ]]; then
  if [[ "$format_skipped" == 1 ]]; then
    echo "CHECK OK (format skipped: clang-format not installed)"
  else
    echo "CHECK OK (format)"
  fi
elif [[ "$run_tidy" == 1 ]]; then
  if [[ "$tidy_skipped" == 1 ]]; then
    echo "CHECK OK (tidy skipped: clang-tidy not installed)"
  else
    echo "CHECK OK (tidy)"
  fi
else
  echo "CHECK OK (sanitize)"
fi
