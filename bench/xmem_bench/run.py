#!/usr/bin/env python3
"""Build xmem_bench from source and run one workload.

    python3 bench/xmem_bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root. The benchmark's own output goes to stderr; the
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics listed in
BENCHMARK.json, as xmem_bench reports them for the run's repetitions; with
--trace 1 the per_layer metrics of the traced run.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_TIMEOUT_S = 900
# A run measures for --seconds and stops before overrunning it; this only
# guards against a hung simulation.
RUN_GRACE_S = 60


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then (re)build the xmem_bench target."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "xmem_bench",
         "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "xmem_bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(out_root / "xmem_bench")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"run.py: build failed: {e}")
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = out_root / "results" / f"{tag}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", str(result_path)]
    if args.trace:
        cmd += ["--trace", str(out_root / "traces" / tag)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        log("run.py: xmem_bench timed out")
        return 1
    if proc.returncode not in (0, 1) or not result_path.exists():
        log(f"run.py: xmem_bench failed with exit code {proc.returncode}")
        return 1

    report = json.loads(result_path.read_text())["workloads"][args.workload]
    section = report["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        entry = section.get(m["name"])
        if entry is None or entry["unit"] != m["unit"]:
            log(f"run.py: metric {m['name']} [{m['unit']}] not reported")
            return 1
        metrics[m["name"]] = {"value": entry["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": proc.returncode == 0 and bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
