#!/usr/bin/env bash
# Sweep byte-identity: a SweepDriver bench run serially and at 4 workers
# must write the same deterministic payload. Only the trailing "sweep"
# execution header (actual jobs and host cores) may differ (DESIGN.md
# §17). Both JSON files stay in <output-dir> for inspection.
#
# Usage: jobs_identity.sh <path-to-bench-binary> <output-dir>
set -euo pipefail

BENCH="$1"
OUT="$2"
name=$(basename "$BENCH")

mkdir -p "$OUT"
"$BENCH" --jobs 1 --json "$OUT/${name}_j1.json"
"$BENCH" --jobs 4 --json "$OUT/${name}_j4.json"
python3 - "$OUT/${name}_j1.json" "$OUT/${name}_j4.json" <<'PYEOF'
import sys
a, b = (open(p).read().split('"sweep"')[0] for p in sys.argv[1:3])
if a != b:
    sys.exit("jobs identity FAIL: payload differs between --jobs 1 and 4")
PYEOF
echo "jobs identity: $name payload byte-identical at --jobs 1 and 4"
