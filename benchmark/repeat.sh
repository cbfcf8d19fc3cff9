#!/usr/bin/env bash
# Measures the benchmark's own noise: runs the full untraced pass N times
# (seed i on pass i) and prints, per workload x end-to-end metric, the
# median, min, max, (max - min)/median, the interquartile range over the
# median, and the largest deviation from the median.
#
#   bash benchmark/repeat.sh 10 [seconds]
set -euo pipefail

n="${1:?usage: repeat.sh N [seconds]}"
seconds="${2:-20}"
here="$(dirname "${BASH_SOURCE[0]}")"
out="$here/out"
mkdir -p "$out"
log="$out/repeat.jsonl"
: > "$log"

for ((i = 1; i <= n; i++)); do
    for w in wire_mixed ingest_decay query_scan consume_cook; do
        echo "pass $i/$n: $w" >&2
        line="$(bash "$here/run.sh" --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 | tail -n 1)"
        echo "{\"workload\": \"$w\", \"seed\": $i, \"result\": $line}" >> "$log"
    done
done

python3 - "$log" <<'PY'
import json, statistics, sys
runs = {}
for line in open(sys.argv[1]):
    r = json.loads(line)
    assert r["result"]["correct"] and r["result"]["failed"] == 0, r
    for name, m in r["result"]["metrics"].items():
        runs.setdefault((r["workload"], name, m["unit"]), []).append(m["value"])
print("| workload | metric | unit | median | min | max | (max-min)/median | IQR/median | max dev |")
print("|---|---|---|---|---|---|---|---|---|")
for (w, name, unit), v in runs.items():
    med = statistics.median(v)
    iqr = 0.0
    if len(v) >= 2:
        q = statistics.quantiles(v, n=4)
        iqr = (q[2] - q[0]) / med
    dev = max(abs(x - med) for x in v) / med
    print(f"| {w} | {name} | {unit} | {med:.4g} | {min(v):.4g} | {max(v):.4g} "
          f"| {(max(v) - min(v)) / med:.4f} | {iqr:.4f} | {dev:.4f} |")
PY
