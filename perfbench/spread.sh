#!/usr/bin/env bash
# Runs the benchmark once per seed on each named workload and prints each
# metric's median and interquartile spread (as a share of the median).
# Run from the repository root:
#
#   bash perfbench/spread.sh "pingpong pipeline" 10 [seconds] [trace]
#
# Per-run contract lines are kept in .bench_build/perfbench/spread-*.jsonl.
set -euo pipefail
workloads=${1:-"pingpong pipeline pipeline-socket em3d"}
runs=${2:-10}
seconds=${3:-10}
trace=${4:-0}
out=.bench_build/perfbench
bash perfbench/run.sh --help >/dev/null 2>&1 || true
for w in $workloads; do
	f="$out/spread-$w-trace$trace.jsonl"
	: >"$f"
	for seed in $(seq 1 "$runs"); do
		"$out/perfbench" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1 >>"$f"
	done
	echo "== $w ($runs seeds, ${seconds}s, trace $trace)"
	"$out/perfbench" spread "$f"
done
