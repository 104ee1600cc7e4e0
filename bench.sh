#!/bin/sh
# bench.sh — run the kernel-level microbenchmarks (stencil apply, halo
# exchange, global reductions, steady-state solves) and the multi-core
# scaling curve (worker shards), with allocation reporting,
# and distill the results into BENCH_kernels.json so allocation or
# wall-clock regressions in the zero-allocation steady-state machinery
# are visible as a diff.
#
# Usage: ./bench.sh [count]   (count = benchmark repetitions, default 3)
set -eu

cd "$(dirname "$0")"
count=${1:-3}
out=BENCH_kernels.json
raw=$(mktemp)
trap 'rm -rf "$raw"' EXIT

echo "== kernel benchmarks (-benchmem, count=$count) =="
go test -run '^$' \
    -bench 'BenchmarkStencilApply|BenchmarkHaloExchange|BenchmarkAllReduce64Ranks|BenchmarkReduce$|BenchmarkSolveSteadyState|BenchmarkSolveScaling' \
    -benchmem -benchtime=200ms -count="$count" . | tee "$raw"

go_version=$(go env GOVERSION)
python3 - "$raw" "$count" "$go_version" > "$out" <<'EOF'
import json, os, re, sys

# Lines look like:
#   BenchmarkHaloExchange   	    1234	     19876 ns/op	    4528 B/op	      68 allocs/op
pat = re.compile(
    r"^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op"
    r"(?:\s+[\d.]+ MB/s)?"
    r"(?:\s+([\d.]+) B/op\s+([\d.]+) allocs/op)?")
runs = {}
for line in open(sys.argv[1]):
    m = pat.match(line)
    if not m:
        continue
    runs.setdefault(m.group(1), []).append({
        "ns_per_op": float(m.group(3)),
        "bytes_per_op": float(m.group(4)) if m.group(4) else None,
        "allocs_per_op": float(m.group(5)) if m.group(5) else None,
    })

bench = {}
for name, rs in sorted(runs.items()):
    ns = sorted(r["ns_per_op"] for r in rs)
    bench[name] = {
        "ns_per_op_median": ns[len(ns) // 2],
        "ns_per_op_min": ns[0],
        "bytes_per_op": rs[0]["bytes_per_op"],
        "allocs_per_op": rs[0]["allocs_per_op"],
        "runs": len(rs),
    }

# Hardware header: wall-clock numbers are only comparable between runs
# with equal hardware, so every report records its execution context.
ncpu = os.cpu_count() or 1
gomaxprocs = int(os.environ.get("GOMAXPROCS", ncpu))
hardware = {"go_version": sys.argv[3], "gomaxprocs": gomaxprocs,
            "num_cpu": ncpu, "worker_shards": gomaxprocs}

# Scaling section: the BenchmarkSolveScaling/fp64/threads=<n> curve plus
# the measured 4-worker speedup (recorded, not gated). The solves are
# fixed-length (60 iterations), so ns ratios are clean.
fp64 = {}
for n in (1, 2, 4, 8):
    e = bench.get(f"BenchmarkSolveScaling/fp64/threads={n}")
    if e:
        fp64[str(n)] = e["ns_per_op_median"]
scaling_out = None
if fp64:
    scaling_out = {"curves_ns": {"fp64": fp64}}
    if "1" in fp64 and "4" in fp64:
        scaling_out["fp64_speedup_4_workers"] = fp64["1"] / fp64["4"]

json.dump({"benchtime": "200ms", "count": int(sys.argv[2]),
           "hardware": hardware, "scaling": scaling_out,
           "benchmarks": bench}, sys.stdout, indent=2)
print()
EOF

echo "bench.sh: wrote $out"

echo "== solve service load test =="
# Closed-loop throughput + overload shedding for the concurrent solve
# service; fails if the small-grid rate drops below 200 solves/s or the
# overload phase stops shedding. Writes BENCH_serve.json alongside.
go run ./cmd/popbench -serve

echo "bench.sh: wrote BENCH_serve.json"

echo "== fleet router benchmark =="
# Fleet vs single-process baseline on one box: the cached fleet must hold
# ≥5× baseline throughput with p99 ≤ 2× the single-shard p99. The no-cache
# phase records the honest dispatch-only number (nocache_speedup_x in
# BENCH_fleet.json), ungated.
go run ./cmd/popbench -fleet

echo "bench.sh: wrote BENCH_fleet.json"

echo "== s-step reduction-crossover sweep =="
# Communication-avoiding s-step CG vs ChronGear and P-CSI at the same
# tolerance: iterations, reductions per rank (gated at ceil(iters/s)+1),
# priced virtual time, and the perfmodel closed-form prediction per row.
go run ./cmd/popbench -sstep

echo "bench.sh: wrote BENCH_sstep.json"
