#!/bin/sh
# verify.sh — build, vet, test (with the race detector: the concurrent
# SPMD runtime is the point of the exercise), then smoke-run popsolve and
# popserver and read both traces back through poptrace.
set -eu

cd "$(dirname "$0")"

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"; echo "$unformatted"; exit 1
fi

echo "== go build =="
go build ./...

echo "== one Krylov driver =="
# The solve loop exists once (internal/core/driver.go). Every solve path is
# a shard program started by World.RunShards, so internal/core has exactly
# three outside its tests — Setup, EstimateEigenvalues, the driver — and a
# sixth hand-rolled loop cannot come back unnoticed; and neither it nor the
# baroclinic workload runs a rank program through the World.Run coroutine
# adapter.
runs=$(grep -n 'W\.RunShards(' internal/core/*.go | grep -v '_test\.go:' || true)
[ "$(printf '%s\n' "$runs" | grep -c .)" = 3 ] || {
    echo "internal/core must have exactly 3 W.RunShards( call sites outside tests, found:"; echo "$runs"; exit 1; }
adapter=$(grep -n 'W\.Run(' internal/core/*.go internal/baroclinic/*.go | grep -v '_test\.go:' || true)
[ -z "$adapter" ] || {
    echo "solve paths must not use the World.Run adapter:"; echo "$adapter"; exit 1; }

echo "== bounds-check-free inner loops (check_bce) =="
# The window idiom of the per-iteration kernels — the nine-point stencil
# (Apply, ApplyAndMaskedDot, residual), the masked dot, the vector updates
# (ChronGear's fused with its pointwise preconditioner and dots), the
# Chebyshev steps, the diagonal preconditioner over a block's wet runs, the
# EVP march over a tile's rows — exists so the prove pass can drop every
# bounds check from the loop over a run or row. The slicing that sets one
# up keeps its checks; the loop itself — the function's first such loop
# (`for i := range`, or the stencil's `for e := 2;`) to the brace that
# closes it — must have none.
bce=$(go build -gcflags=-d=ssa/check_bce ./internal/evp ./internal/stencil ./internal/core 2>&1)
inner_loop_checks() { # <file> <func signature prefix>: check_bce reports inside its row loop
    span=$(awk -v sig="$2" '
        index($0, sig) == 1 { infn = 1 }
        infn && !first && /for (i := range|e := 2;)/ { first = NR; last = $0; sub(/for.*/, "}", last) }
        first && NR > first && $0 == last { print first, NR; exit }' "$1")
    [ -n "$span" ] || { echo "no row loop found in \"$2\" ($1)"; exit 1; }
    echo "$bce" | awk -F: -v file="$1" -v span="$span" '
        BEGIN { split(span, s, " ") }
        $1 == file && $2 >= s[1] && $2 <= s[2]'
}
while IFS='|' read -r file sig; do
    found=$(inner_loop_checks "$file" "$sig")
    if [ -n "$found" ]; then
        echo "bounds checks inside the row loop of \"$sig\":"; echo "$found"; exit 1
    fi
done <<'EOF_LOOPS'
internal/evp/evp.go|func (pk *Packed) march(
internal/stencil/local.go|func (l *Local) Apply(
internal/stencil/local.go|func (l *Local) ApplyAndMaskedDot(
internal/core/solvers.go|func residual(
internal/core/solvers.go|func fusedUpdate(
internal/core/solvers.go|func axpy2(
internal/core/precond.go|func (p *diagPrecond) Apply(
internal/stencil/local.go|func (l *Local) MaskedDotInterior(
internal/core/solvers.go|func xpay(
internal/core/solvers.go|func chebStep(
internal/core/solvers.go|func chebBasisFirst(
internal/core/solvers.go|func chebBasisNext(
internal/core/solvers.go|func fusedUpdatePrecond(
EOF_LOOPS

echo "== poplint static analysis =="
# The `determinism`, `hotpathalloc`, `ctxflow` and `typederr` analyzers — no
# clocks or unordered sums in the numerics, no allocation in a hot path,
# contexts threaded, errors typed: the four invariants only a static check
# holds (DESIGN.md §10) — must run clean: go vet exits nonzero on any
# diagnostic. SPMD lockstep is the shard runtime's to hold (DESIGN.md §14.2).
poplint_tmp=$(mktemp -d)
go build -o "$poplint_tmp/poplint" ./cmd/poplint
go vet -vettool="$poplint_tmp/poplint" ./...
rm -rf "$poplint_tmp"

echo "== go test -race =="
# Every test of the tree under the race detector, once. Besides the unit
# tests this is where the named gates run, each under -race:
# - the analyzers' own tests (a violation+clean fixture each, the harness);
# - the zero-allocation steady state of the comm collectives
#   (TestSteadyStateCommAllocFree, TestExchangeMultiBufferReuse) and bitwise
#   residual histories across warm and cold arenas;
# - the shard executor (the executor_gates below) and the worker-shard and
#   s-step gates: solutions bitwise identical across threads 1/2/4/8, the
#   ceil(iters/s)+1 reduction bound, a capped solve reporting the residual
#   of the x it returns;
# - the answer oracle: every methods row x preconditioner x threads {1, 4}
#   against a dense LU solve on the friendly grid and four hostile masks
#   (TestSolversMatchDenseReference), FuzzDenseReference's
#   seed masks (the relations that need no oracle, TestRankCountInvariance
#   and TestMetamorphicRelations, run at GOMAXPROCS=1 below);
# - the serve, tracing and flight-recorder gates, the wire hops field by
#   field (DESIGN.md §14.1), doc coverage and the runnable examples.
# The allocation gate of the solvers, the fingerprints, the oracle's
# relations and the model's perturbation persistence run in the non-race
# build, at GOMAXPROCS=1 below.
go test -race ./...

echo "== shard executor gates on one scheduler thread (race) =="
# The rank runtime itself: Exchange/ExchangeMulti/AllReduce looped over
# NRank {2,7,64,676} x Threads {1,2,3,NRank,NRank+5}, bitwise equal to
# Threads=1 and to a sequential reduction tree, halo field bits against a
# sequential model of the exchange; a skipped collective, a
# collective inside a per-rank pass, a level-count mismatch, ranks entering
# one reduction with different payload widths or a panicking rank must fail
# fast on the run's caller instead of hanging or summing misaligned deposits.
# The race step above ran them at the host's GOMAXPROCS; here the whole
# process is on one scheduler thread, where a lost wake-up or a worker that
# never yields — a shard waiting on another shard's reduction or mailbox must
# park and be woken, not spin — would show as a hang.
executor_gates='TestExecutorStress|TestHaloExchangeAcrossThreads|TestHaloClocksReadSenderEntry|TestExchangeMultiLevelCountMismatch|TestAllReduceWidthMismatch|TestLockstepViolationFailsFast|TestHaloStallNamesEdge|TestRankPanicFailsFast'
GOMAXPROCS=1 go test -race -count=1 -run "$executor_gates" ./internal/comm/
# Every solve is a shard program whose workers park and wake on each other's
# reductions and seam mailboxes: the fingerprints, the solvers' allocation
# gate (a warm iteration allocates nothing, for every methods row x
# preconditioner), the cross-thread bitwise gate and the oracle's
# rank-layout and metamorphic relations (four-shard solves, skipped under
# -race above) on one scheduler thread, where a lost wake-up would hang;
# and the serve overload burst must still shed there.
GOMAXPROCS=1 go test -count=1 -run 'TestSolveFingerprints|TestSteadyStateSolverAllocFree|TestFloat64BitwiseAcrossThreads|TestRankCountInvariance|TestMetamorphicRelations' ./internal/core/
GOMAXPROCS=1 go test -count=1 -run 'TestOverloadShedsNeverBlocks' ./internal/serve/
# The twin-trajectory persistence check (1,100 model steps, skipped under
# -race above) on one scheduler thread.
GOMAXPROCS=1 go test -count=1 -run 'TestPerturbationsPersist' ./internal/model/

echo "== the executor end to end =="
# A -threads 1 and a -threads 4 popsolve run must print identical numerics
# (iterations, residual, error digits), for ChronGear and for the sharded
# s-step scheduler.
shard1=$(go run ./cmd/popsolve -grid test -method chrongear -precond evp -cores 12 -threads 1 | grep '^converged=')
shard4=$(go run ./cmd/popsolve -grid test -method chrongear -precond evp -cores 12 -threads 4 | grep '^converged=')
[ "$shard1" = "$shard4" ] || {
    echo "popsolve numerics differ across -threads:"; echo "  1: $shard1"; echo "  4: $shard4"; exit 1; }
ss1=$(go run ./cmd/popsolve -grid test -method sstep -precond evp -cores 12 -threads 1 | grep '^converged=')
ss4=$(go run ./cmd/popsolve -grid test -method sstep -precond evp -cores 12 -threads 4 | grep '^converged=')
[ "$ss1" = "$ss4" ] || {
    echo "popsolve sstep numerics differ across -threads:"; echo "  1: $ss1"; echo "  4: $ss4"; exit 1; }
echo "$ss1" | grep -q 'converged=true'

echo "== s-step residual replacement =="
# s-step + diagonal on 12 cores at 1e-15: the block recurrence's residual
# stalls above the target and the drift watch replaces it by b - A*x once;
# the solve then converges in 64 iterations. With the watch answering that
# stall with proceed instead, it stops unconverged after 72 at 8e-15.
repl=$(go run ./cmd/popsolve -grid test -cores 12 -method sstep -precond diagonal -tol 1e-15 | grep '^converged=')
echo "$repl" | grep -q 'converged=true'

echo "== P-CSI on a converged Lanczos interval =="
# The estimate stops on the Ritz residual, so P-CSI+EVP at 1 degree on 48
# cores runs on the true spectrum and converges in 320 iterations; with a
# step-to-step stop it took 790. Over 400 means the interval regressed.
pcsi=$(go run ./cmd/popsolve -grid 1deg -method pcsi -precond evp -cores 48 | grep '^converged=')
echo "$pcsi" | grep -q 'converged=true'
[ "$(echo "$pcsi" | sed 's/.*iterations=\([0-9]*\).*/\1/')" -le 400 ] || {
    echo "P-CSI+EVP at 1deg/48 took more than 400 iterations: $pcsi"; exit 1; }

echo "== the priced clock =="
# The unchanged benchmark at seed 1 on both 1 degree workloads: iterations,
# reductions, halo messages, halo KB and the priced (virtual) clock are
# exact. The exchange copies the stencil's one-cell ring but charges POP's
# width-2 strips, so the halo KB and the clock must not follow the layout.
priced() { # <workload> <iters> <reductions> <halo msgs> <halo KB> <virtual ms>
    out=$(go run ./benchmark -workload "$1" -seed 1 -seconds 1 -trace 1)
    got=$(echo "$out" | awk '
        $1 == "core.iters_per_solve" { a = $2 } $1 == "comm.reductions_per_solve" { b = $2 }
        $1 == "comm.halo_msgs_per_solve" { c = $2 } $1 == "comm.halo_kb_per_solve" { d = $2 }
        $1 == "perfmodel.virtual_ms" { e = $2 } END { print a, b, c, d, e }')
    [ "$got" = "$2 $3 $4 $5 $6" ] || {
        echo "$1 seed 1: iters/reductions/halo msgs/halo KB/virtual ms = $got, want $2 $3 $4 $5 $6"; exit 1; }
}
priced cg_diag_1deg_r768 320 321 805120 181190 18.8165
priced pcsi_evp_1deg_r48 320 33 44940 40004.6 35.9471

echo "== the retained heap =="
# What a set-up 1 degree solver keeps: per-block state, the ocean mask and its
# output buffer. The unchanged benchmark's live heap at seed 1, untraced, is
# 43.98 MB on cg_diag_1deg_r768 and 48.63 MB on pcsi_evp_1deg_r48 (51.48 and
# 63.39 when a set-up session kept its grid and its Lanczos workspace; 72.8
# on cg_diag when a blocking cache also pinned every grid it saw). A pinned
# grid or a retained global array crosses the 2 MB margin.
retains() { # <workload> <ceiling MB>
    heap=$(go run ./benchmark -workload "$1" -seed 1 -seconds 1 | awk '$1 == "live_heap_mb" { print $2 }')
    awk -v h="$heap" -v m="$2" 'BEGIN { exit !(h > 0 && h <= m) }' || {
        echo "$1 seed 1 retains $heap MB of live heap, want at most $2"; exit 1; }
}
retains cg_diag_1deg_r768 46.0
retains pcsi_evp_1deg_r48 50.7

echo "== the step belongs to the grid =="
# P-CSI+EVP on the scaled 0.1 degree grid at 200 cores, with no step given,
# runs at the grid's own step (dt_count 500, 172.8 s) and converges in about
# 80 iterations. At the 1 degree step it ran out its 2000.
tenth=$(go run ./cmd/popsolve -grid 0.1deg-scaled -method pcsi -precond evp -cores 200 | grep '^converged=')
echo "$tenth" | grep -q 'converged=true'
[ "$(echo "$tenth" | sed 's/.*iterations=\([0-9]*\).*/\1/')" -le 200 ] || {
    echo "P-CSI+EVP at 0.1deg-scaled/200 took more than 200 iterations: $tenth"; exit 1; }

echo "== one failure contract =="
# A solve that stops short of its tolerance prints its summary and exits
# non-zero with the *NotConvergedError text.
capped=$(go run ./cmd/popsolve -grid test -tol 1e-300 2>&1 >/dev/null) && {
    echo "popsolve -tol 1e-300 exited 0"; exit 1; }
echo "$capped" | grep -q 'did not converge after 2000 iterations' || {
    echo "popsolve -tol 1e-300 did not report its NotConvergedError: $capped"; exit 1; }

echo "== csi is one solver at every front end =="
# popmodel resolves its flags through core.Canonical, as popsolve and the
# server do, and its header names the pair it runs: -solver csi is P-CSI
# with no preconditioner, not P-CSI with the default diagonal one.
csi=$(go run ./cmd/popmodel -grid test -days 0.25 -solver csi)
echo "$csi" | grep -q 'steps, solver pcsi+none$' || {
    echo "popmodel -solver csi does not run pcsi+none: $csi"; exit 1; }

echo "== the model steps at its grid's step =="
# popmodel has no step of its own: one day on the test grid (dt_count 45) is
# 45 steps of 1,920 s, and a report interval shorter than one step reports
# every step.
day=$(go run ./cmd/popmodel -grid test -days 1)
echo "$day" | grep -q 'dt=1920s, 45 steps' || {
    echo "popmodel -grid test -days 1 does not step at the grid's 1,920 s: $day"; exit 1; }
go run ./cmd/popmodel -grid test -days 0.1 -report 0.01 >/dev/null || {
    echo "popmodel -report shorter than one step failed"; exit 1; }

echo "== answer-oracle fuzz (30s) =="
# FuzzDenseReference draws 20x16 masks: every methods row must match dense
# LU within 1e-9 or end in a typed error, and since every stop short of Tol
# is a *NotConvergedError the contract holds on the s-step plateaus too.
go test -run=NONE -fuzz=FuzzDenseReference -fuzztime=30s ./internal/core/

echo "== wire-surface fuzz smoke (10s per target) =="
# Short-budget native fuzzing of the two places network bytes meet
# hand-written parsing: the binary frame decoders (totality + byte-level
# re-encode idempotence) and the enum parsers (ErrBadSpec or a Valid value
# whose canonical spelling re-parses). Any crash fails the gate; longer
# budgets belong in CI, not here.
go test -run=NONE -fuzz=FuzzFrameDecode -fuzztime=10s ./internal/api/
go test -run=NONE -fuzz=FuzzParseMethod -fuzztime=10s ./internal/core/
go test -run=NONE -fuzz=FuzzParsePrecond -fuzztime=10s ./internal/core/

echo "== popsolve telemetry smoke run =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go run ./cmd/popsolve -grid test -method pcsi -precond evp -cores 12 \
    -trace "$tmp/t.json" > "$tmp/out.txt"

grep -q 'converged=true' "$tmp/out.txt"
grep -q 'per-rank phase breakdown' "$tmp/out.txt"
grep -q 'straggler league' "$tmp/out.txt"

# The CLI trace leaves through the same Perfetto export as the server's and
# is read by the same analyser: poptrace must find one track per rank, the
# six solver event kinds, and the straggler league popsolve itself printed.
go run ./cmd/poptrace "$tmp/t.json" > "$tmp/cli-poptrace.txt"
grep -q '^  9 rank tracks in 1 sessions, 0 requests' "$tmp/cli-poptrace.txt"
for kind in compute halo reduce residual eig_bound run_begin; do
    grep -Eq "^  $kind +[1-9][0-9]* events" "$tmp/cli-poptrace.txt" || {
        echo "poptrace found no $kind events in the popsolve trace"; exit 1; }
done
grep -q 'worker-shard rollup' "$tmp/cli-poptrace.txt"
league() { sed -n '/^straggler league/,/^$/p' "$1"; }
[ -n "$(league "$tmp/out.txt")" ] && [ "$(league "$tmp/out.txt")" = "$(league "$tmp/cli-poptrace.txt")" ] || {
    echo "popsolve's league differs from poptrace's reading of its trace"; exit 1; }

echo "== popserver HTTP smoke run (+ /debug/trace -> poptrace) =="
addr=127.0.0.1:18411
go build -o "$tmp/popserver" ./cmd/popserver
"$tmp/popserver" -addr "$addr" > "$tmp/server.log" 2>&1 &
server_pid=$!
trap 'rm -rf "$tmp"; kill "$server_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
    curl -fs "http://$addr/v1/healthz" > /dev/null 2>&1 && break
    sleep 0.1
done
curl -fs "http://$addr/v1/healthz" | grep -q '"status":"ok"'
curl -fs -X POST "http://$addr/v1/solve" \
    -d '{"grid":"test","method":"pcsi","precond":"evp","rhs":"smooth"}' \
    > "$tmp/solve.json"
grep -q '"converged":true' "$tmp/solve.json"
# Typed errors surface as HTTP statuses: unknown method -> 400.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/v1/solve" \
    -d '{"method":"warp","rhs":"smooth"}')
[ "$code" = 400 ] || { echo "bad method gave $code, want 400"; exit 1; }
curl -fs "http://$addr/metrics" | grep -q '^serve_solves_total'
curl -fs "http://$addr/metrics" | grep -q '^serve_queue_depth '
# The live Perfetto export parses and carries the solve's request record.
curl -fs "http://$addr/debug/trace" > "$tmp/server-trace.json"
python3 -c 'import json,sys; t=json.load(open(sys.argv[1])); assert t["popRequests"], "no request records"' \
    "$tmp/server-trace.json"
# The full observability pipeline: poptrace decomposes that export into a
# critical path that attributes a nonzero number of requests.
go run ./cmd/poptrace "$tmp/server-trace.json" > "$tmp/poptrace.txt"
grep -q 'per-request critical path' "$tmp/poptrace.txt"
grep -q 'aggregate critical path' "$tmp/poptrace.txt"
grep -q 'straggler league' "$tmp/poptrace.txt"
grep -q 'aggregate critical path (0 requests' "$tmp/poptrace.txt" && {
    echo "poptrace saw no requests"; exit 1; }
curl -fs "http://$addr/debug/flight" | grep -q '"recent"'
# /v1/stats reports build + capability info alongside the counters.
curl -fs "http://$addr/v1/stats" > "$tmp/stats.json"
grep -q '"go_version":"go' "$tmp/stats.json"
grep -q '"grids":\[' "$tmp/stats.json"
grep -q '"test"' "$tmp/stats.json"
# SIGTERM drains gracefully and the process exits on its own.
kill -TERM "$server_pid"
for _ in $(seq 1 50); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
    echo "popserver did not exit after SIGTERM"; exit 1
fi

echo "== fleet smoke run (popserver -fleet 2) =="
# One popserver routing onto two in-process worker shards (one dispatch per
# miss: no dedup, no failover), and the fleet guarantees end to end:
# /v1/solve in both encodings, a bitwise LRU-cache replay on the identical
# repeat (x compared bit for bit), enum validation with self-repairing
# 400s, and /v1/stats aggregation whose totals sum the workers' own
# counters.
router=127.0.0.1:18423
"$tmp/popserver" -addr "$router" -fleet 2 > "$tmp/router.log" 2>&1 &
router_pid=$!
trap 'rm -rf "$tmp"; kill "$server_pid" "$router_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
    curl -fs "http://$router/v1/healthz" > /dev/null 2>&1 && break
    sleep 0.1
done
# JSON /v1/solve through the router: a miss dispatched to a shard.
curl -fs -X POST "http://$router/v1/solve" \
    -d '{"grid":"test","method":"pcsi","precond":"evp","rhs":"smooth"}' \
    > "$tmp/fleet1.json"
grep -q '"converged":true' "$tmp/fleet1.json"
grep -q '"cache":"miss"' "$tmp/fleet1.json"
# The binary-frame probe sends the identical request: it must replay from
# the result cache without consulting a worker.
"$tmp/popserver" -probe "http://$router" -frame -method pcsi -precond evp \
    > "$tmp/probe.txt"
grep -q 'converged=true' "$tmp/probe.txt"
grep -q 'cache=hit' "$tmp/probe.txt"
grep -q 'shard=-1' "$tmp/probe.txt"
# A 400 names the failing field and lists the accepted spellings.
curl -s -X POST "http://$router/v1/solve" -d '{"method":"warp","rhs":"smooth"}' \
    > "$tmp/fleet400.json"
grep -q '"field":"method"' "$tmp/fleet400.json"
grep -q '"accepted":\["chrongear"' "$tmp/fleet400.json"
# A body still carrying the retired "precision" or "sstep" key is an unknown
# key like any other: ignored, so it is the same solve and replays from the
# cache.
curl -fs -X POST "http://$router/v1/solve" \
    -d '{"grid":"test","method":"pcsi","precond":"evp","precision":"float32","sstep":8,"rhs":"smooth"}' \
    > "$tmp/fleet2.json"
grep -q '"converged":true' "$tmp/fleet2.json"
grep -q '"cache":"hit"' "$tmp/fleet2.json"
# The replay is bitwise: an explicit b, nonzero everywhere so the answer's
# land points (x = b there) are nonzero too, solved once and replayed once,
# with x compared as the IEEE bits of Go's round-trip JSON floats.
python3 - "http://$router/v1/solve" <<'EOF'
import json, struct, sys, urllib.request
def solve(body):
    req = urllib.request.Request(sys.argv[1], data=json.dumps(body).encode(),
                                 headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req) as r:
        return json.load(r)
base = {"grid": "test", "method": "pcsi", "precond": "evp", "return_x": True}
n = len(solve(dict(base, rhs="smooth"))["x"])
b = [1 + (k % 13) / 16 for k in range(n)]
miss, hit = solve(dict(base, b=b)), solve(dict(base, b=b))
assert miss["converged"] and miss["cache"] == "miss", miss["cache"]
assert hit["cache"] == "hit", hit["cache"]
land = sum(1 for xk, bk in zip(miss["x"], b) if xk == bk)
assert 0 < land < n, land
bits = lambda x: struct.pack("<%dd" % len(x), *x)
assert len(hit["x"]) == n and bits(hit["x"]) == bits(miss["x"])
EOF
# /v1/stats: the router's totals row must sum the worker rows exactly, and
# the fleet counters must have seen our hit and misses.
curl -fs "http://$router/v1/stats" > "$tmp/fleetstats.json"
python3 - "$tmp/fleetstats.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert len(s["workers"]) == 2, s["workers"]
assert s["fleet"]["cache_hits"] >= 1, s["fleet"]
assert s["fleet"]["cache_misses"] >= 1, s["fleet"]
for field in ("requests", "solves", "sessions", "errors"):
    total = sum(w["counters"][field] for w in s["workers"])
    assert s["totals"][field] == total, (field, s["totals"][field], total)
assert sum(w["counters"]["solves"] for w in s["workers"]) >= 1
EOF
# The router serves its fleet_* metrics (hit count asserted above).
curl -fs "http://$router/metrics" | grep -q '^fleet_cache_hits_total '
kill -TERM "$router_pid" 2>/dev/null || true
for _ in $(seq 1 50); do
    kill -0 "$router_pid" 2>/dev/null || break
    sleep 0.1
done

echo "verify.sh: OK"
