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
# The row-window idiom of the per-iteration kernels — the nine-point stencil
# (Apply, ApplyAndMaskedDot, residual), the fused vector updates, the
# diagonal preconditioner, the EVP march — exists so the prove pass can drop
# every bounds check from the loop over a row. The slicing that sets a row
# up keeps its checks; the loop itself — the function's first row loop
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
EOF_LOOPS

echo "== poplint static analysis =="
# The `collectivelockstep`, `determinism`, `hotpathalloc`, `ctxflow` and
# `typederr` analyzers — SPMD lockstep with interprocedural taint, no clocks
# or unordered sums in the numerics, no allocation in a hot path, contexts
# threaded, errors typed: the five invariants only a static check holds
# (DESIGN.md §10) — must run clean: go vet exits nonzero on any diagnostic.
poplint_tmp=$(mktemp -d)
go build -o "$poplint_tmp/poplint" ./cmd/poplint
go vet -vettool="$poplint_tmp/poplint" ./...
rm -rf "$poplint_tmp"

echo "== poplint analyzer suite (race) =="
# The five analyzers' own tests — a violation+clean fixture each, the
# interprocedural lockstep testdata and the harness — with the test cache
# defeated so the gate always runs.
go test -race -count=1 ./internal/analysis/...

echo "== go test -race =="
go test -race ./...

echo "== zero-allocation steady state (comm + core) =="
# The allocation-discipline gate: pooled halo buffers, reduction workspaces
# and solver arenas must keep the steady-state iteration allocation-free and
# bitwise deterministic. -count=1 defeats the test cache so the gate always
# executes.
go test -race -count=1 \
    -run 'TestExchangeMultiBufferReuse|TestSteadyStateCommAllocFree' \
    ./internal/comm/
go test -race -count=1 \
    -run 'TestSteadyStateSolverAllocFree|TestPCSIResidualHistoryBitwiseDeterministic' \
    ./internal/core/

echo "== shard executor gates (race) =="
# The rank runtime itself: Exchange/ExchangeMulti/AllReduce looped over
# NRank {2,7,64,676} x Threads {1,2,3,NRank,NRank+5} x GOMAXPROCS {1,2},
# bitwise equal to Threads=1 and to a sequential reduction tree — which
# holds the shard exchange's direct copies (Threads=1: every halo edge) to
# its mailboxes (Threads=NRank: every edge) — and the same with halo drops
# and corruptions injected, against a sequential model; a skipped
# collective, a level-count mismatch, ranks entering one reduction with
# different payload widths or a panicking rank must fail fast on the run's
# caller instead of hanging or summing misaligned deposits — each of the
# three fail-fast tests with a World.Run row and a shard-program row (a
# shard skipping a collective, leaving before an exchange, panicking in a
# per-rank pass). Once more with the whole process on one scheduler thread,
# where a lost wake-up or a worker that never yields — a shard waiting on
# another shard's reduction or mailbox must park and be woken, not spin —
# would show as a hang; and the serve overload burst must still shed there.
executor_gates='TestExecutorStress|TestFaultedExchangeAcrossThreads|TestHaloClocksReadSenderEntry|TestExchangeMultiLevelCountMismatch|TestAllReduceWidthMismatch|TestLockstepViolationFailsFast|TestHaloStallNamesEdge|TestRankPanicFailsFast'
go test -race -count=1 -run "$executor_gates" ./internal/comm/
GOMAXPROCS=1 go test -race -count=1 -run "$executor_gates" ./internal/comm/
go test -race -count=1 -run 'TestChaosAcrossThreads' ./internal/core/
# Every solve is a shard program whose workers park and wake on each other's
# reductions and seam mailboxes: the fingerprints, the allocation gate and
# the cross-thread bitwise gate on one scheduler thread, where a lost
# wake-up would hang.
GOMAXPROCS=1 go test -count=1 -run 'TestSolveFingerprints|TestSteadyStateSolverAllocFree|TestFloat64BitwiseAcrossThreads' ./internal/core/
GOMAXPROCS=1 go test -count=1 -run 'TestOverloadShedsNeverBlocks' ./internal/serve/

echo "== worker-shard gate (race) =="
# Hardware-parallelism invariant: solutions and residual histories are
# bitwise identical across worker-shard counts (threads 1/2/4/8), under the
# race detector.
go test -race -count=1 -run 'TestFloat64BitwiseAcrossThreads' ./internal/core/
# The executor end to end: a -threads 1 and a -threads 4 popsolve
# run must print identical numerics (iterations, residual, error digits).
shard1=$(go run ./cmd/popsolve -grid test -method chrongear -precond evp -cores 12 -threads 1 | grep '^converged=')
shard4=$(go run ./cmd/popsolve -grid test -method chrongear -precond evp -cores 12 -threads 4 | grep '^converged=')
[ "$shard1" = "$shard4" ] || {
    echo "popsolve numerics differ across -threads:"; echo "  1: $shard1"; echo "  4: $shard4"; exit 1; }

echo "== s-step solver gates (race) =="
# The communication-avoiding s-step solver: RMSZ convergence equivalence
# with fp64 ChronGear for every preconditioner × s, the ceil(iters/s)+1
# reduction bound counted from the communicator, and fp64 bitwise
# determinism across worker shards and warm-arena repeats.
go test -race -count=1 -run 'TestSStep' ./internal/core/
# The sharded s-step scheduler end to end: -threads 1 and -threads 4 runs
# must print identical numerics, like the ChronGear gate above.
ss1=$(go run ./cmd/popsolve -grid test -method sstep -precond evp -cores 12 -threads 1 | grep '^converged=')
ss4=$(go run ./cmd/popsolve -grid test -method sstep -precond evp -cores 12 -threads 4 | grep '^converged=')
[ "$ss1" = "$ss4" ] || {
    echo "popsolve sstep numerics differ across -threads:"; echo "  1: $ss1"; echo "  4: $ss4"; exit 1; }
echo "$ss1" | grep -q 'converged=true'

echo "== s-step residual replacement =="
# s = 8 + diagonal on 32 cores at 1e-14: the block recurrence plateaus near
# 1e-10 and runs out its 2000 iterations without the drift watch; one
# residual replacement takes it to convergence in 80.
repl=$(go run ./cmd/popsolve -grid test -cores 32 -method sstep -sstep 8 -precond diagonal -tol 1e-14 | grep '^converged=')
echo "$repl" | grep -q 'converged=true'

echo "== P-CSI on a converged Lanczos interval =="
# The estimate stops on the Ritz residual, so P-CSI+EVP at 1 degree on 48
# cores runs on the true spectrum and converges in 320 iterations; with a
# step-to-step stop it took 790. Over 400 means the interval regressed.
pcsi=$(go run ./cmd/popsolve -grid 1deg -method pcsi -precond evp -cores 48 | grep '^converged=')
echo "$pcsi" | grep -q 'converged=true'
[ "$(echo "$pcsi" | sed 's/.*iterations=\([0-9]*\).*/\1/')" -le 400 ] || {
    echo "P-CSI+EVP at 1deg/48 took more than 400 iterations: $pcsi"; exit 1; }

echo "== wire-surface fuzz smoke (10s per target) =="
# Short-budget native fuzzing of the two places network bytes meet
# hand-written parsing: the binary frame decoders (totality + byte-level
# re-encode idempotence) and the enum parsers (ErrBadSpec or a Valid value
# whose canonical spelling re-parses). Any crash fails the gate; longer
# budgets belong in CI, not here.
go test -run=NONE -fuzz=FuzzFrameDecode -fuzztime=10s ./internal/api/
go test -run=NONE -fuzz=FuzzParseMethod -fuzztime=10s ./internal/core/
go test -run=NONE -fuzz=FuzzParsePrecond -fuzztime=10s ./internal/core/

echo "== doc coverage + examples =="
# Every exported identifier of the public surface (pop, serve, faults, obs,
# analysis + its harness, api, fleet, core, comm, decomp, grid, stencil)
# must carry a doc comment, every command line, `popbench -exp` id,
# -method / -solver / -precond spelling and BENCH_*.json that README,
# ARCHITECTURE, SOLVERS, DESIGN and this script name must still exist,
# every alternative of this script's `go test -run` patterns and every
# -fuzz name must match a test of the package its line names (go test
# passes silently on a pattern that matches nothing), and the runnable
# Example* functions must pass.
go test -count=1 -run 'TestPublicSurfaceDocumented|TestDocsNameRealFlagsAndArtifacts|Example' .

echo "== chaos / resilience gates (race) =="
# Fault injection must be bitwise invisible when disabled for every method,
# all 20 cells of the {four methods} x {five fault classes} table must
# recover to the true-residual tolerance on the check ladder alone, the
# degraded-mode ladder must engage and hold every row of the methods table
# to its rungs (TestLadderCoversMethodsTable), and the serve layer must
# retry a faulted request once, surface one that faults again as a typed
# ErrFaulted, and hand a request's s-step block size to its session — all
# under the race detector.
go test -race -count=1 \
    -run 'TestInjectorDisabledBitwiseIdentical|Recovery$|TestRecoveryBudgetExhaustionFaults|TestLadder|TestChaosRunsDeterministic' \
    ./internal/core/
go test -race -count=1 -run 'TestServe' ./internal/serve/

echo "== serve concurrency gates (race) =="
# The serving-layer invariants: pooled concurrent solves stay bitwise
# identical to serial, a full queue sheds with ErrOverloaded instead of
# blocking, expired requests are skipped, and Close drains gracefully.
go test -race -count=1 \
    -run 'TestPooledSolvesBitwiseIdenticalToSerial|TestOverloadShedsNeverBlocks|TestBatchingCoalesces|TestDeadlineExpiryMidSolve|TestExpiredInQueueSkipped|TestGracefulDrain' \
    ./internal/serve/

echo "== request tracing gates (race) =="
# End-to-end tracing invariants: one traced request's seven-phase
# attribution sums to within 5% of measured latency, tracing leaves
# solutions bitwise identical, Perfetto export survives concurrent load,
# the flight recorder's fixed ring keeps the newest records under
# concurrent notes and reads, span recording stays zero-alloc, and the
# Prometheus exposition escapes hostile HELP/label content.
go test -race -count=1 \
    -run 'TestTracedRequestAttribution|TestTracingDoesNotPerturbSolutions|TestPerfettoExportDuringLoad|TestTraceDroppedExported|TestQueueDepthMetrics' \
    ./internal/serve/
go test -race -count=1 \
    -run 'TestPerfettoRoundTrip|TestSpanRecordZeroAlloc|TestExportDroppedCounter|TestPrometheusEscapingConformance|TestConcurrentRegistryRegistration|TestFlight' \
    ./internal/obs/

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

echo "== wire hops, field by field =="
# A request field crosses five hops — JSON -> frame (Parse), the frame codec,
# frame -> serve (popserver's dispatch), serve -> frame (HTTPWorker), and the
# pool and cache keys. One reflective test per hop enumerates the struct's
# fields, so a field a hop forgot fails by name (DESIGN.md §14.1).
go test -count=1 -run 'TestParseCarriesEveryField|TestFrameRequestRoundTrip|TestHashSolve' ./internal/api/
go test -count=1 -run 'TestServeRequestCarriesEveryFrameField' ./cmd/popserver/
go test -count=1 -run 'TestFrameRequestCarriesEveryServeField|TestCacheKeyCoversEveryServeField' ./internal/fleet/
go test -count=1 -run 'TestKeyCoversRequestScalars' ./internal/serve/

echo "== fleet smoke run (router + 2 workers over the binary frame) =="
# Two worker popservers, a router consistent-hashing onto them over the
# compact binary frame (one dispatch per miss: no dedup, no failover), and
# the fleet guarantees end to end: /v1/solve in both encodings, a bitwise
# LRU-cache replay on the identical repeat, enum validation with
# self-repairing 400s, and /v1/stats aggregation whose totals sum the
# workers' own counters.
w1=127.0.0.1:18421; w2=127.0.0.1:18422; router=127.0.0.1:18423
"$tmp/popserver" -addr "$w1" > "$tmp/w1.log" 2>&1 &
w1_pid=$!
"$tmp/popserver" -addr "$w2" > "$tmp/w2.log" 2>&1 &
w2_pid=$!
trap 'rm -rf "$tmp"; kill "$server_pid" "$w1_pid" "$w2_pid" "$router_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
    curl -fs "http://$w1/v1/healthz" > /dev/null 2>&1 \
        && curl -fs "http://$w2/v1/healthz" > /dev/null 2>&1 && break
    sleep 0.1
done
"$tmp/popserver" -addr "$router" -routeto "http://$w1,http://$w2" > "$tmp/router.log" 2>&1 &
router_pid=$!
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
# A body still carrying the retired "precision" key is an unknown key like
# any other: ignored, so it is the same solve and replays from the cache.
curl -fs -X POST "http://$router/v1/solve" \
    -d '{"grid":"test","method":"pcsi","precond":"evp","precision":"float32","rhs":"smooth"}' \
    > "$tmp/fleet2.json"
grep -q '"converged":true' "$tmp/fleet2.json"
grep -q '"cache":"hit"' "$tmp/fleet2.json"
# /v1/stats: the router's totals row must sum the worker rows exactly, and
# the fleet counters must have seen our hit and misses.
curl -fs "http://$router/v1/stats" > "$tmp/fleetstats.json"
python3 - "$tmp/fleetstats.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["fleet"]["cache_hits"] >= 1, s["fleet"]
assert s["fleet"]["cache_misses"] >= 1, s["fleet"]
for field in ("requests", "solves", "sessions", "errors"):
    total = sum(w["counters"][field] for w in s["workers"])
    assert s["totals"][field] == total, (field, s["totals"][field], total)
assert sum(w["counters"]["solves"] for w in s["workers"]) >= 1
assert all(w["healthy"] for w in s["workers"]), s["workers"]
EOF
# The router serves its fleet_* metrics (hit count asserted above).
curl -fs "http://$router/metrics" | grep -q '^fleet_cache_hits_total '
kill -TERM "$router_pid" "$w1_pid" "$w2_pid" 2>/dev/null || true
for _ in $(seq 1 50); do
    kill -0 "$router_pid" 2>/dev/null || break
    sleep 0.1
done

echo "verify.sh: OK"
