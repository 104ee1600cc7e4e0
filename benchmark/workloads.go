package main

import (
	pop "repro"
)

// Solver settings shared by every workload: POP's production tolerance and
// 1° time step, priced on the paper's machine.
const (
	solveTol    = 1e-13
	solveTau    = 1920
	machineName = "yellowstone"
)

// Correctness limits, checked by the benchmark with stencil.Operator.Apply
// outside every timed interval.
const (
	// maxTrueResidual bounds ‖b−Ax‖₂/‖b‖₂ over ocean points.
	maxTrueResidual = 1e-11
	// maxSolutionError bounds ‖x−x_true‖∞/‖x_true‖∞ against the
	// manufactured solution the right-hand side was built from.
	maxSolutionError = 1e-9
)

// Fleet workload shape.
const (
	fleetWorkers     = 2
	fleetWorkerCores = 4
	// hitRHSPerKey distinct right-hand sides per session key are solved in
	// set-up; every timed request of fleet_hit_test64 replays one of them.
	hitRHSPerKey = 16
	// popRHS distinct right-hand sides cycle through a pop workload.
	popRHS = 8
	// warmups untimed operations run before the first timed one; the first
	// of them is part of setup_s (lazy EVP factorisation, Lanczos).
	warmups = 3
)

// solveKey is one (method, preconditioner) session key.
type solveKey struct {
	method  pop.Method
	precond pop.Precond
}

// fleetKeys are the four session keys the fleet workloads round-robin over.
var fleetKeys = []solveKey{
	{pop.MethodChronGear, pop.PrecondDiagonal},
	{pop.MethodChronGear, pop.PrecondEVP},
	{pop.MethodPCSI, pop.PrecondDiagonal},
	{pop.MethodPCSI, pop.PrecondEVP},
}

// workload is one named set of inputs. The names are the benchmark's
// contract with BENCHMARK.json and with every later change measured by it.
type workload struct {
	name string
	// grid, cores and key say what the workload solves; for fleet workloads
	// cores is the per-session rank count and key the configuration the
	// per-layer probes run (the heaviest of fleetKeys).
	grid  string
	cores int
	key   solveKey
	// fleet selects pop.Fleet over pop.Solver; hit replays pre-solved
	// requests instead of sending unique ones.
	fleet, hit bool
	// clients is the closed-loop client count, never above nproc.
	clients int
	// tailPct is the fixed tail percentile reported beside the median.
	tailPct float64
}

var workloads = []workload{
	{name: "cg_diag_1deg_r768", grid: pop.GridOneDegree, cores: 768,
		key: solveKey{pop.MethodChronGear, pop.PrecondDiagonal}, clients: 1, tailPct: 75},
	{name: "pcsi_evp_1deg_r48", grid: pop.GridOneDegree, cores: 48,
		key: solveKey{pop.MethodPCSI, pop.PrecondEVP}, clients: 1, tailPct: 75},
	{name: "fleet_miss_test64", grid: pop.GridTest, cores: fleetWorkerCores,
		key: solveKey{pop.MethodPCSI, pop.PrecondEVP}, fleet: true, clients: 2, tailPct: 99},
	{name: "fleet_hit_test64", grid: pop.GridTest, cores: fleetWorkerCores,
		key: solveKey{pop.MethodPCSI, pop.PrecondEVP}, fleet: true, hit: true, clients: 2, tailPct: 99},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
