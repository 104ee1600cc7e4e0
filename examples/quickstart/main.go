// Quickstart: build a small synthetic ocean grid, assemble the barotropic
// operator, and solve one implicit free-surface system with the paper's
// P-CSI + block-EVP solver, comparing it against POP's production
// ChronGear solver.
package main

import (
	"fmt"
	"log"
	"math"

	"repro"
)

func main() {
	// A 64×48 synthetic global ocean: continents, shelves, and straits.
	g, err := pop.NewGrid(pop.GridTest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid %q: %d×%d, %.0f%% ocean\n", g.Name, g.Nx, g.Ny, 100*g.OceanFraction())

	// Manufacture a right-hand side with a known solution.
	op := pop.AssembleOperator(g, g.Tau())
	xTrue := make([]float64, g.N())
	for k, ocean := range g.Mask {
		if ocean {
			xTrue[k] = math.Sin(g.TLon[k]/30) * math.Cos(g.TLat[k]/20)
		}
	}
	b := make([]float64, g.N())
	op.Apply(b, xTrue)
	for k, ocean := range g.Mask {
		if !ocean {
			b[k] = 0
		}
	}

	// Solve with both solvers on 12 virtual cores, priced as Yellowstone.
	for _, spec := range []pop.SolverSpec{
		{Method: pop.MethodChronGear, Precond: pop.PrecondDiagonal, Cores: 12, MachineName: "yellowstone"},
		{Method: pop.MethodPCSI, Precond: pop.PrecondEVP, Cores: 12, MachineName: "yellowstone"},
	} {
		solver, err := pop.NewSolver(g, spec)
		if err != nil {
			log.Fatal(err)
		}
		res, x, err := solver.Solve(b, nil)
		if err != nil {
			log.Fatal(err)
		}
		var maxErr float64
		for k, ocean := range g.Mask {
			if ocean {
				maxErr = math.Max(maxErr, math.Abs(x[k]-xTrue[k]))
			}
		}
		perRank := int64(len(res.Stats.PerRank))
		fmt.Printf("%-20s iters=%-4d err=%.2e reductions/rank=%-4d virtual=%.3gs\n",
			spec.Method.String()+"+"+spec.Precond.String(), res.Iterations, maxErr,
			res.Stats.Sum.Reductions/perRank, res.Stats.MaxClock)
	}
	fmt.Println("note how P-CSI needs more iterations but almost no global reductions —")
	fmt.Println("the trade that wins at tens of thousands of cores (paper §3).")
}
