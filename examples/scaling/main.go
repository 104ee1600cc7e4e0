// Scaling: a miniature of the paper's Figure 8 — sweep virtual core counts
// on the scaled 0.1° grid and watch ChronGear's global reductions become
// the bottleneck while P-CSI stays flat.
package main

import (
	"fmt"
	"log"
	"math"

	"repro"
)

func main() {
	g, err := pop.NewGrid(pop.GridTenthDegreeScaled) // 900×600, 0.1° geography
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid %q: %d×%d (scaled 0.1°)\n\n", g.Name, g.Nx, g.Ny)

	// The solve repeats g.DtCount times per simulated day in POP, at the
	// grid's own step (NewSolver's default).
	b := syntheticRHS(g)

	fmt.Println("cores  chrongear+diag s/day  pcsi+evp s/day  speedup")
	for _, target := range []int{30, 120, 340, 1055} {
		var day [2]float64
		var cores int
		for i, spec := range []pop.SolverSpec{
			{Method: pop.MethodChronGear, Precond: pop.PrecondDiagonal},
			{Method: pop.MethodPCSI, Precond: pop.PrecondEVP},
		} {
			spec.Cores = target
			spec.MachineName = "yellowstone"
			solver, err := pop.NewSolver(g, spec)
			if err != nil {
				log.Fatal(err)
			}
			res, _, err := solver.Solve(b, nil)
			if err != nil {
				log.Fatal(err)
			}
			day[i] = res.Stats.MaxClock * float64(g.DtCount)
			cores = solver.Cores
		}
		fmt.Printf("%5d  %20.2f  %14.2f  %6.2fx\n", cores, day[0], day[1], day[0]/day[1])
	}
	fmt.Println("\n(virtual Yellowstone seconds; the paper reaches 5.2x at 16,875 real cores)")
}

func syntheticRHS(g *pop.Grid) []float64 {
	op := pop.AssembleOperator(g, g.Tau())
	x := make([]float64, g.N())
	for k, ocean := range g.Mask {
		if ocean {
			x[k] = math.Sin(g.TLon[k]/20) * math.Cos(g.TLat[k]/15)
		}
	}
	b := make([]float64, g.N())
	op.Apply(b, x)
	for k, ocean := range g.Mask {
		if !ocean {
			b[k] = 0
		}
	}
	return b
}
