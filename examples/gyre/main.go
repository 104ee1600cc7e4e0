// Gyre: integrate the wind-driven barotropic ocean model for a month and
// watch the circulation spin up. Every time step solves the implicit
// free-surface system with the paper's P-CSI + block-EVP solver — the same
// code path POP's barotropic mode exercises 500 times per simulated day at
// 0.1°.
package main

import (
	"fmt"
	"log"
	"math"

	"repro"
	"repro/internal/core"
)

func main() {
	g, err := pop.NewGrid(pop.GridTest)
	if err != nil {
		log.Fatal(err)
	}
	m, err := pop.NewModel(pop.ModelConfig{
		Grid:       g,
		Method:     core.MethodPCSI,
		SolverOpts: core.Options{Precond: core.PrecondEVP},
	})
	if err != nil {
		log.Fatal(err)
	}

	const daysTotal, reportEvery = 30, 5
	stepsPerDay := g.DtCount
	fmt.Println("day   KE            max|u| m/s  ssh range m        solver iters")
	for day := 0; day < daysTotal; day += reportEvery {
		if err := m.Run(reportEvery * stepsPerDay); err != nil {
			log.Fatal(err)
		}
		var maxU, lo, hi float64
		for k := range m.U {
			maxU = math.Max(maxU, math.Hypot(m.U[k], m.V[k]))
		}
		for k, ocean := range g.Mask {
			if ocean {
				lo = math.Min(lo, m.Eta[k])
				hi = math.Max(hi, m.Eta[k])
			}
		}
		fmt.Printf("%3d   %.4e    %.3f       [%+.3f, %+.3f]   %d\n",
			day+reportEvery, m.KineticEnergy(), maxU, lo, hi,
			m.IterHistory[len(m.IterHistory)-1])
	}

	// Zonal-mean SSH profile: the gyres leave alternating highs and lows.
	fmt.Println("\nzonal-mean SSH by latitude band:")
	for j := 0; j < g.Ny; j += g.Ny / 8 {
		var sum float64
		n := 0
		for i := 0; i < g.Nx; i++ {
			k := g.Idx(i, j)
			if g.Mask[k] {
				sum += m.Eta[k]
				n++
			}
		}
		if n > 0 {
			lat := g.TLat[g.Idx(0, j)]
			bar := int(40 + sum/float64(n)*400)
			if bar < 0 {
				bar = 0
			}
			if bar > 78 {
				bar = 78
			}
			fmt.Printf("lat %+6.1f  %+.4f m  %s*\n", lat, sum/float64(n), spaces(bar))
		}
	}
}

func spaces(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = ' '
	}
	return string(out)
}
