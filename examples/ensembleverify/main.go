// Ensembleverify: a miniature of the paper's §6 — verify that a *new*
// barotropic solver produces a climate consistent with the production one
// using the ensemble RMSZ method, and show why the plain RMSE test cannot
// make that call.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
	"repro/internal/grid"
)

const (
	members = 12
	steps   = 400 // post-spinup comparison window
	spinup  = 300
)

func main() {
	spec := grid.TestSpec()
	spec.Nx, spec.Ny = 48, 36
	base, err := pop.NewModel(pop.ModelConfig{
		Grid:       grid.Generate(spec),
		Method:     core.MethodChronGear,
		SolverOpts: core.Options{Precond: core.PrecondDiagonal, Tol: 1e-13},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spinning up %d steps...\n", spinup)
	if err := base.Run(spinup); err != nil {
		log.Fatal(err)
	}

	run := func(method core.Method, opts core.Options, perturbSeed int64) []float64 {
		m, err := base.Fork(method, opts)
		if err != nil {
			log.Fatal(err)
		}
		if perturbSeed > 0 {
			m.PerturbTemperature(1e-14, perturbSeed)
		}
		if err := m.Run(steps); err != nil {
			log.Fatal(err)
		}
		out := make([]float64, 0, len(m.Temp)*len(m.Temp[0]))
		for _, layer := range m.Temp {
			out = append(out, layer...)
		}
		return out
	}

	mask := make([]bool, 0, len(base.Temp)*base.G.N())
	for range base.Temp {
		mask = append(mask, base.G.Mask...)
	}

	// Reference ensemble: production solver, O(1e-14) perturbations.
	defaultOpts := core.Options{Precond: core.PrecondDiagonal, Tol: 1e-13}
	ens := pop.NewEnsemble(len(mask), mask)
	var memberFields [][]float64
	fmt.Printf("running %d perturbed ensemble members...\n", members)
	for mem := 1; mem <= members; mem++ {
		f := run(core.MethodChronGear, defaultOpts, int64(mem))
		ens.Add(f)
		memberFields = append(memberFields, f)
	}
	// Envelope of the members' own RMSZ.
	var lo, hi float64 = 1e300, 0
	for _, f := range memberFields {
		z, err := ens.RMSZ(f)
		if err != nil {
			log.Fatal(err)
		}
		if z < lo {
			lo = z
		}
		if z > hi {
			hi = z
		}
	}
	// The verdict rule: a case is rejected when its RMSZ exceeds twice the
	// largest member RMSZ. A case between the envelope's top and that limit
	// passes without sitting inside the envelope.
	limit := 2 * hi
	fmt.Printf("ensemble envelope: RMSZ in [%.2f, %.2f]; rule: reject RMSZ > 2 × %.2f = %.2f\n\n", lo, hi, hi, limit)

	cases := []struct {
		name   string
		method core.Method
		opts   core.Options
	}{
		{"new solver: P-CSI+EVP (tol 1e-13)", core.MethodPCSI, core.Options{Precond: core.PrecondEVP, Tol: 1e-13}},
		{"sloppy solver: ChronGear tol 1e-6", core.MethodChronGear, core.Options{Precond: core.PrecondDiagonal, Tol: 1e-6}},
	}
	ref := run(core.MethodChronGear, defaultOpts, 0)
	fmt.Println("case                                   RMSE vs ref     RMSZ     verdict")
	for _, cs := range cases {
		f := run(cs.method, cs.opts, 0)
		rmse := pop.RMSE(f, ref, mask)
		z, err := ens.RMSZ(f)
		if err != nil {
			log.Fatal(err)
		}
		verdict := fmt.Sprintf("CONSISTENT (RMSZ ≤ %.2f)", limit)
		if z > limit {
			verdict = fmt.Sprintf("REJECTED (RMSZ > %.2f)", limit)
		}
		fmt.Printf("%-38s %.3e    %8.2f  %s\n", cs.name, rmse, z, verdict)
	}
	fmt.Println("\nboth RMSE values are tiny — the paper's point: RMSE alone cannot decide;")
	fmt.Println("the ensemble Z-score separates a consistent new solver from a sloppy one.")
}
