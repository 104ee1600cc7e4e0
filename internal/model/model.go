// Package model implements the ocean substrate the solver experiments need:
// a wind-driven barotropic (vertically integrated) ocean with POP's implicit
// free surface, plus a multi-layer temperature tracer for the paper's §6
// climate-consistency experiments.
//
// This is the stated substitution for CESM1.2.0 POP (DESIGN.md §2): the
// barotropic mode is the real thing — every time step builds the elliptic
// right-hand side ψ(ηⁿ, uⁿ, forcing) and solves [−∇·H∇ + φ(τ)]η = ψ with a
// Session solver — while the baroclinic physics is reduced to what the
// verification experiments measure: nonlinear momentum advection (the
// chaos source that makes ensemble spread grow), Coriolis, wind-driven
// double gyres, and advected–diffused layer temperatures whose sensitivity
// to the solver tolerance is exactly what Figures 12 and 13 probe.
//
// Discretization notes: velocities live at the B-grid corner (U-) points,
// exactly as in POP, and the discrete gradient G (corner differences of the
// four surrounding T-cells) and divergence D (its negative adjoint under
// the HU·UAREA weights) are chosen so that the elliptic operator's
// stiffness is *identically* D∘(H·G). That makes the semi-implicit
// free-surface step an exact backward-Euler elimination —
//
//	u^{n+1} = u* − gτ·G η^{n+1}
//	[−D·H·G + 1/(gτ²)] η^{n+1} = ηⁿ/(gτ²) − D(H·u*)/τ⁻¹…  (rows × TAREA)
//
// — which is unconditionally stable and conserves volume to solver
// tolerance. (A collocated centred gradient/divergence pair looks simpler
// but is inconsistent with the corner stiffness; the mismatch pumps
// intermediate-wavenumber inertia–gravity modes and blows up within a few
// hundred steps — measured, not hypothetical.) Advection is first-order
// upwind and Coriolis is applied as an exact rotation.
package model

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/stencil"
)

// Config describes a model run: the grid, which sets the time step
// (Grid.Tau(), POP's 86400 / dt_count), and the solver of the implicit
// free-surface step.
type Config struct {
	Grid *grid.Grid

	// Solver configuration. New resolves Method and SolverOpts.Precond
	// with core.Canonical (MethodCSI runs as MethodPCSI + PrecondIdentity)
	// and stores the pair it runs; the zero values are ChronGear with
	// diagonal preconditioning, POP's production solver.
	Method     core.Method
	SolverOpts core.Options
	// Cores is the virtual rank count core.BuildSession decomposes the
	// grid over (0 = one block covering the whole grid). Solves are priced
	// on no machine: the model measures numerics, not time.
	Cores int
	// Threads caps concurrent rank execution on real cores
	// (comm.World.SetThreads): 0 = per solve, the processors no other
	// default-threaded solve holds. Trajectories are bitwise identical
	// across settings.
	Threads int
}

// nz is the number of temperature layers.
const nz = 5

// Physics parameters. They give an energetic multi-gyre circulation that is
// weakly damped: on coarse test grids the attractor is steady (barotropic
// chaos needs resolved boundary currents), so trajectory differences decay
// only on the slow dissipative timescale while solver-tolerance round-off is
// re-injected every time step — which is exactly the contrast the §6
// ensemble methodology measures.
const (
	windStress = 0.25       // peak zonal wind stress (N/m²)
	drag       = 5e-7       // linear bottom drag (1/s)
	viscosity  = 1.5e3      // lateral viscosity (m²/s)
	kappa      = 3e2        // tracer diffusivity (m²/s)
	restoreTau = 30 * 86400 // surface temperature restoring time (s)
	// stericCoef couples temperature back into the momentum equation as a
	// steric sea-surface height, −g∇(stericCoef·(T̄−T̄₀)) — the reduced
	// stand-in for baroclinic pressure gradients that makes temperature an
	// *active* tracer, so the O(1e−14) perturbations of §6's ensembles can
	// grow through the flow's chaos. 0.5 m/K (the depth-integrated thermal
	// expansion of a ~3000 m column is α·H ≈ 0.6–0.8 m/K).
	stericCoef = 0.5
)

// Model is a running ocean simulation.
type Model struct {
	Cfg  Config
	G    *grid.Grid
	Sess *core.Session

	// Prognostic state (global arrays; land/dry = 0). η and temperature
	// live at T-points; the velocities live at the B-grid corner points
	// (entry k is the corner NE of T-cell k, wet iff HU[k] > 0).
	Eta  []float64
	U, V []float64
	Temp [][]float64 // [layer][point]

	// Work arrays.
	uStar, vStar, psi, tmp, steric []float64
	stericRef                      []float64 // initial mean temperature

	// Per-row Coriolis and wind.
	fRow, windRow []float64

	// layerScale scales the barotropic velocity per layer for advection.
	layerScale []float64

	StepCount int
	// Iterations per solve (diagnostic history, grows one per step).
	IterHistory []int
	// TotalSolveStats accumulates solver communication stats.
	TotalSolveStats comm.Counters
}

// New builds a model and its solver session (core.BuildSession). A nil
// grid, a grid with no step of its own, or an unknown method or
// preconditioner matches core.ErrBadSpec here, before any step runs.
func New(cfg Config) (*Model, error) {
	g := cfg.Grid
	if g == nil {
		return nil, fmt.Errorf("model: nil grid: %w", core.ErrBadSpec)
	}
	if g.Tau() == 0 {
		return nil, fmt.Errorf("model: grid %q has no barotropic step: %w", g.Name, core.ErrBadSpec)
	}
	var err error
	if cfg.Method, cfg.SolverOpts.Precond, err = core.Canonical(cfg.Method, cfg.SolverOpts.Precond); err != nil {
		return nil, err
	}
	sess, err := core.BuildSession(g, stencil.PhiFromTimeStep(g.Tau()), cfg.Cores, cfg.Threads, nil, nil, cfg.SolverOpts)
	if err != nil {
		return nil, err
	}

	n := g.N()
	m := &Model{
		Cfg: cfg, G: g, Sess: sess,
		Eta:   make([]float64, n),
		U:     make([]float64, n),
		V:     make([]float64, n),
		uStar: make([]float64, n), vStar: make([]float64, n),
		psi: make([]float64, n), tmp: make([]float64, n),
		steric: make([]float64, n), stericRef: make([]float64, n),
		fRow:    make([]float64, g.Ny),
		windRow: make([]float64, g.Ny),
	}
	const omega = 7.292e-5
	for j := 0; j < g.Ny; j++ {
		lat := g.TLat[g.Idx(0, j)] * math.Pi / 180
		m.fRow[j] = 2 * omega * math.Sin(lat)
		// Multi-gyre zonal wind: alternating bands as in classic
		// double-gyre setups, tapered at the poles.
		yHat := float64(j) / float64(g.Ny-1)
		m.windRow[j] = -windStress * math.Cos(4*math.Pi*yHat) * math.Cos(lat)
	}
	m.Temp = make([][]float64, nz)
	m.layerScale = make([]float64, nz)
	for l := range m.Temp {
		m.Temp[l] = make([]float64, n)
		m.layerScale[l] = 1 / (1 + float64(l)) // velocity decays with depth
		for k := 0; k < n; k++ {
			if g.Mask[k] {
				m.Temp[l][k] = m.restingTemp(l, k)
			}
		}
	}
	for k := 0; k < n; k++ {
		if g.Mask[k] {
			m.stericRef[k] = m.meanTemp(k)
		}
	}
	return m, nil
}

// meanTemp is the depth-mean temperature at point k.
func (m *Model) meanTemp(k int) float64 {
	var s float64
	for l := range m.Temp {
		s += m.Temp[l][k]
	}
	return s / float64(len(m.Temp))
}

// PerturbTemperature adds a uniform random perturbation of the given
// amplitude to the surface layer — the §6 ensemble-generation knob.
func (m *Model) PerturbTemperature(amp float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for k, ocean := range m.G.Mask {
		if ocean {
			m.Temp[0][k] += amp * (2*rng.Float64() - 1)
		}
	}
}

// Fork deep-copies the model state into a fresh model that may use a
// different solver configuration — how ensemble members and solver-
// comparison runs branch from one spun-up state.
func (m *Model) Fork(method core.Method, opts core.Options) (*Model, error) {
	cfg := m.Cfg
	cfg.Method = method
	cfg.SolverOpts = opts
	nm, err := New(cfg)
	if err != nil {
		return nil, err
	}
	copy(nm.Eta, m.Eta)
	copy(nm.U, m.U)
	copy(nm.V, m.V)
	for l := range m.Temp {
		copy(nm.Temp[l], m.Temp[l])
	}
	copy(nm.stericRef, m.stericRef)
	nm.StepCount = m.StepCount
	return nm, nil
}

// restingTemp is the initial/restoring temperature: warm equator, cold
// poles, cooling with depth.
func (m *Model) restingTemp(layer, k int) float64 {
	lat := m.G.TLat[k] * math.Pi / 180
	surf := 2 + 26*math.Cos(lat)*math.Cos(lat)
	return surf / (1 + 0.8*float64(layer))
}

// dx and dy return T-point spacings (from the corner metrics, adequate for
// the synthetic grids).
func (m *Model) dx(k int) float64 { return m.G.DXU[k] }
func (m *Model) dy(k int) float64 { return m.G.DYU[k] }

// Step advances the model one time step of the grid's τ; the implicit
// free-surface solve runs on the configured solver.
func (m *Model) Step() error {
	g := m.G
	tau := g.Tau()

	// 0. Steric height from the depth-mean temperature anomaly (the
	// temperature→momentum feedback).
	for k, ocean := range g.Mask {
		if ocean {
			m.steric[k] = stericCoef * (m.meanTemp(k) - m.stericRef[k])
		} else {
			m.steric[k] = 0
		}
	}

	// 1. Explicit velocity update at wet corners: u* (Coriolis by exact
	// rotation, upwind advection, viscosity, wind, steric pressure
	// gradient, implicit drag).
	gg := stencil.Gravity
	for j := 0; j < g.Ny; j++ {
		f := m.fRow[j]
		sinF, cosF := math.Sin(f*tau), math.Cos(f*tau)
		for i := 0; i < g.Nx; i++ {
			k := g.Idx(i, j)
			if g.HU[k] == 0 {
				m.uStar[k], m.vStar[k] = 0, 0
				continue
			}
			u, v := m.U[k], m.V[k]
			// Exact inertial rotation.
			ur := u*cosF + v*sinF
			vr := -u*sinF + v*cosF
			// Centred advection of momentum (the nonlinearity).
			au := m.advectCorner(m.U, k, i, j, u, v)
			av := m.advectCorner(m.V, k, i, j, u, v)
			// Lateral viscosity.
			lu := m.lapCorner(m.U, k, i, j)
			lv := m.lapCorner(m.V, k, i, j)
			// Wind stress over the local column.
			wind := m.windRow[j] / (1025 * g.HU[k])
			// Steric pressure gradient (explicit: T evolves slowly).
			sx, sy := m.gradCorner(m.steric, k)
			du := tau * (-au + viscosity*lu + wind - gg*sx)
			dv := tau * (-av + viscosity*lv - gg*sy)
			damp := 1 / (1 + tau*drag)
			m.uStar[k] = (ur + du) * damp
			m.vStar[k] = (vr + dv) * damp
		}
	}

	// 2. Right-hand side ψ = TAREA·ηⁿ/(gτ²) + D(H·u*)/(gτ), with D the
	// TAREA-weighted divergence that is exactly adjoint to the corner
	// gradient — the elimination then reproduces the assembled operator
	// A = φ·TAREA + K identically.
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			k := g.Idx(i, j)
			if !g.Mask[k] {
				m.psi[k] = 0
				continue
			}
			m.psi[k] = g.TAREA[k]*m.Eta[k]/(gg*tau*tau) + m.divW(i, j)/(gg*tau)
		}
	}

	// 3. Implicit free-surface solve.
	res, eta, err := m.Sess.Solve(m.Cfg.Method, m.psi, m.Eta)
	if err != nil {
		return fmt.Errorf("model step %d: %w", m.StepCount, err)
	}
	copy(m.Eta, eta)
	m.IterHistory = append(m.IterHistory, res.Iterations)
	m.TotalSolveStats.Add(res.Stats.Sum)

	// 4. Velocity correction u^{n+1} = u* − gτ·Gη at wet corners.
	for k, hu := range g.HU {
		if hu == 0 {
			m.U[k], m.V[k] = 0, 0
			continue
		}
		gx, gy := m.gradCorner(m.Eta, k)
		m.U[k] = m.uStar[k] - gg*tau*gx
		m.V[k] = m.vStar[k] - gg*tau*gy
	}

	// 5. Temperature layers: upwind advection by the scaled barotropic
	// flow (averaged to T-points), diffusion, surface restoring, weak
	// vertical exchange.
	for l := 0; l < nz; l++ {
		T := m.Temp[l]
		scale := m.layerScale[l]
		copy(m.tmp, T)
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				k := g.Idx(i, j)
				if !g.Mask[k] {
					continue
				}
				ut, vt := m.velocityAtT(i, j)
				u, v := ut*scale, vt*scale
				adv := m.upwind(m.tmp, k, i, j, u, v)
				dif := kappa * m.lap(m.tmp, k, i, j)
				dT := tau * (-adv + dif)
				if l == 0 {
					dT += tau / restoreTau * (m.restingTemp(0, k) - m.tmp[k])
				}
				if l+1 < nz {
					dT += tau * 1e-7 * (m.Temp[l+1][k] - m.tmp[k])
				}
				if l > 0 {
					dT += tau * 1e-7 * (m.Temp[l-1][k] - m.tmp[k])
				}
				T[k] = m.tmp[k] + dT
			}
		}
	}

	m.StepCount++
	return nil
}

// Run advances nsteps steps.
func (m *Model) Run(nsteps int) error {
	for s := 0; s < nsteps; s++ {
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// isWetCorner reports whether corner (i,j) carries velocity.
func (m *Model) isWetCorner(i, j int) bool {
	if i < 0 || i >= m.G.Nx || j < 0 || j >= m.G.Ny {
		return false
	}
	return m.G.HU[m.G.Idx(i, j)] != 0
}

// gradCorner is the B-grid gradient of a T-point field at wet corner k:
// corner differences of the four surrounding T-cells. It is the discrete ∇
// whose adjoint (under the HU·UAREA weights) reassembles the elliptic
// operator's stiffness.
func (m *Model) gradCorner(q []float64, k int) (gx, gy float64) {
	g := m.G
	nx := g.Nx
	gx = (q[k+1] + q[k+nx+1] - q[k] - q[k+nx]) / (2 * g.DXU[k])
	gy = (q[k+nx] + q[k+nx+1] - q[k] - q[k+1]) / (2 * g.DYU[k])
	return gx, gy
}

// divW is the TAREA-weighted discrete divergence −∇·(H u*)·TAREA at T-cell
// (i,j): the exact negative adjoint of gradCorner with the HU·UAREA
// weights, so volume is conserved identically and the implicit elimination
// matches the assembled operator.
func (m *Model) divW(i, j int) float64 {
	g := m.G
	nx := g.Nx
	var s float64
	// Corner (i,j): cell is its SW member → coefficients (−, −).
	if k := j*nx + i; i < g.Nx-1 && j < g.Ny-1 && g.HU[k] != 0 {
		w := g.HU[k] * g.UAREA[k]
		s += w * (-m.uStar[k]/(2*g.DXU[k]) - m.vStar[k]/(2*g.DYU[k]))
	}
	// Corner (i−1,j): cell is its SE member → (+, −).
	if i > 0 && j < g.Ny-1 {
		k := j*nx + i - 1
		if g.HU[k] != 0 {
			w := g.HU[k] * g.UAREA[k]
			s += w * (m.uStar[k]/(2*g.DXU[k]) - m.vStar[k]/(2*g.DYU[k]))
		}
	}
	// Corner (i,j−1): cell is its NW member → (−, +).
	if j > 0 && i < g.Nx-1 {
		k := (j-1)*nx + i
		if g.HU[k] != 0 {
			w := g.HU[k] * g.UAREA[k]
			s += w * (-m.uStar[k]/(2*g.DXU[k]) + m.vStar[k]/(2*g.DYU[k]))
		}
	}
	// Corner (i−1,j−1): cell is its NE member → (+, +).
	if i > 0 && j > 0 {
		k := (j-1)*nx + i - 1
		if g.HU[k] != 0 {
			w := g.HU[k] * g.UAREA[k]
			s += w * (m.uStar[k]/(2*g.DXU[k]) + m.vStar[k]/(2*g.DYU[k]))
		}
	}
	return s
}

// velocityAtT averages the wet surrounding corner velocities to T-point
// (i,j) for tracer advection.
func (m *Model) velocityAtT(i, j int) (u, v float64) {
	g := m.G
	nx := g.Nx
	n := 0
	for _, c := range [4][2]int{{i, j}, {i - 1, j}, {i, j - 1}, {i - 1, j - 1}} {
		if c[0] < 0 || c[1] < 0 {
			continue
		}
		k := c[1]*nx + c[0]
		if g.HU[k] != 0 {
			u += m.U[k]
			v += m.V[k]
			n++
		}
	}
	if n > 0 {
		u /= float64(n)
		v /= float64(n)
	}
	return u, v
}

// upwind is first-order upwind u·∂q/∂x + v·∂q/∂y at T-points with no-flux
// coasts (tracer advection).
func (m *Model) upwind(q []float64, k, i, j int, u, v float64) float64 {
	g := m.G
	var ax, ay float64
	if u > 0 {
		if g.IsOcean(i-1, j) {
			ax = u * (q[k] - q[k-1]) / m.dx(k)
		}
	} else {
		if g.IsOcean(i+1, j) {
			ax = u * (q[k+1] - q[k]) / m.dx(k)
		}
	}
	if v > 0 {
		if g.IsOcean(i, j-1) {
			ay = v * (q[k] - q[k-g.Nx]) / m.dy(k)
		}
	} else {
		if g.IsOcean(i, j+1) {
			ay = v * (q[k+g.Nx] - q[k]) / m.dy(k)
		}
	}
	return ax + ay
}

// advectCorner computes u·∂q/∂x + v·∂q/∂y on the corner grid for momentum:
// centred differences in the interior (first-order upwind is far too
// diffusive — it laminarizes the gyres and kills the chaos the ensemble
// methodology needs), falling back to upwind against coasts. Centred
// advection under forward Euler is stabilized by the explicit viscosity
// (stable for ν ≳ u²τ/2, amply satisfied by the constants).
func (m *Model) advectCorner(q []float64, k, i, j int, u, v float64) float64 {
	g := m.G
	var ax, ay float64
	wE, wW := m.isWetCorner(i+1, j), m.isWetCorner(i-1, j)
	switch {
	case wE && wW:
		ax = u * (q[k+1] - q[k-1]) / (2 * m.dx(k))
	case u > 0 && wW:
		ax = u * (q[k] - q[k-1]) / m.dx(k)
	case u < 0 && wE:
		ax = u * (q[k+1] - q[k]) / m.dx(k)
	}
	wN, wS := m.isWetCorner(i, j+1), m.isWetCorner(i, j-1)
	switch {
	case wN && wS:
		ay = v * (q[k+g.Nx] - q[k-g.Nx]) / (2 * m.dy(k))
	case v > 0 && wS:
		ay = v * (q[k] - q[k-g.Nx]) / m.dy(k)
	case v < 0 && wN:
		ay = v * (q[k+g.Nx] - q[k]) / m.dy(k)
	}
	return ax + ay
}

// lap is the masked five-point Laplacian at T-points (tracer diffusion).
func (m *Model) lap(q []float64, k, i, j int) float64 {
	g := m.G
	dx2 := m.dx(k) * m.dx(k)
	dy2 := m.dy(k) * m.dy(k)
	var s float64
	if g.IsOcean(i+1, j) {
		s += (q[k+1] - q[k]) / dx2
	}
	if g.IsOcean(i-1, j) {
		s += (q[k-1] - q[k]) / dx2
	}
	if g.IsOcean(i, j+1) {
		s += (q[k+g.Nx] - q[k]) / dy2
	}
	if g.IsOcean(i, j-1) {
		s += (q[k-g.Nx] - q[k]) / dy2
	}
	return s
}

// lapCorner is the five-point Laplacian on the corner grid with no-slip at
// dry corners (momentum viscosity).
func (m *Model) lapCorner(q []float64, k, i, j int) float64 {
	g := m.G
	dx2 := m.dx(k) * m.dx(k)
	dy2 := m.dy(k) * m.dy(k)
	var s float64
	if m.isWetCorner(i+1, j) {
		s += (q[k+1] - q[k]) / dx2
	}
	if m.isWetCorner(i-1, j) {
		s += (q[k-1] - q[k]) / dx2
	}
	if m.isWetCorner(i, j+1) {
		s += (q[k+g.Nx] - q[k]) / dy2
	}
	if m.isWetCorner(i, j-1) {
		s += (q[k-g.Nx] - q[k]) / dy2
	}
	return s
}

// KineticEnergy returns ½Σ HU·(u²+v²)·UAREA over wet corners (J/ρ₀).
func (m *Model) KineticEnergy() float64 {
	var ke float64
	g := m.G
	for k, hu := range g.HU {
		if hu != 0 {
			ke += 0.5 * hu * (m.U[k]*m.U[k] + m.V[k]*m.V[k]) * g.UAREA[k]
		}
	}
	return ke
}

// MeanSSH returns the area-weighted mean sea-surface height — conserved up
// to solver tolerance by the flux-form continuity equation.
func (m *Model) MeanSSH() float64 {
	var s, a float64
	for k, ocean := range m.G.Mask {
		if ocean {
			s += m.Eta[k] * m.G.TAREA[k]
			a += m.G.TAREA[k]
		}
	}
	return s / a
}
