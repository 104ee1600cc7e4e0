package grid

import "fmt"

// Presets mirror the two production POP resolutions the paper evaluates plus
// reduced-size variants for tests and laptop-scale experiments. All presets
// share the same Seed, so every resolution sees the same synthetic geography.

const presetSeed = 20151115 // SC '15 conference date; fixed for determinism

func baseSpec(name string, nx, ny, dtCount int) Spec {
	return Spec{
		Name: name, Nx: nx, Ny: ny, DtCount: dtCount,
		LatMin: -79, LatMax: 89,
		MinCosLat:     0.15,
		OceanFraction: 0.68, // close to the real POP grids' wet fraction
		MaxDepth:      5500,
		MinDepth:      60,
		Seed:          presetSeed,
	}
}

// The presets' barotropic steps per simulated day (Spec.DtCount).
const (
	// dtCountOneDegree is POP's gx1 half-hour class step: τ = 1,920 s.
	dtCountOneDegree = 45
	// dtCountTenthDegree is the paper's 0.1° step (§5.2: dt_count = 500,
	// τ = 172.8 s).
	dtCountTenthDegree = 500
)

// OneDegreeSpec is the paper's 1° grid: 320×384 T-points.
func OneDegreeSpec() Spec { return baseSpec("gx1-synthetic", 320, 384, dtCountOneDegree) }

// TenthDegreeSpec is the paper's 0.1° grid: 3600×2400 T-points.
func TenthDegreeSpec() Spec { return baseSpec("tx0.1-synthetic", 3600, 2400, dtCountTenthDegree) }

// QuarterScaleTenthSpec keeps the 0.1° grid's 3:2 aspect ratio and geography
// at 1/16 the point count (900×600); used where full 0.1° solves would be
// too slow (e.g. -short benchmarks).
func QuarterScaleTenthSpec() Spec { return baseSpec("tx0.4-synthetic", 900, 600, dtCountTenthDegree) }

// TestSpec is a small grid for unit tests: same geography machinery at
// 64×48, run at the 1° step.
func TestSpec() Spec { return baseSpec("test-synthetic", 64, 48, dtCountOneDegree) }

// Preset names accepted by ByName — the same identifiers the pop façade,
// the CLI flags, and the solve service's JSON requests use.
const (
	PresetOneDegree         = "1deg"
	PresetTenthDegree       = "0.1deg"
	PresetTenthDegreeScaled = "0.1deg-scaled"
	PresetTest              = "test"
)

// PresetNames lists the preset identifiers ByName accepts.
func PresetNames() []string {
	return []string{PresetOneDegree, PresetTenthDegree, PresetTenthDegreeScaled, PresetTest}
}

// ByName generates one of the preset synthetic grids by identifier. Every
// call regenerates the grid; callers serving repeated requests should cache
// the result (grid generation for the 0.1° preset takes seconds).
func ByName(name string) (*Grid, error) {
	switch name {
	case PresetOneDegree:
		return OneDegree(), nil
	case PresetTenthDegree:
		return TenthDegree(), nil
	case PresetTenthDegreeScaled:
		return Generate(QuarterScaleTenthSpec()), nil
	case PresetTest:
		return Generate(TestSpec()), nil
	default:
		return nil, fmt.Errorf("grid: unknown preset %q", name)
	}
}

// OneDegree generates the synthetic 1° grid.
func OneDegree() *Grid { return Generate(OneDegreeSpec()) }

// TenthDegree generates the synthetic 0.1° grid (≈ 8.6M points, ~600 MB of
// field data; takes a few seconds).
func TenthDegree() *Grid { return Generate(TenthDegreeSpec()) }

// NewFlatBasin returns an all-ocean rectangular basin with uniform depth and
// uniform spacing — the simplest well-conditioned test configuration, with
// analytic structure (constant stencil away from walls).
func NewFlatBasin(nx, ny int, depth, dx, dy float64) *Grid {
	g := &Grid{
		Name: "flat-basin",
		Nx:   nx, Ny: ny,
		Mask:  make([]bool, nx*ny),
		HT:    make([]float64, nx*ny),
		TAREA: make([]float64, nx*ny),
		TLat:  make([]float64, nx*ny),
		TLon:  make([]float64, nx*ny),
		HU:    make([]float64, nx*ny),
		DXU:   make([]float64, nx*ny),
		DYU:   make([]float64, nx*ny),
		UAREA: make([]float64, nx*ny),
	}
	for k := range g.Mask {
		g.Mask[k] = true
		g.HT[k] = depth
		g.TAREA[k] = dx * dy
		g.DXU[k] = dx
		g.DYU[k] = dy
	}
	g.deriveCorners()
	return g
}
