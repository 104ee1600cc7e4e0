// Package grid builds the horizontal ocean grids that the barotropic solver
// runs on: a POP-style orthogonal curvilinear (stretched, displaced-pole)
// grid with land masks, bathymetry, and the metric terms needed to assemble
// the nine-point implicit free-surface operator.
//
// The paper uses the real CESM POP dipole grids (1°: 320×384, 0.1°:
// 3600×2400) with observed bathymetry; those datasets are proprietary to the
// CESM distribution, so this package generates deterministic synthetic
// equivalents at the same dimensions: continents, shelves, islands and
// narrow straits produced from seeded smooth noise plus hand-shaped basins.
// What matters for solver behaviour is preserved — matrix size, irregular
// land masking, variable coefficients, and the latitude-dependent grid
// anisotropy that sets the condition number (see DESIGN.md §2).
//
// Layout conventions (B-grid, following the POP reference manual):
//
//   - T-points (cell centres) carry the sea-surface height η, the land
//     mask, and the cell depth HT. Index (i,j), flattened j*Nx+i.
//   - U-points (cell corners) sit at the north-east corner of T-cell (i,j)
//     and carry the corner depth HU and the local grid spacings DXU/DYU.
//
// A corner is "wet" only when all four surrounding T-cells are ocean;
// boundary corners are dry, which imposes the no-normal-flow condition.
package grid

import "fmt"

// Grid is a horizontal curvilinear ocean grid.
type Grid struct {
	// Name labels the grid preset.
	Name string
	// Nx and Ny are the T-point dimensions.
	Nx, Ny int
	// DtCount is the barotropic steps per simulated day the grid is run
	// at (POP's dt_count; see Tau); 0 = no step of its own.
	DtCount int

	// T-point fields, length Nx*Ny, index j*Nx+i.
	Mask  []bool    // true = ocean
	HT    []float64 // ocean depth at T-points (m); 0 on land
	TAREA []float64 // T-cell area (m²)
	TLat  []float64 // latitude of T-point (degrees)
	TLon  []float64 // longitude of T-point (degrees)

	// U-point (corner) fields, length Nx*Ny; entry (i,j) is the corner NE
	// of T-cell (i,j). Corners on the outermost row/column are dry.
	HU    []float64 // min depth of the four surrounding T-cells (m)
	DXU   []float64 // zonal grid spacing at the corner (m)
	DYU   []float64 // meridional grid spacing at the corner (m)
	UAREA []float64 // corner cell area (m²)
}

// Idx flattens (i,j) to the storage index. Callers are expected to keep
// 0 ≤ i < Nx and 0 ≤ j < Ny.
func (g *Grid) Idx(i, j int) int { return j*g.Nx + i }

// Tau returns the grid's barotropic time step τ = 86400 / DtCount in
// seconds, or 0 when the grid has no step of its own.
func (g *Grid) Tau() float64 {
	if g.DtCount <= 0 {
		return 0
	}
	return 86400 / float64(g.DtCount)
}

// N returns the total number of grid points, land included.
func (g *Grid) N() int { return g.Nx * g.Ny }

// IsOcean reports whether T-point (i,j) is ocean; out-of-range points are
// land, so callers can probe neighbours without bounds checks.
func (g *Grid) IsOcean(i, j int) bool {
	if i < 0 || i >= g.Nx || j < 0 || j >= g.Ny {
		return false
	}
	return g.Mask[g.Idx(i, j)]
}

// OceanPoints returns the number of ocean T-points.
func (g *Grid) OceanPoints() int {
	n := 0
	for _, m := range g.Mask {
		if m {
			n++
		}
	}
	return n
}

// OceanFraction returns the fraction of T-points that are ocean.
func (g *Grid) OceanFraction() float64 {
	return float64(g.OceanPoints()) / float64(g.N())
}

// Validate checks internal consistency: array lengths, dry boundary corners,
// the HU = min(HT of 4 neighbours) relation, and positive metrics on wet
// points. It returns the first violation found.
func (g *Grid) Validate() error {
	if g.Nx <= 0 || g.Ny <= 0 {
		return fmt.Errorf("grid %q: non-positive dimensions %d×%d", g.Name, g.Nx, g.Ny)
	}
	n := g.N()
	for name, l := range map[string]int{
		"Mask": len(g.Mask), "HT": len(g.HT), "TAREA": len(g.TAREA),
		"TLat": len(g.TLat), "TLon": len(g.TLon),
		"HU": len(g.HU), "DXU": len(g.DXU), "DYU": len(g.DYU), "UAREA": len(g.UAREA),
	} {
		if l != n {
			return fmt.Errorf("grid %q: field %s has length %d, want %d", g.Name, name, l, n)
		}
	}
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			k := g.Idx(i, j)
			if g.Mask[k] && g.HT[k] <= 0 {
				return fmt.Errorf("grid %q: ocean point (%d,%d) has depth %g", g.Name, i, j, g.HT[k])
			}
			if !g.Mask[k] && g.HT[k] != 0 {
				return fmt.Errorf("grid %q: land point (%d,%d) has depth %g", g.Name, i, j, g.HT[k])
			}
			if g.Mask[k] && (g.TAREA[k] <= 0) {
				return fmt.Errorf("grid %q: ocean point (%d,%d) has area %g", g.Name, i, j, g.TAREA[k])
			}
			wet := g.IsOcean(i, j) && g.IsOcean(i+1, j) && g.IsOcean(i, j+1) && g.IsOcean(i+1, j+1)
			if wet {
				if g.HU[k] <= 0 {
					return fmt.Errorf("grid %q: wet corner (%d,%d) has HU %g", g.Name, i, j, g.HU[k])
				}
				if g.DXU[k] <= 0 || g.DYU[k] <= 0 || g.UAREA[k] <= 0 {
					return fmt.Errorf("grid %q: wet corner (%d,%d) has non-positive metrics", g.Name, i, j)
				}
			} else if g.HU[k] != 0 {
				return fmt.Errorf("grid %q: dry corner (%d,%d) has HU %g", g.Name, i, j, g.HU[k])
			}
		}
	}
	return nil
}

// deriveCorners fills HU and UAREA from HT/Mask and the spacings; it assumes
// DXU/DYU are already populated.
func (g *Grid) deriveCorners() {
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			k := g.Idx(i, j)
			g.UAREA[k] = g.DXU[k] * g.DYU[k]
			if g.IsOcean(i, j) && g.IsOcean(i+1, j) && g.IsOcean(i, j+1) && g.IsOcean(i+1, j+1) {
				h := g.HT[k]
				for _, kk := range []int{g.Idx(i+1, j), g.Idx(i, j+1), g.Idx(i+1, j+1)} {
					if g.HT[kk] < h {
						h = g.HT[kk]
					}
				}
				g.HU[k] = h
			} else {
				g.HU[k] = 0
			}
		}
	}
}
