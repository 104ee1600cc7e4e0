package grid

import (
	"math"
	"sort"
)

// EarthRadius is the spherical Earth radius used for all metric terms (m).
const EarthRadius = 6.371e6

// Spec describes a synthetic grid to generate. The zero value is not usable;
// start from one of the presets or fill every field.
type Spec struct {
	// Name labels the generated grid.
	Name string
	// Nx and Ny are the T-point dimensions.
	Nx, Ny int

	LatMin, LatMax float64 // latitude extent of T-point rows (degrees)
	MinCosLat      float64 // clamp on cos(lat) for zonal spacing (displaced-pole stand-in)

	OceanFraction float64 // target fraction of ocean T-points (calibrated exactly)
	MaxDepth      float64 // abyssal plain depth (m)
	MinDepth      float64 // minimum wet depth after shelf shaping (m)

	Seed int64 // continent/bathymetry noise seed

	// DtCount is the barotropic steps per simulated day (POP's dt_count):
	// the preset's step τ = 86400 / DtCount enters the operator's mass
	// term. 0 leaves the grid without a step of its own.
	DtCount int
}

// Generate builds the synthetic grid described by s. Generation is fully
// deterministic in s. The continental configuration is defined in continuous
// (lon, lat) space, so two Specs that differ only in resolution produce the
// same geography.
func Generate(s Spec) *Grid {
	g := &Grid{
		Name: s.Name,
		Nx:   s.Nx, Ny: s.Ny, DtCount: s.DtCount,
		Mask:  make([]bool, s.Nx*s.Ny),
		HT:    make([]float64, s.Nx*s.Ny),
		TAREA: make([]float64, s.Nx*s.Ny),
		TLat:  make([]float64, s.Nx*s.Ny),
		TLon:  make([]float64, s.Nx*s.Ny),
		HU:    make([]float64, s.Nx*s.Ny),
		DXU:   make([]float64, s.Nx*s.Ny),
		DYU:   make([]float64, s.Nx*s.Ny),
		UAREA: make([]float64, s.Nx*s.Ny),
	}

	dLon := 360.0 / float64(s.Nx)
	dLat := (s.LatMax - s.LatMin) / float64(s.Ny)
	dyM := EarthRadius * dLat * math.Pi / 180 // meridional spacing (uniform)

	land := newLandscape(s.Seed)

	// First pass: geography and "landness" score per T-point.
	score := make([]float64, g.N())
	for j := 0; j < s.Ny; j++ {
		lat := s.LatMin + (float64(j)+0.5)*dLat
		for i := 0; i < s.Nx; i++ {
			lon := (float64(i) + 0.5) * dLon
			k := g.Idx(i, j)
			g.TLat[k], g.TLon[k] = lat, lon
			score[k] = land.landness(lon, lat)
		}
	}

	// Calibrate the land threshold so the ocean fraction matches the target
	// exactly (up to one grid point): sort a copy of the scores and take the
	// quantile.
	sorted := append([]float64(nil), score...)
	sort.Float64s(sorted)
	cut := int(s.OceanFraction * float64(len(sorted)))
	if cut >= len(sorted) {
		cut = len(sorted) - 1
	}
	threshold := sorted[cut]

	// Second pass: mask, bathymetry, metrics.
	for j := 0; j < s.Ny; j++ {
		lat := s.LatMin + (float64(j)+0.5)*dLat
		cosLat := math.Cos(lat * math.Pi / 180)
		if cosLat < s.MinCosLat {
			cosLat = s.MinCosLat
		}
		dxM := EarthRadius * dLon * math.Pi / 180 * cosLat
		for i := 0; i < s.Nx; i++ {
			k := g.Idx(i, j)
			g.TAREA[k] = dxM * dyM
			// Corner metrics: spacing halfway between this row and the next.
			latU := lat + 0.5*dLat
			cosU := math.Cos(latU * math.Pi / 180)
			if cosU < s.MinCosLat {
				cosU = s.MinCosLat
			}
			g.DXU[k] = EarthRadius * dLon * math.Pi / 180 * cosU
			g.DYU[k] = dyM

			if score[k] < threshold {
				g.Mask[k] = true
				// Depth: deep where far below the land threshold, shoaling
				// toward coasts, with fractal roughness.
				rel := (threshold - score[k]) / (threshold + 1.5) // 0 at coast → ~1 in abyss
				if rel > 1 {
					rel = 1
				}
				shape := math.Sqrt(rel) // steep shelf break
				depth := s.MinDepth + (s.MaxDepth-s.MinDepth)*shape*(1+0.15*land.rough.at(lon(i, dLon), lat))
				if depth < s.MinDepth {
					depth = s.MinDepth
				}
				g.HT[k] = depth
			}
		}
	}
	g.deriveCorners()
	return g
}

func lon(i int, dLon float64) float64 { return (float64(i) + 0.5) * dLon }

// landscape produces the continental configuration: a deterministic blend of
// hand-shaped land masses (polar caps, two meridional continents, an
// east-west supercontinent band) and fractal noise for islands and ragged
// coastlines, with carved straits guaranteeing narrow passages like the
// paper's Bering Strait example.
type landscape struct {
	coast *fractalNoise // coastline / island noise
	rough *fractalNoise // bathymetry roughness
}

func newLandscape(seed int64) *landscape {
	return &landscape{
		coast: newFractalNoise(seed, 24, 5),
		rough: newFractalNoise(seed+1, 12, 4),
	}
}

// landness returns a score that increases where land should be; the caller
// thresholds it at the calibrated quantile. It is smooth in (lon, lat).
func (l *landscape) landness(lonDeg, latDeg float64) float64 {
	s := 0.9 * l.coast.at(lonDeg, latDeg)

	// Southern polar cap (Antarctica stand-in).
	s += bump((-latDeg-68)/8) * 3

	// Northern land ring with gaps (Eurasia/North-America stand-in).
	s += bump((latDeg-74)/8) * 2.2

	// Two meridional continents with latitude-dependent drift.
	c1 := 80 + 25*math.Sin(latDeg*math.Pi/180*1.3)
	c2 := 250 + 18*math.Cos(latDeg*math.Pi/180*0.9)
	s += ridge(angDist(lonDeg, c1)/24) * 2 * bump((latDeg+5)/55)
	s += ridge(angDist(lonDeg, c2)/30) * 2 * bump((latDeg-10)/50)

	// Equatorial archipelago (maritime-continent stand-in).
	s += ridge(angDist(lonDeg, 150)/25) * bump(latDeg/12) * 1.1

	// Carved straits: narrow channels kept open through the land masses.
	// A Bering-like strait through the northern ring...
	s -= channel(angDist(lonDeg, 190)/2.2) * bump((latDeg-72)/10) * 4
	// ...a Drake-like passage south of continent 1...
	s -= channel((latDeg+62)/2.5) * ridge(angDist(lonDeg, c1)/28) * 4
	// ...and a Gibraltar-like gap in continent 2.
	s -= channel((latDeg-35)/1.8) * ridge(angDist(lonDeg, c2)/32) * 4

	return s
}

// bump is a smooth plateau: ≈1 for x ≫ 0, ≈0 for x ≪ 0.
func bump(x float64) float64 { return 0.5 * (1 + math.Tanh(x)) }

// ridge is a smooth even peak: 1 at x=0 decaying to 0.
func ridge(x float64) float64 { return math.Exp(-x * x) }

// channel is a narrow even notch used to carve straits.
func channel(x float64) float64 { return math.Exp(-x * x) }

// angDist returns the absolute angular distance between two longitudes in
// degrees, in [0, 180].
func angDist(a, b float64) float64 {
	d := math.Mod(a-b, 360)
	if d < 0 {
		d += 360
	}
	if d > 180 {
		d = 360 - d
	}
	return d
}
