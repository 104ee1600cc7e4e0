package main

import (
	"math"
	"math/rand"

	pop "repro"
)

// problem is one manufactured linear system: b = A·xTrue, so the benchmark
// can check an answer against the solution it started from, not only
// against the residual the solver itself reports.
type problem struct {
	b, xTrue []float64
}

// inputRNG derives the generator of one input stream from the run seed, so
// equal seeds give bitwise-equal inputs and streams do not overlap.
func inputRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)))
}

// manufactured draws a solution field on g: three low modes with seeded
// phases (the smooth part a surface-height field has) plus white noise at a
// tenth of their amplitude (the rough part, which excites the whole
// spectrum so the iteration count barely depends on the seed). Land is 0.
func manufactured(g *pop.Grid, rng *rand.Rand) []float64 {
	var phLon, phLat [3]float64
	for m := range phLon {
		phLon[m] = 2 * math.Pi * rng.Float64()
		phLat[m] = 2 * math.Pi * rng.Float64()
	}
	x := make([]float64, g.N())
	for k, ocean := range g.Mask {
		// The noise draw happens on land too, so the stream position of
		// point k does not depend on the mask.
		noise := 0.1 * (2*rng.Float64() - 1)
		if !ocean {
			continue
		}
		lon := g.TLon[k] * math.Pi / 180
		lat := g.TLat[k] * math.Pi / 90
		v := noise
		for m := range phLon {
			f := float64(m + 1)
			v += math.Sin(f*lon+phLon[m]) * math.Cos(f*lat+phLat[m]) / f
		}
		x[k] = v
	}
	return x
}

// problems builds n manufactured systems for operator op from one stream.
func problems(g *pop.Grid, op *pop.Operator, seed int64, stream, n int) []problem {
	rng := inputRNG(seed, stream)
	ps := make([]problem, n)
	for i := range ps {
		x := manufactured(g, rng)
		b := make([]float64, len(x))
		op.Apply(b, x)
		ps[i] = problem{b: b, xTrue: x}
	}
	return ps
}

// blend writes (1−t)·a + t·b into dst. A·blend(xa,xb) = blend(ba,bb), so a
// blended right-hand side keeps a known solution.
func blend(dst, a, b []float64, t float64) {
	for k := range dst {
		dst[k] = (1-t)*a[k] + t*b[k]
	}
}

// checkAnswer verifies x against the system (b, xTrue) and returns the
// relative true residual and relative solution error it measured. r is
// scratch of the same length.
func checkAnswer(op *pop.Operator, r, x, b, xTrue []float64) (res, errInf float64) {
	op.Apply(r, x)
	var diff, scale float64
	for k, ocean := range op.Mask {
		if !ocean {
			r[k] = 0
			continue
		}
		r[k] = b[k] - r[k]
		diff = math.Max(diff, math.Abs(x[k]-xTrue[k]))
		scale = math.Max(scale, math.Abs(xTrue[k]))
	}
	return op.MaskedNorm2(r) / op.MaskedNorm2(b), diff / scale
}
