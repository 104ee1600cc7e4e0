package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/grid"
	"repro/internal/stencil"
)

// The roofline pair: the nine-point apply on a grid far larger than the
// caches, against a STREAM triad measured in the same process. A nine-point
// stencil does about a third of a flop per byte, so memory bandwidth is its
// roof and "share of the triad's bandwidth" is the honest efficiency.
const (
	// The 0.1° grid's dimensions, as a flat basin: same memory footprint,
	// no seconds of coastline generation.
	basinNx, basinNy = 3600, 2400
	// A triad array must be at least cacheMultiple times the caches' total
	// size, or part of it is served from cache and the roof reads too high.
	cacheMultiple = 4
	maxTriadBytes = 3 << 29 // 1.5 GiB per array
	// Below this much available memory the triad (three arrays) is skipped
	// rather than risk the process being killed; below basinNeedBytes the
	// large apply is skipped too.
	triadNeedBytes = 4 << 30
	basinNeedBytes = 2 << 30
)

// probeRoofline measures stencil.apply_dram_gbps, mem.triad_gbps and their
// ratio. A part that cannot be measured by the rule stays 0 and the reason
// is printed: a made-up roof would be worse than none.
func (l *ledger) probeRoofline() error {
	return l.span("roofline", func() error {
		l.set("stencil.apply_dram_gbps", 0, "GB/s")
		l.set("mem.triad_gbps", 0, "GB/s")
		l.set("stencil.apply_dram_frac_triad", 0, "ratio")
		avail := memAvailableBytes()
		if avail < basinNeedBytes {
			fmt.Printf("roofline: skipped, %d MB of memory available\n", avail>>20)
			return nil
		}
		var caches int64
		for _, c := range dataCaches() {
			caches += c.Bytes
		}
		arrayBytes := cacheMultiple * caches
		var why string
		switch {
		case caches == 0:
			why = "cache sizes are not readable from sysfs"
		case arrayBytes > maxTriadBytes:
			why = fmt.Sprintf("a triad array of %d MB (4x %d MB of cache) is over the %d MB cap",
				arrayBytes>>20, caches>>20, maxTriadBytes>>20)
		case avail < triadNeedBytes:
			why = fmt.Sprintf("%d MB of memory available, triad needs %d MB", avail>>20, triadNeedBytes>>20)
		}
		// The triad runs first: a first touch is the expensive part of a
		// large allocation, and once its arrays are collected (kept by the
		// runtime, not returned to the system) the basin's smaller arrays
		// reuse their pages.
		var triadGBps float64
		if why == "" {
			triadGBps = triad(int(arrayBytes / 8))
			runtime.GC()
		}
		applyGBps := basinApply()
		l.set("stencil.apply_dram_gbps", applyGBps, "GB/s")
		if why != "" {
			fmt.Println("roofline: triad skipped,", why)
			return nil
		}
		fmt.Printf("roofline: caches %d MB, triad arrays 3 x %d MB, apply arrays %d MB\n",
			caches>>20, arrayBytes>>20, (applyBytesPerPt*basinNx*basinNy)>>20)
		l.set("mem.triad_gbps", triadGBps, "GB/s")
		l.set("stencil.apply_dram_frac_triad", applyGBps/triadGBps, "ratio")
		return nil
	})
}

// basinApply returns the computed GB/s of Operator.Apply on the flat basin.
func basinApply() float64 {
	g := grid.NewFlatBasin(basinNx, basinNy, 4000, 1e4, 1e4)
	op := stencil.Assemble(g, stencil.PhiFromTimeStep(solveTau))
	n := g.N()
	x, y := make([]float64, n), make([]float64, n)
	for k := range x {
		x[k] = float64(k%31) * 0.03125
	}
	op.Apply(y, x) // first touch of y
	d := medianOf(3, func() { op.Apply(y, x) })
	return applyBytesPerPt * float64(n) / float64(d.Nanoseconds())
}

// triad returns the GB/s of a[i] = b[i] + s·c[i] over three n-element
// arrays on one thread — Operator.Apply runs on one thread too — counting
// 24 bytes per element (computed; a write-allocate of a is not counted).
func triad(n int) float64 {
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range a { // first touch
		a[i], b[i], c[i] = 0, 1, 2
	}
	const s = 3.0
	best := time.Duration(1 << 62)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for i := range a {
			a[i] = b[i] + s*c[i]
		}
		best = min(best, time.Since(t0))
	}
	runtime.KeepAlive(a)
	return 24 * float64(n) / float64(best.Nanoseconds())
}
