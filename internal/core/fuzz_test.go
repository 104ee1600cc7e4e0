package core

import (
	"errors"
	"testing"
)

// The enum parsers sit on the wire boundary (JSON requests, CLI flags,
// frame validation errors all route through them), so they must be total:
// either a valid enum value or an error matching ErrBadSpec, and every
// accepted spelling must re-parse from its canonical String() form.

// FuzzParseMethod fuzzes the solver-method parser.
func FuzzParseMethod(f *testing.F) {
	for _, s := range []string{"", "chrongear", "pcg", "pipecg", "pcsi", "csi", "sstep", "SSTEP", "chron gear", "\xff"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMethod(s)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParseMethod(%q) error does not match ErrBadSpec: %v", s, err)
			}
			return
		}
		if !m.Valid() {
			t.Fatalf("ParseMethod(%q) = %v, invalid", s, m)
		}
		m2, err := ParseMethod(m.String())
		if err != nil || m2 != m {
			t.Fatalf("canonical %q did not re-parse: %v, %v", m.String(), m2, err)
		}
	})
}

// FuzzParsePrecond fuzzes the preconditioner parser.
func FuzzParsePrecond(f *testing.F) {
	for _, s := range []string{"", "diagonal", "evp", "blocklu", "none", "identity", "EVP", "\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePrecond(s)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParsePrecond(%q) error does not match ErrBadSpec: %v", s, err)
			}
			return
		}
		if !p.Valid() {
			t.Fatalf("ParsePrecond(%q) = %v, invalid", s, p)
		}
		p2, err := ParsePrecond(p.String())
		if err != nil || p2 != p {
			t.Fatalf("canonical %q did not re-parse: %v, %v", p.String(), p2, err)
		}
	})
}

// FuzzDenseReference is the answer oracle on drawn geometry: mask's bits
// are the ocean cells of a 20×16 grid in 5×4 blocks, row-major from (0, 0)
// (cells past the input's end are ocean), and row picks one solverRows
// pair. At threads 4 the solve must reproduce the dense LU answer within
// 1e-9, or end in an error matching one of the package's typed errors;
// every stop short of Tol is a *NotConvergedError, so a nil error is held
// to the answer. The seeds are the hand-drawn hostileMasks and the inputs
// fuzzing found defects with (sstep-diagonal-plateau: an s-step plateau at
// 5.2e-9 that ended without an error before it did).
func FuzzDenseReference(f *testing.F) {
	base := hostileBase()
	rows := solverRows()
	for i, h := range hostileMasks {
		mask := make([]byte, (base.N()+7)/8)
		for j := range base.Ny {
			for x := range base.Nx {
				if k := base.Idx(x, j); h.ocean(x, j) {
					mask[k/8] |= 1 << (k % 8)
				}
			}
		}
		f.Add(uint8(i*len(rows)/len(hostileMasks)), mask)
	}
	f.Fuzz(func(t *testing.T, row uint8, mask []byte) {
		wet := func(i, j int) bool {
			k := base.Idx(i, j)
			return k/8 >= len(mask) || mask[k/8]&(1<<(k%8)) != 0
		}
		g := withMask(base, wet)
		if g.OceanPoints() == 0 {
			return // nothing to solve
		}
		r := rows[int(row)%len(rows)]
		fx := newFixture(t, g, 5, 4, 20000)
		fx.w.SetThreads(4)
		s := fx.session(t, Options{Precond: r.pc, Tol: 1e-12})
		res, x, err := s.Solve(r.m, fx.b, make([]float64, g.N()))
		if err != nil {
			for _, typed := range []error{ErrBadSpec, ErrNotConverged, ErrEigEstimate, ErrFaulted} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("%v-%v: untyped error %v", r.m, r.pc, err)
		}
		if e := maxOceanErr(g, x, fx.denseReference(t)); e > 1e-9 {
			t.Fatalf("%v-%v: solution error %g against dense LU (converged=%v after %d iterations, rel res %g)",
				r.m, r.pc, e, res.Converged, res.Iterations, res.RelResidual)
		}
	})
}
