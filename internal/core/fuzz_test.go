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
