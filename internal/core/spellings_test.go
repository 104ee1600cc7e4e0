package core

import "testing"

// TestSpellingTablesMatchParsers pins the exported name lists to the
// parsers they describe: every listed spelling parses, the empty string
// selects the first (default) entry, and every defined enum value's
// canonical String() form appears in its list — so the accepted-value
// lists the api package surfaces in 400 bodies stay exhaustive.
func TestSpellingTablesMatchParsers(t *testing.T) {
	t.Run("method", func(t *testing.T) {
		names := MethodNames()
		for _, n := range names {
			if m, err := ParseMethod(n); err != nil || !m.Valid() {
				t.Errorf("MethodNames entry %q does not parse: %v, %v", n, m, err)
			}
		}
		if def, err := ParseMethod(""); err != nil || def.String() != names[0] {
			t.Errorf("default method %v is not the first listed spelling %q", def, names[0])
		}
		for m := MethodChronGear; m.Valid(); m++ {
			if !containsName(names, m.String()) {
				t.Errorf("method %v canonical spelling %q missing from MethodNames", m, m.String())
			}
		}
	})
	t.Run("precond", func(t *testing.T) {
		names := PrecondNames()
		for _, n := range names {
			if p, err := ParsePrecond(n); err != nil || !p.Valid() {
				t.Errorf("PrecondNames entry %q does not parse: %v, %v", n, p, err)
			}
		}
		if def, err := ParsePrecond(""); err != nil || def.String() != names[0] {
			t.Errorf("default precond %v is not the first listed spelling %q", def, names[0])
		}
		for p := PrecondType(0); p.Valid(); p++ {
			if !containsName(names, p.String()) {
				t.Errorf("precond %v canonical spelling %q missing from PrecondNames", p, p.String())
			}
		}
	})
}

func containsName(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}
