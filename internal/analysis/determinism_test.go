package analysis_test

import (
	"testing"

	poplint "repro/internal/analysis"
	"repro/internal/analysis/analyzertest"
)

func TestDeterminism(t *testing.T) {
	analyzertest.Run(t, "testdata/determinism", poplint.Determinism, "repro/internal/stencil")
}

// TestDeterminismOutOfScope checks the analyzer ignores packages outside the
// deterministic-numerics set: the fixture's serve package makes the same
// kinds of violation as its stencil package, under an unscoped path, and
// draws no diagnostic.
func TestDeterminismOutOfScope(t *testing.T) {
	if msgs := analyzertest.Diagnostics(t, "testdata/determinism", poplint.Determinism, "repro/internal/serve"); len(msgs) != 0 {
		t.Fatalf("determinism fired outside its scope: %q", msgs)
	}
}
