package api

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/core"
)

// hashSolvePerWord is the key's byte stream written the plain way, one
// Write per field and per vector word: the layout HashSolve must reproduce
// however it batches its writes.
func hashSolvePerWord(grid string, method core.Method, precond core.PrecondType, tol float64, b, x0 []float64) CacheKey {
	h := sha256.New()
	u32 := func(v int) { h.Write(binary.LittleEndian.AppendUint32(nil, uint32(v))) }
	u64 := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	str := func(s string) { u32(len(s)); h.Write([]byte(s)) }
	vec := func(v []float64) {
		u32(len(v))
		for _, f := range v {
			u64(math.Float64bits(f))
		}
	}
	str("popfleet/v2")
	str(grid)
	u64(uint64(method))
	u64(uint64(precond))
	u64(uint64(core.Float64))
	u64(0) // the pinned sstep word
	u64(math.Float64bits(tol))
	vec(b)
	vec(x0)
	var key CacheKey
	h.Sum(key[:0])
	return key
}

// TestHashSolveMatchesPerWordEncoding holds the chunked vector encoding to
// the per-word one at lengths around the 128-word chunk and at the test
// grid's 3,072, with and without an initial guess.
func TestHashSolveMatchesPerWordEncoding(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 129, 3072} {
		b := make([]float64, n)
		for i := range b {
			b[i] = math.Sin(float64(i)) * math.Ldexp(1, i%40-20)
		}
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = -b[n-1-i]
		}
		for _, guess := range [][]float64{nil, x0} {
			got := HashSolve("test", core.MethodSStep, core.PrecondEVP, core.Float64, 0, 1e-13, b, guess)
			want := hashSolvePerWord("test", core.MethodSStep, core.PrecondEVP, 1e-13, b, guess)
			if got != want {
				t.Fatalf("n=%d guess=%v: key %x, per-word encoding gives %x", n, guess != nil, got[:8], want[:8])
			}
		}
	}
}
