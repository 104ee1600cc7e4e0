package api

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"unsafe"

	"repro/internal/core"
)

// littleEndian reports whether a float64's memory is its little-endian bit
// pattern, so HashSolve can write vectors without re-encoding them.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// CacheKey is the content hash that keys the fleet's completed-solve
// cache: SHA-256 over a canonical, length-prefixed encoding of everything
// that determines a solve's bit pattern.
type CacheKey [sha256.Size]byte

// HashSolve computes the cache key for one solve: grid preset, method,
// preconditioner, s-step block size, the effective tolerance, the RHS bits
// and (when present) the initial-guess bits. Two requests share a key
// exactly when a fault-free solve of one is bitwise substitutable for the
// other — the deterministic-solver invariant the cache's replay guarantee
// rests on. Float64 values are hashed by their IEEE bit patterns, so -0 ≠
// +0 and equal-looking decimals that differ in the last ulp get distinct
// keys: the cache never conflates solves the solver itself would
// distinguish. Callers pass the normalized sstep (the serve layer's
// default-applied value, 0 for non-sstep methods) so the same logical solve
// always hashes identically.
//
// The precision parameter and the word it hashes are a vestige pinned by
// benchmark/ (benchmark/probes_serving.go:26, benchmark/bench_test.go:152
// call this signature and compare the keys): the only value is
// core.Float64, and the parameter goes with the next benchmark PR.
func HashSolve(grid string, method core.Method, precond core.PrecondType, precision core.Precision, sstep int, tol float64, b, x0 []float64) CacheKey {
	h := sha256.New()
	var scratch [8]byte

	writeStr := func(s string) {
		binary.LittleEndian.PutUint32(scratch[:4], uint32(len(s)))
		h.Write(scratch[:4])
		h.Write([]byte(s))
	}
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	// A vector is hashed as its own memory: on a little-endian host those
	// bytes are the words' little-endian IEEE bits, the layout the key has
	// always had.
	writeVec := func(v []float64) {
		binary.LittleEndian.PutUint32(scratch[:4], uint32(len(v)))
		h.Write(scratch[:4])
		if !littleEndian {
			for _, f := range v {
				writeU64(math.Float64bits(f))
			}
			return
		}
		h.Write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v)))
	}

	writeStr("popfleet/v2") // domain separator, bumped on any layout change
	writeStr(grid)
	writeU64(uint64(method))
	writeU64(uint64(precond))
	writeU64(uint64(precision))
	writeU64(uint64(sstep))
	writeU64(math.Float64bits(tol))
	writeVec(b)
	writeVec(x0) // nil and empty both hash as length 0 = zero guess

	var key CacheKey
	h.Sum(key[:0])
	return key
}
