package api

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
)

// frameFuzzSeeds builds the fuzz corpus from the same frames the
// round-trip tests exercise: a fully-populated request, a minimal request
// without x0, a response with every field set, an error frame, and
// structurally damaged fragments.
func frameFuzzSeeds() [][]byte {
	req := AppendFrameRequest(nil, FrameRequest{
		Grid: "test", Method: core.MethodPCSI, Precond: core.PrecondEVP,
		B:         []float64{1.5, -2.25, math.Pi, 0, math.Copysign(0, -1)},
		X0:        []float64{0.5, 0.25, 0, 1, 2},
		TimeoutMS: 1234, ReturnX: true, NoCache: true, TraceID: 0xDEADBEEFCAFE,
	})
	noX0 := AppendFrameRequest(nil, FrameRequest{
		Grid: "test", B: []float64{1, 2, 3}, TimeoutMS: 50, ReturnX: true, TraceID: 7,
	})
	resp := AppendFrameResponse(nil, SolveResponse{
		Converged: true, Iterations: 42, RelResidual: 7.5e-14,
		Solver: "pcsi", ElapsedMS: 1.75, TraceID: 99,
		Cache: "miss", Shard: 2, X: []float64{1, 2, 3},
	})
	errFrame := AppendFrameError(nil, 429, "queue full")
	return [][]byte{req, noX0, resp, errFrame, req[:7], []byte(FrameMagic), nil}
}

// FuzzFrameDecode feeds arbitrary bytes to all three frame decoders. The
// decoders must be total — a structured error (ErrBadFrame, or a
// *FieldError for out-of-range enum bytes) or a value, never a panic or an
// out-of-range read — and every accepted frame must re-encode to a stable
// canonical form (encode∘decode idempotent at the byte level, which
// sidesteps NaN payload comparisons).
func FuzzFrameDecode(f *testing.F) {
	for _, seed := range frameFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		_, _ = FrameKind(raw) // total: never panics

		if r, err := DecodeFrameRequest(raw); err == nil {
			enc := AppendFrameRequest(nil, r)
			r2, err2 := DecodeFrameRequest(enc)
			if err2 != nil {
				t.Fatalf("re-decode of re-encoded request failed: %v", err2)
			}
			if !bytes.Equal(enc, AppendFrameRequest(nil, r2)) {
				t.Fatalf("request encoding not idempotent for %+v", r)
			}
		} else if !errors.Is(err, ErrBadFrame) {
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("request decode error is neither ErrBadFrame nor *FieldError: %v", err)
			}
		}

		if resp, err := DecodeFrameResponse(raw); err == nil {
			enc := AppendFrameResponse(nil, resp)
			resp2, err2 := DecodeFrameResponse(enc)
			if err2 != nil {
				t.Fatalf("re-decode of re-encoded response failed: %v", err2)
			}
			if !bytes.Equal(enc, AppendFrameResponse(nil, resp2)) {
				t.Fatalf("response encoding not idempotent for %+v", resp)
			}
		} else if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("response decode error is not ErrBadFrame: %v", err)
		}

		if status, msg, err := DecodeFrameError(raw); err == nil {
			status2, msg2, err2 := DecodeFrameError(AppendFrameError(nil, status, msg))
			if err2 != nil || status2 != status || msg2 != msg {
				t.Fatalf("error frame did not round-trip: (%d,%q) → (%d,%q,%v)",
					status, msg, status2, msg2, err2)
			}
		} else if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("error decode error is not ErrBadFrame: %v", err)
		}
	})
}
