package api

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestParseDefaultsAndSpellings(t *testing.T) {
	c, err := (&SolveRequest{}).Parse()
	if err != nil {
		t.Fatalf("empty request: %v", err)
	}
	if c.Method != core.MethodChronGear || c.Precond != core.PrecondDiagonal {
		t.Fatalf("defaults wrong: %+v", c)
	}

	c, err = (&SolveRequest{Method: "pcsi", Precond: "evp"}).Parse()
	if err != nil {
		t.Fatalf("pcsi/evp: %v", err)
	}
	if c.Method != core.MethodPCSI || c.Precond != core.PrecondEVP {
		t.Fatalf("parsed wrong: %+v", c)
	}

	// csi stays the distinct alias at the wire boundary; serve's key
	// normalization canonicalizes it to PCSI + identity downstream.
	c, err = (&SolveRequest{Method: "csi"}).Parse()
	if err != nil {
		t.Fatalf("csi: %v", err)
	}
	if c.Method != core.MethodCSI {
		t.Fatalf("csi parse wrong: %+v", c)
	}
}

// zeroFields names the fields of struct v holding their zero value: a hop
// fixture must have none, so a field added to a wire struct fails the hop
// tests by name until the fixture — and then the hop — carries it.
func zeroFields(v any) []string {
	var zero []string
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			zero = append(zero, rv.Type().Field(i).Name)
		}
	}
	return zero
}

// TestParseCarriesEveryField is the JSON → frame hop, field by field: every
// SolveRequest field has a FrameRequest namesake, and clearing it in a fully
// set request changes that namesake in what Parse returns. RHS is the one
// exception: generator names are resolved to an explicit B by the server
// (popserver's syntheticRHS) and never reach a frame.
func TestParseCarriesEveryField(t *testing.T) {
	full := SolveRequest{Grid: "1deg", Method: "sstep", Precond: "blocklu",
		B: []float64{1, 2}, X0: []float64{3, 4}, TimeoutMS: 1234, ReturnX: true,
		TraceID: 77, NoCache: true}
	if z := zeroFields(full); !reflect.DeepEqual(z, []string{"RHS"}) {
		t.Fatalf("zero-valued fields in the fixture: %v, want only RHS (exclusive with B)", z)
	}
	// JSON and the binary frame continue as one typed request: everything a
	// frame carries arrives from a JSON body too.
	want := FrameRequest{Grid: "1deg", Method: core.MethodSStep, Precond: core.PrecondBlockLU,
		B: []float64{1, 2}, X0: []float64{3, 4}, TimeoutMS: 1234, ReturnX: true,
		TraceID: 77, NoCache: true}
	if got, err := full.Parse(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("full request parsed to %+v (%v), want %+v", got, err, want)
	}
	st := reflect.TypeOf(full)
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		if name == "RHS" {
			continue
		}
		if _, ok := reflect.TypeOf(want).FieldByName(name); !ok {
			t.Errorf("SolveRequest.%s has no FrameRequest namesake: the frame cannot carry it", name)
			continue
		}
		cleared := full
		reflect.ValueOf(&cleared).Elem().Field(i).SetZero()
		got, err := cleared.Parse()
		if err != nil {
			t.Errorf("%s cleared: %v", name, err)
			continue
		}
		if reflect.DeepEqual(reflect.ValueOf(got).FieldByName(name).Interface(),
			reflect.ValueOf(want).FieldByName(name).Interface()) {
			t.Errorf("Parse drops SolveRequest.%s: clearing it leaves FrameRequest.%s unchanged", name, name)
		}
	}
	for i, ft := 0, reflect.TypeOf(want); i < ft.NumField(); i++ {
		if _, ok := st.FieldByName(ft.Field(i).Name); !ok {
			t.Errorf("FrameRequest.%s has no SolveRequest namesake: JSON clients cannot set it", ft.Field(i).Name)
		}
	}
}

func TestParseBadEnumListsAccepted(t *testing.T) {
	cases := []struct {
		req   SolveRequest
		field string
		names []string
	}{
		{SolveRequest{Method: "gmres"}, "method", acceptedMethods},
		{SolveRequest{Method: "pipecg"}, "method", acceptedMethods},
		{SolveRequest{Precond: "ilu"}, "precond", acceptedPreconds},
	}
	for _, tc := range cases {
		_, err := tc.req.Parse()
		if err == nil {
			t.Fatalf("%s: expected error", tc.field)
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: error %T is not *FieldError", tc.field, err)
		}
		if fe.Field != tc.field {
			t.Fatalf("field = %q, want %q", fe.Field, tc.field)
		}
		if !reflect.DeepEqual(fe.Accepted, tc.names) {
			t.Fatalf("%s accepted = %v, want %v", tc.field, fe.Accepted, tc.names)
		}
		if !errors.Is(err, core.ErrBadSpec) {
			t.Fatalf("%s: FieldError must wrap ErrBadSpec", tc.field)
		}
		for _, n := range tc.names {
			if !strings.Contains(err.Error(), n) {
				t.Fatalf("%s: message %q misses accepted name %q", tc.field, err.Error(), n)
			}
		}
	}
}

func TestParseBAndRHSMutuallyExclusive(t *testing.T) {
	_, err := (&SolveRequest{B: []float64{1}, RHS: "smooth"}).Parse()
	if !errors.Is(err, core.ErrBadSpec) {
		t.Fatalf("b+rhs: got %v, want ErrBadSpec", err)
	}
}

func TestFrameRequestRoundTrip(t *testing.T) {
	in := FrameRequest{
		Grid:      "test",
		Method:    core.MethodPCSI,
		Precond:   core.PrecondEVP,
		B:         []float64{1.5, -2.25, math.Pi, 0, math.Copysign(0, -1)},
		X0:        []float64{0.5, 0.25, 0, 1, 2},
		TimeoutMS: 1234,
		ReturnX:   true,
		NoCache:   true,
		TraceID:   0xDEADBEEFCAFE,
	}
	if z := zeroFields(in); len(z) > 0 {
		t.Fatalf("zero-valued fields in the fixture: %v — a field the codec dropped would round-trip unnoticed", z)
	}
	raw := AppendFrameRequest(nil, in)
	kind, err := FrameKind(raw)
	if err != nil || kind != FrameSolveRequest {
		t.Fatalf("kind = %d, %v", kind, err)
	}
	out, err := DecodeFrameRequest(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
	// -0 must survive bitwise.
	if math.Signbit(out.B[4]) != true {
		t.Fatalf("-0 lost its sign bit")
	}

	// Without x0 the flag clears and X0 decodes nil.
	in.X0 = nil
	out, err = DecodeFrameRequest(AppendFrameRequest(nil, in))
	if err != nil {
		t.Fatalf("decode no-x0: %v", err)
	}
	if out.X0 != nil {
		t.Fatalf("X0 = %v, want nil", out.X0)
	}
}

func TestFrameResponseRoundTrip(t *testing.T) {
	in := SolveResponse{
		Converged:   true,
		Iterations:  42,
		RelResidual: 7.5e-14,
		Solver:      "pcsi",
		ElapsedMS:   1.75,
		TraceID:     99,
		Cache:       "miss",
		Shard:       2,
		X:           []float64{1, 2, 3},
	}
	out, err := DecodeFrameResponse(AppendFrameResponse(nil, in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}

	// Shard -1 and empty cache state survive.
	in = SolveResponse{Solver: "chrongear", Shard: -1}
	out, err = DecodeFrameResponse(AppendFrameResponse(nil, in))
	if err != nil {
		t.Fatalf("decode shardless: %v", err)
	}
	if out.Shard != -1 || out.Cache != "" || out.X != nil {
		t.Fatalf("shardless mismatch: %+v", out)
	}
}

func TestFrameErrorRoundTrip(t *testing.T) {
	raw := AppendFrameError(nil, 429, "queue full")
	status, msg, err := DecodeFrameError(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if status != 429 || msg != "queue full" {
		t.Fatalf("got %d %q", status, msg)
	}
}

func TestFrameRejectsDamage(t *testing.T) {
	good := AppendFrameRequest(nil, FrameRequest{Grid: "test", B: []float64{1, 2, 3}})

	// Every strict prefix must be rejected, never panic.
	for n := 0; n < len(good); n++ {
		if _, err := DecodeFrameRequest(good[:n]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("prefix len %d: got %v, want ErrBadFrame", n, err)
		}
	}

	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := DecodeFrameRequest(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad magic: %v", err)
	}

	// Version 5 is the only schema: the retired v1–v4 bytes and anything
	// newer are structural damage, not a compatibility path. (v3 numbered
	// the method byte with one more method, so its pcsi byte would read as
	// csi; v4 carried an s-step byte before the flags.)
	for _, ver := range []byte{0, 1, 2, 3, 4, FrameVersion + 1, 9} {
		bad = append([]byte(nil), good...)
		bad[4] = ver
		if _, err := DecodeFrameRequest(bad); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("version %d: got %v, want ErrBadFrame", ver, err)
		}
	}

	// A response frame handed to the request decoder is a kind mismatch.
	resp := AppendFrameResponse(nil, SolveResponse{Solver: "pcg", Shard: -1})
	if _, err := DecodeFrameRequest(resp); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("kind mismatch: %v", err)
	}

	// An out-of-range enum byte is a FieldError, like the JSON path.
	bad = append([]byte(nil), good...)
	bad[6] = 200 // method byte
	var fe *FieldError
	if _, err := DecodeFrameRequest(bad); !errors.As(err, &fe) || fe.Field != "method" {
		t.Fatalf("bad method byte: want FieldError{method}, got %v", err)
	}
}

func TestHashSolveDeterminismAndSensitivity(t *testing.T) {
	b := []float64{1, 2, 3}
	base := HashSolve("test", core.MethodPCSI, core.PrecondEVP, core.Float64, 0, 1e-13, b, nil)
	if base != HashSolve("test", core.MethodPCSI, core.PrecondEVP, core.Float64, 0, 1e-13, []float64{1, 2, 3}, nil) {
		t.Fatalf("hash not deterministic")
	}

	variants := []CacheKey{
		HashSolve("small", core.MethodPCSI, core.PrecondEVP, core.Float64, 0, 1e-13, b, nil),
		HashSolve("test", core.MethodPCG, core.PrecondEVP, core.Float64, 0, 1e-13, b, nil),
		HashSolve("test", core.MethodPCSI, core.PrecondDiagonal, core.Float64, 0, 1e-13, b, nil),
		HashSolve("test", core.MethodPCSI, core.PrecondEVP, core.Float64, 0, 1e-10, b, nil),
		HashSolve("test", core.MethodPCSI, core.PrecondEVP, core.Float64, 0, 1e-13, []float64{1, 2, 4}, nil),
		HashSolve("test", core.MethodPCSI, core.PrecondEVP, core.Float64, 0, 1e-13, b, []float64{0, 0, 1}),
		HashSolve("test", core.MethodSStep, core.PrecondEVP, core.Float64, 0, 1e-13, b, nil),
	}
	seen := map[CacheKey]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Fatalf("variant %d collides with an earlier key", i)
		}
		seen[v] = true
	}

	// Last-ulp and sign-of-zero differences must produce distinct keys.
	ulp := []float64{1, 2, math.Nextafter(3, 4)}
	if HashSolve("test", core.MethodPCSI, core.PrecondEVP, core.Float64, 0, 1e-13, ulp, nil) == base {
		t.Fatalf("ulp difference not reflected in key")
	}
	negz := []float64{1, 2, math.Copysign(0, -1)}
	posz := []float64{1, 2, 0}
	if HashSolve("test", core.MethodPCSI, core.PrecondEVP, core.Float64, 0, 1e-13, negz, nil) ==
		HashSolve("test", core.MethodPCSI, core.PrecondEVP, core.Float64, 0, 1e-13, posz, nil) {
		t.Fatalf("-0 and +0 conflated")
	}
}

func TestServiceCountersAdd(t *testing.T) {
	a := ServiceCounters{Requests: 1, Shed: 2, Expired: 3, Solves: 4, Batches: 5, Errors: 6, Sessions: 7, Retried: 8}
	b := a
	b.Add(a)
	want := ServiceCounters{Requests: 2, Shed: 4, Expired: 6, Solves: 8, Batches: 10, Errors: 12, Sessions: 14, Retried: 16}
	if b != want {
		t.Fatalf("Add: got %+v, want %+v", b, want)
	}
}
