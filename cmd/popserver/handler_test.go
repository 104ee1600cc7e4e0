package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/api"
	"repro/internal/grid"
)

// TestServeRequestCarriesEveryFrameField is the frame → serve hop, field by
// field: from a frame with no zero-valued field, every field either arrives
// in its serve.Request namesake or is one of the four dispatch itself acts
// on, and nothing in the serve.Request is left unset.
func TestServeRequestCarriesEveryFrameField(t *testing.T) {
	dispatchOwns := map[string]string{
		"TimeoutMS": "becomes the solve context's deadline",
		"TraceID":   "rides the solve context",
		"ReturnX":   "decides whether the response carries X",
		"NoCache":   "is a router directive (pop.FleetRequest.NoCache)",
	}
	freq := api.FrameRequest{Grid: "1deg", Method: pop.MethodSStep, Precond: pop.PrecondEVP,
		B: []float64{1, 2}, X0: []float64{3, 4}, TimeoutMS: 1234, ReturnX: true, NoCache: true, TraceID: 77}
	sreq := reflect.ValueOf(serveRequest(freq))
	fv := reflect.ValueOf(freq)
	for i := 0; i < fv.NumField(); i++ {
		name := fv.Type().Field(i).Name
		if fv.Field(i).IsZero() {
			t.Errorf("FrameRequest.%s is zero in the fixture: a dropped field would pass unnoticed", name)
		}
		got := sreq.FieldByName(name)
		switch {
		case dispatchOwns[name] != "":
			if got.IsValid() {
				t.Errorf("%s is listed as dispatch's (%s) but pop.ServeRequest has that field", name, dispatchOwns[name])
			}
		case !got.IsValid():
			t.Errorf("FrameRequest.%s has no pop.ServeRequest namesake and is not one of dispatch's fields", name)
		case !reflect.DeepEqual(got.Interface(), fv.Field(i).Interface()):
			t.Errorf("serveRequest drops FrameRequest.%s: got %v, want %v", name, got, fv.Field(i))
		}
	}
	for i := 0; i < sreq.NumField(); i++ {
		if sreq.Field(i).IsZero() {
			t.Errorf("pop.ServeRequest.%s is left unset by serveRequest", sreq.Type().Field(i).Name)
		}
	}
}

// GET /debug/flight answers with one key, "recent", holding the flight
// recorder's request records — what README and the command doc say it does.
func TestFlightEndpointShape(t *testing.T) {
	h := &handler{svc: pop.NewService(pop.ServiceOptions{})}
	defer h.close(context.Background())

	post := httptest.NewRequest(http.MethodPost, "/v1/solve",
		strings.NewReader(`{"grid":"test","method":"pcsi","precond":"evp","rhs":"smooth","trace_id":7}`))
	rec := httptest.NewRecorder()
	h.solve(rec, post)
	if rec.Code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	h.flight(rec, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	var body map[string][]pop.RequestRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("flight body is not an object of record arrays: %v: %s", err, rec.Body)
	}
	recent, ok := body["recent"]
	if len(body) != 1 || !ok {
		t.Fatalf(`flight body has keys %v, want exactly "recent"`, body)
	}
	if len(recent) != 1 || recent[0].TraceID != 7 || recent[0].Key != "test/pcsi/evp" {
		t.Errorf("recent = %+v, want the one solve under trace ID 7", recent)
	}
}

// zeros is an endless reader of zero bytes: a large body that costs no
// memory until someone reads it.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// The body limit admits the largest request a preset can need — a 0.1°
// frame carrying B and X0, as a router forwards it — and answers a body one
// byte over the limit 413 in either encoding, instead of truncating it into
// a malformed request.
func TestBodyLimitFitsLargestFrame(t *testing.T) {
	s := grid.TenthDegreeSpec()
	n := int64(s.Nx * s.Ny)
	one := api.AppendFrameRequest(nil, api.FrameRequest{Grid: grid.PresetTenthDegree,
		B: []float64{1}, X0: []float64{1}, TimeoutMS: 1, ReturnX: true, TraceID: 1})
	if size := int64(len(one)) + 16*(n-1); size > maxBody {
		t.Fatalf("a 0.1° frame with B and X0 is %d bytes, over the %d-byte body limit", size, maxBody)
	}

	h := &handler{svc: pop.NewService(pop.ServiceOptions{})}
	defer h.close(context.Background())
	for _, contentType := range []string{api.ContentTypeJSON, api.ContentTypeFrame} {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", io.LimitReader(zeros{}, maxBody+1))
		req.ContentLength = maxBody + 1
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.solve(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s body of %d bytes: status %d, want 413", contentType, maxBody+1, rec.Code)
		}
	}
}

// TestTypedErrorsLeaveWithTheirStatus sends every typed error the solve path
// returns out the way the solve handler does — statusFor, then writeError —
// in both encodings: a JSON ErrorBody and an error frame must each carry
// the error's status and message, and every wireErrors row must be some
// case's status. A draining server's live 503 ties the table to solve.
func TestTypedErrorsLeaveWithTheirStatus(t *testing.T) {
	cases := []struct {
		name   string
		err    error // as the service or the fleet returns it
		status int
	}{
		{"overloaded", pop.ErrOverloaded, http.StatusTooManyRequests},
		{"closed", fmt.Errorf("draining: %w", pop.ErrServiceClosed), http.StatusServiceUnavailable},
		{"bad spec", fmt.Errorf("serve: rhs length 3, want 3072: %w", pop.ErrBadSpec), http.StatusBadRequest},
		{"field error", &api.FieldError{Field: "method", Value: "warp", Accepted: []string{"chrongear"}}, http.StatusBadRequest},
		{"bad frame", fmt.Errorf("truncated: %w", api.ErrBadFrame), http.StatusBadRequest},
		{"not converged", &pop.NotConvergedError{Solver: "pcsi", Iterations: 9}, http.StatusUnprocessableEntity},
		{"deadline", fmt.Errorf("serve: expired in queue: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{"cancelled", fmt.Errorf("serve: request abandoned: %w", context.Canceled), 499},
		{"untyped", errors.New("core: eigenvalue estimate failed"), http.StatusInternalServerError},
	}
	h := &handler{}
	covered := map[int]bool{}
	for _, tc := range cases {
		covered[tc.status] = true
		if got := statusFor(tc.err); got != tc.status {
			t.Errorf("%s: statusFor = %d, want %d", tc.name, got, tc.status)
			continue
		}
		rec := httptest.NewRecorder()
		h.writeError(rec, false, statusFor(tc.err), tc.err)
		var body api.ErrorBody
		if rec.Code != tc.status || rec.Header().Get("Content-Type") != api.ContentTypeJSON {
			t.Errorf("%s JSON: status %d %q, want %d %q", tc.name, rec.Code, rec.Header().Get("Content-Type"), tc.status, api.ContentTypeJSON)
		} else if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error != tc.err.Error() {
			t.Errorf("%s JSON: body %s (%v), want error %q", tc.name, rec.Body, err, tc.err.Error())
		}
		var fe *api.FieldError
		if errors.As(tc.err, &fe) && (body.Field != fe.Field || !reflect.DeepEqual(body.Accepted, fe.Accepted)) {
			t.Errorf("%s JSON: field %q accepted %v, want %q %v", tc.name, body.Field, body.Accepted, fe.Field, fe.Accepted)
		}

		rec = httptest.NewRecorder()
		h.writeError(rec, true, statusFor(tc.err), tc.err)
		status, msg, err := api.DecodeFrameError(rec.Body.Bytes())
		if rec.Code != tc.status || err != nil || status != tc.status || msg != tc.err.Error() {
			t.Errorf("%s frame: HTTP %d, frame status %d message %q (%v), want %d %q",
				tc.name, rec.Code, status, msg, err, tc.status, tc.err.Error())
		}
	}
	for _, row := range wireErrors {
		if !covered[row.status] {
			t.Errorf("wireErrors row %v (status %d) has no case", row.target, row.status)
		}
	}

	h.draining.Store(true)
	for _, contentType := range []string{api.ContentTypeJSON, api.ContentTypeFrame} {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(nil))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.solve(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s request while draining: status %d, want 503", contentType, rec.Code)
		}
	}
}
