package main

import (
	"context"
	"encoding/json"
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
	freq := api.FrameRequest{Grid: "1deg", Method: pop.MethodSStep, Precond: pop.PrecondEVP, SStep: 8,
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
