package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

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
