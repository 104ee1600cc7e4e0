package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"repro"
	"repro/internal/api"
)

// runProbe is popserver's one-shot client mode (-probe URL): generate the
// smooth RHS locally (the same generator the server uses, so repeated
// probes content-hash identically and exercise the fleet cache), send one
// solve in JSON or the binary frame, print the outcome, and exit 0 iff the
// solve converged. verify.sh uses it as the frame-speaking smoke client.
func runProbe(base string, frame bool, gridName, method, precond string) int {
	base = strings.TrimRight(base, "/")
	g, err := pop.NewGrid(gridName)
	if err != nil {
		log.Printf("probe: %v", err)
		return 1
	}
	b := smoothRHS(g)
	client := &http.Client{Timeout: 2 * time.Minute}

	var resp api.SolveResponse
	if frame {
		resp, err = probeFrame(client, base, gridName, method, precond, b)
	} else {
		resp, err = probeJSON(client, base, gridName, method, precond, b)
	}
	if err != nil {
		log.Printf("probe: %v", err)
		return 1
	}
	enc := "json"
	if frame {
		enc = "frame"
	}
	cache := resp.Cache
	if cache == "" {
		cache = "none"
	}
	fmt.Printf("probe: converged=%v iters=%d rel_residual=%.3e solver=%s cache=%s shard=%d trace=%d (%s)\n",
		resp.Converged, resp.Iterations, resp.RelResidual, resp.Solver, cache, resp.Shard, resp.TraceID, enc)
	if !resp.Converged {
		return 1
	}
	return 0
}

// probeJSON sends the solve as a JSON SolveRequest to /v1/solve.
func probeJSON(client *http.Client, base, gridName, method, precond string, b []float64) (api.SolveResponse, error) {
	req := api.SolveRequest{
		Grid:    gridName,
		Method:  method,
		Precond: precond,
		B:       b,
	}
	body, err := json.Marshal(req)
	if err != nil {
		return api.SolveResponse{}, err
	}
	hres, err := client.Post(base+api.V1Solve, api.ContentTypeJSON, bytes.NewReader(body))
	if err != nil {
		return api.SolveResponse{}, err
	}
	defer hres.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hres.Body, maxBody))
	if err != nil {
		return api.SolveResponse{}, err
	}
	if hres.StatusCode != http.StatusOK {
		var eb api.ErrorBody
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			return api.SolveResponse{}, fmt.Errorf("HTTP %d: %s", hres.StatusCode, eb.Error)
		}
		return api.SolveResponse{}, fmt.Errorf("HTTP %d", hres.StatusCode)
	}
	var resp api.SolveResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return api.SolveResponse{}, err
	}
	return resp, nil
}

// probeFrame sends the solve as a binary frame to /v1/solve and decodes the
// response (or error) frame.
func probeFrame(client *http.Client, base, gridName, method, precond string, b []float64) (api.SolveResponse, error) {
	m, err := pop.ParseMethod(method)
	if err != nil {
		return api.SolveResponse{}, err
	}
	pc, err := pop.ParsePrecond(precond)
	if err != nil {
		return api.SolveResponse{}, err
	}
	payload := api.AppendFrameRequest(nil, api.FrameRequest{
		Grid:    gridName,
		Method:  m,
		Precond: pc,
		B:       b,
	})
	hres, err := client.Post(base+api.V1Solve, api.ContentTypeFrame, bytes.NewReader(payload))
	if err != nil {
		return api.SolveResponse{}, err
	}
	defer hres.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hres.Body, maxBody))
	if err != nil {
		return api.SolveResponse{}, err
	}
	kind, err := api.FrameKind(raw)
	if err != nil {
		return api.SolveResponse{}, fmt.Errorf("HTTP %d: %w", hres.StatusCode, err)
	}
	if kind == api.FrameError {
		status, msg, derr := api.DecodeFrameError(raw)
		if derr != nil {
			return api.SolveResponse{}, derr
		}
		return api.SolveResponse{}, fmt.Errorf("HTTP %d: %s", status, msg)
	}
	return api.DecodeFrameResponse(raw)
}
