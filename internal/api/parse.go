package api

import (
	"fmt"

	"repro/internal/core"
)

// Accepted enum spellings, surfaced verbatim in 400 bodies so a rejected
// request tells the client how to fix itself. Both lists derive from the
// spelling tables behind the core parsers, so the JSON FieldError bodies
// here and the frame validation in frame.go (which share these vars) can
// never drift from what the parsers accept. Order is the tables' order: the
// default spelling comes first.
var (
	acceptedMethods  = core.MethodNames()
	acceptedPreconds = core.PrecondNames()
)

// AcceptedMethods lists the method names ParseMethod accepts ("" defaults
// to the first entry).
func AcceptedMethods() []string { return append([]string(nil), acceptedMethods...) }

// AcceptedPreconds lists the preconditioner names ParsePrecond accepts
// ("" defaults to the first entry).
func AcceptedPreconds() []string { return append([]string(nil), acceptedPreconds...) }

// FieldError reports a request field whose value failed enum validation.
// It wraps core.ErrBadSpec (so errors.Is keeps matching the typed-error
// contract) and carries the accepted spellings for the 400 body.
type FieldError struct {
	// Field is the wire name of the failing field ("method", "precond").
	Field string
	// Value is the rejected input.
	Value string
	// Accepted lists the spellings the field takes.
	Accepted []string
}

// Error renders the message used in error bodies and logs.
func (e *FieldError) Error() string {
	return fmt.Sprintf("unknown %s %q (accepted: %s)", e.Field, e.Value, joinNames(e.Accepted))
}

// Unwrap ties FieldError into the ErrBadSpec matching chain.
func (e *FieldError) Unwrap() error { return core.ErrBadSpec }

// joinNames renders a comma-separated accepted-values list.
func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// Parse normalizes the request's enum fields through the core parsers —
// the single place wire strings become typed values — into the request
// form the binary frame carries, so both encodings continue as one
// FrameRequest. A bad spelling returns a *FieldError listing the accepted
// names (HTTP layers render it as a 400 with ErrorBody.Accepted populated);
// B/RHS mutual exclusion is also enforced here. B is nil when RHS names a
// generator the server has still to resolve.
func (r *SolveRequest) Parse() (FrameRequest, error) {
	method, err := core.ParseMethod(r.Method)
	if err != nil {
		return FrameRequest{}, &FieldError{Field: "method", Value: r.Method, Accepted: acceptedMethods}
	}
	precond, err := core.ParsePrecond(r.Precond)
	if err != nil {
		return FrameRequest{}, &FieldError{Field: "precond", Value: r.Precond, Accepted: acceptedPreconds}
	}
	if r.RHS != "" && len(r.B) > 0 {
		return FrameRequest{}, fmt.Errorf(`api: "b" and "rhs" are mutually exclusive: %w`, core.ErrBadSpec)
	}
	return FrameRequest{
		Grid:      r.Grid,
		Method:    method,
		Precond:   precond,
		B:         r.B,
		X0:        r.X0,
		TimeoutMS: r.TimeoutMS,
		ReturnX:   r.ReturnX,
		TraceID:   r.TraceID,
		NoCache:   r.NoCache,
	}, nil
}
