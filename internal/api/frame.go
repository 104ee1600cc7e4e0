package api

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
)

// The compact binary frame — the router↔worker hot path encoding. Layout
// (all integers little-endian; full spec in DESIGN.md §13):
//
//	offset size field
//	0      4    magic "POPF"
//	4      1    version (5; decoders accept no other)
//	5      1    kind (FrameSolveRequest | FrameSolveResponse | FrameError)
//	6      …    kind-specific payload
//
// Solve-request payload:
//
//	u8 method, u8 precond, u8 flags (bit0 return_x, bit1 has_x0,
//	bit2 no_cache), u32 timeout_ms,
//	u64 trace_id, u16 len(grid) + grid bytes,
//	u32 len(b) + b as raw float64,
//	[if has_x0] u32 len(x0) + x0 as raw float64
//
// Solve-response payload:
//
//	u8 flags (bit0 converged, bit1 has_x), u8 cache (0 none, 1 hit,
//	2 miss), u16 shard (0xFFFF = none), u32 iterations,
//	f64 rel_residual, f64 elapsed_ms, u64 trace_id,
//	u16 len(solver) + solver bytes,
//	[if has_x] u32 len(x) + x as raw float64
//
// Error payload:
//
//	u16 http status, u16 len(message) + message bytes
//
// Strings are bounded (u16 lengths) and vectors carry their float64 bits
// raw — no reflection, no digit formatting, no base64. Synthetic RHS
// generators are a JSON-only convenience: frames always carry the explicit
// vector, because the hot path is router→worker where the RHS is already
// resolved.

// FrameMagic is the 4-byte frame preamble.
const FrameMagic = "POPF"

// FrameVersion is the frame schema version: written by every encoder and
// the only one the decoders accept (any other is ErrBadFrame).
const FrameVersion = 5

// Frame kinds (byte 5).
const (
	// FrameSolveRequest marks a solve-request payload.
	FrameSolveRequest = 1
	// FrameSolveResponse marks a solve-response payload.
	FrameSolveResponse = 2
	// FrameError marks an error payload.
	FrameError = 3
)

// Cache-state wire codes (SolveResponse.Cache ↔ one byte).
const (
	frameCacheNone = 0
	frameCacheHit  = 1
	frameCacheMiss = 2
)

// frameShardNone is the u16 sentinel for "no shard" (Shard -1).
const frameShardNone = 0xFFFF

// ErrBadFrame marks frames that fail structural validation: wrong magic,
// unknown version or kind, or a payload shorter than its declared lengths.
// Match with errors.Is.
var ErrBadFrame = fmt.Errorf("api: malformed binary frame")

// FrameRequest is the decoded form of a solve-request frame: the parsed
// enums plus the raw vectors. Unlike SolveRequest it carries no generator
// names — frames always ship the explicit RHS.
type FrameRequest struct {
	// Grid is the preset name.
	Grid string
	// Method is the solver algorithm.
	Method core.Method
	// Precond is the preconditioner.
	Precond core.PrecondType
	// B is the right-hand side.
	B []float64
	// X0 is the initial guess (nil = zero).
	X0 []float64
	// TimeoutMS bounds the solve in milliseconds (0 = none).
	TimeoutMS int
	// ReturnX asks for the solution vector in the response.
	ReturnX bool
	// NoCache asks the router to bypass its result cache.
	NoCache bool
	// TraceID is the request-scoped trace ID (0 = assign fresh).
	TraceID uint64
}

// AppendFrameRequest appends the frame encoding of r to dst and returns
// the extended slice (append-style, so hot paths can reuse buffers).
func AppendFrameRequest(dst []byte, r FrameRequest) []byte {
	dst = appendHeader(dst, FrameSolveRequest)
	var flags byte
	if r.ReturnX {
		flags |= 1 << 0
	}
	if r.X0 != nil {
		flags |= 1 << 1
	}
	if r.NoCache {
		flags |= 1 << 2
	}
	dst = append(dst, byte(r.Method), byte(r.Precond), flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.TimeoutMS))
	dst = binary.LittleEndian.AppendUint64(dst, r.TraceID)
	dst = appendString16(dst, r.Grid)
	dst = appendFloats(dst, r.B)
	if r.X0 != nil {
		dst = appendFloats(dst, r.X0)
	}
	return dst
}

// DecodeFrameRequest parses a solve-request frame. Enum bytes are
// validated (an out-of-range method/precond is a *FieldError,
// exactly like the JSON path), structural damage matches ErrBadFrame.
func DecodeFrameRequest(raw []byte) (FrameRequest, error) {
	p, err := newParser(raw, FrameSolveRequest)
	if err != nil {
		return FrameRequest{}, err
	}
	var r FrameRequest
	m, pc, flags := p.byte(), p.byte(), p.byte()
	r.TimeoutMS = int(p.uint32())
	r.TraceID = p.uint64()
	r.Grid = p.string16()
	r.B = p.floats()
	if flags&(1<<1) != 0 {
		r.X0 = p.floats()
	}
	if p.err != nil {
		return FrameRequest{}, p.err
	}
	r.Method = core.Method(m)
	r.Precond = core.PrecondType(pc)
	if !r.Method.Valid() {
		return FrameRequest{}, &FieldError{Field: "method", Value: fmt.Sprintf("%d", m), Accepted: acceptedMethods}
	}
	if !r.Precond.Valid() {
		return FrameRequest{}, &FieldError{Field: "precond", Value: fmt.Sprintf("%d", pc), Accepted: acceptedPreconds}
	}
	r.ReturnX = flags&(1<<0) != 0
	r.NoCache = flags&(1<<2) != 0
	return r, nil
}

// AppendFrameResponse appends the frame encoding of resp to dst. The X
// vector is included only when non-nil (the request's ReturnX decision is
// made by the caller).
func AppendFrameResponse(dst []byte, resp SolveResponse) []byte {
	dst = appendHeader(dst, FrameSolveResponse)
	var flags byte
	if resp.Converged {
		flags |= 1 << 0
	}
	if resp.X != nil {
		flags |= 1 << 1
	}
	dst = append(dst, flags, cacheCode(resp.Cache))
	shard := uint16(frameShardNone)
	if resp.Shard >= 0 && resp.Shard < frameShardNone {
		shard = uint16(resp.Shard)
	}
	dst = binary.LittleEndian.AppendUint16(dst, shard)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(resp.Iterations))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(resp.RelResidual))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(resp.ElapsedMS))
	dst = binary.LittleEndian.AppendUint64(dst, resp.TraceID)
	dst = appendString16(dst, resp.Solver)
	if resp.X != nil {
		dst = appendFloats(dst, resp.X)
	}
	return dst
}

// DecodeFrameResponse parses a solve-response frame.
func DecodeFrameResponse(raw []byte) (SolveResponse, error) {
	p, err := newParser(raw, FrameSolveResponse)
	if err != nil {
		return SolveResponse{}, err
	}
	var resp SolveResponse
	flags, cache := p.byte(), p.byte()
	shard := p.uint16()
	resp.Iterations = int(p.uint32())
	resp.RelResidual = math.Float64frombits(p.uint64())
	resp.ElapsedMS = math.Float64frombits(p.uint64())
	resp.TraceID = p.uint64()
	resp.Solver = p.string16()
	if flags&(1<<1) != 0 {
		resp.X = p.floats()
	}
	if p.err != nil {
		return SolveResponse{}, p.err
	}
	resp.Converged = flags&(1<<0) != 0
	resp.Cache = cacheName(cache)
	resp.Shard = -1
	if shard != frameShardNone {
		resp.Shard = int(shard)
	}
	return resp, nil
}

// AppendFrameError appends the frame encoding of an error reply: the HTTP
// status the JSON path would have used, plus the rendered message.
func AppendFrameError(dst []byte, status int, msg string) []byte {
	dst = appendHeader(dst, FrameError)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(status))
	dst = appendString16(dst, msg)
	return dst
}

// DecodeFrameError parses an error frame into (status, message).
func DecodeFrameError(raw []byte) (int, string, error) {
	p, err := newParser(raw, FrameError)
	if err != nil {
		return 0, "", err
	}
	status := int(p.uint16())
	msg := p.string16()
	if p.err != nil {
		return 0, "", p.err
	}
	return status, msg, nil
}

// FrameKind peeks at a frame's kind byte after validating the header;
// servers use it to dispatch request vs response vs error without a full
// decode.
func FrameKind(raw []byte) (int, error) {
	if len(raw) < 6 || string(raw[:4]) != FrameMagic {
		return 0, fmt.Errorf("bad magic or truncated header: %w", ErrBadFrame)
	}
	if raw[4] != FrameVersion {
		return 0, fmt.Errorf("unknown frame version %d: %w", raw[4], ErrBadFrame)
	}
	return int(raw[5]), nil
}

// appendHeader writes the shared 6-byte preamble.
func appendHeader(dst []byte, kind byte) []byte {
	dst = append(dst, FrameMagic...)
	return append(dst, FrameVersion, kind)
}

// appendString16 writes a u16 length prefix and the string bytes; strings
// longer than 64 KiB are truncated (no legitimate grid/solver/error name
// approaches that).
func appendString16(dst []byte, s string) []byte {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// appendFloats writes a u32 count prefix and the vector as raw
// little-endian float64 bits.
func appendFloats(dst []byte, v []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
	for _, f := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// parser is a bounds-checked cursor over a frame payload; the first length
// violation sticks in err and every later read returns zero values.
type parser struct {
	raw []byte
	off int
	err error
}

// newParser validates the header and positions the cursor at the payload.
func newParser(raw []byte, wantKind byte) (*parser, error) {
	kind, err := FrameKind(raw)
	if err != nil {
		return nil, err
	}
	if byte(kind) != wantKind {
		return nil, fmt.Errorf("frame kind %d, want %d: %w", kind, wantKind, ErrBadFrame)
	}
	return &parser{raw: raw, off: 6}, nil
}

// need reserves n bytes, recording a sticky ErrBadFrame on overrun.
func (p *parser) need(n int) bool {
	if p.err != nil {
		return false
	}
	if p.off+n > len(p.raw) {
		p.err = fmt.Errorf("truncated frame at offset %d: %w", p.off, ErrBadFrame)
		return false
	}
	return true
}

func (p *parser) byte() byte {
	if !p.need(1) {
		return 0
	}
	b := p.raw[p.off]
	p.off++
	return b
}

func (p *parser) uint16() uint16 {
	if !p.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(p.raw[p.off:])
	p.off += 2
	return v
}

func (p *parser) uint32() uint32 {
	if !p.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(p.raw[p.off:])
	p.off += 4
	return v
}

func (p *parser) uint64() uint64 {
	if !p.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(p.raw[p.off:])
	p.off += 8
	return v
}

func (p *parser) string16() string {
	n := int(p.uint16())
	if !p.need(n) {
		return ""
	}
	s := string(p.raw[p.off : p.off+n])
	p.off += n
	return s
}

func (p *parser) floats() []float64 {
	n := int(p.uint32())
	if p.err != nil || !p.need(n*8) {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(p.raw[p.off+i*8:]))
	}
	p.off += n * 8
	return v
}

// cacheCode maps a cache-state name to its wire byte.
func cacheCode(s string) byte {
	switch s {
	case "hit":
		return frameCacheHit
	case "miss":
		return frameCacheMiss
	default:
		return frameCacheNone
	}
}

// cacheName maps a cache-state wire byte back to its name.
func cacheName(b byte) string {
	switch b {
	case frameCacheHit:
		return "hit"
	case frameCacheMiss:
		return "miss"
	default:
		return ""
	}
}
