// The wire codec: length-prefixed binary framing.
//
// Request/Response envelopes travel as length-prefixed binary frames with a
// fixed 12-byte header and hand-rolled little-endian payloads for the hot
// frame kinds (submit, exec, perf, heartbeat, progress, chunk and campaign
// results). Cold control-plane kinds (cancel, info, stats, ...) ride inside
// a JSON-envelope frame — self-contained, codec-stateless, and off the hot
// path by construction.
//
// Frame layout (all integers little-endian):
//
//	offset 0:  magic   [4]byte  0xF7 'O' 'A' '4'
//	offset 4:  version uint8    negotiated protocol version (>= 4)
//	offset 5:  kind    uint8    frame kind (fk* constants)
//	offset 6:  flags   uint16   reserved, zero; receivers ignore unknown bits
//	offset 8:  length  uint32   payload byte count (<= MaxFramePayload)
//	offset 12: payload
//
// Every connection carries the magic in its very first bytes and a version
// of at least ProtocolV4 in every header; a frame failing either is
// malformed (ErrBadFrame) — there is no second codec to fall back to.
//
// Within a payload: strings are u32 length + bytes, []int is u32 count +
// count x u64 (two's-complement int64), []float64 is u32 count + count x
// u64 (IEEE-754 bits), bools are one byte, durations are int64 nanoseconds.
// Decoding never panics on corrupt input: every read is bounds-checked and
// every count is sanity-capped against the remaining payload, so a hostile
// length prefix costs an error, not memory.
package diet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"oagrid/internal/core"
)

// Frame header geometry.
const (
	frameHeaderSize = 12
	// MaxFramePayload bounds one frame's payload. The largest legitimate
	// frame is a CampaignResult with thousands of chunk reports — well under
	// a megabyte; 16 MiB leaves room without letting a hostile length prefix
	// reserve unbounded memory.
	MaxFramePayload = 16 << 20
)

// frameMagic opens every frame. The first byte is deliberately outside
// ASCII so text protocols (and the retired gob streams of protocol v1-v3,
// whose first byte is a small varint message length) cannot collide with it
// by accident.
var frameMagic = [4]byte{0xF7, 'O', 'A', '4'}

// Frame kinds. Requests and responses use disjoint ranges so a decoder can
// reject a response frame arriving where a request is expected.
const (
	fkSubmitReq    = 0x01
	fkExecReq      = 0x02
	fkPerfReq      = 0x03
	fkHeartbeatReq = 0x04
	fkAttachReq    = 0x05
	fkResultReq    = 0x06
	// fkJSONReq wraps the full Request envelope as JSON: the escape hatch
	// for cold request kinds (stats, cancel, info, the ring kinds, ...).
	fkJSONReq = 0x1F

	fkErr            = 0x21
	fkSubmitResp     = 0x22
	fkExecResp       = 0x23
	fkPerfResp       = 0x24
	fkHeartbeatResp  = 0x25
	fkAttachResp     = 0x26
	fkProgress       = 0x27
	fkCampaignResult = 0x28
	// fkJSONResp wraps the full Response envelope as JSON.
	fkJSONResp = 0x3F
)

// Typed decode errors. ErrFrameTooLarge is the verdict on a hostile or
// corrupt length prefix; ErrBadFrame covers every other malformed frame
// (bad magic, a version below ProtocolV4, truncated payload, unknown kind,
// trailing garbage).
var (
	ErrFrameTooLarge = errors.New("diet: frame exceeds size bound")
	ErrBadFrame      = errors.New("diet: malformed frame")

	errBadMagic = fmt.Errorf("%w: bad magic", ErrBadFrame)
)

// FrameHeader is one parsed frame header.
type FrameHeader struct {
	Version byte
	Kind    byte
	Flags   uint16
	Length  uint32
}

// parseFrameHeader validates the fixed header. It does not look at the
// payload.
//
//oalint:hotpath
func parseFrameHeader(b []byte) (FrameHeader, error) {
	var h FrameHeader
	if len(b) < frameHeaderSize {
		return h, fmt.Errorf("%w: short header (%d bytes)", ErrBadFrame, len(b))
	}
	if [4]byte(b[:4]) != frameMagic {
		return h, fmt.Errorf("%w % x", errBadMagic, b[:4])
	}
	h.Version = b[4]
	h.Kind = b[5]
	h.Flags = binary.LittleEndian.Uint16(b[6:8])
	h.Length = binary.LittleEndian.Uint32(b[8:12])
	if h.Length > MaxFramePayload {
		return h, fmt.Errorf("%w: length prefix %d (max %d)", ErrFrameTooLarge, h.Length, MaxFramePayload)
	}
	if h.Version < ProtocolV4 {
		return h, fmt.Errorf("%w (frame stamped v%d)", errVersionTooOld, h.Version)
	}
	return h, nil
}

// ParseFrame splits one whole in-memory frame into header and payload —
// the pure, reader-free half of frame decoding (the fuzz target).
//
//oalint:hotpath
func ParseFrame(b []byte) (FrameHeader, []byte, error) {
	h, err := parseFrameHeader(b)
	if err != nil {
		return h, nil, err
	}
	if len(b)-frameHeaderSize < int(h.Length) {
		return h, nil, fmt.Errorf("%w: payload truncated (%d of %d bytes)", ErrBadFrame, len(b)-frameHeaderSize, h.Length)
	}
	return h, b[frameHeaderSize : frameHeaderSize+int(h.Length)], nil
}

// ---- append-style encoding primitives -------------------------------------

//oalint:hotpath
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

//oalint:hotpath
func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

//oalint:hotpath
func appendInt(b []byte, v int) []byte { return appendU64(b, uint64(int64(v))) }

//oalint:hotpath
func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

//oalint:hotpath
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

//oalint:hotpath
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

//oalint:hotpath
func appendInts(b []byte, v []int) []byte {
	b = appendU32(b, uint32(len(v)))
	for _, x := range v {
		b = appendInt(b, x)
	}
	return b
}

//oalint:hotpath
func appendFloats(b []byte, v []float64) []byte {
	b = appendU32(b, uint32(len(v)))
	for _, x := range v {
		b = appendF64(b, x)
	}
	return b
}

// beginFrame reserves a header at the end of b; finishFrame patches the
// length once the payload is appended.
//
//oalint:hotpath
func beginFrame(b []byte, ver, kind byte) ([]byte, int) {
	start := len(b)
	b = append(b, frameMagic[0], frameMagic[1], frameMagic[2], frameMagic[3],
		ver, kind, 0, 0, 0, 0, 0, 0)
	return b, start
}

//oalint:hotpath
func finishFrame(b []byte, start int) ([]byte, error) {
	payload := len(b) - start - frameHeaderSize
	if payload > MaxFramePayload {
		return nil, fmt.Errorf("%w: encoding %d-byte payload", ErrFrameTooLarge, payload)
	}
	binary.LittleEndian.PutUint32(b[start+8:start+12], uint32(payload))
	return b, nil
}

//oalint:hotpath
func appendExecResponse(b []byte, e *ExecResponse) []byte {
	b = appendStr(b, e.Cluster)
	b = appendF64(b, e.Makespan)
	b = appendInt(b, e.Scenarios)
	b = appendInt(b, e.Round)
	b = appendInt(b, e.FirstScenario)
	b = appendInts(b, e.Allocation.Groups)
	b = appendInt(b, e.Allocation.PostProcs)
	b = appendStr(b, e.Allocation.Heuristic)
	return b
}

// AppendRequestFrame appends req encoded as one frame to buf and returns
// the extended slice. Hot request kinds get the hand-rolled layout; every
// other kind travels as a JSON envelope frame. The append never aliases
// req: buf is the only memory written.
//
//oalint:hotpath
func AppendRequestFrame(buf []byte, req *Request) ([]byte, error) {
	ver := req.Version
	if ver < ProtocolV4 || ver > 0xFF {
		ver = ProtocolV4
	}
	switch {
	case req.Kind == KindSubmit && req.Submit != nil:
		b, start := beginFrame(buf, byte(ver), fkSubmitReq)
		r := req.Submit
		b = appendInt(b, r.Scenarios)
		b = appendInt(b, r.Months)
		b = appendStr(b, r.Heuristic)
		var bits byte
		if r.Wait {
			bits |= 1
		}
		if r.Progress {
			bits |= 2
		}
		b = append(b, bits)
		b = appendInt(b, r.Priority)
		b = appendU64(b, uint64(r.Deadline))
		b = appendU32(b, uint32(len(r.Labels)))
		for k, v := range r.Labels {
			b = appendStr(b, k)
			b = appendStr(b, v)
		}
		return finishFrame(b, start)
	case req.Kind == KindExec && req.Exec != nil:
		b, start := beginFrame(buf, byte(ver), fkExecReq)
		r := req.Exec
		b = appendInt(b, r.Months)
		b = appendStr(b, r.Heuristic)
		b = appendInts(b, r.ScenarioIDs)
		return finishFrame(b, start)
	case req.Kind == KindPerf && req.Perf != nil:
		b, start := beginFrame(buf, byte(ver), fkPerfReq)
		r := req.Perf
		b = appendInt(b, r.Scenarios)
		b = appendInt(b, r.Months)
		b = appendStr(b, r.Heuristic)
		return finishFrame(b, start)
	case req.Kind == KindHeartbeat && req.Heartbeat != nil:
		b, start := beginFrame(buf, byte(ver), fkHeartbeatReq)
		r := req.Heartbeat
		b = appendStr(b, r.Cluster)
		b = appendStr(b, r.Addr)
		b = appendInt(b, r.Procs)
		b = appendInt(b, r.InFlight)
		// Speed and Draining are v7 fields: a frame stamped with a lower
		// negotiated version must stay byte-exact for pre-v7 peers, whose
		// strict decoder rejects trailing payload bytes.
		if ver >= ProtocolV7 {
			b = appendF64(b, r.Speed)
			b = appendBool(b, r.Draining)
		}
		return finishFrame(b, start)
	case req.Kind == KindAttach && req.Attach != nil:
		b, start := beginFrame(buf, byte(ver), fkAttachReq)
		b = appendU64(b, req.Attach.ID)
		b = appendBool(b, req.Attach.Progress)
		return finishFrame(b, start)
	case req.Kind == KindResult && req.Result != nil:
		b, start := beginFrame(buf, byte(ver), fkResultReq)
		b = appendU64(b, req.Result.ID)
		return finishFrame(b, start)
	default:
		data, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("diet: encoding %s request envelope: %w", req.Kind, err)
		}
		b, start := beginFrame(buf, byte(ver), fkJSONReq)
		b = append(b, data...)
		return finishFrame(b, start)
	}
}

// AppendResponseFrame appends resp encoded as one frame to buf. An error
// response becomes an fkErr frame whatever else the envelope carries: the
// Err field wins.
//
//oalint:hotpath
func AppendResponseFrame(buf []byte, resp *Response) ([]byte, error) {
	ver := resp.Version
	if ver < ProtocolV4 || ver > 0xFF {
		ver = ProtocolV4
	}
	switch {
	case resp.Err != "":
		b, start := beginFrame(buf, byte(ver), fkErr)
		b = appendStr(b, resp.Err)
		return finishFrame(b, start)
	case resp.Submit != nil:
		b, start := beginFrame(buf, byte(ver), fkSubmitResp)
		r := resp.Submit
		b = appendU64(b, r.ID)
		b = appendBool(b, r.Accepted)
		b = appendStr(b, r.Reason)
		b = appendInt(b, r.QueueDepth)
		// Code is a v5 field: a frame stamped with a lower negotiated
		// version must stay byte-exact for pre-v5 peers, whose strict
		// decoder rejects trailing payload bytes.
		if ver >= ProtocolV5 {
			b = appendStr(b, r.Code)
		}
		return finishFrame(b, start)
	case resp.Exec != nil:
		b, start := beginFrame(buf, byte(ver), fkExecResp)
		b = appendExecResponse(b, resp.Exec)
		return finishFrame(b, start)
	case resp.Perf != nil:
		b, start := beginFrame(buf, byte(ver), fkPerfResp)
		r := resp.Perf
		b = appendStr(b, r.Cluster)
		b = appendInt(b, r.Procs)
		b = appendFloats(b, r.Vector)
		return finishFrame(b, start)
	case resp.Heartbeat != nil:
		b, start := beginFrame(buf, byte(ver), fkHeartbeatResp)
		b = appendBool(b, resp.Heartbeat.OK)
		return finishFrame(b, start)
	case resp.Attach != nil:
		b, start := beginFrame(buf, byte(ver), fkAttachResp)
		r := resp.Attach
		b = appendU64(b, r.ID)
		b = appendBool(b, r.Found)
		b = appendStr(b, r.Status)
		b = appendInt(b, r.Done)
		b = appendInt(b, r.Total)
		return finishFrame(b, start)
	case resp.Progress != nil:
		b, start := beginFrame(buf, byte(ver), fkProgress)
		u := resp.Progress
		b = appendU64(b, u.ID)
		b = appendStr(b, u.Stage)
		b = appendInt(b, u.Done)
		b = appendInt(b, u.Total)
		b = appendInt(b, u.Requeued)
		b = appendU32(b, uint32(len(u.Planned)))
		for i := range u.Planned {
			b = appendStr(b, u.Planned[i].Cluster)
			b = appendInt(b, u.Planned[i].Scenarios)
		}
		if u.Chunk != nil {
			b = append(b, 1)
			b = appendExecResponse(b, u.Chunk)
		} else {
			b = append(b, 0)
		}
		return finishFrame(b, start)
	case resp.Result != nil:
		b, start := beginFrame(buf, byte(ver), fkCampaignResult)
		r := resp.Result
		b = appendU64(b, r.ID)
		b = appendStr(b, r.Status)
		b = appendF64(b, r.Makespan)
		b = appendInt(b, r.Requeues)
		b = appendInt(b, r.Done)
		b = appendInt(b, r.Total)
		b = appendStr(b, r.Err)
		b = appendU32(b, uint32(len(r.Reports)))
		for i := range r.Reports {
			b = appendExecResponse(b, &r.Reports[i])
		}
		return finishFrame(b, start)
	default:
		data, err := json.Marshal(resp)
		if err != nil {
			return nil, fmt.Errorf("diet: encoding response envelope: %w", err)
		}
		b, start := beginFrame(buf, byte(ver), fkJSONResp)
		b = append(b, data...)
		return finishFrame(b, start)
	}
}

// ---- decoding -------------------------------------------------------------

// byteReader walks a payload with bounds-checked reads. The first failure
// latches err; subsequent reads return zero values, so decode code reads
// straight through and checks err once.
type byteReader struct {
	b   []byte
	off int
	err error
}

//oalint:hotpath
func (r *byteReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s at offset %d", ErrBadFrame, what, r.off)
	}
}

//oalint:hotpath
func (r *byteReader) u8(what string) byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

//oalint:hotpath
func (r *byteReader) u32(what string) uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

//oalint:hotpath
func (r *byteReader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

//oalint:hotpath
func (r *byteReader) int(what string) int { return int(int64(r.u64(what))) }

//oalint:hotpath
func (r *byteReader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

//oalint:hotpath
func (r *byteReader) bool(what string) bool { return r.u8(what) != 0 }

//oalint:hotpath
func (r *byteReader) bytes(what string) []byte {
	n := r.u32(what)
	if r.err != nil || r.off+int(n) > len(r.b) {
		r.fail(what)
		return nil
	}
	v := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return v
}

// count reads a collection length and sanity-caps it against the bytes
// remaining (elemSize is a lower bound on one element's encoding), so a
// corrupt count cannot drive a huge preallocation.
//
//oalint:hotpath
func (r *byteReader) count(what string, elemSize int) int {
	n := r.u32(what)
	if r.err != nil {
		return 0
	}
	if int(n) > (len(r.b)-r.off)/elemSize {
		r.fail(what + " count") //oalint:allow hotpath corrupt-frame error branch, never taken on well-formed frames
		return 0
	}
	return int(n)
}

// done demands the payload was consumed exactly; trailing garbage means a
// framing bug or a tampered frame, and silently ignoring it would let two
// peers disagree about what was said.
//
//oalint:hotpath
func (r *byteReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrBadFrame, len(r.b)-r.off)
	}
	return nil
}

// maxInternedStrings bounds the decoder's string-intern table so a hostile
// peer cannot grow it without bound; past the cap strings just allocate.
const maxInternedStrings = 1024

// FrameDecoder decodes frames. It is NOT safe for concurrent use.
//
// In scratch mode (Retain == false) decoded envelopes, payload structs and
// slices live in the decoder and are overwritten by the next Decode/Read
// call — the zero-allocation mode for servers, which consume a request
// fully before touching the connection again. With Retain set, every
// decoded value is freshly allocated and safe to keep; clients use this
// because they hand chunk reports and results to code that outlives the
// connection. Strings are interned through a small table in both modes
// (strings are immutable, so sharing them is always safe).
type FrameDecoder struct {
	Retain bool

	// payload is the frame-read scratch buffer (ReadRequest/ReadResponse).
	payload []byte
	hdr     [frameHeaderSize]byte

	strings map[string]string

	req  Request
	resp Response

	submitReq SubmitRequest
	execReq   ExecRequest
	perfReq   PerfRequest
	hbReq     HeartbeatRequest
	attachReq AttachRequest
	resultReq ResultRequest

	submitResp SubmitResponse
	execResp   ExecResponse
	perfResp   PerfResponse
	hbResp     HeartbeatResponse
	attachResp AttachResponse
	progress   ProgressUpdate
	chunk      ExecResponse
	result     CampaignResult

	ids     []int
	groups  []int
	vector  []float64
	planned []PlannedChunk
	reports []ExecResponse
}

// str decodes a string, interning it so repeated cluster/heuristic/status
// names cost zero allocations after the first sighting.
//
//oalint:hotpath
func (d *FrameDecoder) str(r *byteReader, what string) string {
	b := r.bytes(what)
	if len(b) == 0 {
		return ""
	}
	if d.strings == nil {
		d.strings = make(map[string]string, 16)
	}
	if s, ok := d.strings[string(b)]; ok { // no-alloc map probe
		return s
	}
	s := string(b)
	if len(d.strings) < maxInternedStrings {
		d.strings[s] = s
	}
	return s
}

//oalint:hotpath
func (d *FrameDecoder) intSlice(r *byteReader, scratch *[]int, what string) []int {
	n := r.count(what, 8)
	if n == 0 {
		return nil
	}
	var out []int
	if d.Retain || scratch == nil {
		out = make([]int, 0, n)
	} else {
		if cap(*scratch) < n {
			*scratch = make([]int, 0, n)
		}
		out = (*scratch)[:0]
	}
	for i := 0; i < n; i++ {
		out = append(out, r.int(what))
	}
	if scratch != nil && !d.Retain {
		*scratch = out
	}
	return out
}

//oalint:hotpath
func (d *FrameDecoder) floatSlice(r *byteReader, scratch *[]float64, what string) []float64 {
	n := r.count(what, 8)
	if n == 0 {
		return nil
	}
	var out []float64
	if d.Retain || scratch == nil {
		out = make([]float64, 0, n)
	} else {
		if cap(*scratch) < n {
			*scratch = make([]float64, 0, n)
		}
		out = (*scratch)[:0]
	}
	for i := 0; i < n; i++ {
		out = append(out, r.f64(what))
	}
	if scratch != nil && !d.Retain {
		*scratch = out
	}
	return out
}

// decodeExecResponse fills e from r. groups selects the scratch slice for
// the allocation's processor groups (nil forces a fresh allocation, used
// where several ExecResponses share one frame).
//
//oalint:hotpath
func (d *FrameDecoder) decodeExecResponse(r *byteReader, e *ExecResponse, groups *[]int) {
	e.Cluster = d.str(r, "exec cluster")
	e.Makespan = r.f64("exec makespan")
	e.Scenarios = r.int("exec scenarios")
	e.Round = r.int("exec round")
	e.FirstScenario = r.int("exec first scenario")
	e.Allocation = core.Allocation{
		Groups:    d.intSlice(r, groups, "exec groups"),
		PostProcs: r.int("exec post procs"),
		Heuristic: d.str(r, "exec alloc heuristic"),
	}
}

// DecodeRequestFrame decodes one request frame payload. In scratch mode the
// returned Request and its payload structs are owned by the decoder and
// valid only until the next decode.
//
//oalint:hotpath
func (d *FrameDecoder) DecodeRequestFrame(hdr FrameHeader, payload []byte) (*Request, error) {
	req := &d.req
	if d.Retain {
		req = &Request{}
	}
	*req = Request{Version: int(hdr.Version)}
	r := &byteReader{b: payload}
	switch hdr.Kind {
	case fkSubmitReq:
		s := &d.submitReq
		if d.Retain {
			s = &SubmitRequest{}
		}
		*s = SubmitRequest{
			Scenarios: r.int("submit scenarios"),
			Months:    r.int("submit months"),
			Heuristic: d.str(r, "submit heuristic"),
		}
		bits := r.u8("submit flags")
		s.Wait = bits&1 != 0
		s.Progress = bits&2 != 0
		s.Priority = r.int("submit priority")
		s.Deadline = time.Duration(r.u64("submit deadline"))
		// Labels are retained by the scheduler for the campaign's lifetime,
		// so they are always freshly allocated, never decoder scratch.
		if n := r.count("submit labels", 8); n > 0 {
			s.Labels = make(map[string]string, n)
			for i := 0; i < n; i++ {
				k := d.str(r, "submit label key")
				s.Labels[k] = d.str(r, "submit label value")
			}
		}
		req.Kind, req.Submit = KindSubmit, s
	case fkExecReq:
		e := &d.execReq
		if d.Retain {
			e = &ExecRequest{}
		}
		*e = ExecRequest{
			Months:    r.int("exec months"),
			Heuristic: d.str(r, "exec heuristic"),
		}
		e.ScenarioIDs = d.intSlice(r, &d.ids, "exec scenario ids")
		req.Kind, req.Exec = KindExec, e
	case fkPerfReq:
		p := &d.perfReq
		if d.Retain {
			p = &PerfRequest{}
		}
		*p = PerfRequest{
			Scenarios: r.int("perf scenarios"),
			Months:    r.int("perf months"),
			Heuristic: d.str(r, "perf heuristic"),
		}
		req.Kind, req.Perf = KindPerf, p
	case fkHeartbeatReq:
		h := &d.hbReq
		if d.Retain {
			h = &HeartbeatRequest{}
		}
		*h = HeartbeatRequest{
			Cluster:  d.str(r, "heartbeat cluster"),
			Addr:     d.str(r, "heartbeat addr"),
			Procs:    r.int("heartbeat procs"),
			InFlight: r.int("heartbeat inflight"),
		}
		// Mirror the encoder's version gate: a pre-v7 peer's frame ends at
		// InFlight, and reading past it would fail the exhausted payload.
		if hdr.Version >= ProtocolV7 {
			h.Speed = r.f64("heartbeat speed")
			h.Draining = r.bool("heartbeat draining")
		}
		req.Kind, req.Heartbeat = KindHeartbeat, h
	case fkAttachReq:
		a := &d.attachReq
		if d.Retain {
			a = &AttachRequest{}
		}
		*a = AttachRequest{ID: r.u64("attach id"), Progress: r.bool("attach progress")}
		req.Kind, req.Attach = KindAttach, a
	case fkResultReq:
		rr := &d.resultReq
		if d.Retain {
			rr = &ResultRequest{}
		}
		*rr = ResultRequest{ID: r.u64("result id")}
		req.Kind, req.Result = KindResult, rr
	case fkJSONReq:
		fresh := &Request{}
		if err := json.Unmarshal(payload, fresh); err != nil {
			return nil, fmt.Errorf("%w: request envelope: %v", ErrBadFrame, err)
		}
		if fresh.Version == 0 {
			fresh.Version = int(hdr.Version)
		}
		return fresh, nil
	default:
		return nil, fmt.Errorf("%w: unknown request frame kind 0x%02x", ErrBadFrame, hdr.Kind)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return req, nil
}

// DecodeResponseFrame decodes one response frame payload. Scratch-mode
// ownership rules match DecodeRequestFrame. An fkErr frame decodes into a
// Response with Err set.
//
//oalint:hotpath
func (d *FrameDecoder) DecodeResponseFrame(hdr FrameHeader, payload []byte) (*Response, error) {
	resp := &d.resp
	if d.Retain {
		resp = &Response{}
	}
	*resp = Response{Version: int(hdr.Version)}
	r := &byteReader{b: payload}
	switch hdr.Kind {
	case fkErr:
		resp.Err = d.str(r, "error message")
	case fkSubmitResp:
		s := &d.submitResp
		if d.Retain {
			s = &SubmitResponse{}
		}
		*s = SubmitResponse{
			ID:       r.u64("submit id"),
			Accepted: r.bool("submit accepted"),
			Reason:   d.str(r, "submit reason"),
		}
		s.QueueDepth = r.int("submit queue depth")
		// Mirror the encoder's version gate: a v4 daemon's frame ends at
		// QueueDepth, and reading past it would fail the exhausted payload.
		if hdr.Version >= ProtocolV5 {
			s.Code = d.str(r, "submit reject code")
		}
		resp.Submit = s
	case fkExecResp:
		e := &d.execResp
		if d.Retain {
			e = &ExecResponse{}
		}
		d.decodeExecResponse(r, e, &d.groups)
		resp.Exec = e
	case fkPerfResp:
		p := &d.perfResp
		if d.Retain {
			p = &PerfResponse{}
		}
		*p = PerfResponse{
			Cluster: d.str(r, "perf cluster"),
			Procs:   r.int("perf procs"),
		}
		p.Vector = d.floatSlice(r, &d.vector, "perf vector")
		resp.Perf = p
	case fkHeartbeatResp:
		h := &d.hbResp
		if d.Retain {
			h = &HeartbeatResponse{}
		}
		*h = HeartbeatResponse{OK: r.bool("heartbeat ok")}
		resp.Heartbeat = h
	case fkAttachResp:
		a := &d.attachResp
		if d.Retain {
			a = &AttachResponse{}
		}
		*a = AttachResponse{
			ID:     r.u64("attach id"),
			Found:  r.bool("attach found"),
			Status: d.str(r, "attach status"),
		}
		a.Done = r.int("attach done")
		a.Total = r.int("attach total")
		resp.Attach = a
	case fkProgress:
		u := &d.progress
		if d.Retain {
			u = &ProgressUpdate{}
		}
		*u = ProgressUpdate{
			ID:    r.u64("progress id"),
			Stage: d.str(r, "progress stage"),
		}
		u.Done = r.int("progress done")
		u.Total = r.int("progress total")
		u.Requeued = r.int("progress requeued")
		if n := r.count("progress planned", 12); n > 0 {
			var out []PlannedChunk
			if d.Retain {
				out = make([]PlannedChunk, 0, n)
			} else {
				if cap(d.planned) < n {
					d.planned = make([]PlannedChunk, 0, n)
				}
				out = d.planned[:0]
			}
			for i := 0; i < n; i++ {
				out = append(out, PlannedChunk{
					Cluster:   d.str(r, "planned cluster"),
					Scenarios: r.int("planned scenarios"),
				})
			}
			if !d.Retain {
				d.planned = out
			}
			u.Planned = out
		}
		if r.bool("progress has chunk") {
			c := &d.chunk
			if d.Retain {
				c = &ExecResponse{}
			}
			d.decodeExecResponse(r, c, &d.groups)
			u.Chunk = c
		}
		resp.Progress = u
	case fkCampaignResult:
		res := &d.result
		if d.Retain {
			res = &CampaignResult{}
		}
		*res = CampaignResult{
			ID:       r.u64("result id"),
			Status:   d.str(r, "result status"),
			Makespan: r.f64("result makespan"),
		}
		res.Requeues = r.int("result requeues")
		res.Done = r.int("result done")
		res.Total = r.int("result total")
		res.Err = d.str(r, "result error")
		if n := r.count("result reports", 13); n > 0 {
			var out []ExecResponse
			if d.Retain {
				out = make([]ExecResponse, n)
			} else {
				if cap(d.reports) < n {
					d.reports = make([]ExecResponse, n)
				}
				out = d.reports[:n]
			}
			for i := range out {
				// Each report keeps its own groups slice: a shared scratch
				// would alias across reports within the one frame.
				d.decodeExecResponse(r, &out[i], nil)
			}
			if !d.Retain {
				d.reports = out
			}
			res.Reports = out
		}
		resp.Result = res
	case fkJSONResp:
		fresh := &Response{}
		if err := json.Unmarshal(payload, fresh); err != nil {
			return nil, fmt.Errorf("%w: response envelope: %v", ErrBadFrame, err)
		}
		if fresh.Version == 0 {
			fresh.Version = int(hdr.Version)
		}
		return fresh, nil
	default:
		return nil, fmt.Errorf("%w: unknown response frame kind 0x%02x", ErrBadFrame, hdr.Kind)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return resp, nil
}
