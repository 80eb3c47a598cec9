// The wire codec: length-prefixed binary framing.
//
// Request/Response envelopes travel as length-prefixed binary frames with a
// fixed 12-byte header and little-endian payloads for the hot frame kinds
// (submit, exec, perf, heartbeat, progress, chunk and campaign results).
// Cold control-plane kinds (cancel, info, stats, ...) ride inside a
// JSON-envelope frame — self-contained, codec-stateless, and off the hot
// path by construction.
//
// Every hot payload type states its layout once, in its wire method: a list
// of coder primitive calls, each of which appends the field when the coder
// encodes and reads it when the coder decodes. The encoder and the decoder
// are the same code run in two directions, so they cannot drift apart; the
// exported entry points only map envelopes to frame kinds. The layouts, and
// the cold kinds' JSON envelopes, are pinned from outside by committed bytes:
// testdata/frames holds every kind's frame at every negotiated version
// (TestGoldenFrames), every field of every payload type is non-zero in at
// least one of them (TestGoldenFramesComplete), and CI refuses an edit to a
// file that is already committed (scripts/check_sealed_frames.sh).
//
// Frame layout (all integers little-endian):
//
//	offset 0:  magic   [4]byte  0xF7 'O' 'A' '4'
//	offset 4:  version uint8    negotiated protocol version (>= ProtocolFloor)
//	offset 5:  kind    uint8    frame kind (fk* constants)
//	offset 6:  flags   uint16   bit 0: keep-alive (flagKeepAlive); the rest
//	                            reserved, zero; receivers ignore unknown bits
//	offset 8:  length  uint32   payload byte count (<= MaxFramePayload)
//	offset 12: payload
//
// Every connection carries the magic in its very first bytes and a version
// of at least ProtocolFloor in every header; a frame failing either is
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

// flagKeepAlive is bit 0 of the header's flags field. On a request it says
// the requester would send another request on this connection after the
// answer; on the answer, that the responder will read one. It travels in the
// header, never in a payload, so every payload layout — and every golden
// frame — is what it was: a build that predates the bit writes zero and
// ignores it, and is served one exchange per connection as before (see
// transport.go).
const flagKeepAlive = 1 << 0

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
// (bad magic, a version below ProtocolFloor, truncated payload, unknown kind,
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
	if h.Version < ProtocolFloor {
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

// ---- the coder ------------------------------------------------------------

// coder walks one frame payload in one direction. Encoding (enc set), b is
// the frame being appended to and every primitive appends *v; decoding, b is
// the payload, off the read position, and every primitive bounds-checks,
// reads into *v and advances. The first decode failure latches err and later
// reads leave their targets alone, so a layout reads straight through and
// the caller checks done once. ver is the negotiated version the layouts
// gate their later fields on; d lends the intern table and the scratch
// arenas when decoding and is nil when encoding.
type coder struct {
	b     []byte
	off   int
	start int // encoding: where this frame's header sits in b
	ver   int
	enc   bool
	err   error
	d     *FrameDecoder
}

//oalint:hotpath
func (c *coder) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: truncated %s at offset %d", ErrBadFrame, what, c.off)
	}
}

// fits reports whether n more payload bytes are there to decode. It is the
// codec's one bounds check, done in 64 bits: a hostile u32 length or count
// cannot wrap it negative, not even where int is 32 bits wide.
//
//oalint:hotpath
func (c *coder) fits(n uint64) bool { return c.err == nil && n <= uint64(len(c.b)-c.off) }

// take consumes n payload bytes, or latches the failure and returns nil.
//
//oalint:hotpath
func (c *coder) take(n uint32, what string) []byte {
	if !c.fits(uint64(n)) {
		c.fail(what)
		return nil
	}
	p := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return p
}

//oalint:hotpath
func (c *coder) u32(v *uint32, what string) {
	if c.enc {
		c.b = binary.LittleEndian.AppendUint32(c.b, *v)
	} else if p := c.take(4, what); p != nil {
		*v = binary.LittleEndian.Uint32(p)
	}
}

//oalint:hotpath
func (c *coder) u64(v *uint64, what string) {
	if c.enc {
		c.b = binary.LittleEndian.AppendUint64(c.b, *v)
	} else if p := c.take(8, what); p != nil {
		*v = binary.LittleEndian.Uint64(p)
	}
}

// i64 codes a two's-complement int64, the wire form of every signed
// integer and of durations (nanoseconds).
//
//oalint:hotpath
func (c *coder) i64(v *int64, what string) {
	if c.enc {
		c.b = binary.LittleEndian.AppendUint64(c.b, uint64(*v))
	} else if p := c.take(8, what); p != nil {
		*v = int64(binary.LittleEndian.Uint64(p))
	}
}

//oalint:hotpath
func (c *coder) int(v *int, what string) {
	if c.enc {
		c.b = binary.LittleEndian.AppendUint64(c.b, uint64(int64(*v)))
	} else if p := c.take(8, what); p != nil {
		*v = int(int64(binary.LittleEndian.Uint64(p)))
	}
}

// f64 codes the IEEE-754 bits, so makespans cross the wire bit-exactly.
//
//oalint:hotpath
func (c *coder) f64(v *float64, what string) {
	if c.enc {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
	} else if p := c.take(8, what); p != nil {
		*v = math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
}

//oalint:hotpath
func (c *coder) bool(v *bool, what string) { c.flags(what, v) }

// flags packs up to eight bools into one byte, bit i for flags[i]. Bits
// beyond the ones named are written zero and ignored when read.
//
//oalint:hotpath
func (c *coder) flags(what string, flags ...*bool) {
	if c.enc {
		var bits byte
		for i, f := range flags {
			if *f {
				bits |= 1 << i
			}
		}
		c.b = append(c.b, bits)
	} else if p := c.take(1, what); p != nil {
		for i, f := range flags {
			*f = p[0]&(1<<i) != 0
		}
	}
}

// fixed codes a fixed-size byte array as its raw bytes.
//
//oalint:hotpath
func (c *coder) fixed(v []byte, what string) {
	if c.enc {
		c.b = append(c.b, v...)
	} else if p := c.take(uint32(len(v)), what); p != nil {
		copy(v, p)
	}
}

// str codes u32 length + bytes. Decoded strings are interned, so repeated
// cluster, heuristic and status names cost nothing after the first sighting.
//
//oalint:hotpath
func (c *coder) str(v *string, what string) {
	if c.enc {
		c.b = append(binary.LittleEndian.AppendUint32(c.b, uint32(len(*v))), *v...)
	} else {
		var n uint32
		c.u32(&n, what)
		*v = c.d.intern(c.take(n, what))
	}
}

// count codes a collection length as u32: n when encoding, the decoded
// length otherwise — sanity-capped against the bytes remaining (elemSize is a
// lower bound on one element's encoding), so a corrupt count costs an error,
// not a huge preallocation.
//
//oalint:hotpath
func (c *coder) count(n, elemSize int, what string) int {
	u := uint32(n)
	c.u32(&u, what)
	if c.enc {
		return n
	}
	if !c.fits(uint64(u) * uint64(elemSize)) {
		c.fail(what)
		return 0
	}
	return int(u)
}

// ints codes []int as count + count x i64.
//
//oalint:hotpath
func (c *coder) ints(v *[]int, what string) {
	n := c.count(len(*v), 8, what)
	if !c.enc {
		*v = carve(c.d, &c.d.ints, n)
	}
	for i := range *v {
		c.int(&(*v)[i], what)
	}
}

// floats codes []float64 as count + count x f64.
//
//oalint:hotpath
func (c *coder) floats(v *[]float64, what string) {
	n := c.count(len(*v), 8, what)
	if !c.enc {
		*v = carve(c.d, &c.d.floats, n)
	}
	for i := range *v {
		c.f64(&(*v)[i], what)
	}
}

// strmap codes a map as count + key/value string pairs, in map-iteration
// order. A decoded map is always freshly allocated, never decoder scratch:
// the scheduler keeps a campaign's labels for its lifetime.
//
//oalint:hotpath
func (c *coder) strmap(v *map[string]string, what string) {
	n := c.count(len(*v), 8, what)
	if c.enc {
		for k, val := range *v {
			c.str(&k, what)
			c.str(&val, what)
		}
		return
	}
	if n > 0 {
		*v = make(map[string]string, n)
	}
	for i := 0; i < n; i++ {
		var k, val string
		c.str(&k, what)
		c.str(&val, what)
		(*v)[k] = val
	}
}

// done demands the payload was consumed exactly; trailing garbage means a
// framing bug or a tampered frame, and silently ignoring it would let two
// peers disagree about what was said.
//
//oalint:hotpath
func (c *coder) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrBadFrame, len(c.b)-c.off)
	}
	return nil
}

// ---- layouts --------------------------------------------------------------
//
// One wire method per hot payload type: the only place its fields and its
// version gates are written. Fields go in wire order. A field added after
// ProtocolFloor sits at the end, behind `if c.ver >= ProtocolVN`: a frame
// negotiated below N must stay byte-exact for older peers, whose decoder
// rejects trailing payload bytes. Adding one is that line plus golden frames
// for the new version; the frames committed for older versions never change.

//oalint:hotpath
func (x *SubmitRequest) wire(c *coder) {
	c.int(&x.Scenarios, "submit scenarios")
	c.int(&x.Months, "submit months")
	c.str(&x.Heuristic, "submit heuristic")
	c.flags("submit flags", &x.Wait, &x.Progress)
	c.int(&x.Priority, "submit priority")
	c.i64((*int64)(&x.Deadline), "submit deadline")
	c.strmap(&x.Labels, "submit labels")
	c.fixed(x.Key[:], "submit key")
}

//oalint:hotpath
func (x *ExecRequest) wire(c *coder) {
	c.int(&x.Months, "exec months")
	c.str(&x.Heuristic, "exec heuristic")
	c.ints(&x.ScenarioIDs, "exec scenario ids")
}

//oalint:hotpath
func (x *PerfRequest) wire(c *coder) {
	c.int(&x.Scenarios, "perf scenarios")
	c.int(&x.Months, "perf months")
	c.str(&x.Heuristic, "perf heuristic")
}

//oalint:hotpath
func (x *HeartbeatRequest) wire(c *coder) {
	c.str(&x.Cluster, "heartbeat cluster")
	c.str(&x.Addr, "heartbeat addr")
	c.int(&x.Procs, "heartbeat procs")
	c.int(&x.InFlight, "heartbeat inflight")
	c.f64(&x.Speed, "heartbeat speed")
	c.bool(&x.Draining, "heartbeat draining")
}

//oalint:hotpath
func (x *AttachRequest) wire(c *coder) {
	c.u64(&x.ID, "attach id")
	c.bool(&x.Progress, "attach progress")
}

//oalint:hotpath
func (x *SubmitResponse) wire(c *coder) {
	c.u64(&x.ID, "submit id")
	c.bool(&x.Accepted, "submit accepted")
	c.str(&x.Reason, "submit reason")
	c.int(&x.QueueDepth, "submit queue depth")
	c.str(&x.Code, "submit reject code")
}

//oalint:hotpath
func (x *ExecResponse) wire(c *coder) {
	c.str(&x.Cluster, "exec cluster")
	c.f64(&x.Makespan, "exec makespan")
	c.int(&x.Scenarios, "exec scenarios")
	c.int(&x.Round, "exec round")
	c.int(&x.FirstScenario, "exec first scenario")
	c.ints(&x.Allocation.Groups, "exec groups")
	c.int(&x.Allocation.PostProcs, "exec post procs")
	c.str(&x.Allocation.Heuristic, "exec alloc heuristic")
}

//oalint:hotpath
func (x *PerfResponse) wire(c *coder) {
	c.str(&x.Cluster, "perf cluster")
	c.int(&x.Procs, "perf procs")
	c.floats(&x.Vector, "perf vector")
}

//oalint:hotpath
func (x *AttachResponse) wire(c *coder) {
	c.u64(&x.ID, "attach id")
	c.bool(&x.Found, "attach found")
	c.str(&x.Status, "attach status")
	c.int(&x.Done, "attach done")
	c.int(&x.Total, "attach total")
}

//oalint:hotpath
func (x *ProgressUpdate) wire(c *coder) {
	c.u64(&x.ID, "progress id")
	c.str(&x.Stage, "progress stage")
	c.int(&x.Done, "progress done")
	c.int(&x.Total, "progress total")
	c.int(&x.Requeued, "progress requeued")
	n := c.count(len(x.Planned), 12, "progress planned")
	if !c.enc {
		x.Planned = carve(c.d, &c.d.planned, n)
	}
	for i := range x.Planned {
		c.str(&x.Planned[i].Cluster, "planned cluster")
		c.int(&x.Planned[i].Scenarios, "planned scenarios")
	}
	chunk := x.Chunk != nil
	c.bool(&chunk, "progress has chunk")
	if chunk {
		if !c.enc {
			x.Chunk = &carve(c.d, &c.d.reports, 1)[0]
		}
		x.Chunk.wire(c)
	}
}

//oalint:hotpath
func (x *CampaignResult) wire(c *coder) {
	c.u64(&x.ID, "result id")
	c.str(&x.Status, "result status")
	c.f64(&x.Makespan, "result makespan")
	c.int(&x.Requeues, "result requeues")
	c.int(&x.Done, "result done")
	c.int(&x.Total, "result total")
	c.str(&x.Err, "result error")
	n := c.count(len(x.Reports), 52, "result reports")
	if !c.enc {
		x.Reports = carve(c.d, &c.d.reports, n)
	}
	for i := range x.Reports {
		x.Reports[i].wire(c)
	}
}

// ---- encoding -------------------------------------------------------------

// begin turns c into the encoder of one frame appended to buf: it reserves
// the header, stamped with the envelope's version (ProtocolFloor when that
// is below the floor or more than a header can carry) and its keep-alive
// flag; finish patches in the kind and the payload length once the payload
// is appended.
//
//oalint:hotpath
func (c *coder) begin(buf []byte, ver int, keepAlive bool) {
	if ver < ProtocolFloor || ver > 0xFF {
		ver = ProtocolFloor
	}
	var flags byte
	if keepAlive {
		flags = flagKeepAlive
	}
	c.enc, c.ver, c.start = true, ver, len(buf)
	c.b = append(buf, frameMagic[0], frameMagic[1], frameMagic[2], frameMagic[3], byte(ver), 0, flags, 0, 0, 0, 0, 0)
}

//oalint:hotpath
func (c *coder) finish(kind byte) ([]byte, error) {
	payload := len(c.b) - c.start - frameHeaderSize
	if payload > MaxFramePayload {
		return nil, fmt.Errorf("%w: encoding %d-byte payload", ErrFrameTooLarge, payload)
	}
	c.b[c.start+5] = kind
	binary.LittleEndian.PutUint32(c.b[c.start+8:], uint32(payload))
	return c.b, nil
}

// AppendRequestFrame appends req encoded as one frame to buf and returns
// the extended slice. Hot request kinds get their binary layout; every
// other kind travels as a JSON envelope frame. The append never aliases
// req: buf is the only memory written.
//
//oalint:hotpath
func AppendRequestFrame(buf []byte, req *Request) ([]byte, error) {
	var c coder
	c.begin(buf, req.Version, req.KeepAlive)
	switch {
	case req.Kind == KindSubmit && req.Submit != nil:
		req.Submit.wire(&c)
		return c.finish(fkSubmitReq)
	case req.Kind == KindExec && req.Exec != nil:
		req.Exec.wire(&c)
		return c.finish(fkExecReq)
	case req.Kind == KindPerf && req.Perf != nil:
		req.Perf.wire(&c)
		return c.finish(fkPerfReq)
	case req.Kind == KindHeartbeat && req.Heartbeat != nil:
		req.Heartbeat.wire(&c)
		return c.finish(fkHeartbeatReq)
	case req.Kind == KindAttach && req.Attach != nil:
		req.Attach.wire(&c)
		return c.finish(fkAttachReq)
	}
	data, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("diet: encoding %s request envelope: %w", req.Kind, err)
	}
	c.b = append(c.b, data...)
	return c.finish(fkJSONReq)
}

// AppendResponseFrame appends resp encoded as one frame to buf. An error
// response becomes an fkErr frame whatever else the envelope carries: the
// Err field wins.
//
//oalint:hotpath
func AppendResponseFrame(buf []byte, resp *Response) ([]byte, error) {
	var c coder
	c.begin(buf, resp.Version, resp.KeepAlive)
	switch {
	case resp.Err != "":
		c.str(&resp.Err, "error message")
		return c.finish(fkErr)
	case resp.Submit != nil:
		resp.Submit.wire(&c)
		return c.finish(fkSubmitResp)
	case resp.Exec != nil:
		resp.Exec.wire(&c)
		return c.finish(fkExecResp)
	case resp.Perf != nil:
		resp.Perf.wire(&c)
		return c.finish(fkPerfResp)
	case resp.Heartbeat != nil: // an acknowledgement: no payload
		return c.finish(fkHeartbeatResp)
	case resp.Attach != nil:
		resp.Attach.wire(&c)
		return c.finish(fkAttachResp)
	case resp.Progress != nil:
		resp.Progress.wire(&c)
		return c.finish(fkProgress)
	case resp.Result != nil:
		resp.Result.wire(&c)
		return c.finish(fkCampaignResult)
	}
	data, err := json.Marshal(resp)
	if err != nil {
		return nil, fmt.Errorf("diet: encoding response envelope: %w", err)
	}
	c.b = append(c.b, data...)
	return c.finish(fkJSONResp)
}

// ---- decoding -------------------------------------------------------------

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

	submitResp SubmitResponse
	execResp   ExecResponse
	perfResp   PerfResponse
	attachResp AttachResponse
	progress   ProgressUpdate
	result     CampaignResult

	// Scratch arenas the decoded slices are carved from; see carve.
	ints    []int
	floats  []float64
	planned []PlannedChunk
	reports []ExecResponse
}

// intern returns b as a string, from the intern table when it was seen
// before.
//
//oalint:hotpath
func (d *FrameDecoder) intern(b []byte) string {
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

// carve returns n zeroed elements for a decoded slice (nil for none): freshly
// allocated when the decoder retains, else cut from arena, which every decode
// rewinds — so several slices of one frame never alias and a warm decoder
// allocates nothing. An arena that must grow mid-frame leaves the slices
// already cut on the old array, where they stay valid.
//
//oalint:hotpath
func carve[T any](d *FrameDecoder, arena *[]T, n int) []T {
	a := *arena
	switch {
	case n == 0:
		return nil
	case d.Retain:
		return make([]T, n)
	case cap(a)-len(a) < n:
		a = make([]T, 0, max(n, 2*cap(a)))
	}
	*arena = a[:len(a)+n]
	s := a[len(a) : len(a)+n : len(a)+n]
	clear(s)
	return s
}

// fresh returns the zeroed struct a frame decodes into: a new one when the
// decoder retains, else the decoder's scratch.
//
//oalint:hotpath
func fresh[T any](d *FrameDecoder, scratch *T) *T {
	if d.Retain {
		return new(T)
	}
	var zero T
	*scratch = zero
	return scratch
}

// decoding returns the coder for one frame's payload and hands the scratch
// arenas back: what the last decode carved from them is now overwritten.
//
//oalint:hotpath
func (d *FrameDecoder) decoding(hdr FrameHeader, b []byte) coder {
	d.ints, d.floats, d.planned, d.reports = d.ints[:0], d.floats[:0], d.planned[:0], d.reports[:0]
	return coder{b: b, ver: int(hdr.Version), d: d}
}

// DecodeRequestFrame decodes one request frame payload. In scratch mode the
// returned Request and its payload structs are owned by the decoder and
// valid only until the next decode.
//
//oalint:hotpath
func (d *FrameDecoder) DecodeRequestFrame(hdr FrameHeader, b []byte) (*Request, error) {
	req := fresh(d, &d.req)
	req.Version = int(hdr.Version)
	req.KeepAlive = hdr.Flags&flagKeepAlive != 0
	c := d.decoding(hdr, b)
	switch hdr.Kind {
	case fkSubmitReq:
		req.Kind, req.Submit = KindSubmit, fresh(d, &d.submitReq)
		req.Submit.wire(&c)
	case fkExecReq:
		req.Kind, req.Exec = KindExec, fresh(d, &d.execReq)
		req.Exec.wire(&c)
	case fkPerfReq:
		req.Kind, req.Perf = KindPerf, fresh(d, &d.perfReq)
		req.Perf.wire(&c)
	case fkHeartbeatReq:
		req.Kind, req.Heartbeat = KindHeartbeat, fresh(d, &d.hbReq)
		req.Heartbeat.wire(&c)
	case fkAttachReq:
		req.Kind, req.Attach = KindAttach, fresh(d, &d.attachReq)
		req.Attach.wire(&c)
	case fkJSONReq:
		env := &Request{}
		if err := json.Unmarshal(b, env); err != nil {
			return nil, fmt.Errorf("%w: request envelope: %v", ErrBadFrame, err)
		}
		if env.Version == 0 {
			env.Version = int(hdr.Version)
		}
		env.KeepAlive = req.KeepAlive
		return env, nil
	default:
		return nil, fmt.Errorf("%w: unknown request frame kind 0x%02x", ErrBadFrame, hdr.Kind)
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return req, nil
}

// DecodeResponseFrame decodes one response frame payload. Scratch-mode
// ownership rules match DecodeRequestFrame. An fkErr frame decodes into a
// Response with Err set.
//
//oalint:hotpath
func (d *FrameDecoder) DecodeResponseFrame(hdr FrameHeader, b []byte) (*Response, error) {
	resp := fresh(d, &d.resp)
	resp.Version = int(hdr.Version)
	resp.KeepAlive = hdr.Flags&flagKeepAlive != 0
	c := d.decoding(hdr, b)
	switch hdr.Kind {
	case fkErr:
		c.str(&resp.Err, "error message")
	case fkSubmitResp:
		resp.Submit = fresh(d, &d.submitResp)
		resp.Submit.wire(&c)
	case fkExecResp:
		resp.Exec = fresh(d, &d.execResp)
		resp.Exec.wire(&c)
	case fkPerfResp:
		resp.Perf = fresh(d, &d.perfResp)
		resp.Perf.wire(&c)
	case fkHeartbeatResp:
		resp.Heartbeat = &HeartbeatResponse{}
	case fkAttachResp:
		resp.Attach = fresh(d, &d.attachResp)
		resp.Attach.wire(&c)
	case fkProgress:
		resp.Progress = fresh(d, &d.progress)
		resp.Progress.wire(&c)
	case fkCampaignResult:
		resp.Result = fresh(d, &d.result)
		resp.Result.wire(&c)
	case fkJSONResp:
		env := &Response{}
		if err := json.Unmarshal(b, env); err != nil {
			return nil, fmt.Errorf("%w: response envelope: %v", ErrBadFrame, err)
		}
		if env.Version == 0 {
			env.Version = int(hdr.Version)
		}
		env.KeepAlive = resp.KeepAlive
		return env, nil
	default:
		return nil, fmt.Errorf("%w: unknown response frame kind 0x%02x", ErrBadFrame, hdr.Kind)
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return resp, nil
}
