package diet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/exec"
)

// hotRequests covers every hand-rolled request layout.
func hotRequests() []*Request {
	return []*Request{
		{Version: ProtocolVersion, Kind: KindSubmit, Submit: &SubmitRequest{
			Scenarios: 10, Months: 12, Heuristic: "knapsack",
			Wait: true, Progress: true, Priority: -3,
			Labels:   map[string]string{"team": "ocean", "tier": "a"},
			Deadline: 90 * time.Second,
			Key:      SubmitKey{0x6b, 0x65, 0x79, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0xfe, 0xdc, 0xba, 0x98, 0x76},
		}},
		{Version: ProtocolVersion, Kind: KindExec, Exec: &ExecRequest{
			ScenarioIDs: []int{0, 3, 7, 9}, Months: 12, Heuristic: "knapsack",
		}},
		{Version: ProtocolVersion, Kind: KindPerf, Perf: &PerfRequest{Scenarios: 10, Months: 12, Heuristic: "knapsack"}},
		{Version: ProtocolVersion, Kind: KindHeartbeat, Heartbeat: &HeartbeatRequest{
			Cluster: "grillon", Addr: "127.0.0.1:9999", Procs: 56, InFlight: 2,
		}},
		{Version: ProtocolVersion, Kind: KindHeartbeat, Heartbeat: &HeartbeatRequest{
			Cluster: "grelon", Addr: "127.0.0.1:9998", Procs: 120, InFlight: 1, Speed: 0.5, Draining: true,
		}},
		{Version: ProtocolVersion, Kind: KindAttach, Attach: &AttachRequest{ID: 42, Progress: true}},
	}
}

// hotResponses covers every hand-rolled response layout.
func hotResponses() []*Response {
	exec := ExecResponse{
		Cluster: "grillon", Makespan: 1234.5625, Scenarios: 4, Round: 1, FirstScenario: 3,
		Allocation: core.Allocation{Groups: []int{8, 8, 8}, PostProcs: 4, Heuristic: "knapsack"},
	}
	return []*Response{
		{Version: ProtocolVersion, Err: "boom"},
		{Version: ProtocolVersion, Submit: &SubmitResponse{ID: 9, Accepted: true, Reason: "", QueueDepth: 3}},
		{Version: ProtocolVersion, Submit: &SubmitResponse{Accepted: false, Reason: "tenant quota exhausted", QueueDepth: 7, Code: RejectQuota}},
		{Version: ProtocolVersion, Exec: &exec},
		{Version: ProtocolVersion, Perf: &PerfResponse{Cluster: "grelon", Procs: 120, Vector: []float64{1.5, 2.25, math.Pi}}},
		{Version: ProtocolVersion, Heartbeat: &HeartbeatResponse{}},
		{Version: ProtocolVersion, Attach: &AttachResponse{ID: 4, Found: true, Status: CampaignRunning, Done: 2, Total: 10}},
		{Version: ProtocolVersion, Progress: &ProgressUpdate{
			ID: 4, Stage: StagePlanned, Done: 2, Total: 10, Requeued: 1,
			Planned: []PlannedChunk{{Cluster: "grillon", Scenarios: 6}, {Cluster: "grelon", Scenarios: 4}},
		}},
		{Version: ProtocolVersion, Progress: &ProgressUpdate{ID: 4, Stage: StageChunk, Done: 6, Total: 10, Chunk: &exec}},
		{Version: ProtocolVersion, Result: &CampaignResult{
			ID: 4, Status: CampaignDone, Makespan: 2469.125, Requeues: 1, Done: 10, Total: 10,
			Reports: []ExecResponse{exec, {Cluster: "grelon", Makespan: 99.5, Scenarios: 6,
				Allocation: core.Allocation{Groups: []int{10, 10}, PostProcs: 2, Heuristic: "knapsack"}}},
		}},
		{Version: ProtocolVersion, Result: &CampaignResult{
			ID: 5, Status: CampaignFailed, Requeues: 2, Done: 4, Total: 10,
			Err: "grid: campaign 5: deadline exceeded", Reports: []ExecResponse{exec},
		}},
	}
}

// coldEnvelopes covers every cold kind, which travels as a JSON envelope
// frame. Between them the fixtures set every field of every cold payload
// type (TestGoldenFramesComplete insists).
func coldEnvelopes() ([]*Request, []*Response) {
	info := CampaignInfo{
		ID: 3, Found: true, Status: CampaignRunning, Priority: -2,
		Labels: map[string]string{"team": "ocean", "tier": "a"}, Heuristic: "knapsack",
		Scenarios: 10, Months: 12, Done: 4, Total: 10, Rounds: 2, Requeues: 1,
		Makespan: 1234.5625, Err: "grid: lost a SeD", Tenant: "ocean", QueuePos: 1, WaitMs: 8.5,
	}
	reqs := []*Request{
		{Version: ProtocolVersion, Kind: KindStats, Stats: &StatsRequest{Local: true}},
		{Version: ProtocolVersion, Kind: KindCancel, Cancel: &CancelRequest{ID: 12}},
		{Version: ProtocolVersion, Kind: KindInfo, Info: &InfoRequest{ID: 3}},
		{Version: ProtocolVersion, Kind: KindListCampaigns, ListCampaigns: &ListCampaignsRequest{
			Status: CampaignDone, Labels: map[string]string{"team": "ocean"}, Local: true,
		}},
		{Version: ProtocolVersion, Kind: KindRingPing, Ring: &RingPingRequest{}},
		{Version: ProtocolVersion, Kind: KindSegment, Segment: &SegmentRequest{Generation: 3, Offset: 4096}},
	}
	resps := []*Response{
		{Version: ProtocolVersion, Stats: &StatsResponse{
			QueueDepth: 2, MaxQueueDepth: 9, Running: 1, Completed: 5, Failed: 1,
			Cancelled: 2, Rejected: 3, Requeues: 4, Evicted: 1,
			SeDs: []SeDStatus{{
				Cluster: "grillon", Addr: "127.0.0.1:9999", Procs: 56, Alive: true, InFlight: 2,
				Outstanding: 1, SinceBeat: 1500 * time.Millisecond, Speed: 0.5, Draining: true, Leases: 1,
			}},
			Tenants: []TenantStatus{{
				Tenant: "ocean", Weight: 2, Queued: 1, Running: 1, Admitted: 7, Completed: 4,
				Failed: 1, Cancelled: 1, QuotaRejected: 3, WaitCount: 5, WaitSumMs: 12.5, WaitMaxMs: 6.25,
			}},
			OldestWaitMs: 3.75,
		}},
		{Version: ProtocolVersion, Cancel: &CancelResponse{ID: 12, Found: true, Status: CampaignCancelled}},
		{Version: ProtocolVersion, Info: &info},
		{Version: ProtocolVersion, ListCampaigns: &ListCampaignsResponse{Campaigns: []CampaignInfo{
			info, {ID: 5, Found: true, Status: CampaignQueued, Heuristic: "basic", Scenarios: 2, Months: 6, Total: 2},
		}}},
		{Version: ProtocolVersion, Redirect: &RedirectInfo{ID: 42, Owner: "127.0.0.1:7742"}},
		{Version: ProtocolVersion, Ring: &RingPingResponse{}},
		{Version: ProtocolVersion, Segment: &SegmentResponse{
			Generation: 3, Offset: 4096, Data: []byte("{\"kind\":\"admitted\"}\n"), Reset: true,
		}},
	}
	return reqs, resps
}

func TestBinaryRequestRoundTrip(t *testing.T) {
	reqs := hotRequests()
	cold, _ := coldEnvelopes()
	reqs = append(reqs, cold...)
	for _, req := range reqs {
		buf, err := AppendRequestFrame(nil, req)
		if err != nil {
			t.Fatalf("%s: encode: %v", req.Kind, err)
		}
		hdr, payload, err := ParseFrame(buf)
		if err != nil {
			t.Fatalf("%s: parse: %v", req.Kind, err)
		}
		if int(hdr.Length)+frameHeaderSize != len(buf) {
			t.Fatalf("%s: header length %d does not cover the %d-byte frame", req.Kind, hdr.Length, len(buf))
		}
		dec := &FrameDecoder{Retain: true}
		got, err := dec.DecodeRequestFrame(hdr, payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", req.Kind, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", req.Kind, got, req)
		}
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	resps := hotResponses()
	_, cold := coldEnvelopes()
	resps = append(resps, cold...)
	for i, resp := range resps {
		buf, err := AppendResponseFrame(nil, resp)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		hdr, payload, err := ParseFrame(buf)
		if err != nil {
			t.Fatalf("case %d: parse: %v", i, err)
		}
		dec := &FrameDecoder{Retain: true}
		got, err := dec.DecodeResponseFrame(hdr, payload)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, resp)
		}
		// Makespans must survive bit-exactly — the whole grid's verification
		// story depends on it.
		if resp.Exec != nil && math.Float64bits(got.Exec.Makespan) != math.Float64bits(resp.Exec.Makespan) {
			t.Fatalf("case %d: makespan bits changed across the wire", i)
		}
	}
}

// TestBinaryScratchReuse decodes two different frames through one scratch
// decoder and checks the second decode does not corrupt what the first
// returned when Retain is set — and conversely that scratch mode really
// does reuse memory (the documented volatility).
func TestBinaryScratchReuse(t *testing.T) {
	first := &Response{Version: ProtocolVersion, Exec: &ExecResponse{
		Cluster: "a", Makespan: 1, Scenarios: 1,
		Allocation: core.Allocation{Groups: []int{1, 2, 3}, Heuristic: "knapsack"},
	}}
	second := &Response{Version: ProtocolVersion, Exec: &ExecResponse{
		Cluster: "b", Makespan: 2, Scenarios: 2,
		Allocation: core.Allocation{Groups: []int{9, 9, 9}, Heuristic: "knapsack"},
	}}
	encode := func(r *Response) (FrameHeader, []byte) {
		buf, err := AppendResponseFrame(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		hdr, payload, err := ParseFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		return hdr, payload
	}
	h1, p1 := encode(first)
	h2, p2 := encode(second)

	retained := &FrameDecoder{Retain: true}
	got1, err := retained.DecodeResponseFrame(h1, p1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := retained.DecodeResponseFrame(h2, p2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got1, first) {
		t.Fatalf("retained decode corrupted by the next frame: %+v", got1)
	}

	scratch := &FrameDecoder{}
	s1, err := scratch.DecodeResponseFrame(h1, p1)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Exec.Cluster != "a" {
		t.Fatalf("scratch decode wrong: %+v", s1.Exec)
	}
	s2, err := scratch.DecodeResponseFrame(h2, p2)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("scratch mode should hand back the same envelope")
	}

	// A pooled decoder keeps its warm scratch, but not what one giant frame
	// grew it to: the arenas are bounded like the read buffer.
	PutFrameDecoder(scratch)
	if cap(scratch.ints) == 0 {
		t.Fatal("a small frame's scratch should survive the pool")
	}
	big, err := AppendRequestFrame(nil, &Request{Version: ProtocolVersion, Kind: KindExec,
		Exec: &ExecRequest{ScenarioIDs: make([]int, maxPooledBuf/8+1), Months: 12}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scratch.ReadRequest(bytes.NewReader(big)); err != nil {
		t.Fatal(err)
	}
	PutFrameDecoder(scratch)
	if cap(scratch.payload) != 0 || cap(scratch.ints) != 0 || scratch.execReq.ScenarioIDs != nil {
		t.Fatalf("pooled decoder still pins a giant frame's scratch: payload %d, ints %d, ids %d",
			cap(scratch.payload), cap(scratch.ints), cap(scratch.execReq.ScenarioIDs))
	}
}

// TestZeroAllocHotKinds locks in the codec's allocation contract: a
// hot-kind encode + decode round trip costs zero allocations per operation
// once the buffers and the intern table are warm.
func TestZeroAllocHotKinds(t *testing.T) {
	execReq := &Request{Version: ProtocolVersion, Kind: KindExec, Exec: &ExecRequest{
		ScenarioIDs: []int{0, 1, 2, 3, 4, 5}, Months: 12, Heuristic: "knapsack",
	}}
	hb := &Request{Version: ProtocolVersion, Kind: KindHeartbeat, Heartbeat: &HeartbeatRequest{
		Cluster: "grillon", Addr: "127.0.0.1:9999", Procs: 56, InFlight: 2,
	}}
	execResp := &Response{Version: ProtocolVersion, Exec: &ExecResponse{
		Cluster: "grillon", Makespan: 1234.5625, Scenarios: 4, Round: 1, FirstScenario: 3,
		Allocation: core.Allocation{Groups: []int{8, 8, 8}, PostProcs: 4, Heuristic: "knapsack"},
	}}
	progress := &Response{Version: ProtocolVersion, Progress: &ProgressUpdate{
		ID: 4, Stage: StageChunk, Done: 6, Total: 10, Chunk: execResp.Exec,
	}}

	buf := make([]byte, 0, 4096)
	dec := &FrameDecoder{}
	roundTrip := func() {
		var err error
		for _, req := range []*Request{execReq, hb} {
			if buf, err = AppendRequestFrame(buf[:0], req); err != nil {
				t.Fatal(err)
			}
			hdr, payload, perr := ParseFrame(buf)
			if perr != nil {
				t.Fatal(perr)
			}
			if _, err = dec.DecodeRequestFrame(hdr, payload); err != nil {
				t.Fatal(err)
			}
		}
		for _, resp := range []*Response{execResp, progress} {
			if buf, err = AppendResponseFrame(buf[:0], resp); err != nil {
				t.Fatal(err)
			}
			hdr, payload, perr := ParseFrame(buf)
			if perr != nil {
				t.Fatal(perr)
			}
			if _, err = dec.DecodeResponseFrame(hdr, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	roundTrip() // warm the buffer, the scratch slices and the intern table
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("hot-kind round trip allocates %.1f times per op, want 0", allocs)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	frame, err := AppendResponseFrame(nil, &Response{Version: ProtocolVersion, Err: "x"})
	if err != nil {
		t.Fatal(err)
	}
	// Forge a hostile length prefix over a valid header.
	frame[8], frame[9], frame[10], frame[11] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, _, err := ParseFrame(frame); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized length prefix: got %v, want ErrFrameTooLarge", err)
	}
	// Reading from a stream must reject it too, before buffering the payload.
	d := &FrameDecoder{}
	if _, err := d.ReadResponse(bytes.NewReader(frame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("stream read: got %v, want ErrFrameTooLarge", err)
	}
}

func TestTruncatedAndTrailingPayloads(t *testing.T) {
	frame, err := AppendResponseFrame(nil, hotResponses()[2]) // submit verdict carrying a rejection Code
	if err != nil {
		t.Fatal(err)
	}
	hdr, payload, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	dec := &FrameDecoder{}
	for cut := 0; cut < len(payload); cut++ {
		if _, err := dec.DecodeResponseFrame(hdr, payload[:cut]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("truncation at %d: got %v, want ErrBadFrame", cut, err)
		}
	}
	if _, err := dec.DecodeResponseFrame(hdr, append(append([]byte{}, payload...), 0)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing byte: got %v, want ErrBadFrame", err)
	}
	if _, _, err := ParseFrame([]byte("GET / HTTP/1.1\r\n")); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad magic: got %v, want ErrBadFrame", err)
	}
	for i, frame := range hostileLengthFrames() {
		hdr, payload, err := ParseFrame(frame)
		if err != nil {
			t.Fatalf("hostile frame %d: %v", i, err)
		}
		for _, d := range []*FrameDecoder{dec, {Retain: true}} {
			if _, err := d.DecodeRequestFrame(hdr, payload); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("hostile frame %d as a request: got %v, want ErrBadFrame", i, err)
			}
			if _, err := d.DecodeResponseFrame(hdr, payload); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("hostile frame %d as a response: got %v, want ErrBadFrame", i, err)
			}
		}
	}
}

// hostileLengthFrames are well-framed payloads whose inner u32 prefix is
// 0xFFFFFFFF: an fkErr with that string length and an fkExecReq with that
// scenario-id count. Converted to a 32-bit int the prefix is -1, which a
// bounds check done in int lets through to a slice expression or a make: a
// remote panic, or a silently accepted frame, on GOARCH=386 (CI runs it).
func hostileLengthFrames() [][]byte {
	return [][]byte{
		{0xF7, 'O', 'A', '4', ProtocolFloor, fkErr, 0, 0, 4, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF},
		{0xF7, 'O', 'A', '4', ProtocolFloor, fkExecReq, 0, 0, 16, 0, 0, 0,
			12, 0, 0, 0, 0, 0, 0, 0, // months
			0, 0, 0, 0, // empty heuristic
			0xFF, 0xFF, 0xFF, 0xFF}, // scenario-id count
	}
}

// gobRequestPrefix is the recorded opening of a protocol-v3 connection: the
// first bytes of a gob-encoded Request (its type definition, field names
// Version, Kind, Register, List). No build speaks that codec any more; the
// bytes stand in for an old peer knocking.
var gobRequestPrefix = []byte{
	0xff, 0xe0, 0x7f, 0x03, 0x01, 0x01, 0x07, 0x52, 0x65, 0x71, 0x75, 0x65, 0x73, 0x74, 0x01, 0xff,
	0x80, 0x00, 0x01, 0x11, 0x01, 0x07, 0x56, 0x65, 0x72, 0x73, 0x69, 0x6f, 0x6e, 0x01, 0x04, 0x00,
	0x01, 0x04, 0x4b, 0x69, 0x6e, 0x64, 0x01, 0x0c, 0x00, 0x01, 0x08, 0x52, 0x65, 0x67, 0x69, 0x73,
	0x74, 0x65, 0x72, 0x01, 0xff, 0x82, 0x00, 0x01, 0x04, 0x4c, 0x69, 0x73, 0x74, 0x01, 0xff, 0x84,
}

// restamp returns a copy of frame with its header version byte replaced.
func restamp(frame []byte, ver byte) []byte {
	out := append([]byte{}, frame...)
	out[4] = ver
	return out
}

// TestSubFloorRefused pins the protocol floor. A frame stamped below it is
// malformed wherever it is parsed, and a served connection opening with one
// — in the header or inside the JSON envelope — gets exactly one error frame
// naming the minimum and is counted; a peer without the frame magic is
// counted and closed without an answer.
func TestSubFloorRefused(t *testing.T) {
	hot, err := AppendRequestFrame(nil, hotRequests()[2]) // perf
	if err != nil {
		t.Fatal(err)
	}
	for ver := byte(0); ver < ProtocolFloor; ver++ {
		if _, _, err := ParseFrame(restamp(hot, ver)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("header version %d: got %v, want ErrBadFrame", ver, err)
		}
		if _, err := NegotiateVersion(int(ver), ProtocolVersion); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("negotiating v%d: got %v, want ErrBadFrame", ver, err)
		}
	}
	if ver, err := NegotiateVersion(ProtocolVersion+7, ProtocolVersion); err != nil || ver != ProtocolVersion {
		t.Fatalf("future peer negotiated %d, %v", ver, err)
	}

	sed, err := StartSeD("127.0.0.1:0", smallClusters()[0], exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sed.Close()
	// exchange writes raw bytes and returns everything the SeD answers
	// before it closes the connection.
	exchange := func(raw []byte) []byte {
		t.Helper()
		conn, err := net.Dial("tcp", sed.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(dialTimeout))
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		_ = conn.(*net.TCPConn).CloseWrite() // nothing more is coming
		answer, _ := io.ReadAll(conn)
		return answer
	}
	// The envelope's header is stamped at the floor (begin never stamps
	// lower); the version below it travels inside the JSON.
	envelope, err := AppendRequestFrame(nil, &Request{Version: ProtocolFloor - 1, Kind: KindStats, Stats: &StatsRequest{}})
	if err != nil {
		t.Fatal(err)
	}
	raws := [][]byte{envelope}
	for ver := byte(0); ver < ProtocolFloor; ver++ {
		raws = append(raws, restamp(hot, ver))
	}
	before := WireStats().Refused
	for i, raw := range raws {
		answer := exchange(raw)
		hdr, payload, err := ParseFrame(answer)
		if err != nil || int(hdr.Length)+frameHeaderSize != len(answer) {
			t.Fatalf("case %d: answer is not exactly one frame: %v (% x)", i, err, answer)
		}
		resp, err := (&FrameDecoder{}).DecodeResponseFrame(hdr, payload)
		if err != nil || !strings.Contains(resp.Err, fmt.Sprintf("v%d minimum", ProtocolFloor)) {
			t.Fatalf("case %d: answer %+v, %v; want an error naming the v%d minimum", i, resp, err, ProtocolFloor)
		}
	}
	refused := uint64(len(raws)) + 1 // and the gob peer
	if answer := exchange(gobRequestPrefix); len(answer) != 0 {
		t.Fatalf("gob peer was answered % x, want a silent close", answer)
	}
	if got := WireStats().Refused - before; got != refused {
		t.Fatalf("refused counter moved by %d, want %d", got, refused)
	}
	// A truncated frame at a served version is malformed, not an old peer:
	// not counted.
	if answer := exchange(hot[:len(hot)-1]); len(answer) != 0 {
		t.Fatalf("truncated frame was answered % x", answer)
	}
	if got := WireStats().Refused - before; got != refused {
		t.Fatalf("truncated frame counted as refused (%d)", got)
	}
}

func BenchmarkEncodeFrame(b *testing.B) {
	resp := hotResponses()[7] // progress frame carrying a chunk report
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = AppendResponseFrame(buf[:0], resp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeFrame(b *testing.B) {
	frame, err := AppendResponseFrame(nil, hotResponses()[7])
	if err != nil {
		b.Fatal(err)
	}
	hdr, payload, err := ParseFrame(frame)
	if err != nil {
		b.Fatal(err)
	}
	dec := &FrameDecoder{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.DecodeResponseFrame(hdr, payload); err != nil {
			b.Fatal(err)
		}
	}
}
