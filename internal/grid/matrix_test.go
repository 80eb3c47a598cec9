package grid

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
)

// sameCampaignOutcome demands two campaign results are bit-identical where
// it matters: same report sequence (cluster, scenario count, round, first
// scenario, makespan bits) and same campaign makespan bits.
func sameCampaignOutcome(t *testing.T, tag string, got, want *diet.CampaignResult) {
	t.Helper()
	if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) {
		t.Fatalf("%s: campaign makespan %g, want bit-identical %g", tag, got.Makespan, want.Makespan)
	}
	if len(got.Reports) != len(want.Reports) {
		t.Fatalf("%s: %d chunk reports, want %d", tag, len(got.Reports), len(want.Reports))
	}
	for i := range got.Reports {
		g, w := got.Reports[i], want.Reports[i]
		if g.Cluster != w.Cluster || g.Scenarios != w.Scenarios || g.Round != w.Round ||
			g.FirstScenario != w.FirstScenario || math.Float64bits(g.Makespan) != math.Float64bits(w.Makespan) {
			t.Fatalf("%s: report %d is %+v, want %+v", tag, i, g, w)
		}
	}
}

// TestCrossVersionMatrix runs the same campaign from raw peers stamping
// every version the daemon negotiates, and one from the future, and demands
// each pairing negotiates min(peer, daemon), streams every frame at that
// version byte-exact (submitRaw checks both) and produces a campaign
// bit-identical to the current client's. Every peer sends a key and asks for
// keep-alive, and the daemon reads the next request on the connection after
// the result.
func TestCrossVersionMatrix(t *testing.T) {
	app := core.Application{Scenarios: 6, Months: 12}
	cur := startFabric(t, testConfig(), 3)
	want, err := (&Client{Addr: cur.Sched.Addr()}).RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	verifyReports(t, cur, app, core.NameKnapsack, want)

	for v := diet.ProtocolFloor; v <= diet.ProtocolVersion+1; v++ {
		tag := fmt.Sprintf("v%d peer vs current daemon", v)
		frames, kept := submitRaw(t, cur.Sched.Addr(), v, &diet.SubmitRequest{
			Scenarios: app.Scenarios, Months: app.Months, Heuristic: core.NameKnapsack,
			Wait: true, Progress: true, Key: diet.SubmitKey{byte(v), 0x6d},
		})
		if !kept {
			t.Fatalf("%s: connection closed after the result, want it kept", tag)
		}
		final := frames[len(frames)-1]
		if final.Result == nil || final.Result.Status != diet.CampaignDone {
			t.Fatalf("%s: campaign did not complete: %+v", tag, final)
		}
		if n := min(v, diet.ProtocolVersion); frames[0].Version != n || final.Version != n {
			t.Fatalf("%s: negotiated %d (verdict), %d (result), want %d", tag, frames[0].Version, final.Version, n)
		}
		sameCampaignOutcome(t, tag, final.Result, want)
	}
}

// TestBinaryConnSpeaksV4 proves the daemon serves a raw frame exchange: it
// negotiates the build's version and answers stats.
func TestBinaryConnSpeaksV4(t *testing.T) {
	f := startFabric(t, testConfig(), 1)
	conn, err := net.Dial("tcp", f.Sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := diet.WriteRequestFrame(conn, &diet.Request{
		Version: diet.ProtocolVersion, Kind: diet.KindStats, Stats: &diet.StatsRequest{},
	}); err != nil {
		t.Fatal(err)
	}
	dec := &diet.FrameDecoder{Retain: true}
	resp, err := dec.ReadResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != diet.ProtocolVersion {
		t.Fatalf("binary connection negotiated %d, want %d", resp.Version, diet.ProtocolVersion)
	}
	if resp.Stats == nil {
		t.Fatalf("no stats in binary response: %+v", resp)
	}
}

// gobRequestPrefix is the recorded opening of a protocol-v3 connection: the
// first bytes of a gob-encoded diet.Request (its type definition, field
// names Version, Kind, Register, List). No build speaks that codec any more.
var gobRequestPrefix = []byte{
	0xff, 0xe0, 0x7f, 0x03, 0x01, 0x01, 0x07, 0x52, 0x65, 0x71, 0x75, 0x65, 0x73, 0x74, 0x01, 0xff,
	0x80, 0x00, 0x01, 0x11, 0x01, 0x07, 0x56, 0x65, 0x72, 0x73, 0x69, 0x6f, 0x6e, 0x01, 0x04, 0x00,
	0x01, 0x04, 0x4b, 0x69, 0x6e, 0x64, 0x01, 0x0c, 0x00, 0x01, 0x08, 0x52, 0x65, 0x67, 0x69, 0x73,
	0x74, 0x65, 0x72, 0x01, 0xff, 0x82, 0x00, 0x01, 0x04, 0x4c, 0x69, 0x73, 0x74, 0x01, 0xff, 0x84,
}

// TestDaemonRefusesPreV4Peers: a peer that opens with anything but a frame —
// a retired gob client, or plain garbage — is closed without an answer well
// inside frameTimeout; a submit stamped below the protocol floor gets one
// error frame naming the minimum. Each is counted, costs the daemon no
// goroutine, and does not disturb the next well-formed submit.
func TestDaemonRefusesPreV4Peers(t *testing.T) {
	f := startFabric(t, testConfig(), 2)
	garbage := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(garbage)
	garbage[0] = 'G' // never the frame magic

	subFloor, err := diet.AppendRequestFrame(nil, &diet.Request{Version: diet.ProtocolVersion, Kind: diet.KindSubmit,
		Submit: &diet.SubmitRequest{Scenarios: 2, Months: 6, Heuristic: core.NameKnapsack, Wait: true}})
	if err != nil {
		t.Fatal(err)
	}
	subFloor[4] = diet.ProtocolFloor - 1 // the header's version byte

	goroutines := runtime.NumGoroutine()
	refused := diet.WireStats().Refused
	for name, raw := range map[string][]byte{"gob request": gobRequestPrefix, "garbage": garbage, "sub-floor submit": subFloor} {
		conn, err := net.Dial("tcp", f.Sched.Addr())
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_ = conn.SetDeadline(start.Add(frameTimeout))
		// The daemon may close before the last byte is out: a write error is
		// the refusal arriving early, not a test failure.
		_, _ = conn.Write(raw)
		answer, err := io.ReadAll(conn)
		conn.Close()
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("%s: connection still open after %v", name, time.Since(start))
		}
		if name != "sub-floor submit" {
			if len(answer) != 0 {
				t.Fatalf("%s: daemon answered % x, want a silent close", name, answer)
			}
			continue
		}
		hdr, payload, err := diet.ParseFrame(answer)
		if err != nil || int(hdr.Length)+12 != len(answer) {
			t.Fatalf("%s: answer is not exactly one frame: %v (% x)", name, err, answer)
		}
		resp, err := (&diet.FrameDecoder{}).DecodeResponseFrame(hdr, payload)
		if want := fmt.Sprintf("v%d minimum", diet.ProtocolFloor); err != nil || !strings.Contains(resp.Err, want) {
			t.Fatalf("%s: answer %+v, %v; want an error naming the %s", name, resp, err, want)
		}
	}
	if got := diet.WireStats().Refused - refused; got != 3 {
		t.Fatalf("refused counter moved by %d, want 3", got)
	}
	// Heartbeat exchanges come and go, so poll for the count to settle back.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the refused peers, %d after", goroutines, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	app := core.Application{Scenarios: 3, Months: 8}
	res, err := (&Client{Addr: f.Sched.Addr()}).RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatalf("submit after the refused peers: %v", err)
	}
	verifyReports(t, f, app, core.NameKnapsack, res)
}

// TestClientRejectsNonFrameAnswer: a listener that answers with bytes that
// are not a frame is a protocol violation on the very first call — there is
// no per-peer state to learn from and no second codec to retry on.
func TestClientRejectsNonFrameAnswer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Read the whole request first, so the close below cannot reset
			// the connection under the answer.
			_, _ = (&diet.FrameDecoder{}).ReadRequest(conn)
			_, _ = io.WriteString(conn, "HTTP/1.1 400 Bad Request\r\n\r\n")
			conn.Close()
		}
	}()
	c := &Client{Addr: ln.Addr().String(), Timeout: 5 * time.Second}
	if _, err := c.RunContext(context.Background(), core.Application{Scenarios: 2, Months: 6}, core.NameKnapsack, SubmitMeta{}, nil, nil); !errors.Is(err, ErrProtocol) {
		t.Fatalf("streamed submit: got %v, want ErrProtocol", err)
	}
	if _, err := c.StatsContext(context.Background()); !errors.Is(err, ErrProtocol) {
		t.Fatalf("one-shot stats: got %v, want ErrProtocol", err)
	}
}
