package grid

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
)

// submit starts a campaign on a RunContext stream of its own and returns
// the admitted ID once the verdict arrives, or the stream's error when the
// verdict refuses (a rejection wraps ErrRejected) or no verdict came. The
// stream keeps running in the background; t.Cleanup cancels and drains it,
// so no goroutine outlives the test. Poll the ID with InfoContext, or
// AttachContext for the final result.
func submit(t *testing.T, c *Client, app core.Application, heuristic string) (uint64, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	admitted := make(chan uint64, 1)
	finished := make(chan struct{})
	var runErr error
	go func() {
		defer close(finished)
		_, runErr = c.RunContext(ctx, app, heuristic, SubmitMeta{}, func(id uint64) { admitted <- id }, nil)
	}()
	t.Cleanup(func() {
		cancel()
		<-finished
	})
	select {
	case id := <-admitted:
		return id, nil
	case <-finished:
		// onAdmit runs before the stream ends: a campaign that finished
		// this fast still has its ID waiting.
		select {
		case id := <-admitted:
			return id, nil
		default:
			return 0, runErr
		}
	}
}

// fakeDaemon accepts one submit-wait connection and plays a scripted frame
// sequence with a fixed pause between frames, standing in for a daemon
// whose campaign runs much longer than any single frame timeout.
func fakeDaemon(t *testing.T, frames []*diet.Response, pause time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := (&diet.FrameDecoder{}).ReadRequest(conn); err != nil {
			return
		}
		for i, frame := range frames {
			if i > 0 {
				time.Sleep(pause)
			}
			if err := diet.WriteResponseFrame(conn, frame); err != nil {
				return
			}
		}
		// Leave the connection open: a scripted silence, not an EOF.
		time.Sleep(10 * time.Second)
	}()
	return ln.Addr().String()
}

// TestClientSurvivesCampaignLongerThanTimeout is the regression test for
// the dial-time-deadline bug: a streamed campaign whose total duration
// exceeds the client Timeout must survive as long as frames keep arriving,
// because every received frame refreshes the deadline.
func TestClientSurvivesCampaignLongerThanTimeout(t *testing.T) {
	mkProgress := func(done int) *diet.Response {
		return &diet.Response{Version: diet.ProtocolVersion, Progress: &diet.ProgressUpdate{
			ID: 1, Stage: diet.StageChunk, Done: done, Total: 4,
			Chunk: &diet.ExecResponse{Cluster: "c", Scenarios: 1, Makespan: 1},
		}}
	}
	frames := []*diet.Response{
		{Version: diet.ProtocolVersion, Submit: &diet.SubmitResponse{ID: 1, Accepted: true}},
		mkProgress(1), mkProgress(2), mkProgress(3), mkProgress(4),
		{Version: diet.ProtocolVersion, Result: &diet.CampaignResult{ID: 1, Status: diet.CampaignDone, Makespan: 1}},
	}
	// 5 inter-frame pauses of 120ms ≈ 600ms total stream against a 250ms
	// frame timeout: the old single-deadline client dies mid-stream, the
	// per-frame client finishes.
	addr := fakeDaemon(t, frames, 120*time.Millisecond)
	c := &Client{Addr: addr, Timeout: 250 * time.Millisecond}
	var seen int
	res, err := c.RunContext(context.Background(), core.Application{Scenarios: 4, Months: 6}, core.NameKnapsack, SubmitMeta{}, nil,
		func(u *diet.ProgressUpdate) { seen++ })
	if err != nil {
		t.Fatalf("streamed campaign died: %v", err)
	}
	if res.Status != diet.CampaignDone {
		t.Fatalf("status %q, want done", res.Status)
	}
	if seen != 4 {
		t.Fatalf("saw %d progress frames, want 4", seen)
	}
}

// TestClientTimesOutOnSilentDaemon: a daemon that goes silent mid-stream
// fails the campaign within roughly one frame timeout, not never.
func TestClientTimesOutOnSilentDaemon(t *testing.T) {
	frames := []*diet.Response{
		{Version: diet.ProtocolVersion, Submit: &diet.SubmitResponse{ID: 1, Accepted: true}},
		// ... then silence.
	}
	addr := fakeDaemon(t, frames, 0)
	c := &Client{Addr: addr, Timeout: 200 * time.Millisecond}
	start := time.Now()
	_, err := c.RunContext(context.Background(), core.Application{Scenarios: 2, Months: 6}, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err == nil {
		t.Fatal("silent daemon did not fail the campaign")
	}
	if wait := time.Since(start); wait > 5*time.Second {
		t.Fatalf("timeout took %v", wait)
	}
}

// TestClientContextCancelMidStream: cancelling the context unblocks a read
// parked on a silent connection immediately and surfaces ctx.Err().
func TestClientContextCancelMidStream(t *testing.T) {
	frames := []*diet.Response{
		{Version: diet.ProtocolVersion, Submit: &diet.SubmitResponse{ID: 1, Accepted: true}},
	}
	addr := fakeDaemon(t, frames, 0)
	c := &Client{Addr: addr, Timeout: time.Minute}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.RunContext(ctx, core.Application{Scenarios: 2, Months: 6}, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext returned %v, want context.Canceled", err)
	}
	if wait := time.Since(start); wait > 5*time.Second {
		t.Fatalf("cancellation took %v (the minute-long frame deadline won)", wait)
	}
}

// submitRaw opens a raw submit-wait connection stamped with the given
// protocol version, asking for keep-alive, and returns every frame the
// daemon streams back and whether the daemon then read another request on
// the connection. Each frame must be stamped with the negotiated version —
// min(version, the daemon's) — and be byte-exact: re-encoding what it
// decodes to reproduces the wire bytes. Only the result frame may carry the
// keep-alive bit, and it must carry it exactly when the daemon keeps the
// connection.
func submitRaw(t *testing.T, addr string, version int, req *diet.SubmitRequest) (frames []*diet.Response, kept bool) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := diet.WriteRequestFrame(conn, &diet.Request{Version: version, Kind: diet.KindSubmit, Submit: req, KeepAlive: true}); err != nil {
		t.Fatal(err)
	}
	negotiated := min(version, diet.ProtocolVersion)
	dec := &diet.FrameDecoder{Retain: true}
	for {
		resp, ok := readRawFrame(t, conn, dec, negotiated, len(frames))
		if !ok {
			return frames, false
		}
		frames = append(frames, resp)
		last := resp.Err != "" || resp.Result != nil || !req.Wait
		if resp.KeepAlive && !last {
			t.Fatalf("frame %d carries the keep-alive bit mid-stream", len(frames)-1)
		}
		if last {
			kept = readsAnother(t, conn, negotiated)
			if kept != resp.KeepAlive {
				t.Fatalf("last frame's keep-alive bit %v, but the daemon read another request: %v", resp.KeepAlive, kept)
			}
			return frames, kept
		}
	}
}

// readRawFrame reads frame n of a raw exchange and checks that it is stamped
// with the negotiated version and byte-exact: re-encoding what it decodes to
// reproduces the wire bytes. ok is false when the connection ended before a
// frame header.
func readRawFrame(t *testing.T, conn net.Conn, dec *diet.FrameDecoder, negotiated, n int) (resp *diet.Response, ok bool) {
	t.Helper()
	raw := make([]byte, 12) // the fixed frame header
	if _, err := io.ReadFull(conn, raw); err != nil {
		return nil, false
	}
	if size := binary.LittleEndian.Uint32(raw[8:]); size <= diet.MaxFramePayload {
		raw = append(raw, make([]byte, size)...)
		if _, err := io.ReadFull(conn, raw[12:]); err != nil {
			t.Fatalf("frame %d: reading %d-byte payload: %v", n, size, err)
		}
	}
	hdr, payload, err := diet.ParseFrame(raw)
	if err != nil {
		t.Fatalf("frame %d: %v", n, err)
	}
	if int(hdr.Version) != negotiated {
		t.Fatalf("frame %d stamped v%d on a stream negotiated at v%d", n, hdr.Version, negotiated)
	}
	resp, err = dec.DecodeResponseFrame(hdr, payload)
	if err != nil {
		t.Fatalf("frame %d: %v", n, err)
	}
	if again, err := diet.AppendResponseFrame(nil, resp); err != nil || !bytes.Equal(again, raw) {
		t.Fatalf("frame %d is not byte-exact at v%d (%v):\n wire % x\nagain % x", n, hdr.Version, err, raw, again)
	}
	return resp, true
}

// readsAnother sends a stats request on conn and reports whether the daemon
// answered it, rather than closing the connection.
func readsAnother(t *testing.T, conn net.Conn, version int) bool {
	t.Helper()
	// A write into a connection the daemon closed may still succeed; the
	// read below is the verdict.
	_ = diet.WriteRequestFrame(conn, &diet.Request{Version: version, Kind: diet.KindStats, Stats: &diet.StatsRequest{}})
	resp, err := (&diet.FrameDecoder{}).ReadResponse(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("the daemon neither answered nor closed the connection after the stream")
	}
	return err == nil && resp.Stats != nil
}

// TestSubmitNotReplayedOnAnotherMember: a ring client's primary reads the
// submit and closes without answering. The campaign may have been admitted
// there, so the client must fail the submit rather than replay it on the
// next member — which would run it twice. A primary that refuses the dial
// is another matter: nothing was sent, so the next member admits it.
func TestSubmitNotReplayedOnAnotherMember(t *testing.T) {
	f := startFabric(t, testConfig(), 2)
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
			_, _ = (&diet.FrameDecoder{}).ReadRequest(conn)
			conn.Close()
		}
	}()
	app := core.Application{Scenarios: 2, Months: 6}
	c := &Client{Addr: ln.Addr().String(), Addrs: []string{f.Sched.Addr()}, Timeout: 5 * time.Second}
	defer c.Close()
	if res, err := c.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil); err == nil {
		t.Fatalf("submit read by the primary was answered by another member: %+v", res)
	}
	if n := len(f.Sched.table()); n != 0 {
		t.Fatalf("the fallback admitted %d campaigns the primary had read", n)
	}

	// A primary that died after the client's last exchange with it: the
	// submit goes out on the pooled connection, which fails, and the
	// redial is refused. The submit may have been read before the death,
	// so it fails too; the next one finds no connection left to the dead
	// member, and its refused dial sends it to the fallback.
	primary, err := Start(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c = &Client{Addr: primary.Addr(), Addrs: []string{f.Sched.Addr()}, Timeout: 5 * time.Second}
	defer c.Close()
	if _, err := c.StatsContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	primary.Close()
	if res, err := c.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil); err == nil {
		t.Fatalf("submit written to a dead primary was answered by another member: %+v", res)
	}
	res, err := c.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil || res.Status != diet.CampaignDone {
		t.Fatalf("submit with a refused primary: %+v, %v; want the fallback to admit and run it", res, err)
	}
	if n := len(f.Sched.table()); n != 1 {
		t.Fatalf("the fallback holds %d campaigns, want 1", n)
	}
}

// closedAddr returns a loopback address nothing listens on any more: a
// dial there is refused.
func closedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestUnreachableIsTyped: when every member refuses the dial, each client
// exchange — the campaign stream included — reports ErrUnreachable, so a
// caller can tell "nobody answered" from an answer.
func TestUnreachableIsTyped(t *testing.T) {
	c := &Client{Addr: closedAddr(t), Addrs: []string{closedAddr(t)}, Timeout: 5 * time.Second}
	defer c.Close()
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"RunContext", func() error {
			_, err := c.RunContext(ctx, core.Application{Scenarios: 2, Months: 6}, core.NameKnapsack, SubmitMeta{}, nil, nil)
			return err
		}},
		{"AttachContext", func() error { _, err := c.AttachContext(ctx, 7, nil, nil); return err }},
		{"InfoContext", func() error { _, err := c.InfoContext(ctx, 7); return err }},
		{"CancelContext", func() error { _, err := c.CancelContext(ctx, 7); return err }},
		{"ListCampaignsContext", func() error { _, err := c.ListCampaignsContext(ctx, nil); return err }},
		{"StatsContext", func() error { _, err := c.StatsContext(ctx); return err }},
	} {
		if err := tc.call(); !errors.Is(err, ErrUnreachable) {
			t.Errorf("%s with every member down: %v, want ErrUnreachable", tc.name, err)
		}
	}
}

// TestProtocolVersionNegotiation: a raw peer at the protocol floor gets the
// streamed campaign — verdict, planned and chunk progress frames, result —
// stamped with its own version (a peer from the future is a row of
// TestCrossVersionMatrix); a wait without progress keeps the two-frame
// shape.
func TestProtocolVersionNegotiation(t *testing.T) {
	f := startFabric(t, testConfig(), 3)
	req := func() *diet.SubmitRequest {
		return &diet.SubmitRequest{Scenarios: 6, Months: 12, Heuristic: core.NameKnapsack, Wait: true, Progress: true, Key: newKey()}
	}

	frames, _ := submitRaw(t, f.Sched.Addr(), diet.ProtocolFloor, req())
	if len(frames) < 4 { // verdict + planned + ≥1 chunk + result
		t.Fatalf("floor client got only %d frames", len(frames))
	}
	final := frames[len(frames)-1]
	if frames[0].Version != diet.ProtocolFloor || final.Version != diet.ProtocolFloor {
		t.Fatalf("floor client saw negotiated versions %d, %d", frames[0].Version, final.Version)
	}
	var planned, chunks int
	for _, fr := range frames[1 : len(frames)-1] {
		if fr.Progress == nil {
			t.Fatalf("mid-stream frame without progress: %+v", fr)
		}
		switch fr.Progress.Stage {
		case diet.StagePlanned:
			planned++
		case diet.StageChunk:
			chunks++
		}
	}
	if planned == 0 || chunks == 0 {
		t.Fatalf("stream missed stages: %d planned, %d chunk frames", planned, chunks)
	}
	if final.Result == nil || final.Result.Status != diet.CampaignDone {
		t.Fatalf("campaign did not complete: %+v", final)
	}
	if last := frames[len(frames)-2]; last.Progress.Done != 6 {
		t.Fatalf("last progress frame reports %d/6 scenarios", last.Progress.Done)
	}

	// A no-progress wait keeps the two-frame shape.
	noProg := req()
	noProg.Progress = false
	frames, _ = submitRaw(t, f.Sched.Addr(), diet.ProtocolFloor, noProg)
	if len(frames) != 2 {
		t.Fatalf("no-progress wait got %d frames, want 2", len(frames))
	}
}

// TestRunContextStreamsBitIdenticalResult: the ctx client against a real
// fabric returns the same bit-identical reports Run does, plus a
// gapless progress stream ending at Done == Total.
func TestRunContextStreamsBitIdenticalResult(t *testing.T) {
	f := startFabric(t, testConfig(), 3)
	app := core.Application{Scenarios: 8, Months: 12}
	c := &Client{Addr: f.Sched.Addr()}
	var last *diet.ProgressUpdate
	res, err := c.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, func(u *diet.ProgressUpdate) { last = u })
	if err != nil {
		t.Fatal(err)
	}
	verifyReports(t, f, app, core.NameKnapsack, res)
	if last == nil || last.Done != app.Scenarios || last.Total != app.Scenarios {
		t.Fatalf("final progress %+v, want %d/%d", last, app.Scenarios, app.Scenarios)
	}
	// Typed taxonomy: a malformed submission is a protocol-level error.
	_, err = c.RunContext(context.Background(), core.Application{Scenarios: 0, Months: 12}, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("malformed submit returned %v, want ErrProtocol", err)
	}
}
