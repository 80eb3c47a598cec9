package grid

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/store"
)

// newKey mints a random submission key for a raw submit: the scheduler
// refuses one without a key.
func newKey() diet.SubmitKey {
	var k diet.SubmitKey
	_, _ = rand.Read(k[:]) // never fails (crypto/rand)
	return k
}

// TestZeroKeySubmitRefused: a submit without a key is malformed. Plain or
// waiting, it gets an error payload, not a verdict, and admits nothing.
func TestZeroKeySubmitRefused(t *testing.T) {
	f := startFabric(t, testConfig(), 1)
	for _, wait := range []bool{false, true} {
		_, err := diet.RoundTrip(f.Sched.Addr(), &diet.Request{Kind: diet.KindSubmit, Submit: &diet.SubmitRequest{
			Scenarios: 2, Months: 6, Heuristic: core.NameKnapsack, Wait: wait,
		}})
		var remote *diet.RemoteError
		if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "no submission key") {
			t.Fatalf("wait=%v: zero-key submit answered %v, want an error payload naming the missing key", wait, err)
		}
	}
	if n := len(f.Sched.table()); n != 0 {
		t.Fatalf("zero-key submits admitted %d campaigns", n)
	}
}

// frameProxy relays client connections to a backend scheduler, passing the
// backend's answers on frame by frame. Armed, it cuts the next connection
// whose backend sends a submit verdict: the verdict is dropped, the arming
// hook runs, and both sides close — a connection lost after the submit was
// written and admitted, before the client read a byte of the answer.
type frameProxy struct {
	ln      net.Listener
	backend string
	armed   atomic.Pointer[func()]
	// conns counts accepted client connections, cuts the connections cut.
	conns, cuts atomic.Int32
}

func startFrameProxy(t *testing.T, backend string) *frameProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &frameProxy{ln: ln, backend: backend}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.conns.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.relay(conn)
			}()
		}
	}()
	return p
}

func (p *frameProxy) addr() string { return p.ln.Addr().String() }

// arm makes the next submit verdict cut its connection, after hook ran.
func (p *frameProxy) arm(hook func()) { p.armed.Store(&hook) }

func (p *frameProxy) relay(client net.Conn) {
	defer client.Close()
	server, err := net.Dial("tcp", p.backend)
	if err != nil {
		return
	}
	defer server.Close()
	go func() {
		_, _ = io.Copy(server, client)
		server.Close()
	}()
	for {
		frame := make([]byte, 12) // the fixed frame header
		if _, err := io.ReadFull(server, frame); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(frame[8:])
		if n > diet.MaxFramePayload {
			return
		}
		frame = append(frame, make([]byte, n)...)
		if _, err := io.ReadFull(server, frame[12:]); err != nil {
			return
		}
		h, payload, err := diet.ParseFrame(frame)
		if err != nil {
			return
		}
		resp, err := (&diet.FrameDecoder{}).DecodeResponseFrame(h, payload)
		if err != nil {
			return
		}
		if resp.Submit != nil {
			if hook := p.armed.Swap(nil); hook != nil {
				(*hook)()
				p.cuts.Add(1)
				return
			}
		}
		if _, err := client.Write(frame); err != nil {
			return
		}
	}
}

// journalOf reads a state dir's journal as each campaign's records, the
// submission keys zeroed and each campaign's records in one canonical
// order: what two runs of the same campaigns must agree on, whatever keys
// their clients minted and in whatever order concurrent chunks landed.
func journalOf(t *testing.T, dir string) map[uint64][]string {
	t.Helper()
	byID, err := store.ReplayFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64][]string, len(byID))
	for id, rc := range byID {
		var lines []string
		for _, rec := range rc.Records() {
			rec.Key = diet.SubmitKey{}
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, string(b))
		}
		sort.Strings(lines)
		out[id] = lines
	}
	return out
}

// admittedUnder counts a journal's admission records carrying key.
func admittedUnder(t *testing.T, dir string, key diet.SubmitKey) int {
	t.Helper()
	byID, err := store.ReplayFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, rc := range byID {
		for _, rec := range rc.Records() {
			if rec.Kind == store.KindAdmitted && rec.Key == key {
				n++
			}
		}
	}
	return n
}

// keyOf returns the submission key campaign id was admitted under.
func keyOf(t *testing.T, s *Scheduler, id uint64) diet.SubmitKey {
	t.Helper()
	c := s.lookup(id)
	if c == nil || c.key.IsZero() {
		t.Fatalf("campaign %d: not in the table, or admitted without a key", id)
	}
	return c.key
}

// TestCutAfterSubmitWriteGetsSameID: three campaigns run one after another
// through one client and a proxy, so each stream rides the connection the
// one before it left idle. The second submit's connection is cut after the
// scheduler admitted it and before the client read its verdict. The client
// resends the submit once, on a fresh dial to the same member, with the
// same key, and gets the same campaign back: the same ID, a verified
// result, one admission record under the key, and a journal equal to that
// of the same campaigns run without the cut.
func TestCutAfterSubmitWriteGetsSameID(t *testing.T) {
	apps := []core.Application{{Scenarios: 4, Months: 12}, {Scenarios: 6, Months: 12}, {Scenarios: 5, Months: 12}}
	run := func(cut bool) map[uint64][]string {
		cfg := testConfig()
		cfg.StateDir = t.TempDir()
		f := startFabric(t, cfg, 3)
		p := startFrameProxy(t, f.Sched.Addr())
		c := &Client{Addr: p.addr(), Timeout: 30 * time.Second}
		defer c.Close()
		for i, app := range apps {
			if cut && i == 1 {
				p.arm(func() {})
			}
			var admitted uint64
			res, err := c.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, func(id uint64) { admitted = id }, nil)
			if err != nil {
				t.Fatalf("campaign %d (cut %v): %v", i, cut, err)
			}
			verifyReports(t, f, app, core.NameKnapsack, res)
			if admitted != res.ID || res.ID != uint64(i+1) {
				t.Fatalf("campaign %d (cut %v): admitted as %d, result of %d, want %d", i, cut, admitted, res.ID, i+1)
			}
			if n := admittedUnder(t, cfg.StateDir, keyOf(t, f.Sched, res.ID)); n != 1 {
				t.Fatalf("campaign %d (cut %v): %d admission records under its key, want 1", i, cut, n)
			}
		}
		// Without the cut every stream rides the first connection; the cut
		// costs exactly one more dial.
		want := int32(1)
		if cut {
			want = 2
		}
		if p.cuts.Load() != want-1 || p.conns.Load() != want {
			t.Fatalf("cut %v: %d cuts over %d connections, want %d over %d", cut, p.cuts.Load(), p.conns.Load(), want-1, want)
		}
		if n := len(f.Sched.table()); n != len(apps) {
			t.Fatalf("cut %v: %d campaigns in the table, want %d", cut, n, len(apps))
		}
		return journalOf(t, cfg.StateDir)
	}
	clean, cut := run(false), run(true)
	if len(clean) != len(cut) {
		t.Fatalf("journals hold %d and %d campaigns", len(clean), len(cut))
	}
	for id, recs := range clean {
		if got := cut[id]; len(got) != len(recs) {
			t.Fatalf("campaign %d: %d records with the cut, %d without", id, len(got), len(recs))
		} else {
			for i := range recs {
				if got[i] != recs[i] {
					t.Fatalf("campaign %d: journal differs with the cut:\n got %s\nwant %s", id, got[i], recs[i])
				}
			}
		}
	}
}

// TestResentSubmitAttachesAfterRestart: the scheduler journals a keyed
// admission and dies before its verdict leaves; a new scheduler opens the
// same state dir on the same address. The client's resent submit finds the
// recovered campaign under its key and follows it to a verified result,
// instead of admitting it a second time.
func TestResentSubmitAttachesAfterRestart(t *testing.T) {
	cfg := patientConfig()
	cfg.StateDir = t.TempDir()
	f := startFabric(t, cfg, 3)
	addr := f.Sched.Addr()
	p := startFrameProxy(t, addr)
	c := &Client{Addr: p.addr(), Timeout: 30 * time.Second}
	defer c.Close()
	runVerifiedOn(t, f, c, core.Application{Scenarios: 3, Months: 12}) // leaves a pooled connection

	restarted := make(chan *Scheduler, 1)
	p.arm(func() {
		f.Sched.Close() // the admission is journaled; the verdict dies with the daemon
		cfg2 := cfg
		cfg2.Addr = addr
		s, err := Start(cfg2)
		if err != nil {
			t.Error(err)
			close(restarted)
			return
		}
		restarted <- s
	})
	app := core.Application{Scenarios: 6, Months: 12}
	var admitted uint64
	res, err := c.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, func(id uint64) { admitted = id }, nil)
	select {
	case s := <-restarted:
		if s == nil {
			t.FailNow()
		}
		f.Sched = s // the fabric's cleanup closes the new one
	default:
		t.Fatal("the proxy never cut the submit")
	}
	if err != nil {
		t.Fatal(err)
	}
	verifyReports(t, f, app, core.NameKnapsack, res)
	if admitted != 2 || res.ID != 2 {
		t.Fatalf("resent submit admitted as %d with the result of %d, want the recovered campaign 2", admitted, res.ID)
	}
	if n := admittedUnder(t, cfg.StateDir, keyOf(t, f.Sched, 2)); n != 1 {
		t.Fatalf("%d admission records under the resent key, want 1", n)
	}
	if n := len(f.Sched.table()); n != 2 {
		t.Fatalf("%d campaigns after the restart, want 2", n)
	}
}

// TestConcurrentDuplicateSubmitsAdmitOnce: eight copies of one keyed submit
// arrive at once — racing each other and the first one's journal write —
// and all get one campaign's ID; ten such keys make ten campaigns, and the
// journal holds one admission record per key.
func TestConcurrentDuplicateSubmitsAdmitOnce(t *testing.T) {
	cfg := testConfig()
	cfg.StateDir = t.TempDir()
	f := startFabric(t, cfg, 2)
	const keys, copies = 10, 8
	for k := 0; k < keys; k++ {
		key := diet.SubmitKey{0xd0, byte(k)}
		start := make(chan struct{})
		ids := make(chan uint64, copies)
		var wg sync.WaitGroup
		for i := 0; i < copies; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				resp, err := diet.RoundTrip(f.Sched.Addr(), &diet.Request{Kind: diet.KindSubmit, Submit: &diet.SubmitRequest{
					Scenarios: 2, Months: 6, Heuristic: core.NameKnapsack, Key: key,
				}})
				if err != nil || resp.Submit == nil || !resp.Submit.Accepted {
					t.Errorf("key %d: %+v, %v", k, resp, err)
					ids <- 0
					return
				}
				ids <- resp.Submit.ID
			}()
		}
		close(start)
		wg.Wait()
		close(ids)
		want := <-ids
		for id := range ids {
			if id != want {
				t.Fatalf("key %d admitted as both %d and %d", k, want, id)
			}
		}
		if n := admittedUnder(t, cfg.StateDir, key); n != 1 {
			t.Fatalf("key %d: %d admission records, want 1", k, n)
		}
	}
	if n := len(f.Sched.table()); n != keys {
		t.Fatalf("%d campaigns for %d keys", n, keys)
	}
}
