package diet

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func statsReq() *Request { return &Request{Kind: KindStats, Stats: &StatsRequest{}} }

// echoServer runs Serve on a loopback listener with a handler that counts
// its calls and records whether each request carried the keep-alive bit.
type echoServer struct {
	ln      net.Listener
	calls   atomic.Int64
	asked   atomic.Int64 // requests that carried the keep-alive bit
	accepts atomic.Int64
	entered chan struct{} // one token per handler that found a gate

	mu   sync.Mutex
	gate chan struct{} // non-nil: handlers wait for it to close
}

// block makes every handler entered from now on wait for the returned
// release function.
func (e *echoServer) block() (release func()) {
	gate := make(chan struct{})
	e.mu.Lock()
	e.gate = gate
	e.mu.Unlock()
	return func() {
		e.mu.Lock()
		e.gate = nil
		e.mu.Unlock()
		close(gate)
	}
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

func listenLoopback(t *testing.T, addr string) net.Listener {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			return ln
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal(err)
	return nil
}

func startEcho(t *testing.T, addr string) *echoServer {
	t.Helper()
	e := &echoServer{ln: listenLoopback(t, addr), entered: make(chan struct{}, 64)}
	go Serve(countingListener{e.ln, &e.accepts}, func(req *Request) *Response {
		e.calls.Add(1)
		if req.KeepAlive {
			e.asked.Add(1)
		}
		e.mu.Lock()
		gate := e.gate
		e.mu.Unlock()
		if gate != nil {
			e.entered <- struct{}{}
			<-gate
		}
		return &Response{Stats: &StatsResponse{QueueDepth: int(e.calls.Load())}}
	})
	t.Cleanup(func() { e.ln.Close() })
	return e
}

func (e *echoServer) addr() string { return e.ln.Addr().String() }

func idleConns(tr *Transport, addr string) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.idle[addr])
}

// TestTransportReusesOneConnection: sequential exchanges with one peer ride
// one connection, the counters say so, and Close empties the pool.
func TestTransportReusesOneConnection(t *testing.T) {
	e := startEcho(t, "127.0.0.1:0")
	tr := NewTransport(2)
	before := WireStats()
	for i := 1; i <= 20; i++ {
		resp, err := tr.RoundTrip(context.Background(), e.addr(), statsReq(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Stats.QueueDepth != i {
			t.Fatalf("exchange %d got the answer to call %d", i, resp.Stats.QueueDepth)
		}
	}
	if tr.Dials() != 1 || tr.Reused() != 19 || e.accepts.Load() != 1 {
		t.Fatalf("20 exchanges: %d dials, %d reused, %d accepted; want 1, 19, 1", tr.Dials(), tr.Reused(), e.accepts.Load())
	}
	after := WireStats()
	if after.Dials-before.Dials != 1 || after.Reused-before.Reused != 19 || after.IdleConns-before.IdleConns != 1 {
		t.Fatalf("process-wide counters moved by %d dials, %d reused, %d idle; want 1, 19, 1",
			after.Dials-before.Dials, after.Reused-before.Reused, after.IdleConns-before.IdleConns)
	}
	tr.Close()
	if got := WireStats().IdleConns - before.IdleConns; got != 0 || idleConns(tr, e.addr()) != 0 {
		t.Fatalf("Close left %d idle connections counted, %d pooled", got, idleConns(tr, e.addr()))
	}
	// A closed transport still works, one connection per exchange.
	if _, err := tr.RoundTrip(context.Background(), e.addr(), statsReq(), time.Second); err != nil {
		t.Fatal(err)
	}
	if idleConns(tr, e.addr()) != 0 {
		t.Fatal("a closed transport pooled a connection")
	}
}

// TestTransportIdleCap: concurrent exchanges each get their own connection;
// only perPeer of them stay idle afterwards.
func TestTransportIdleCap(t *testing.T) {
	e := startEcho(t, "127.0.0.1:0")
	release := e.block()
	tr := NewTransport(2)
	defer tr.Close()
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tr.RoundTrip(context.Background(), e.addr(), statsReq(), 5*time.Second); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < 5; i++ {
		<-e.entered // all five in flight at once
	}
	release()
	wg.Wait()
	if tr.Dials() != 5 || idleConns(tr, e.addr()) != 2 {
		t.Fatalf("%d dials, %d idle; want 5, 2", tr.Dials(), idleConns(tr, e.addr()))
	}
}

// TestKeepAliveIgnoredByOneShotPeer: a peer that answers one frame with
// flags = 0 and closes — every build before the keep-alive bit — is served
// exactly as before: each exchange succeeds on its own connection, nothing
// is pooled, and no exchange burns a stale-connection retry.
func TestKeepAliveIgnoredByOneShotPeer(t *testing.T) {
	ln := listenLoopback(t, "127.0.0.1:0")
	defer ln.Close()
	var accepts, flagged atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func() {
				defer conn.Close()
				dec := &FrameDecoder{}
				req, _, err := dec.AcceptRequest(conn)
				if err != nil {
					return
				}
				if req.KeepAlive {
					flagged.Add(1)
				}
				_ = WriteResponseFrame(conn, &Response{Version: req.Version, Stats: &StatsResponse{}})
			}()
		}
	}()
	tr := NewTransport(4)
	defer tr.Close()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := tr.RoundTrip(context.Background(), ln.Addr().String(), statsReq(), time.Second); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
	}
	if tr.Dials() != n || tr.Reused() != 0 || accepts.Load() != n || idleConns(tr, ln.Addr().String()) != 0 {
		t.Fatalf("%d exchanges: %d dials, %d reused, %d accepted, %d idle; want %d, 0, %d, 0",
			n, tr.Dials(), tr.Reused(), accepts.Load(), idleConns(tr, ln.Addr().String()), n, n)
	}
	if flagged.Load() != n {
		t.Fatalf("%d of %d requests carried the keep-alive bit", flagged.Load(), n)
	}
}

// TestOneShotRoundTripAsksNothing: the package-level round trips never set
// the keep-alive bit, and the server closes after the one answer.
func TestOneShotRoundTripAsksNothing(t *testing.T) {
	e := startEcho(t, "127.0.0.1:0")
	if _, err := RoundTrip(e.addr(), statsReq()); err != nil {
		t.Fatal(err)
	}
	if _, err := RoundTripContext(context.Background(), e.addr(), statsReq(), time.Second); err != nil {
		t.Fatal(err)
	}
	if e.asked.Load() != 0 || e.accepts.Load() != 2 {
		t.Fatalf("%d requests asked for keep-alive, %d accepted; want 0, 2", e.asked.Load(), e.accepts.Load())
	}
}

// TestIdleConnReaped: a connection idle past the requester's age limit is
// closed by the reaper, and one the reaper has not reached yet is refused by
// take — either way the next exchange dials.
func TestIdleConnReaped(t *testing.T) {
	e := startEcho(t, "127.0.0.1:0")
	tr := NewTransport(2)
	defer tr.Close()
	tr.idleAge = 40 * time.Millisecond
	before := WireStats().IdleConns
	exchange := func() {
		t.Helper()
		if _, err := tr.RoundTrip(context.Background(), e.addr(), statsReq(), time.Second); err != nil {
			t.Fatal(err)
		}
	}
	exchange()
	exchange()
	if tr.Dials() != 1 || idleConns(tr, e.addr()) != 1 {
		t.Fatalf("warm-up: %d dials, %d idle; want 1, 1", tr.Dials(), idleConns(tr, e.addr()))
	}
	deadline := time.Now().Add(5 * time.Second)
	for idleConns(tr, e.addr()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle connection never reaped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := WireStats().IdleConns - before; got != 0 {
		t.Fatalf("idle gauge off by %d after the reap", got)
	}
	exchange()
	if tr.Dials() != 2 {
		t.Fatalf("%d dials after the reap, want 2", tr.Dials())
	}

	// The lazy half: with the reaper out of the picture, take itself must
	// turn down a connection that aged out.
	tr.mu.Lock()
	tr.reaper.Stop()
	conns := tr.idle[e.addr()]
	conns[0].since = time.Now().Add(-time.Second)
	tr.mu.Unlock()
	exchange()
	if tr.Dials() != 3 || tr.Reused() != 1 {
		t.Fatalf("%d dials, %d reused after an aged-out take; want 3, 1", tr.Dials(), tr.Reused())
	}
}

// TestStaleConnRedialsOnce: the peer restarts on the same address, which
// kills the pooled connection. The next exchange notices before any answer
// byte, redials once, and succeeds.
func TestStaleConnRedialsOnce(t *testing.T) {
	e := startEcho(t, "127.0.0.1:0")
	tr := NewTransport(2)
	defer tr.Close()
	addr := e.addr()
	if _, err := tr.RoundTrip(context.Background(), addr, statsReq(), time.Second); err != nil {
		t.Fatal(err)
	}
	e.ln.Close() // Serve returns and closes what it kept open
	e2 := startEcho(t, addr)
	// The old server closes its kept connection asynchronously; an exchange
	// that wins that race is simply answered by the old handler. Wait it out.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := tr.RoundTrip(context.Background(), addr, statsReq(), time.Second); err != nil {
			t.Fatal(err)
		}
		if e2.calls.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the closed server kept answering")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tr.Dials() != 2 || e2.accepts.Load() != 1 {
		t.Fatalf("%d dials, %d accepted by the restarted peer; want 2, 1", tr.Dials(), e2.accepts.Load())
	}
}

// TestTimeoutIsNotRetried: a peer that takes the request and stays silent is
// alive — the exchange fails with the timeout, on the reused connection, and
// is not sent again.
func TestTimeoutIsNotRetried(t *testing.T) {
	e := startEcho(t, "127.0.0.1:0")
	tr := NewTransport(2)
	defer tr.Close()
	if _, err := tr.RoundTrip(context.Background(), e.addr(), statsReq(), time.Second); err != nil {
		t.Fatal(err)
	}
	defer e.block()()
	_, err := tr.RoundTrip(context.Background(), e.addr(), statsReq(), 50*time.Millisecond)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("silent peer: got %v, want a timeout", err)
	}
	if tr.Dials() != 1 || tr.Reused() != 1 || e.calls.Load() != 2 || idleConns(tr, e.addr()) != 0 {
		t.Fatalf("%d dials, %d reused, %d handler calls, %d idle; want 1, 1, 2, 0",
			tr.Dials(), tr.Reused(), e.calls.Load(), idleConns(tr, e.addr()))
	}
}

// TestAbortedConnNotPooled: cancelling the context mid-exchange returns the
// context's error at once, and the connection — its deadline now in the past
// — is closed instead of poisoning the next exchange.
func TestAbortedConnNotPooled(t *testing.T) {
	e := startEcho(t, "127.0.0.1:0")
	tr := NewTransport(2)
	defer tr.Close()
	if _, err := tr.RoundTrip(context.Background(), e.addr(), statsReq(), time.Second); err != nil {
		t.Fatal(err)
	}
	release := e.block()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := tr.RoundTrip(ctx, e.addr(), statsReq(), 30*time.Second)
		errc <- err
	}()
	<-e.entered
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled exchange: got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock the exchange")
	}
	release()
	if idleConns(tr, e.addr()) != 0 {
		t.Fatal("the aborted connection was pooled")
	}
	for i := 0; i < 20; i++ {
		if _, err := tr.RoundTrip(context.Background(), e.addr(), statsReq(), time.Second); err != nil {
			t.Fatalf("exchange %d after the abort: %v", i, err)
		}
	}
	if tr.Dials() != 2 {
		t.Fatalf("%d dials, want 2: one before the abort, one after", tr.Dials())
	}
}

// TestClosedServerAnswersNothing: Server.Close closes connections it was
// keeping open, idle ones included, and the handler is not entered again.
func TestClosedServerAnswersNothing(t *testing.T) {
	sed := startSeD(t, smallClusters()[0])
	tr := NewTransport(2)
	defer tr.Close()
	perf := func() *Request {
		return &Request{Kind: KindPerf, Perf: &PerfRequest{Scenarios: 2, Months: 12, Heuristic: "knapsack"}}
	}
	if _, err := tr.RoundTrip(context.Background(), sed.Addr(), perf(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if idleConns(tr, sed.Addr()) != 1 {
		t.Fatal("no connection pooled to the SeD")
	}
	served := sed.Served()
	sed.Close()
	if _, err := tr.RoundTrip(context.Background(), sed.Addr(), perf(), 5*time.Second); err == nil {
		t.Fatal("a closed SeD answered")
	}
	if sed.Served() != served || sed.InFlight() != 0 {
		t.Fatalf("closed SeD served %d more requests (%d in flight)", sed.Served()-served, sed.InFlight())
	}
}
