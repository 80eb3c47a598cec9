// The transport: every place this package's protocol touches a socket.
//
// Two shapes share one exchange (one request frame out, one response frame
// back, under a deadline and a context):
//
//   - One-shot: RoundTrip and RoundTripContext dial, make one exchange and
//     close. Clients use it — a client's next request may go to another
//     daemon, and a submit must never be replayed.
//   - Kept-alive: a Transport keeps the connection of a finished exchange idle
//     and hands it to the next exchange with the same peer. Daemons use it for
//     everything they say to each other (scheduler→SeD perf and exec, SeD
//     heartbeats, ring pings, segment pulls, forwards), which would otherwise
//     pay a TCP handshake and a teardown per request.
//
// Keep-alive is HTTP/1.1-style, not a multiplexer: a connection carries one
// exchange at a time, so there are no request IDs and nothing to reorder. It
// is negotiated per exchange in the frame header (flagKeepAlive): the
// requester sets the bit when it would reuse the connection, the responder
// echoes it on the answer only if it will read another request, and only an
// answer that carried the bit lets the connection be pooled. A peer that
// predates the bit writes zero and closes, and is served exactly as before.
//
// The rules that keep reuse correct:
//
//   - A pool belongs to a daemon (Scheduler, SeD, ring member), never to the
//     process: closing the daemon closes its idle connections, and it drops a
//     peer's connections when it stops trusting the peer.
//   - A requester lets a connection idle for at most maxIdleAge, a quarter of
//     the serveIdleTimeout the responder waits, so it never writes into a
//     connection the responder is about to close.
//   - Only idempotent requests ride a pooled connection (see reusable). If
//     one fails before the first byte of an answer, and not by timeout or
//     cancellation, the peer had closed it — a restart, an idle close — and
//     the request goes out once more on a fresh dial. A timeout is not
//     retried: the peer is alive and silent, which is the caller's to judge.
//   - A connection whose context abort fired (or may have) is closed, never
//     pooled: its deadline lies in the past and would fail the next exchange.
//   - A closed daemon answers nothing: Server tracks the connections it is
//     keeping open and Close closes them.
package diet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// dialTimeout bounds every protocol round trip that names no deadline of
	// its own, and the first request of a served connection.
	dialTimeout = 5 * time.Second
	// serveIdleTimeout is how long a responder waits for the next request on
	// a kept-alive connection before closing it.
	serveIdleTimeout = 60 * time.Second
	// maxIdleAge is how long a requester keeps a connection idle before
	// discarding it.
	maxIdleAge = serveIdleTimeout / 4
)

// reusable reports whether req may ride a kept-alive connection — and so be
// sent twice when that connection turns out stale. Submit is not idempotent
// and attach streams; everything else is a pure read or evaluation, or
// (cancel) converges.
func reusable(req *Request) bool {
	switch req.Kind {
	case KindSubmit, KindAttach:
		return false
	case KindForward:
		return req.Forward == nil || req.Forward.Inner == nil || reusable(req.Forward.Inner)
	}
	return true
}

// RoundTrip dials addr, sends req and decodes the single response, with the
// protocol's default deadline, announcing this build's protocol version when
// the caller left it unset. It is the one-shot client primitive.
func RoundTrip(addr string, req *Request) (*Response, error) {
	if req.Version == 0 {
		req.Version = ProtocolVersion
	}
	return RoundTripContext(context.Background(), addr, req, dialTimeout)
}

// RoundTripContext is RoundTrip with a deadline d for the whole exchange,
// under a context: cancelling ctx aborts the dial and unblocks an in-flight
// read or write immediately. One connection, one request frame out, one
// response frame back, closed.
// Decoding retains, because round-trip callers keep what they get (perf
// vectors, chunk reports). Nothing is retried here: submit is not idempotent.
func RoundTripContext(ctx context.Context, addr string, req *Request, d time.Duration) (*Response, error) {
	conn, err := dial(ctx, addr, d)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	resp, _, err := exchange(ctx, conn, addr, req, d)
	return resp, err
}

// dial opens a counted connection to addr.
func dial(ctx context.Context, addr string, d time.Duration) (net.Conn, error) {
	dialer := net.Dialer{Timeout: d}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("diet: dialing %s: %w", addr, err)
	}
	wireDials.Add(1)
	return CountConn(conn), nil
}

// connFate is what an exchange leaves its connection fit for.
type connFate int

const (
	// fateClose: done with, out of step, or aborted.
	fateClose connFate = iota
	// fateStale: the exchange failed before the first byte of an answer,
	// and not by timeout or cancellation — on a pooled connection, the mark
	// of a peer that had already closed it.
	fateStale
	// fateKeep: one whole answer read, the abort never fired, and the answer
	// carried the keep-alive bit.
	fateKeep
)

// unanswered classifies a failed request write or response read: true when
// no byte of an answer arrived and the failure is not a timeout. Frame-level
// errors mean answer bytes did arrive.
func unanswered(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false
	}
	return !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, io.ErrUnexpectedEOF)
}

// exchange sends req on conn and reads its one answer, the whole of it
// within d. Cancelling ctx forces the connection's deadline into the past,
// which unblocks the read or write in progress; the deadline is set before
// the abort is armed, so the abort cannot be overwritten.
func exchange(ctx context.Context, conn net.Conn, addr string, req *Request, d time.Duration) (resp *Response, fate connFate, err error) {
	if err := conn.SetDeadline(time.Now().Add(d)); err != nil {
		return nil, fateClose, err
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Unix(1, 0)) })
		defer func() {
			if !stop() {
				fate = fateClose
			}
		}()
	}
	failed := func(doing string, cause error) (*Response, connFate, error) {
		switch {
		case ctx.Err() != nil:
			return nil, fateClose, ctx.Err()
		case unanswered(cause):
			return nil, fateStale, fmt.Errorf("diet: %s %s: %w", doing, addr, cause)
		}
		return nil, fateClose, fmt.Errorf("diet: %s %s: %w", doing, addr, cause)
	}
	if err := WriteRequestFrame(conn, req); err != nil {
		return failed("encoding "+req.Kind+" request to", err)
	}
	dec := GetFrameDecoder(true)
	defer PutFrameDecoder(dec)
	resp, err = dec.ReadResponse(conn)
	if err != nil {
		return failed("decoding "+req.Kind+" response from", err)
	}
	if req.KeepAlive && resp.KeepAlive {
		fate = fateKeep
	}
	if resp.Err != "" {
		return nil, fate, &RemoteError{Kind: req.Kind, Msg: resp.Err}
	}
	return resp, fate, nil
}

// ---- the requesting side: a pool of idle connections ----------------------

// Transport is one daemon's kept-alive requester: RoundTrip makes an exchange
// on an idle connection to the peer when it holds one, dials otherwise, and
// keeps the connection for the next exchange when the peer agrees. Safe for
// concurrent use; each connection carries one exchange at a time, so the
// number of open connections to a peer is the number of concurrent exchanges
// with it, of which at most perPeer stay idle afterwards.
type Transport struct {
	perPeer int
	idleAge time.Duration // maxIdleAge; tests shorten it

	dials  atomic.Uint64
	reused atomic.Uint64

	mu     sync.Mutex
	idle   map[string][]idleConn // per peer address, most recently used last
	reaper *time.Timer           // armed while idle is non-empty
	closed bool
}

type idleConn struct {
	conn  net.Conn // counted
	since time.Time
}

// NewTransport returns a Transport that keeps at most perPeer idle
// connections per peer address.
func NewTransport(perPeer int) *Transport {
	return &Transport{perPeer: max(perPeer, 1), idleAge: maxIdleAge, idle: make(map[string][]idleConn)}
}

// RoundTrip sends req to addr and returns its single response, like
// RoundTripContext, on a kept-alive connection. Requests that must not be
// sent twice (see reusable) take the one-shot path instead.
func (t *Transport) RoundTrip(ctx context.Context, addr string, req *Request, d time.Duration) (*Response, error) {
	if req.Version == 0 {
		req.Version = ProtocolVersion
	}
	if !reusable(req) {
		return RoundTripContext(ctx, addr, req, d)
	}
	req.KeepAlive = true
	if conn := t.take(addr); conn != nil {
		resp, fate, err := exchange(ctx, conn, addr, req, d)
		t.settle(addr, conn, fate)
		if fate != fateStale {
			return resp, err
		}
		// The peer had closed the pooled connection: the request never
		// reached a handler, so it goes out again, once, on a fresh one.
	}
	conn, err := dial(ctx, addr, d)
	if err != nil {
		return nil, err
	}
	t.dials.Add(1)
	resp, fate, err := exchange(ctx, conn, addr, req, d)
	t.settle(addr, conn, fate)
	return resp, err
}

// Dials counts the connections this transport opened.
func (t *Transport) Dials() uint64 { return t.dials.Load() }

// Reused counts the exchanges this transport started on an idle connection.
func (t *Transport) Reused() uint64 { return t.reused.Load() }

// take pops the most recently used idle connection to addr that is still
// young enough to trust, closing the ones that are not.
func (t *Transport) take(addr string) net.Conn {
	t.mu.Lock()
	defer t.mu.Unlock()
	conns := t.idle[addr]
	for len(conns) > 0 {
		c := conns[len(conns)-1]
		conns = conns[:len(conns)-1]
		wireIdle.Add(-1)
		if time.Since(c.since) < t.idleAge {
			t.setIdle(addr, conns)
			t.reused.Add(1)
			wireReused.Add(1)
			return c.conn
		}
		c.conn.Close()
	}
	t.setIdle(addr, conns)
	return nil
}

// setIdle stores addr's idle list, dropping the key with the last entry.
// Callers hold t.mu.
func (t *Transport) setIdle(addr string, conns []idleConn) {
	if len(conns) == 0 {
		delete(t.idle, addr)
	} else {
		t.idle[addr] = conns
	}
}

// settle disposes of a connection after its exchange: pooled when the
// exchange left it fit and there is room, closed otherwise.
func (t *Transport) settle(addr string, conn net.Conn, fate connFate) {
	if fate != fateKeep || !t.pool(addr, conn) {
		conn.Close()
	}
}

// pool puts conn on addr's idle list and arms the reaper; false when the
// transport is closed or the list is full.
func (t *Transport) pool(addr string, conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || len(t.idle[addr]) >= t.perPeer {
		return false
	}
	t.idle[addr] = append(t.idle[addr], idleConn{conn: conn, since: time.Now()})
	wireIdle.Add(1)
	if t.reaper == nil {
		t.reaper = time.AfterFunc(t.idleAge, t.reap)
	}
	return true
}

// reap closes the connections that sat idle past idleAge, so that a peer
// nobody talks to any more does not pin descriptors until Close. take does
// its own age check; reaping only has to happen eventually.
func (t *Transport) reap() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reaper = nil
	for addr, conns := range t.idle {
		fresh := conns[:0]
		for _, c := range conns {
			if time.Since(c.since) < t.idleAge {
				fresh = append(fresh, c)
			} else {
				wireIdle.Add(-1)
				c.conn.Close()
			}
		}
		t.setIdle(addr, fresh)
	}
	if len(t.idle) > 0 && !t.closed {
		t.reaper = time.AfterFunc(t.idleAge, t.reap)
	}
}

// Drop closes the idle connections to addr: the owner stopped trusting the
// peer (evicted, deregistered, replaced at a new address).
func (t *Transport) Drop(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeIdle(addr)
}

// closeIdle closes and forgets addr's idle connections. Callers hold t.mu.
func (t *Transport) closeIdle(addr string) {
	for _, c := range t.idle[addr] {
		wireIdle.Add(-1)
		c.conn.Close()
	}
	delete(t.idle, addr)
}

// Close closes every idle connection and stops pooling: exchanges still in
// flight finish and close their own.
func (t *Transport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for addr := range t.idle {
		t.closeIdle(addr)
	}
	if t.reaper != nil {
		t.reaper.Stop()
		t.reaper = nil
	}
}

// ---- the serving side ------------------------------------------------------

// Server is the serving half of the transport: the request loop of one served
// connection, and the set of connections the daemon is currently keeping open
// between requests, so that closing the daemon closes them. The zero value is
// ready to use.
type Server struct {
	mu     sync.Mutex
	kept   map[net.Conn]struct{}
	closed bool
}

// ServeConn serves conn until it is done with: it reads a request
// (negotiating its version), hands it to answer, and — when answer
// reports that it wrote a single response carrying the keep-alive bit — reads
// the next request on the same connection, for up to serveIdleTimeout. answer
// writes to w, the counted connection, and owns its deadlines while it runs.
// Requests decode into scratch: answer must be done with req when it returns.
func (sv *Server) ServeConn(conn net.Conn, answer func(w net.Conn, req *Request, ver int) (keep bool)) {
	defer conn.Close()
	defer sv.untrack(conn)
	cc := CountConn(conn)
	dec := GetFrameDecoder(false)
	defer PutFrameDecoder(dec)
	_ = conn.SetDeadline(time.Now().Add(dialTimeout))
	for {
		req, ver, err := dec.AcceptRequest(cc)
		if err != nil {
			return
		}
		// track fails when the daemon closed while the request was being
		// answered: the peer finds the connection closed and redials.
		if !answer(cc, req, ver) || !sv.track(conn) {
			return
		}
		_ = conn.SetDeadline(time.Now().Add(serveIdleTimeout))
	}
}

// track registers a connection entering (or staying in) keep-alive; false
// once the server is closed.
func (sv *Server) track(conn net.Conn) bool {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed {
		return false
	}
	if sv.kept == nil {
		sv.kept = make(map[net.Conn]struct{})
	}
	sv.kept[conn] = struct{}{}
	return true
}

func (sv *Server) untrack(conn net.Conn) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	delete(sv.kept, conn)
}

// Close closes every kept-alive connection, idle or mid-request, and refuses
// to keep any more: a closed daemon answers nothing on connections it had
// kept open. Connections still on their first request finish it, as they
// always did.
func (sv *Server) Close() {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.closed = true
	for conn := range sv.kept {
		conn.Close()
	}
}

// serve runs the accept loop of a plain request/response agent: every
// request gets handle's one response.
func (sv *Server) serve(ln net.Listener, handle func(*Request) *Response) {
	answer := func(w net.Conn, req *Request, ver int) bool {
		resp := handle(req)
		resp.Version, resp.KeepAlive = ver, req.KeepAlive
		// The handler may have burned wall clock on a loaded box (perf vectors,
		// executor runs); give the write its own fresh deadline.
		_ = w.SetDeadline(time.Now().Add(dialTimeout))
		return WriteResponseFrame(w, resp) == nil && resp.KeepAlive
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go sv.ServeConn(conn, answer)
	}
}

// Serve runs the accept loop of a plain request/response agent until the
// listener closes, then closes the connections it was keeping open. The grid
// scheduler streams on some connections and therefore brings its own answer
// callback to a Server.
func Serve(ln net.Listener, handle func(*Request) *Response) {
	var sv Server
	defer sv.Close()
	sv.serve(ln, handle)
}
