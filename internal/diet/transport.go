// The transport: every place this package's protocol touches a socket.
//
// One exchange is one request frame out and its answer back, under a
// per-frame deadline and a context. Most requests are answered by one frame;
// a submit that waits for its result and an attach are streams — a verdict,
// progress frames, a result — read one frame at a time from a Stream. Two
// shapes share the exchange:
//
//   - Kept-alive: a Transport keeps the connection of a finished exchange idle
//     and hands it to the next exchange with the same peer. Daemons use it for
//     everything they say to each other (scheduler→SeD perf and exec, SeD
//     heartbeats, ring pings, segment pulls, a ring member's local stats and
//     lists), and clients for their campaign streams and control requests,
//     which would otherwise pay a TCP handshake and a teardown per request.
//   - One-shot: RoundTrip and RoundTripContext dial, make one exchange and
//     close.
//
// Keep-alive is HTTP/1.1-style, not a multiplexer: a connection carries one
// exchange at a time, so there are no request IDs and nothing to reorder. It
// is negotiated per exchange in the frame header (flagKeepAlive): the
// requester sets the bit when it would reuse the connection, the responder
// echoes it on the exchange's last frame only if it will read another
// request, and only a last frame that carried the bit lets the connection be
// pooled. A peer that predates the bit writes zero and closes, and is served
// exactly as before.
//
// The rules that keep reuse correct:
//
//   - A pool belongs to its owner (a Scheduler, a SeD, a ring member, a
//     client), never to the process: closing the owner closes its idle
//     connections, and a daemon drops a peer's connections when it stops
//     trusting the peer.
//   - A requester lets a connection idle for at most maxIdleAge, a quarter of
//     the serveIdleTimeout the responder waits, so it never writes into a
//     connection the responder is about to close.
//   - Every request is safe to send twice: a submit carries its key (the
//     scheduler admits a key once), an attach only reads, and everything else
//     is a pure read or evaluation, or (cancel) converges. So a request that
//     fails on a pooled connection before the first byte of an answer, and
//     not by timeout or cancellation — the peer had closed it: a restart, an
//     idle close — goes out once more, to the same peer, on a fresh dial. A timeout is not retried: the peer is alive and silent,
//     which is the caller's to judge.
//   - A connection whose context abort fired (or may have) is closed, never
//     pooled: its deadline lies in the past and would fail the next exchange.
//     So is a stream left before its last frame.
//   - A closed daemon takes no new request: Server tracks the connections it
//     keeps idle between requests and Close closes them; a request already
//     being answered — a SeD's exec, a client's campaign stream — is
//     finished, and its connection closed after it.
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

// RoundTrip dials addr, sends req and decodes the single response, with the
// protocol's default deadline, announcing this build's protocol version when
// the caller left it unset. It is the one-shot primitive.
func RoundTrip(addr string, req *Request) (*Response, error) {
	return RoundTripContext(context.Background(), addr, req, dialTimeout)
}

// RoundTripContext is RoundTrip with a deadline d for the whole exchange,
// under a context: cancelling ctx aborts the dial and unblocks an in-flight
// read or write immediately. One connection, one request frame out, one
// response frame back, closed. Nothing is retried here.
func RoundTripContext(ctx context.Context, addr string, req *Request, d time.Duration) (*Response, error) {
	return (*Transport)(nil).RoundTrip(ctx, addr, req, d)
}

// dial opens a counted connection to addr. Its error wraps the dialer's
// *net.OpError (Op "dial"), which is how Unsent knows nothing was sent.
func dial(ctx context.Context, addr string, d time.Duration) (net.Conn, error) {
	dialer := net.Dialer{Timeout: d}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("diet: dialing %s: %w", addr, err)
	}
	wireDials.Add(1)
	return CountConn(conn), nil
}

// Unsent reports whether err, from an exchange, failed before any byte of
// the request could have reached the peer: the dial failed, and no pooled
// connection had carried the request before it. Such a request may go to
// another peer; any other failed one may have been read.
func Unsent(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

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

// ---- the requesting side: a pool of idle connections ----------------------

// Transport is a kept-alive requester: an exchange goes out on an idle
// connection to the peer when the transport holds one, on a fresh dial
// otherwise, and leaves its connection for the next exchange when the peer
// agrees. Safe for concurrent use; each connection carries one exchange at a
// time, so the number of open connections to a peer is the number of
// concurrent exchanges with it, of which at most perPeer stay idle
// afterwards. A nil *Transport is the one-shot shape: every exchange dials
// and closes.
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

// RoundTrip sends req to addr and returns its single response, within d and
// under ctx, on a kept-alive connection. An answer
// carrying an error payload is returned as a *RemoteError.
func (t *Transport) RoundTrip(ctx context.Context, addr string, req *Request, d time.Duration) (*Response, error) {
	var st Stream
	resp, err := t.open(ctx, addr, req, d, &st)
	if err != nil {
		return nil, err
	}
	st.Close()
	if resp.Err != "" {
		return nil, &RemoteError{Kind: req.Kind, Msg: resp.Err}
	}
	return resp, nil
}

// Stream is one exchange whose answer may run to several frames: the
// request is out and its first answer frame read (OpenStream), Next reads
// each further one within the stream's per-frame deadline, and Close ends
// the exchange — keeping the connection for the next one only when the last
// frame read carried the keep-alive bit and the context never fired. Frames
// decode retained: they outlive the stream.
type Stream struct {
	t    *Transport
	addr string
	ctx  context.Context
	d    time.Duration
	conn net.Conn // counted
	dec  *FrameDecoder
	stop func() bool // disarms the ctx abort; nil when ctx cannot end
	ask  bool        // the request set the keep-alive bit
	keep bool        // ...and the last frame read echoed it
}

// OpenStream sends req to addr and reads the first frame of its answer,
// each within d and under ctx: cancelling ctx unblocks whatever read or
// write is in progress, for the life of the stream. The request rides a
// kept-alive connection, and goes out once more on a fresh dial when the
// pooled one turns out stale before the first byte of that frame. The frame
// is returned as read, error payload included; the caller owns the stream
// and must Close it.
func (t *Transport) OpenStream(ctx context.Context, addr string, req *Request, d time.Duration) (*Stream, *Response, error) {
	st := new(Stream)
	resp, err := t.open(ctx, addr, req, d, st)
	if err != nil {
		return nil, nil, err
	}
	return st, resp, nil
}

// open is OpenStream into a caller-provided stream.
func (t *Transport) open(ctx context.Context, addr string, req *Request, d time.Duration, st *Stream) (*Response, error) {
	if req.Version == 0 {
		req.Version = ProtocolVersion
	}
	req.KeepAlive = t != nil
	var staleErr error
	if req.KeepAlive {
		if conn := t.take(addr); conn != nil {
			resp, stale, err := st.start(ctx, t, addr, conn, req, d)
			if !stale {
				return resp, err
			}
			// The peer had closed the pooled connection, most likely before
			// the request reached a handler: it goes out again, once, on a
			// fresh one.
			staleErr = err
		}
	}
	conn, err := dial(ctx, addr, d)
	if err != nil {
		if t != nil && ctx.Err() == nil {
			t.Drop(addr) // the peer is gone: its idle connections are stale too
		}
		if staleErr != nil {
			// The request did go out, on the stale connection: report that,
			// so the caller cannot take it for a request never sent.
			return nil, fmt.Errorf("%w (resending: %v)", staleErr, err)
		}
		return nil, err
	}
	if t != nil {
		t.dials.Add(1)
	}
	resp, _, err := st.start(ctx, t, addr, conn, req, d)
	return resp, err
}

// start makes the exchange's opening moves on conn: deadline, the ctx
// abort — armed after the deadline, so the deadline cannot overwrite it —
// the request, and the first answer frame. On failure the connection is
// closed, and stale reports that no byte of an answer arrived and the cause
// was neither a timeout nor ctx.
func (st *Stream) start(ctx context.Context, t *Transport, addr string, conn net.Conn, req *Request, d time.Duration) (resp *Response, stale bool, err error) {
	*st = Stream{t: t, addr: addr, ctx: ctx, d: d, conn: conn, ask: req.KeepAlive}
	if err := conn.SetDeadline(time.Now().Add(d)); err != nil {
		conn.Close()
		return nil, false, err
	}
	if ctx.Done() != nil {
		st.stop = context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Unix(1, 0)) })
	}
	st.dec = GetFrameDecoder(true)
	failed := func(doing string, cause error) (*Response, bool, error) {
		st.keep = false
		st.Close()
		switch {
		case ctx.Err() != nil:
			return nil, false, ctx.Err()
		case unanswered(cause):
			return nil, true, fmt.Errorf("diet: %s %s: %w", doing, addr, cause)
		}
		return nil, false, fmt.Errorf("diet: %s %s: %w", doing, addr, cause)
	}
	if err := WriteRequestFrame(conn, req); err != nil {
		return failed("encoding "+req.Kind+" request to", err)
	}
	if resp, err = st.dec.ReadResponse(conn); err != nil {
		return failed("decoding "+req.Kind+" response from", err)
	}
	st.keep = st.ask && resp.KeepAlive
	return resp, false, nil
}

// Addr is the peer the stream talks to.
func (st *Stream) Addr() string { return st.addr }

// Next reads the stream's next frame. The deadline is refreshed before the
// read, so a stream lives as long as the peer keeps talking; ctx is checked
// after the refresh, so a cancellation that landed before it is seen here
// and one that lands later forces its past deadline over the refreshed one.
func (st *Stream) Next() (*Response, error) {
	st.keep = false
	_ = st.conn.SetDeadline(time.Now().Add(st.d))
	if err := st.ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := st.dec.ReadResponse(st.conn)
	if err != nil {
		if st.ctx.Err() != nil {
			return nil, st.ctx.Err()
		}
		return nil, fmt.Errorf("diet: decoding response from %s: %w", st.addr, err)
	}
	st.keep = st.ask && resp.KeepAlive
	return resp, st.ctx.Err()
}

// Close ends the exchange: the connection goes back to the transport's pool
// when the last frame read carried the keep-alive bit, the ctx abort never
// fired, and there is room; it is closed otherwise.
func (st *Stream) Close() {
	keep := st.keep
	if st.stop != nil && !st.stop() {
		keep = false
	}
	if !keep || st.t == nil || !st.t.pool(st.addr, st.conn) {
		st.conn.Close()
	}
	PutFrameDecoder(st.dec)
	st.dec = nil
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
// connection, and the set of connections the daemon is keeping idle between
// requests, so that closing the daemon closes them. The zero value is ready
// to use.
type Server struct {
	mu     sync.Mutex
	idle   map[net.Conn]struct{}
	closed bool
}

// ServeConn serves conn until it is done with: it reads a request
// (negotiating its version), hands it to answer, and — when answer
// reports that it wrote its last frame carrying the keep-alive bit — reads
// the next request on the same connection, for up to serveIdleTimeout. answer
// writes to w, the counted connection, and owns its deadlines while it runs.
// Requests decode into scratch: answer must be done with req when it returns.
func (sv *Server) ServeConn(conn net.Conn, answer func(w net.Conn, req *Request, ver int) (keep bool)) {
	defer conn.Close()
	defer sv.wake(conn) // leaves the idle set for good
	cc := CountConn(conn)
	dec := GetFrameDecoder(false)
	defer PutFrameDecoder(dec)
	_ = conn.SetDeadline(time.Now().Add(dialTimeout))
	for {
		req, ver, err := dec.AcceptRequest(cc)
		// wake fails once the daemon is closed: a request read after Close
		// is never answered, and the peer finds the connection closed.
		if err != nil || !sv.wake(conn) {
			return
		}
		if !answer(cc, req, ver) || !sv.rest(conn) {
			return
		}
		_ = conn.SetDeadline(time.Now().Add(serveIdleTimeout))
	}
}

// rest registers a connection going idle to wait for its next request;
// false once the server is closed.
func (sv *Server) rest(conn net.Conn) bool {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed {
		return false
	}
	if sv.idle == nil {
		sv.idle = make(map[net.Conn]struct{})
	}
	sv.idle[conn] = struct{}{}
	return true
}

// wake takes a connection out of the idle set, its request about to be
// answered; false once the server is closed.
func (sv *Server) wake(conn net.Conn) bool {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	delete(sv.idle, conn)
	return !sv.closed
}

// Close closes every idle connection and refuses to answer or keep any more:
// a closed daemon takes no new request, on a new connection or on one it
// had kept open. A request already being answered finishes, and its
// connection closes after it.
func (sv *Server) Close() {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.closed = true
	for conn := range sv.idle {
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
