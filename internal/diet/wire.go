package diet

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"unsafe"
)

// ---- wire accounting ------------------------------------------------------

var (
	wireTxBytes  atomic.Uint64
	wireRxBytes  atomic.Uint64
	wireTxFrames atomic.Uint64
	wireRxFrames atomic.Uint64
	wireRefused  atomic.Uint64
	wireDials    atomic.Uint64
	wireReused   atomic.Uint64
	wireIdle     atomic.Int64
)

// WireCounters is a snapshot of the process-wide transport counters: bytes
// on every counted connection, frames at every encode and decode site. The
// load injector diffs two snapshots to report wire rates.
type WireCounters struct {
	BytesTx  uint64
	BytesRx  uint64
	FramesTx uint64
	FramesRx uint64
	// Refused counts served connections closed because the peer opened with
	// something other than the frame magic or stamped a version below
	// ProtocolFloor (see FrameDecoder.AcceptRequest).
	Refused uint64
	// Dials counts every connection the process opened to speak the
	// protocol: the transport is its only dialer, so this covers daemons'
	// and clients' kept-alive Transports — campaign streams included — and
	// one-shot round trips alike. Reused counts exchanges a Transport
	// started on an idle connection instead of dialing. IdleConns is a
	// gauge: connections sitting idle in Transport pools right now.
	Dials     uint64
	Reused    uint64
	IdleConns int64
}

// WireStats snapshots the transport counters.
func WireStats() WireCounters {
	return WireCounters{
		BytesTx:  wireTxBytes.Load(),
		BytesRx:  wireRxBytes.Load(),
		FramesTx: wireTxFrames.Load(),
		FramesRx: wireRxFrames.Load(),
		Refused:  wireRefused.Load(),

		Dials:     wireDials.Load(),
		Reused:    wireReused.Load(),
		IdleConns: wireIdle.Load(),
	}
}

type countingConn struct{ net.Conn }

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	wireRxBytes.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	wireTxBytes.Add(uint64(n))
	return n, err
}

// CountConn wraps a connection so its traffic lands in the wire counters.
// Wrap once per connection, not per operation.
func CountConn(conn net.Conn) net.Conn { return countingConn{conn} }

// ---- pooled buffers and decoders ------------------------------------------

// maxPooledBuf bounds what goes back in the pools: one giant campaign result
// should not pin megabytes of scratch on every P forever.
const maxPooledBuf = 1 << 20

type frameBuf struct{ b []byte }

var bufPool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 4096)} }}

//oalint:hotpath
func getBuf() *frameBuf { return bufPool.Get().(*frameBuf) }

//oalint:hotpath
func putBuf(fb *frameBuf) {
	if cap(fb.b) > maxPooledBuf {
		return
	}
	fb.b = fb.b[:0]
	bufPool.Put(fb)
}

var decPool = sync.Pool{New: func() any { return &FrameDecoder{} }}

// GetFrameDecoder borrows a pooled decoder. Retain selects the ownership
// mode (see FrameDecoder); pass false only when every decoded value is
// consumed before the next Read/Decode call.
func GetFrameDecoder(retain bool) *FrameDecoder {
	d := decPool.Get().(*FrameDecoder)
	d.Retain = retain
	return d
}

// PutFrameDecoder returns a decoder to the pool. The caller must be done
// with every scratch-mode value the decoder handed out. A decoder that one
// giant frame grew past maxPooledBuf — read buffer and scratch arenas
// together — goes back empty: its scratch structs still point into the
// arenas, so dropping less would keep them pinned.
func PutFrameDecoder(d *FrameDecoder) {
	pinned := uintptr(cap(d.payload)) +
		uintptr(cap(d.ints))*unsafe.Sizeof(int(0)) +
		uintptr(cap(d.floats))*unsafe.Sizeof(float64(0)) +
		uintptr(cap(d.planned))*unsafe.Sizeof(PlannedChunk{}) +
		uintptr(cap(d.reports))*unsafe.Sizeof(ExecResponse{})
	if pinned > maxPooledBuf {
		*d = FrameDecoder{}
	}
	decPool.Put(d)
}

// ---- frame I/O ------------------------------------------------------------

// readFrame reads one whole frame into the decoder's scratch buffer. The
// returned payload is valid until the next readFrame on this decoder.
//
//oalint:hotpath
func (d *FrameDecoder) readFrame(r io.Reader) (FrameHeader, []byte, error) {
	if _, err := io.ReadFull(r, d.hdr[:]); err != nil {
		return FrameHeader{}, nil, err
	}
	h, err := parseFrameHeader(d.hdr[:])
	if err != nil {
		return h, nil, err
	}
	if cap(d.payload) < int(h.Length) {
		d.payload = make([]byte, h.Length)
	}
	p := d.payload[:h.Length]
	if _, err := io.ReadFull(r, p); err != nil {
		return h, nil, fmt.Errorf("%w: reading %d-byte payload: %v", ErrBadFrame, h.Length, err)
	}
	wireRxFrames.Add(1)
	return h, p, nil
}

// ReadRequest reads and decodes one request frame.
//
//oalint:hotpath
func (d *FrameDecoder) ReadRequest(r io.Reader) (*Request, error) {
	h, p, err := d.readFrame(r)
	if err != nil {
		return nil, err
	}
	return d.DecodeRequestFrame(h, p)
}

// ReadResponse reads and decodes one response frame.
//
//oalint:hotpath
func (d *FrameDecoder) ReadResponse(r io.Reader) (*Response, error) {
	h, p, err := d.readFrame(r)
	if err != nil {
		return nil, err
	}
	return d.DecodeResponseFrame(h, p)
}

// WriteRequestFrame encodes req through a pooled buffer and writes it as a
// single frame.
//
//oalint:hotpath
func WriteRequestFrame(w io.Writer, req *Request) error {
	fb := getBuf()
	defer putBuf(fb)
	b, err := AppendRequestFrame(fb.b[:0], req)
	if err != nil {
		return err
	}
	fb.b = b
	if _, err := w.Write(b); err != nil {
		return err
	}
	wireTxFrames.Add(1)
	return nil
}

// WriteResponseFrame encodes resp through a pooled buffer and writes it as
// a single frame.
//
//oalint:hotpath
func WriteResponseFrame(w io.Writer, resp *Response) error {
	fb := getBuf()
	defer putBuf(fb)
	b, err := AppendResponseFrame(fb.b[:0], resp)
	if err != nil {
		return err
	}
	fb.b = b
	if _, err := w.Write(b); err != nil {
		return err
	}
	wireTxFrames.Add(1)
	return nil
}

// WriteRawFrame writes an already-encoded frame (the serialize-once replay
// path: one encode shared by every subscriber).
//
//oalint:hotpath
func WriteRawFrame(w io.Writer, frame []byte) error {
	if _, err := w.Write(frame); err != nil {
		return err
	}
	wireTxFrames.Add(1)
	return nil
}
