package diet

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bytes at the full binary decode path —
// header parse, then request AND response payload decode under both
// ownership modes — and demands it never panics, never accepts an
// oversized length prefix with anything but ErrFrameTooLarge, and only
// ever fails with the package's typed errors. Seed corpus: every golden
// fixture, hot and cold, plus classic corruptions.
func FuzzDecodeFrame(f *testing.F) {
	for _, g := range goldenFrames() {
		var frame []byte
		var err error
		if g.req != nil {
			frame, err = AppendRequestFrame(nil, g.req)
		} else {
			frame, err = AppendResponseFrame(nil, g.resp)
		}
		if err == nil {
			f.Add(frame)
		}
	}
	// Hostile shapes: bad magic, short header, oversized length prefix,
	// huge collection counts, truncations.
	f.Add([]byte{})
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Add(frameMagic[:])
	f.Add([]byte{0xF7, 'O', 'A', '4', ProtocolFloor, fkExecResp, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0xF7, 'O', 'A', '4', ProtocolFloor, fkSubmitReq, 0, 0, 8, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	for _, frame := range hostileLengthFrames() {
		f.Add(frame)
	}
	if frame, err := AppendResponseFrame(nil, hotResponses()[8]); err == nil { // campaign result
		f.Add(frame[:len(frame)-3])
		mid := append([]byte{}, frame...)
		mid[frameHeaderSize+9] ^= 0x80
		f.Add(mid)
	}

	// Below the floor: header versions 0-6 over a well-formed payload, and
	// what a retired gob peer opens a connection with.
	if frame, err := AppendRequestFrame(nil, hotRequests()[0]); err == nil {
		for ver := byte(0); ver < ProtocolFloor; ver++ {
			f.Add(restamp(frame, ver))
		}
	}
	f.Add(gobRequestPrefix)

	// The submit cut inside its key, its last field; and restamped one
	// version below the floor, which must fail as below the floor.
	if frame, err := AppendRequestFrame(nil, hotRequests()[0]); err == nil {
		f.Add(frame[:len(frame)-5])
		old := restamp(frame, ProtocolFloor-1)
		if _, _, err := ParseFrame(old); !errors.Is(err, errVersionTooOld) {
			f.Fatalf("submit restamped v%d: got %v, want the below-the-floor error", ProtocolFloor-1, err)
		}
		f.Add(old)
	}

	typed := func(t *testing.T, err error) {
		if err == nil || errors.Is(err, ErrBadFrame) || errors.Is(err, ErrFrameTooLarge) {
			return
		}
		t.Fatalf("untyped decode error: %v", err)
	}

	scratch := &FrameDecoder{}
	retained := &FrameDecoder{Retain: true}
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, payload, err := ParseFrame(data)
		if err != nil {
			if hdr.Length > MaxFramePayload && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("oversized length prefix %d rejected with %v, want ErrFrameTooLarge", hdr.Length, err)
			}
			typed(t, err)
		} else {
			for _, d := range []*FrameDecoder{scratch, retained} {
				if _, rerr := d.DecodeRequestFrame(hdr, payload); rerr != nil {
					typed(t, rerr)
				}
				if _, rerr := d.DecodeResponseFrame(hdr, payload); rerr != nil {
					typed(t, rerr)
				}
			}
		}
		// The streaming reader must agree with the in-memory parser and
		// tolerate arbitrary prefixes of the same input (short reads).
		if _, rerr := scratch.ReadResponse(bytes.NewReader(data)); rerr != nil &&
			!errors.Is(rerr, ErrBadFrame) && !errors.Is(rerr, ErrFrameTooLarge) {
			// io errors (EOF, unexpected EOF) are fine for truncated input;
			// anything else typed is fine too — panics are the only failure.
			_ = rerr
		}
	})
}
