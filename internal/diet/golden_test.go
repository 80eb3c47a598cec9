package diet

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenFrame is one hot fixture stamped with one negotiated version.
type goldenFrame struct {
	name string
	req  *Request
	resp *Response
}

// goldenFrames lists every hotRequests/hotResponses fixture at every
// negotiated version this build speaks. The submit fixture carries a single
// label here: Labels is encoded in map-iteration order, so two labels have
// no stable bytes.
func goldenFrames() []goldenFrame {
	var out []goldenFrame
	for ver := ProtocolV4; ver <= ProtocolVersion; ver++ {
		for i, req := range hotRequests() {
			req.Version = ver
			if req.Submit != nil {
				req.Submit.Labels = map[string]string{"team": "ocean"}
			}
			out = append(out, goldenFrame{name: fmt.Sprintf("req%02d-%s.v%d.hex", i, req.Kind, ver), req: req})
		}
		for i, resp := range hotResponses() {
			resp.Version = ver
			out = append(out, goldenFrame{name: fmt.Sprintf("resp%02d-%s.v%d.hex", i, respName(resp), ver), resp: resp})
		}
	}
	return out
}

// respName labels a response fixture's file by the payload it carries.
func respName(r *Response) string {
	switch {
	case r.Err != "":
		return "err"
	case r.Submit != nil:
		return "submit"
	case r.Exec != nil:
		return "exec"
	case r.Perf != nil:
		return "perf"
	case r.Heartbeat != nil:
		return "heartbeat"
	case r.Attach != nil:
		return "attach"
	case r.Progress != nil:
		return "progress"
	default:
		return "result"
	}
}

// TestGoldenFrames compares the codec to committed bytes. Every other codec
// test round-trips through the same build, so a layout change the encoder
// and decoder agree on passes them all; this one does not. For each hot
// fixture at each of v4-v7, encoding must equal the committed frame, and
// decoding the committed frame then re-encoding must reproduce it.
//
// The files under testdata/frames were written by the hand-written codec of
// commit 37b907c (PR 17), the last one before the layouts moved into the
// per-type wire methods. They are the wire: a codec change that needs them
// regenerated is a protocol break and wants a new version instead, whose
// frames are added beside these.
func TestGoldenFrames(t *testing.T) {
	frames := goldenFrames()
	if want := 4 * (len(hotRequests()) + len(hotResponses())); len(frames) != want {
		t.Fatalf("%d golden fixtures, want %d", len(frames), want)
	}
	for _, g := range frames {
		text, err := os.ReadFile(filepath.Join("testdata", "frames", g.name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		hdr, payload, err := ParseFrame(want)
		if err != nil {
			t.Fatalf("%s: committed frame does not parse: %v", g.name, err)
		}
		dec := &FrameDecoder{Retain: true}
		var got, again []byte
		if g.req != nil {
			got, err = AppendRequestFrame(nil, g.req)
			if err == nil {
				var back *Request
				if back, err = dec.DecodeRequestFrame(hdr, payload); err == nil {
					again, err = AppendRequestFrame(nil, back)
				}
			}
		} else {
			got, err = AppendResponseFrame(nil, g.resp)
			if err == nil {
				var back *Response
				if back, err = dec.DecodeResponseFrame(hdr, payload); err == nil {
					again, err = AppendResponseFrame(nil, back)
				}
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding moved off the committed wire:\n got % x\nwant % x", g.name, got, want)
		}
		if !bytes.Equal(again, want) {
			t.Errorf("%s: decode + re-encode of the committed frame:\n got % x\nwant % x", g.name, again, want)
		}
	}
}
