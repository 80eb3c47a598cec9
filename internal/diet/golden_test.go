package diet

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenFrame is one fixture stamped with one negotiated version.
type goldenFrame struct {
	name string
	req  *Request
	resp *Response
}

// goldenFrames lists every fixture — the hot layouts and the cold JSON
// envelopes — at every negotiated version this build speaks. The submit
// fixture carries a single label here: Labels is encoded in map-iteration
// order, so two labels have no stable bytes.
func goldenFrames() []goldenFrame {
	var out []goldenFrame
	for ver := ProtocolFloor; ver <= ProtocolVersion; ver++ {
		coldReqs, coldResps := coldEnvelopes()
		for i, req := range append(hotRequests(), coldReqs...) {
			req.Version = ver
			if req.Submit != nil {
				req.Submit.Labels = map[string]string{"team": "ocean"}
			}
			out = append(out, goldenFrame{name: fmt.Sprintf("req%02d-%s.v%d.hex", i, req.Kind, ver), req: req})
		}
		for i, resp := range append(hotResponses(), coldResps...) {
			resp.Version = ver
			out = append(out, goldenFrame{name: fmt.Sprintf("resp%02d-%s.v%d.hex", i, respName(resp), ver), resp: resp})
		}
	}
	return out
}

// respName labels a response fixture's file by the payload it carries: the
// envelope's first non-zero field after Version, lower-cased.
func respName(r *Response) string {
	v := reflect.ValueOf(r).Elem()
	for i := 1; i < v.NumField(); i++ {
		if !v.Field(i).IsZero() {
			return strings.ToLower(v.Type().Field(i).Name)
		}
	}
	return "empty"
}

// TestGoldenFrames compares the codec to committed bytes. Every other codec
// test round-trips through the same build, so a layout change the encoder
// and decoder agree on passes them all; this one does not. For each fixture
// at each negotiable version, encoding must equal the committed frame, and
// decoding the committed frame then re-encoding must reproduce it. Every
// file under testdata/frames must be some fixture's, so a frame left behind
// by a floor raise, or a mistyped name, cannot sit there unjudged.
//
// The files under testdata/frames are the wire. Each was written once, by
// the codec of the commit that added it, and is never regenerated: a codec
// change that needs one rewritten is a protocol break and wants a new
// version instead, whose frames are added beside these. CI enforces that
// (scripts/check_sealed_frames.sh); TestGoldenFramesComplete keeps the
// fixtures covering every field, so no layout change can miss them.
func TestGoldenFrames(t *testing.T) {
	frames := goldenFrames()
	coldReqs, coldResps := coldEnvelopes()
	versions := ProtocolVersion - ProtocolFloor + 1
	if want := versions * (len(hotRequests()) + len(hotResponses()) + len(coldReqs) + len(coldResps)); len(frames) != want {
		t.Fatalf("%d golden fixtures, want %d", len(frames), want)
	}
	named := map[string]bool{}
	for _, g := range frames {
		named[g.name] = true
	}
	files, err := os.ReadDir(filepath.Join("testdata", "frames"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !named[f.Name()] {
			t.Errorf("testdata/frames/%s is no fixture's frame", f.Name())
		}
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

// TestGoldenFramesComplete makes the golden frames the whole judge of the
// wire: every payload type an envelope carries must appear in a golden
// fixture, and every field of it — and of the structs it nests — must be
// non-zero in at least one. So a field added to a hot layout, gated or not,
// lands in some committed frame, and so does a field renamed or added on a
// cold JSON envelope: TestGoldenFrames catches it moving a sealed version's
// bytes, and the new version's frames pin where it goes. Fields tagged
// json:"-" live only in memory, cross no wire, and are exempt.
func TestGoldenFramesComplete(t *testing.T) {
	// set[T] holds the fields of payload type T (or a struct one nests) seen
	// non-zero; a key at all means T appeared.
	set := map[reflect.Type]map[string]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			typ := v.Type()
			if set[typ] == nil {
				set[typ] = map[string]bool{}
			}
			for i := 0; i < typ.NumField(); i++ {
				if !v.Field(i).IsZero() {
					set[typ][typ.Field(i).Name] = true
				}
				walk(v.Field(i))
			}
		}
	}
	// The envelopes themselves are not judged: each frame carries one
	// payload.
	envelope := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			walk(v.Field(i))
		}
	}
	for _, g := range goldenFrames() {
		if g.req != nil {
			envelope(reflect.ValueOf(g.req).Elem())
		} else {
			envelope(reflect.ValueOf(g.resp).Elem())
		}
	}
	for _, env := range []reflect.Type{reflect.TypeFor[Request](), reflect.TypeFor[Response]()} {
		for i := 0; i < env.NumField(); i++ {
			if f := env.Field(i); f.Type.Kind() == reflect.Pointer && set[f.Type.Elem()] == nil {
				t.Errorf("%s.%s: no golden fixture carries a %s", env.Name(), f.Name, f.Type.Elem())
			}
		}
	}
	for typ, nonZero := range set {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Tag.Get("json") != "-" && !nonZero[f.Name] {
				t.Errorf("%s.%s is zero in every golden fixture: add a fixture that sets it", typ, f.Name)
			}
		}
	}
}
