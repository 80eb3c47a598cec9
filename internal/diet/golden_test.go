package diet

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
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
	for ver := ProtocolFloor; ver <= ProtocolVersion; ver++ {
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
// fixture at each negotiable version, encoding must equal the committed
// frame, and decoding the committed frame then re-encoding must reproduce it.
//
// The files under testdata/frames are the wire. Each was written once, by
// the codec of the commit that added it, and is never regenerated: a codec
// change that needs one rewritten is a protocol break and wants a new
// version instead, whose frames are added beside these. CI enforces that
// (scripts/check_sealed_frames.sh); TestGoldenFramesComplete keeps the
// fixtures covering every field, so no layout change can miss them.
func TestGoldenFrames(t *testing.T) {
	frames := goldenFrames()
	versions := ProtocolVersion - ProtocolFloor + 1
	if want := versions * (len(hotRequests()) + len(hotResponses())); len(frames) != want {
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

// TestGoldenFramesComplete makes the golden frames the whole judge of the
// layouts: every type with a wire method must appear in a golden fixture,
// and every field of it — and of the structs it nests — must be non-zero in
// at least one. So a field added to a layout, gated or not, lands in some
// committed frame: TestGoldenFrames catches it moving a sealed version's
// bytes, and the new version's frames pin where it goes. Fields tagged
// json:"-" live only in memory, cross no wire, and are exempt.
func TestGoldenFramesComplete(t *testing.T) {
	wired := wireTypes(t)
	if len(wired) == 0 {
		t.Fatal("found no wire methods in the package source")
	}
	// set[T] holds the fields of wire type T (or a struct one nests) seen
	// non-zero; a key at all means T appeared.
	set := map[reflect.Type]map[string]bool{}
	var walk func(v reflect.Value, inWire bool)
	walk = func(v reflect.Value, inWire bool) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem(), inWire)
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), inWire)
			}
		case reflect.Struct:
			typ := v.Type()
			if inWire = inWire || wired[typ.Name()]; inWire && set[typ] == nil {
				set[typ] = map[string]bool{}
			}
			for i := 0; i < typ.NumField(); i++ {
				if inWire && !v.Field(i).IsZero() {
					set[typ][typ.Field(i).Name] = true
				}
				walk(v.Field(i), inWire)
			}
		}
	}
	for _, g := range goldenFrames() {
		walk(reflect.ValueOf(g.req), false)
		walk(reflect.ValueOf(g.resp), false)
	}
	for typ, nonZero := range set {
		delete(wired, typ.Name())
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Tag.Get("json") != "-" && !nonZero[f.Name] {
				t.Errorf("%s.%s is zero in every golden fixture: add a fixture that sets it", typ, f.Name)
			}
		}
	}
	for name := range wired {
		t.Errorf("%s has a wire method but no golden fixture", name)
	}
}

// wireTypes names the receiver types of the package's wire methods, read
// from its non-test source so a new wire type cannot go unnoticed.
func wireTypes(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Name.Name != "wire" {
					continue
				}
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					out[id.Name] = true
				}
			}
		}
	}
	return out
}
