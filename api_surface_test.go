package oagrid

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiGolden is the committed snapshot of the package's exported surface.
// The gate exists so a future PR cannot silently break the v1 client API:
// any change to an exported type, function, method, constant or variable of
// package oagrid fails this test until the snapshot is regenerated —
// deliberately — with:
//
//	UPDATE_API_SURFACE=1 go test -run TestAPISurfaceGolden .
const apiGolden = "testdata/api_surface.golden"

// TestAPISurfaceGolden renders every exported declaration of the package
// (comment-free, sorted), then every module type those declarations reach
// through aliases, fields and signatures, and compares it against the
// committed snapshot.
func TestAPISurfaceGolden(t *testing.T) {
	got := renderAPISurface(t) + renderReachable(loadModule(t))
	if os.Getenv("UPDATE_API_SURFACE") != "" {
		if err := os.MkdirAll(filepath.Dir(apiGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", apiGolden)
		return
	}
	want, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatalf("missing API snapshot (run with UPDATE_API_SURFACE=1 to create it): %v", err)
	}
	if string(want) == got {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	seen := make(map[string]bool, len(wantLines))
	for _, l := range wantLines {
		seen[l] = true
	}
	for _, l := range gotLines {
		if !seen[l] {
			t.Errorf("surface gained: %s", l)
		}
	}
	seen = make(map[string]bool, len(gotLines))
	for _, l := range gotLines {
		seen[l] = true
	}
	for _, l := range wantLines {
		if !seen[l] {
			t.Errorf("surface lost: %s", l)
		}
	}
	t.Fatalf("exported API surface changed; review the diff above and, if intended, regenerate with UPDATE_API_SURFACE=1 go test -run TestAPISurfaceGolden .")
}

// renderAPISurface parses the package in the current directory and prints
// its exported declarations, one per block, sorted.
func renderAPISurface(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["oagrid"]
	if !ok {
		t.Fatalf("package oagrid not found; parsed %v", pkgs)
	}

	var blocks []string
	render := func(node any) string {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, node); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	// Deterministic file order: map iteration must not reorder specs that
	// share a name prefix.
	files := make([]string, 0, len(pkg.Files))
	for name := range pkg.Files {
		files = append(files, name)
	}
	sort.Strings(files)

	for _, name := range files {
		for _, decl := range pkg.Files[name].Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedRecv(d.Recv) {
					continue
				}
				d.Doc, d.Body = nil, nil
				blocks = append(blocks, render(d))
			case *ast.GenDecl:
				d.Doc = nil
				var specs []ast.Spec
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							s.Doc, s.Comment = nil, nil
							stripUnexportedFields(s.Type)
							specs = append(specs, s)
						}
					case *ast.ValueSpec:
						exported := false
						for _, n := range s.Names {
							exported = exported || n.IsExported()
						}
						if exported {
							s.Doc, s.Comment = nil, nil
							specs = append(specs, s)
						}
					}
				}
				if len(specs) == 0 {
					continue
				}
				d.Specs = specs
				blocks = append(blocks, render(d))
			}
		}
	}
	sort.Strings(blocks)
	return strings.Join(blocks, "\n\n") + "\n"
}

// renderReachable prints, for each module type reachable from the package's
// exported declarations, its exported fields and its exported method set:
// what a caller of oagrid can name or call through an alias such as Grid.
func renderReachable(m *loadedModule) string {
	var b strings.Builder
	for _, named := range m.rootReachable() {
		fmt.Fprintf(&b, "\ntype %s", typeName(named))
		switch u := named.Underlying().(type) {
		case *types.Struct:
			b.WriteString(" struct\n")
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() {
					fmt.Fprintf(&b, "\t%s %s\n", f.Name(), typeName(f.Type()))
				}
			}
		case *types.Interface:
			b.WriteString(" interface\n")
		default:
			fmt.Fprintf(&b, " %s\n", typeName(u))
		}
		ms := types.NewMethodSet(types.NewPointer(named))
		if types.IsInterface(named) {
			ms = types.NewMethodSet(named)
		}
		for i := 0; i < ms.Len(); i++ {
			fn := ms.At(i).Obj().(*types.Func)
			if !fn.Exported() {
				continue
			}
			sig := fn.Type().(*types.Signature)
			recv := ""
			if r := sig.Recv(); r != nil && !types.IsInterface(named) {
				recv = "(" + typeName(r.Type()) + ") "
			}
			fmt.Fprintf(&b, "\tfunc %s%s%s\n", recv, fn.Name(), strings.TrimPrefix(typeName(sig), "func"))
		}
	}
	return b.String()
}

// stripUnexportedFields removes unexported struct fields from a type
// expression: they are implementation detail, not API, and keeping them in
// the snapshot would trip the gate on pure refactors.
func stripUnexportedFields(typ ast.Expr) {
	st, ok := typ.(*ast.StructType)
	if !ok || st.Fields == nil {
		return
	}
	var kept []*ast.Field
	for _, f := range st.Fields.List {
		exported := len(f.Names) == 0 // embedded: keep; its name is its type
		for _, n := range f.Names {
			exported = exported || n.IsExported()
		}
		if exported {
			f.Doc, f.Comment = nil, nil
			kept = append(kept, f)
		}
	}
	st.Fields.List = kept
}

// exportedRecv reports whether a receiver (nil for plain functions) names
// an exported type.
func exportedRecv(recv *ast.FieldList) bool {
	if recv == nil {
		return true
	}
	if len(recv.List) != 1 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch t := typ.(type) {
		case *ast.StarExpr:
			typ = t.X
		case *ast.IndexExpr:
			typ = t.X
		case *ast.Ident:
			return t.IsExported()
		default:
			return false
		}
	}
}
