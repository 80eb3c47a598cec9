package oagrid

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"oagrid/internal/analysis"
	"oagrid/internal/analysis/deterministic"
	"oagrid/internal/analysis/hotpath"
	"oagrid/internal/analysis/typederr"
)

// The module's structural guards. Each one judges the load that
// loadModule shares, by types and import lists rather than by text, so an
// aliased import or a function value cannot slip past it. They judge
// non-test code unless they say otherwise: tests may dial, forge journals
// and call anything.

const (
	storePath = "oagrid/internal/store"
	gridPath  = "oagrid/internal/grid"
)

// TestAnalyzers runs the in-tree analyzers (internal/analysis) over every
// package's non-test files and requires zero findings: determinism hygiene
// in //oalint:deterministic code, allocation hygiene in //oalint:hotpath
// code, and typed errors from the public entry points (typederr). An
// audited exception carries //oalint:allow <analyzer> <reason>.
func TestAnalyzers(t *testing.T) {
	m := loadModule(t)
	for _, p := range m.Pkgs {
		for _, a := range []*analysis.Analyzer{deterministic.Analyzer, hotpath.Analyzer, typederr.Analyzer} {
			err := analysis.Run(a, m.Fset, p, func(d analysis.Diagnostic) {
				t.Errorf("%s: %s: %s", m.at(t, d.Pos), d.Analyzer, d.Message)
			})
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name, p.Path, err)
			}
		}
	}
}

// TestNoOrphanPackages fails on a package under internal/ that no other
// package of the module imports, tests included: a package nothing imports
// is dead weight that still costs review, CI time and refactors. Its own
// tests do not count as importers.
func TestNoOrphanPackages(t *testing.T) {
	m := loadModule(t)
	imported := map[string]bool{}
	for _, p := range m.Pkgs {
		for _, imp := range slices.Concat(p.Imports, p.TestImports, p.XTestImports) {
			if imp != p.Path {
				imported[imp] = true
			}
		}
	}
	for _, p := range m.Pkgs {
		if strings.HasPrefix(p.Path, "oagrid/internal/") && !imported[p.Path] {
			t.Errorf("%s has no importer outside its own tests", p.Path)
		}
	}
}

// TestNoEncodingGob fails on an import of encoding/gob anywhere in the
// module, tests included: the wire has one codec, and the retired second
// one must not creep back.
func TestNoEncodingGob(t *testing.T) {
	m := loadModule(t)
	for _, p := range m.Pkgs {
		if slices.Contains(slices.Concat(p.Imports, p.TestImports, p.XTestImports), "encoding/gob") {
			t.Errorf("%s imports encoding/gob", p.Path)
		}
	}
}

// TestOneLifecycle keeps the campaign lifecycle (journal records, claim,
// cancel, pause, recovery) in internal/grid and nowhere else:
//   - the root package's code does not import the journal;
//   - outside internal/grid and internal/store, no code builds a
//     store.Record or assigns to one of its fields;
//   - what a record does to a campaign is said by campaign.apply, so only
//     internal/grid/campaign.go and internal/store compare or case a
//     store.Kind* constant or a Record's Kind;
//   - internal/store, which groups records without interpreting them, uses
//     no progress frame, in its tests either;
//   - outside bench/, Algorithm 1 (core.Repartition, called or taken as a
//     value) runs only in the lifecycle's round (internal/grid/lifecycle.go)
//     and in Distribute (oagrid.go), so a figure or command that wants a
//     grid makespan runs a campaign.
func TestOneLifecycle(t *testing.T) {
	m := loadModule(t)
	if slices.Contains(m.root.Imports, storePath) {
		t.Errorf("package oagrid imports %s; journaling belongs to internal/grid", storePath)
	}
	for _, p := range m.Pkgs {
		if p.Path != storePath {
			continue
		}
		for _, info := range []*types.Info{p.Info, p.XInfo} {
			if info == nil {
				continue
			}
			for id, obj := range info.Uses {
				if obj.Name() == "ProgressUpdate" {
					t.Errorf("%s: internal/store uses %s; it groups records, campaign.apply interprets them", m.at(t, id.Pos()), objectKey(obj))
				}
			}
		}
	}
	// fold reports a record-kind branch unless it lies in campaign.apply's
	// file or in internal/store.
	fold := func(p *analysis.Package, file string, pos token.Pos) {
		if p.Path != storePath && file != "internal/grid/campaign.go" {
			t.Errorf("%s: journal record interpreted outside campaign.apply (internal/grid/campaign.go)", m.at(t, pos))
		}
	}
	m.inspect(t, func(p *analysis.Package, file, _ string, n ast.Node) {
		journal := p.Path == gridPath || p.Path == storePath
		switch n := n.(type) {
		case *ast.CompositeLit:
			if !journal && isRecord(p.Info.TypeOf(n)) {
				t.Errorf("%s: journal record built outside internal/grid and internal/store", m.at(t, n.Pos()))
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && !journal && recordField(p.Info.Uses[sel.Sel]) {
					t.Errorf("%s: journal record filled outside internal/grid and internal/store", m.at(t, lhs.Pos()))
				}
			}
		case *ast.BinaryExpr:
			if (n.Op == token.EQL || n.Op == token.NEQ) && (isKind(p.Info, n.X) || isKind(p.Info, n.Y)) {
				fold(p, file, n.Pos())
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if isKind(p.Info, e) {
					fold(p, file, e.Pos())
				}
			}
		case *ast.SwitchStmt:
			if n.Tag != nil && isKind(p.Info, n.Tag) {
				fold(p, file, n.Tag.Pos())
			}
		case *ast.Ident:
			if strings.HasPrefix(p.Path, "oagrid/bench/") || file == "internal/grid/lifecycle.go" || file == "oagrid.go" {
				return
			}
			if obj := p.Info.Uses[n]; obj != nil && obj.Pkg() != nil && objectKey(obj) == "oagrid/internal/core.Repartition" {
				t.Errorf("%s: Algorithm 1 used outside the lifecycle's round (internal/grid/lifecycle.go) and Distribute (oagrid.go)", m.at(t, n.Pos()))
			}
		}
	})
}

// isRecord reports whether typ is store.Record.
func isRecord(typ types.Type) bool {
	named, ok := typ.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == storePath && named.Obj().Name() == "Record"
}

// recordField reports whether obj is a field of store.Record.
func recordField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil || v.Pkg().Path() != storePath {
		return false
	}
	rec := v.Pkg().Scope().Lookup("Record").Type().Underlying().(*types.Struct)
	for i := range rec.NumFields() {
		if rec.Field(i) == v {
			return true
		}
	}
	return false
}

// isKind reports whether e names a store.Kind* constant or a Record's Kind.
func isKind(info *types.Info, e ast.Expr) bool {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	switch obj := info.Uses[id].(type) {
	case *types.Const:
		return obj.Pkg() != nil && obj.Pkg().Path() == storePath && strings.HasPrefix(obj.Name(), "Kind")
	case *types.Var:
		return obj.Name() == "Kind" && recordField(obj)
	}
	return false
}

// TestOneDialer keeps every exchange of the protocol, daemon to daemon and
// client to daemon, on the kept-alive transport, which owns dialing,
// pooling, the stale retry and the never-pool-after-abort rule. Outside
// bench/ and internal/diet/transport.go, no code uses a net object whose
// name starts with Dial or a method of net.Dialer: that would be a
// dial-per-request call site creeping back. On the client side every
// exchange reaches the ring members through one walk, so only
// (*grid.Client).walk uses (*grid.Client).candidates.
func TestOneDialer(t *testing.T) {
	m := loadModule(t)
	m.inspect(t, func(p *analysis.Package, file, fn string, n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		obj := p.Info.Uses[id]
		if obj == nil || obj.Pkg() == nil {
			return
		}
		key := objectKey(obj)
		if obj.Pkg().Path() == "net" && (strings.HasPrefix(obj.Name(), "Dial") || strings.HasPrefix(key, "net.Dialer.")) &&
			!strings.HasPrefix(p.Path, "oagrid/bench/") && file != "internal/diet/transport.go" {
			t.Errorf("%s: %s dials outside internal/diet/transport.go; route the exchange through diet.Transport (kept-alive) or diet.RoundTripContext (one-shot)", m.at(t, id.Pos()), key)
		}
		if key == gridPath+".Client.candidates" && fn != gridPath+".Client.walk" {
			t.Errorf("%s: ring walk outside grid.Client.walk; reach the members through walk, with a try that says whether the member answered", m.at(t, id.Pos()))
		}
	})
}

// inspect calls visit on every node of every non-test file of the module,
// with the file's path relative to the module root and the objectKey of the
// top-level function the node lies in ("" outside one).
func (m *loadedModule) inspect(t *testing.T, visit func(p *analysis.Package, file, fn string, n ast.Node)) {
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			file := m.rel(t, f.Pos())
			for _, decl := range f.Decls {
				fn := ""
				if fd, ok := decl.(*ast.FuncDecl); ok && p.Info.Defs[fd.Name] != nil {
					fn = objectKey(p.Info.Defs[fd.Name])
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if n != nil {
						visit(p, file, fn, n)
					}
					return true
				})
			}
		}
	}
}

// rel is the slash-separated path, relative to the module root, of the
// file pos lies in.
func (m *loadedModule) rel(t *testing.T, pos token.Pos) string {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(wd, m.Fset.Position(pos).Filename)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.ToSlash(rel)
}

// at is pos as file:line:column, the file relative to the module root.
func (m *loadedModule) at(t *testing.T, pos token.Pos) string {
	p := m.Fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", m.rel(t, pos), p.Line, p.Column)
}
