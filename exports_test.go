package oagrid

import (
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoTestOnlyExports fails on an exported func, method, type, const or
// var of a package under internal/ or cmd/ that neither non-test code nor
// another package's tests use: code only its own tests reach is code to
// read and keep green for nothing. bench/ and examples/ count as users.
//
// Two kinds of method are exempt: one that satisfies an interface method of
// the same name and signature (it is called through the interface), and one
// of a type reachable from package oagrid's exported declarations (the API
// golden judges those).
func TestNoTestOnlyExports(t *testing.T) {
	m := loadModule(t)

	used := map[string]bool{}
	note := func(info *types.Info, self string) {
		for id, obj := range info.Uses {
			if obj.Pkg() == nil || !obj.Exported() {
				continue
			}
			if !m.inTest(id.Pos()) || obj.Pkg().Path() != self {
				used[objectKey(obj)] = true
			}
		}
	}
	ifaces := map[string]bool{"Error() (string)": true}
	seen := map[*types.Package]bool{}
	for _, p := range m.Pkgs {
		note(p.Info, p.Path)
		if p.XInfo != nil {
			note(p.XInfo, p.Path)
		}
		m.interfaceMethods(p.Types, ifaces, seen)
	}
	reachable := map[string]bool{}
	for _, named := range m.rootReachable() {
		reachable[objectKey(named.Obj())] = true
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	report := func(obj types.Object) {
		if !m.inTest(obj.Pos()) && !used[objectKey(obj)] {
			at, _ := filepath.Rel(wd, m.Fset.Position(obj.Pos()).String())
			found = append(found, at+": "+objectKey(obj))
		}
	}
	for _, p := range m.Pkgs {
		rel := strings.TrimPrefix(p.Path, "oagrid/")
		if !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				report(obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || reachable[objectKey(tn)] {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if fn.Exported() && !ifaces[methodKey(fn)] {
					report(fn)
				}
			}
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s is exported, but nothing outside its own package's tests uses it", f)
	}
}

// objectKey names obj the same way whether it was type-checked from source
// or imported from export data: package path, receiver type, name.
func objectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			typ := recv.Type()
			if p, ok := typ.(*types.Pointer); ok {
				typ = p.Elem()
			}
			if named, ok := typ.(*types.Named); ok {
				return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// interfaceMethods adds "name signature" for every method of every named
// interface that non-test code declares in pkg or in anything it imports.
func (m *loadedModule) interfaceMethods(pkg *types.Package, into map[string]bool, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if iface, ok := obj.Type().Underlying().(*types.Interface); ok && !m.inTest(obj.Pos()) {
			for i := 0; i < iface.NumMethods(); i++ {
				into[methodKey(iface.Method(i))] = true
			}
		}
	}
	for _, imp := range pkg.Imports() {
		m.interfaceMethods(imp, into, seen)
	}
}

// methodKey is a method's name and its parameter and result types, without
// parameter names or receiver: what an interface method must match.
func methodKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	list := func(t *types.Tuple) string {
		var parts []string
		for i := 0; i < t.Len(); i++ {
			parts = append(parts, types.TypeString(t.At(i).Type(), (*types.Package).Path))
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	variadic := ""
	if sig.Variadic() {
		variadic = "..."
	}
	return fn.Name() + list(sig.Params()) + variadic + " " + list(sig.Results())
}
