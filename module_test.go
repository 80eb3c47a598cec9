package oagrid

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"

	"oagrid/internal/analysis"
)

// loadedModule is every package of the module, tests included, loaded once
// per test binary by analysis.Load and shared by the API golden and the
// structural guards.
type loadedModule struct {
	*analysis.Module
	root *analysis.Package
}

var (
	moduleOnce sync.Once
	module     *loadedModule
	moduleErr  error
)

// loadModule returns the type-checked module, failing t if it cannot load.
func loadModule(t *testing.T) *loadedModule {
	t.Helper()
	moduleOnce.Do(func() {
		m, err := analysis.Load("./...")
		if err != nil {
			moduleErr = err
			return
		}
		module = &loadedModule{Module: m}
		for _, p := range m.Pkgs {
			if p.Path == "oagrid" {
				module.root = p
			}
		}
		if module.root == nil {
			moduleErr = fmt.Errorf("go list ./... did not list package oagrid")
		}
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

// inTest reports whether pos lies in a _test.go file.
func (m *loadedModule) inTest(pos token.Pos) bool {
	f := m.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// inModule reports whether pkg is one of the module's packages.
func inModule(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "oagrid" || strings.HasPrefix(pkg.Path(), "oagrid/"))
}

// rootReachable returns the module's named types, other than the root
// package's own, that a user of package oagrid can reach from its exported
// declarations: through aliases, exported fields, signatures and method
// sets.
func (m *loadedModule) rootReachable() []*types.Named {
	seen := map[*types.TypeName]bool{}
	var out []*types.Named
	var walk func(types.Type)
	walk = func(typ types.Type) {
		switch t := types.Unalias(typ).(type) {
		case *types.Named:
			obj := t.Origin().Obj()
			if !inModule(obj.Pkg()) || seen[obj] {
				return
			}
			seen[obj] = true
			if obj.Pkg() != m.root.Types {
				out = append(out, t.Origin())
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
			walk(t.Origin().Underlying())
			ms := types.NewMethodSet(types.NewPointer(t.Origin()))
			for i := 0; i < ms.Len(); i++ {
				if ms.At(i).Obj().Exported() {
					walk(ms.At(i).Type())
				}
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	scope := m.root.Types.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() && !m.inTest(obj.Pos()) {
			walk(obj.Type())
		}
	}
	sort.Slice(out, func(i, j int) bool { return typeName(out[i]) < typeName(out[j]) })
	return out
}

// relQualifier names module packages by their path inside the module and
// every other package by its import path.
func relQualifier(pkg *types.Package) string {
	return strings.TrimPrefix(pkg.Path(), "oagrid/")
}

func typeName(t types.Type) string { return types.TypeString(t, relQualifier) }
