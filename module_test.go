package oagrid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"testing"
)

// loadedModule is every package of the module type-checked from source,
// tests included, against the compiler's export data of its imports (the
// output of `go list -export -deps`). It is loaded once per test binary and
// shared by the API golden and the test-only-exports guard.
type loadedModule struct {
	fset *token.FileSet
	pkgs []*loadedPkg // sorted by import path
	root *loadedPkg
}

// loadedPkg is one package of the module. types and info cover its own
// files and its in-package tests; xinfo covers its external test package,
// if it has one.
type loadedPkg struct {
	path  string
	types *types.Package
	info  *types.Info
	xinfo *types.Info
}

type listedPkg struct {
	ImportPath, Dir, Export            string
	GoFiles, TestGoFiles, XTestGoFiles []string
	TestImports, XTestImports          []string
	DepOnly                            bool
}

var (
	moduleOnce sync.Once
	module     *loadedModule
	moduleErr  error
)

// loadModule returns the type-checked module, failing t if it cannot load.
func loadModule(t *testing.T) *loadedModule {
	t.Helper()
	moduleOnce.Do(func() { module, moduleErr = typeCheckModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

// goList runs `go list -export -deps -json` over args.
func goList(args ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,TestGoFiles,XTestGoFiles,TestImports,XTestImports,DepOnly"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func typeCheckModule() (*loadedModule, error) {
	listed, err := goList("./...")
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var mine []listedPkg
	for _, p := range listed {
		exports[p.ImportPath] = p.Export
		if !p.DepOnly {
			mine = append(mine, p)
		}
	}
	// Tests may import packages the build does not.
	var missing []string
	for _, p := range mine {
		for _, imp := range append(p.TestImports, p.XTestImports...) {
			if _, ok := exports[imp]; !ok && imp != "C" {
				exports[imp] = ""
				missing = append(missing, imp)
			}
		}
	}
	if len(missing) > 0 {
		more, err := goList(missing...)
		if err != nil {
			return nil, err
		}
		for _, p := range more {
			exports[p.ImportPath] = p.Export
		}
	}

	m := &loadedModule{fset: token.NewFileSet()}
	imp := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	check := func(path, dir string, names []string) (*types.Package, *types.Info, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(m.fset, dir+"/"+name, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(path, m.fset, files, info)
		return pkg, info, err
	}
	for _, p := range mine {
		lp := &loadedPkg{path: p.ImportPath}
		if lp.types, lp.info, err = check(p.ImportPath, p.Dir, append(p.GoFiles, p.TestGoFiles...)); err != nil {
			return nil, err
		}
		if len(p.XTestGoFiles) > 0 {
			if _, lp.xinfo, err = check(p.ImportPath+"_test", p.Dir, p.XTestGoFiles); err != nil {
				return nil, err
			}
		}
		m.pkgs = append(m.pkgs, lp)
		if p.ImportPath == "oagrid" {
			m.root = lp
		}
	}
	sort.Slice(m.pkgs, func(i, j int) bool { return m.pkgs[i].path < m.pkgs[j].path })
	if m.root == nil {
		return nil, fmt.Errorf("go list ./... did not list package oagrid")
	}
	return m, nil
}

// inTest reports whether pos lies in a _test.go file.
func (m *loadedModule) inTest(pos token.Pos) bool {
	f := m.fset.File(pos)
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
			if obj.Pkg() != m.root.types {
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
	scope := m.root.types.Scope()
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
