package analysis

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
	"path/filepath"
	"sort"
	"strings"
)

// Module is the set of packages one Load call named, type-checked from
// source against the compiler's export data of everything they import (the
// output of `go list -export -deps`), so no dependency is type-checked
// twice and the standard library is never type-checked at all.
type Module struct {
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path
}

// Package is one loaded package. Files are its build-selected non-test
// files, the ones go build compiles and the analyzers judge. Types and Info
// cover them and the package's in-package _test.go files. XInfo records the
// uses of its external test package, if it has one. The import lists are go
// list's.
type Package struct {
	Path                               string
	Files                              []*ast.File
	Types                              *types.Package
	Info                               *types.Info
	XInfo                              *types.Info
	Imports, TestImports, XTestImports []string
}

type listedPkg struct {
	ImportPath, Dir, Export            string
	GoFiles, TestGoFiles, XTestGoFiles []string
	Imports, TestImports, XTestImports []string
	DepOnly                            bool
}

// goList runs `go list -export -deps -json` over patterns in the current
// directory.
func goList(patterns ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,TestGoFiles,XTestGoFiles,Imports,TestImports,XTestImports,DepOnly"}, patterns...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.Bytes())
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

// Load parses and type-checks the packages that the go-style patterns name
// (relative to the current directory, which must lie inside the module),
// tests included. Comments are kept, for the //oalint: directives.
func Load(patterns ...string) (*Module, error) {
	listed, err := goList(patterns...)
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

	m := &Module{Fset: token.NewFileSet()}
	imp := importer.ForCompiler(m.Fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	parse := func(dir string, names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}
	for _, p := range mine {
		lp := &Package{Path: p.ImportPath, Imports: p.Imports, TestImports: p.TestImports, XTestImports: p.XTestImports}
		if lp.Files, err = parse(p.Dir, p.GoFiles); err != nil {
			return nil, err
		}
		tests, err := parse(p.Dir, p.TestGoFiles)
		if err != nil {
			return nil, err
		}
		lp.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		files := append(append([]*ast.File(nil), lp.Files...), tests...)
		if lp.Types, err = (&types.Config{Importer: imp}).Check(p.ImportPath, m.Fset, files, lp.Info); err != nil {
			return nil, err
		}
		if len(p.XTestGoFiles) > 0 {
			xfiles, err := parse(p.Dir, p.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			lp.XInfo = &types.Info{Uses: map[*ast.Ident]types.Object{}}
			if _, err := (&types.Config{Importer: imp}).Check(p.ImportPath+"_test", m.Fset, xfiles, lp.XInfo); err != nil {
				return nil, err
			}
		}
		m.Pkgs = append(m.Pkgs, lp)
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
	return m, nil
}

// Run applies one analyzer to the non-test files of one loaded package,
// sending non-suppressed diagnostics to report.
func Run(a *Analyzer, fset *token.FileSet, pkg *Package, report func(Diagnostic)) error {
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		report:    report,
	}
	buildSuppressions(pass)
	return a.Run(pass)
}
