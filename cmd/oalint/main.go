// Command oalint is the repo's static-analysis driver: it runs the
// deterministic, hotpath and typederr analyzers (see internal/analysis)
// over the module and reports findings one per line as
//
//	path/to/file.go:line:col: analyzer: message
//
// exiting 1 when anything is found and 2 when a package fails to load.
//
// Standalone mode (what CI runs):
//
//	go run ./cmd/oalint ./...
//
// Patterns are go-style: a plain directory, or dir/... for a recursive
// walk; the default is ./... over the whole module. oalint locates the
// enclosing go.mod and chdirs there first, because the stdlib source
// importer resolves module-internal imports through the go command, which
// is cwd-sensitive.
//
// Vet-tool mode: oalint also speaks the cmd/go vet-tool protocol
// (-V=full, -flags, and a trailing vet.cfg argument), so
//
//	go vet -vettool=$(pwd)/bin/oalint ./...
//
// works too. In that mode cmd/go drives one invocation per package; test
// packages are skipped (the analyzers govern non-test code).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"oagrid/internal/analysis"
	"oagrid/internal/analysis/deterministic"
	"oagrid/internal/analysis/hotpath"
	"oagrid/internal/analysis/typederr"
)

// version is the -V=full answer; cmd/go hashes it into its action cache
// key, so bump it when analyzer behavior changes.
const version = "1.1.0"

// analyzers is the suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	deterministic.Analyzer,
	hotpath.Analyzer,
	typederr.Analyzer,
}

func main() {
	versionFlag := flag.String("V", "", "print version and exit (cmd/go passes -V=full)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON and exit (cmd/go protocol)")
	flag.Usage = usage
	flag.Parse()

	switch {
	case *versionFlag != "":
		// Shape required by cmd/go's buildid probe: "<name> version <ver>".
		fmt.Printf("oalint version %s\n", version)
		return
	case *flagsFlag:
		// No tool-specific flags; cmd/go wants a JSON array either way.
		fmt.Println("[]")
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vetToolMode(args[0]))
	}
	os.Exit(standaloneMode(args))
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: oalint [packages]\n\nAnalyzers:\n")
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, firstLine(a.Doc))
	}
	fmt.Fprintf(os.Stderr, "\nSuppress one finding with //oalint:allow <analyzer> <reason> on or above its line.\n")
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// standaloneMode analyzes the module packages matching patterns.
func standaloneMode(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	root, err := analysis.ModuleRoot(cwd)
	if err != nil {
		return fail(err)
	}
	// The source importer shells out to the go command for module-internal
	// import resolution, which only works from inside the module.
	if err := os.Chdir(root); err != nil {
		return fail(err)
	}
	loader := analysis.NewLoader()
	pkgs, err := loader.Load(root, patterns)
	if err != nil {
		return fail(err)
	}
	var diags []string
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			err := analysis.Run(a, pkg, func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				file := pos.Filename
				if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = rel
				}
				diags = append(diags, fmt.Sprintf("%s:%d:%d: %s: %s", file, pos.Line, pos.Column, d.Analyzer, d.Message))
			})
			if err != nil {
				return fail(fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err))
			}
		}
	}
	sort.Strings(diags)
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "oalint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// vetConfig is the subset of cmd/go's vet.cfg oalint consumes.
type vetConfig struct {
	ID         string
	Dir        string
	ImportPath string
	GoFiles    []string
	VetxOnly   bool
	VetxOutput string
}

// vetToolMode handles one per-package invocation from go vet -vettool.
func vetToolMode(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return fail(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fail(fmt.Errorf("oalint: parsing %s: %w", cfgPath, err))
	}
	// cmd/go caches analysis facts through this file; oalint keeps no
	// cross-package facts, but the file must exist for the cache entry.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("oalint\n"), 0o666); err != nil {
			return fail(err)
		}
	}
	// "Only compute vetx data; don't report detected problems."
	if cfg.VetxOnly {
		return 0
	}
	// Test variants (ID "pkg [pkg.test]" or _test.go files) are out of
	// scope: the invariants govern shipped code.
	if strings.Contains(cfg.ID, " [") {
		return 0
	}
	for _, f := range cfg.GoFiles {
		if strings.HasSuffix(f, "_test.go") {
			return 0
		}
	}
	pkg, err := analysis.NewLoader().LoadDir(cfg.Dir, cfg.ImportPath)
	if err != nil {
		return fail(err)
	}
	count := 0
	for _, a := range analyzers {
		runErr := analysis.Run(a, pkg, func(d analysis.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			fmt.Fprintf(os.Stderr, "%s:%d:%d: %s: %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
			count++
		})
		if runErr != nil {
			return fail(fmt.Errorf("%s on %s: %w", a.Name, cfg.ImportPath, runErr))
		}
	}
	if count > 0 {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 2
}
