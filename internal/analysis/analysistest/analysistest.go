// Package analysistest runs an analyzer over golden fixture packages and
// checks its diagnostics against // want comments — the same contract as
// golang.org/x/tools/go/analysis/analysistest, restated over the repo's
// dependency-free analysis framework.
//
// A fixture file marks each expected diagnostic on the line it occurs:
//
//	for k := range m { // want `deterministic: map iteration`
//
// The quoted (or backquoted) want argument is a regexp matched against the
// analyzer's message for a diagnostic reported on that line. Several want
// arguments on one line expect several diagnostics. Lines without a want
// comment must produce no diagnostics.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"oagrid/internal/analysis"
)

// wantRe pulls the quoted regexp arguments off a want comment.
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type key struct {
	file string
	line int
}

// Load loads the one fixture package in dir through analysis.Load, so a
// fixture has its real import path.
func Load(t *testing.T, dir string) (*token.FileSet, *analysis.Package) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	m, err := analysis.Load(abs)
	if err != nil {
		t.Fatalf("analysistest: loading %s: %v", dir, err)
	}
	if len(m.Pkgs) != 1 {
		t.Fatalf("analysistest: %s holds %d packages, want 1", dir, len(m.Pkgs))
	}
	return m.Fset, m.Pkgs[0]
}

// Run loads the fixture package in dir and applies a to it, comparing
// diagnostics against the fixture's want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	fset, pkg := Load(t, dir)

	// Collect the expectations.
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				k := key{file: pos.Filename, line: pos.Line}
				for _, q := range wantRe.FindAllString(rest, -1) {
					expr := strings.Trim(q, "`")
					if strings.HasPrefix(q, `"`) {
						expr = strings.ReplaceAll(q[1:len(q)-1], `\"`, `"`)
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want regexp %s: %v", pos, q, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	// Run the analyzer.
	var got []analysis.Diagnostic
	if err := analysis.Run(a, fset, pkg, func(d analysis.Diagnostic) { got = append(got, d) }); err != nil {
		t.Fatalf("analysistest: running %s on %s: %v", a.Name, dir, err)
	}

	// Match diagnostics against expectations.
	matched := map[key][]bool{}
	for k, res := range wants {
		matched[k] = make([]bool, len(res))
	}
	for _, d := range got {
		pos := fset.Position(d.Pos)
		k := key{file: pos.Filename, line: pos.Line}
		ok := false
		for i, re := range wants[k] {
			if !matched[k][i] && re.MatchString(d.Message) {
				matched[k][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s: %s", pos, a.Name, d.Message)
		}
	}
	var missing []string
	for k, res := range wants {
		for i, hit := range matched[k] {
			if !hit {
				missing = append(missing, fmt.Sprintf("%s:%d: no diagnostic matching %q", k.file, k.line, res[i].String()))
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s", m)
	}
}
