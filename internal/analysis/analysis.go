// Package analysis is the repo's static-analysis framework: a deliberate,
// dependency-free mirror of the golang.org/x/tools/go/analysis API shape,
// built on go/ast + go/types only. The repo carries no third-party modules
// (and its CI images build offline), so the x/tools driver stack is out of
// reach — but the Analyzer/Pass/Diagnostic contract is small enough to
// restate exactly, which keeps every checker source-compatible with the
// upstream API should the dependency ever become available.
//
// The analyzers themselves live in subpackages (deterministic, hotpath,
// typederr). Load is the one loader: the root package's TestAnalyzers runs
// every analyzer over the module with it, and analysistest, the
// golden-fixture harness, loads each fixture with it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. The shape matches
// golang.org/x/tools/go/analysis.Analyzer for the fields this repo uses.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //oalint:allow
	// suppressions. By convention it is a single lowercase word.
	Name string
	// Doc is the analyzer's help text; the first line is its summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one analyzed package through an Analyzer.Run invocation.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report receives every non-suppressed diagnostic.
	report func(Diagnostic)
	// suppress maps file -> line -> analyzer names allowed on that line
	// (built once per package from //oalint:allow comments).
	suppress map[string]map[int]map[string]bool
}

// Diagnostic is one finding, positioned at Pos.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a diagnostic unless an //oalint:allow comment on the same
// line (or the line above) names this analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if lines, ok := p.suppress[position.Filename]; ok {
		for _, ln := range [2]int{position.Line, position.Line - 1} {
			if names, ok := lines[ln]; ok && (names[p.Analyzer.Name] || names["all"]) {
				return
			}
		}
	}
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}
