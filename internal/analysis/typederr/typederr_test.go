package typederr_test

import (
	"testing"

	"oagrid/internal/analysis"
	"oagrid/internal/analysis/analysistest"
	"oagrid/internal/analysis/typederr"
)

// fixture is the import path prefix of the fixture packages.
const fixture = "oagrid/internal/analysis/typederr/testdata/src/"

// withCover swaps the coverage table to point at a fixture package.
func withCover(t *testing.T, cover map[string]string) {
	t.Helper()
	saved := typederr.Cover
	typederr.Cover = cover
	t.Cleanup(func() { typederr.Cover = saved })
}

func TestClientReceiverCover(t *testing.T) {
	withCover(t, map[string]string{fixture + "typed": "Client"})
	analysistest.Run(t, "testdata/src/typed", typederr.Analyzer)
}

func TestWholePackageCover(t *testing.T) {
	withCover(t, map[string]string{fixture + "typedall": ""})
	analysistest.Run(t, "testdata/src/typedall", typederr.Analyzer)
}

func TestUncoveredPackageIsSkipped(t *testing.T) {
	withCover(t, map[string]string{"some/other/path": ""})
	// The typed fixture is full of violations; with no cover entry for its
	// path the analyzer must stay silent. The want-comment harness cannot
	// express "expect nothing despite the comments", so run directly.
	fset, pkg := analysistest.Load(t, "testdata/src/typed")
	var got []analysis.Diagnostic
	if err := analysis.Run(typederr.Analyzer, fset, pkg, func(d analysis.Diagnostic) { got = append(got, d) }); err != nil {
		t.Fatalf("running typederr: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("typederr reported %d diagnostics on an uncovered package; want 0", len(got))
	}
}
