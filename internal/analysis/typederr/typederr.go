// Package typederr guards the errors.Is contracts of the public API. The
// oagrid facade and grid.Client promise that every error they return wraps
// exactly one of the package's typed sentinels (ErrRejected,
// ErrQuotaExceeded, ErrCampaignFailed, ErrProtocol, ErrUnknownCampaign,
// ErrCampaignCancelled, ErrUnreachable, ...) so
// callers branch with errors.Is instead of string-matching messages. That
// contract erodes one fmt.Errorf at a time: a bare, sentinel-free error on
// an exported path compiles, passes tests that only assert err != nil, and
// silently breaks every caller's retry/backoff classification.
//
// This analyzer flags, inside exported error-returning entry points of the
// root oagrid package and exported methods of internal/grid's Client:
//
//   - errors.New calls — a fresh ad-hoc error can never satisfy errors.Is
//     against a published sentinel (declare package-level sentinels in the
//     errors block instead);
//   - fmt.Errorf calls whose format string carries no %w verb — without a
//     wrap directive the result unwraps to nothing.
//
// Deliberately exempt: unexported helpers (they may build the wrapped
// message the exported caller returns) and fmt.Errorf with %w, whatever it
// wraps — wrapping an upstream error or a sentinel are both legitimate.
package typederr

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"oagrid/internal/analysis"
)

// Analyzer is the typederr checker.
var Analyzer = &analysis.Analyzer{
	Name: "typederr",
	Doc:  "flags bare errors.New/fmt.Errorf (no %w) inside exported entry points that promise typed sentinels",
	Run:  run,
}

// Cover maps the covered package paths to the receiver type whose exported
// methods carry the contract there; the empty string covers every exported
// function and method in the package. A var, not a const table, so the
// golden tests can point it at fixture packages.
var Cover = map[string]string{
	"oagrid":               "",
	"oagrid/internal/grid": "Client",
}

func run(pass *analysis.Pass) error {
	recvType, ok := Cover[pass.Pkg.Path()]
	if !ok {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() || !returnsError(pass, fn) {
				continue
			}
			if recvType == "" || receiverTypeName(fn) == recvType {
				checkFunc(pass, fn)
			}
		}
	}
	return nil
}

// returnsError reports whether fn's results include an error.
func returnsError(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Results == nil {
		return false
	}
	for _, field := range fn.Type.Results.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && tv.Type != nil && types.Identical(tv.Type, types.Universe.Lookup("error").Type()) {
			return true
		}
	}
	return false
}

// receiverTypeName returns fn's receiver base type name ("" for functions).
func receiverTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		switch {
		case pkg.Imported().Path() == "errors" && sel.Sel.Name == "New":
			pass.Reportf(call.Pos(), "errors.New inside exported %s breaks the errors.Is contract; wrap a package sentinel with fmt.Errorf(\"...: %%w\", Err...) or declare a new exported sentinel", fn.Name.Name)
		case pkg.Imported().Path() == "fmt" && sel.Sel.Name == "Errorf":
			if len(call.Args) == 0 {
				return true
			}
			format, ok := stringLiteral(call.Args[0])
			if ok && !strings.Contains(format, "%w") {
				pass.Reportf(call.Pos(), "fmt.Errorf without %%w inside exported %s returns an unwrappable error; wrap a package sentinel or the upstream error", fn.Name.Name)
			}
		}
		return true
	})
}

// stringLiteral unquotes a string literal expression.
func stringLiteral(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}
