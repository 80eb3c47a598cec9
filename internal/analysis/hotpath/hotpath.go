// Package hotpath is the source-level half of the repo's zero-allocation
// discipline. The wire codec, the progress fan-out and the queue-position
// path are pinned at 0 allocs/op by benchmarks and TestZeroAllocHotKinds —
// but a benchmark only fails after the regression ships and only on the
// inputs it measures. This analyzer flags the allocating constructs most
// often introduced by casual edits inside functions marked //oalint:hotpath:
//
//   - fmt.Sprint/Sprintf/Sprintln/Append* calls: every call boxes its
//     arguments into ...any and allocates the result. (fmt.Errorf is
//     deliberately exempt — error paths are off the hot path by
//     definition, and typederr governs their shape instead.)
//   - string concatenation with + / +=, which allocates per evaluation.
//   - function literals, whose captures escape to the heap; hoist the
//     closure or restructure (sync.Once-style cached closures belong in a
//     cold constructor, not a marked function).
//   - append to a slice the function declared empty (var s []T or
//     s := []T{}) and never sized: growth reallocates along the way;
//     preallocate with make(cap) or reuse a scratch buffer.
//   - explicit conversions to an interface type, which box the operand.
//
// Deliberate cold-fallback allocations inside a hot function (a scratch
// buffer growing to a new high-water mark, an intern-table miss) carry an
// //oalint:allow hotpath <reason> suppression at the call site, keeping
// each one a reviewed decision instead of an accident.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"oagrid/internal/analysis"
)

// Analyzer is the hotpath checker.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "flags allocating constructs (fmt.Sprint*, string concat, closures, un-capped appends, interface boxing) in //oalint:hotpath code",
	Run:  run,
}

// sprintFamily lists the allocating fmt formatters (Errorf exempt; see the
// package comment).
var sprintFamily = map[string]bool{
	"Sprint": true, "Sprintf": true, "Sprintln": true,
	"Append": true, "Appendf": true, "Appendln": true,
}

func run(pass *analysis.Pass) error {
	for _, fn := range pass.MarkedFuncs(analysis.DirectiveHotpath) {
		checkFunc(pass, fn)
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	uncapped := emptySlices(pass, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n, uncapped)
		case *ast.BinaryExpr:
			// Constant folds ("a" + "b") cost nothing at run time.
			if n.Op == token.ADD && isString(pass, n.X) && !isConst(pass, n) {
				pass.Reportf(n.OpPos, "string concatenation allocates on a hot path; append into a reused []byte instead")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass, n.Lhs[0]) {
				pass.Reportf(n.TokPos, "string += allocates on a hot path; append into a reused []byte instead")
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal on a hot path captures to the heap; hoist it to a declaration or a struct field")
			return false // the literal's body is not itself marked
		}
		return true
	})
}

// checkCall flags fmt.Sprint* calls, interface-boxing conversions and
// appends to never-sized local slices.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, uncapped map[types.Object]bool) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && pkg.Imported().Path() == "fmt" && sprintFamily[fun.Sel.Name] {
				pass.Reportf(call.Pos(), "fmt.%s allocates (formatting state + boxed arguments) on a hot path; use strconv or append helpers", fun.Sel.Name)
			}
		}
	case *ast.Ident:
		if fun.Name == "append" && len(call.Args) > 0 {
			if id, ok := call.Args[0].(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && uncapped[obj] {
					pass.Reportf(call.Pos(), "append to %s grows an un-capped fresh slice on a hot path; preallocate with make(len 0, cap) or reuse a scratch buffer", id.Name)
				}
			}
		}
	}
	// Interface boxing through an explicit conversion: T(x) where T is an
	// interface and x is concrete.
	if len(call.Args) == 1 {
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && types.IsInterface(tv.Type) {
			if atv, ok := pass.TypesInfo.Types[call.Args[0]]; ok && atv.Type != nil && !types.IsInterface(atv.Type) {
				pass.Reportf(call.Pos(), "conversion to %s boxes its operand on a hot path", types.ExprString(call.Fun))
			}
		}
	}
}

// emptySlices collects the function's local slice variables declared with
// no backing array (var s []T, s := []T{}) that are never re-made with a
// capacity, the targets of the un-capped-append check.
func emptySlices(pass *analysis.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	empty := map[types.Object]bool{}
	sized := map[types.Object]bool{}
	note := func(id *ast.Ident, rhs ast.Expr) {
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
			return
		}
		switch r := rhs.(type) {
		case nil:
			empty[obj] = true // var s []T
		case *ast.CompositeLit:
			if len(r.Elts) == 0 {
				empty[obj] = true // s := []T{}
			} else {
				sized[obj] = true
			}
		default:
			sized[obj] = true // make(...), a call result, a slice expr, ...
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						var rhs ast.Expr
						if i < len(vs.Values) {
							rhs = vs.Values[i]
						}
						note(name, rhs)
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				// `s = append(s, ...)` must not count as re-sizing s.
				if call, ok := n.Rhs[i].(*ast.CallExpr); ok {
					if fid, ok := call.Fun.(*ast.Ident); ok && fid.Name == "append" {
						continue
					}
				}
				note(id, n.Rhs[i])
			}
		}
		return true
	})
	for obj := range sized {
		delete(empty, obj)
	}
	return empty
}

// isConst reports whether e folded to a compile-time constant.
func isConst(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// isString reports whether e's static type is (an alias of) string.
func isString(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}
