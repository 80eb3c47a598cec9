// Package framegate enforces the wire protocol's version-gating invariant
// in internal/diet's binary codec — the compile-time gate for the incident
// class behind protocol v5: PR 7 appended SubmitResponse.Code to the
// fkSubmitResp frame unconditionally, which broke every mixed-version
// submit in both directions against the strict trailing-bytes decoder, and
// had to be retrofitted behind a `>= ProtocolV5` guard (the fix that became
// protocol v5).
//
// The codec states each hot payload's layout once, in that type's
// `wire(*coder)` method, which both encodes and decodes. The analyzer checks
// every such method against a committed wire schema (schema.go) that knows,
// per payload type, the base (v4) fields and the version-gated fields with
// their minimum negotiated version. Within a wire method it flags:
//
//   - a schema-gated field coded without its `c.ver >= ProtocolVN` guard —
//     the exact v5 Code bug;
//   - a field that is in neither the base layout nor the gated set —
//     a brand-new ungated frame field, the bug about to be reintroduced;
//   - a gate at another version than the schema's, or a gated field the
//     schema does not know;
//   - a base-layout field moved under a version guard (old peers would
//     stop receiving it) and a base or gated field that vanished from the
//     method entirely (old peers would mis-parse what remains);
//   - a wire method for a type the schema does not list.
//
// Changing the wire layout therefore takes two deliberate edits — the wire
// method and the schema — and the schema diff is the reviewable statement
// of what the frame now says on the wire.
package framegate

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"oagrid/internal/analysis"
)

// Analyzer is the framegate checker.
var Analyzer = &analysis.Analyzer{
	Name: "framegate",
	Doc:  "flags frame fields coded without their negotiated-version gate in the binary codec's wire methods",
	Run:  run,
}

// ref is one field reference inside a wire method.
type ref struct {
	field string // "Type.Field"
	gate  int    // 0 = unconditional, else the guard's minimum version
	pos   token.Pos
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil || fn.Name.Name != "wire" {
				continue
			}
			if payload, ok := namedStruct(pass.TypesInfo.TypeOf(fn.Recv.List[0].Type)); ok {
				var refs []ref
				collect(pass, fn.Body, 0, &refs)
				enforce(pass, payload, fn.Pos(), refs)
			}
		}
	}
	return nil
}

// collect records every wire-struct field n touches, tracking the active
// version gate: the body of `if c.ver >= ProtocolVN` is gated at N,
// everything else inherits.
func collect(pass *analysis.Pass, n ast.Node, gate int, refs *[]ref) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			v := guardVersion(pass, n.Cond)
			if v == 0 {
				return true
			}
			collect(pass, n.Body, v, refs)
			if n.Else != nil {
				collect(pass, n.Else, gate, refs)
			}
			return false
		case *ast.SelectorExpr:
			if s, ok := pass.TypesInfo.Selections[n]; ok && s.Kind() == types.FieldVal {
				if owner, ok := namedStruct(s.Recv()); ok && !Schema.Ignore[owner] {
					*refs = append(*refs, ref{field: owner + "." + n.Sel.Name, gate: gate, pos: n.Sel.Pos()})
				}
			}
		}
		return true
	})
}

// namedStruct unwraps one pointer and reports the named struct type's name.
func namedStruct(t types.Type) (string, bool) {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return "", false
	}
	return named.Obj().Name(), true
}

// guardVersion recognizes a negotiated-version guard: a condition with a
// conjunct `<version> >= <const>`, where the left side is an identifier or
// field named ver or version and the right side an integer constant
// (ProtocolVN or a literal). Returns the version, or 0 when the condition
// guards something else.
func guardVersion(pass *analysis.Pass, cond ast.Expr) int {
	version := 0
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || version != 0 {
			return version == 0
		}
		if be.Op != token.GEQ || !isVersionExpr(be.X) {
			return true
		}
		tv, ok := pass.TypesInfo.Types[be.Y]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
			return true
		}
		if v, ok := constant.Int64Val(tv.Value); ok && v > 0 {
			version = int(v)
		}
		return version == 0
	})
	return version
}

// isVersionExpr matches the codec's version spellings: `ver`, `c.ver`,
// `hdr.Version`.
func isVersionExpr(e ast.Expr) bool {
	name := ""
	switch e := e.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	}
	name = strings.ToLower(name)
	return name == "ver" || name == "version"
}

// enforce checks one wire method's field references against the schema.
func enforce(pass *analysis.Pass, payload string, anchor token.Pos, refs []ref) {
	base, baseKnown := Schema.Base[payload]
	gated := Schema.Gated[payload]
	if !baseKnown {
		pass.Reportf(anchor, "%s has a wire layout but is not in the committed framegate schema (internal/analysis/framegate/schema.go); new payload types must be added there deliberately", payload)
		return
	}
	baseSet := map[string]bool{}
	for _, f := range base {
		baseSet[f] = true
	}
	seen := map[string]bool{}
	for _, r := range refs {
		seen[r.field] = true // present, even if misgated: don't also report it missing
		switch want := gated[r.field]; {
		case r.gate == 0 && baseSet[r.field], r.gate > 0 && r.gate == want:
		case r.gate == 0 && want > 0:
			pass.Reportf(r.pos, "%s is a v%d field of %s coded without its negotiated-version gate; wrap it in `if c.ver >= ProtocolV%d` — this is the protocol-v5 SubmitResponse.Code bug pattern", r.field, want, payload, want)
		case r.gate == 0:
			pass.Reportf(r.pos, "%s is not part of %s's committed wire layout; an ungated new frame field breaks every pre-existing peer (the v5 Code incident) — gate it behind the next protocol version and add it to the framegate schema", r.field, payload)
		case want > 0:
			pass.Reportf(r.pos, "%s is gated at v%d here but the schema pins it to v%d; peers negotiate on the schema's version", r.field, r.gate, want)
		case baseSet[r.field]:
			pass.Reportf(r.pos, "%s is part of %s's base layout but sits behind a v%d gate; pre-v%d peers would stop receiving it and mis-parse the rest of the frame", r.field, payload, r.gate, r.gate)
		default:
			pass.Reportf(r.pos, "%s is version-gated but absent from the framegate schema; add it to Gated[%q] at v%d", r.field, payload, r.gate)
		}
	}
	for _, f := range base {
		if !seen[f] {
			pass.Reportf(anchor, "%s's base-layout field %s is no longer coded; removing or reordering base fields breaks every existing peer (update the schema only with a protocol bump)", payload, f)
		}
	}
	missing := make([]string, 0, len(gated))
	for f := range gated {
		if !seen[f] {
			missing = append(missing, f)
		}
	}
	sort.Strings(missing)
	for _, f := range missing {
		pass.Reportf(anchor, "%s's gated field %s (v%d) is missing its guarded coding; peers at or above v%d expect it", payload, f, gated[f], gated[f])
	}
}
