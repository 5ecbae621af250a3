package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file holds the shared machinery of the performance-contract
// analyzers (hotalloc, poolcheck, obsguard; DESIGN.md §13): the
// //perf:<marker> annotation family, observability-guard recognition,
// and the cold-region (guarded probe blocks, error exits) classifier
// that both the call-graph walker and the per-construct checks use.

// perfMarkers enumerates the valid //perf: annotation markers.
//
//	//perf:hot <reason>        — on a func decl: the function is a hot
//	                             root; hotness propagates to module-local
//	                             callees (see callgraph.go).
//	//perf:cold <reason>       — on a func decl: stop propagation here;
//	                             the function runs off the steady state
//	                             (constructors, per-run setup).
//	//perf:alloc-ok <reason>   — exempts one statement from hotalloc.
//	//perf:pool-ok <reason>    — exempts one Get site from poolcheck.
//	//perf:obsguard-ok <reason> — exempts one probe call from obsguard.
//
// Reasons are mandatory, exactly like the //det:*-ok family.
var perfMarkers = map[string]bool{
	"hot":         true,
	"cold":        true,
	"alloc-ok":    true,
	"pool-ok":     true,
	"obsguard-ok": true,
}

// perfAnn is one parsed //perf: comment.
type perfAnn struct {
	Marker string
	Reason string
	Line   int
	Pos    token.Pos
}

// perfAnnotationsFor collects every //perf: comment in the file, valid
// or not — perfannot validates them, the other analyzers consume the
// well-formed ones.
func perfAnnotationsFor(fset *token.FileSet, file *ast.File) []perfAnn {
	var out []perfAnn
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//perf:")
			if !ok {
				continue
			}
			marker := rest
			reason := ""
			if i := strings.IndexAny(rest, " \t"); i >= 0 {
				marker, reason = rest[:i], strings.TrimSpace(rest[i:])
			}
			out = append(out, perfAnn{
				Marker: marker,
				Reason: reason,
				Line:   fset.Position(c.Pos()).Line,
				Pos:    c.Pos(),
			})
		}
	}
	return out
}

// perfByLine filters the file's annotations down to one marker, in the
// same line-keyed shape the //det: machinery uses.
func perfByLine(anns []perfAnn, marker string) annotations {
	a := annotations{byLine: map[int]string{}}
	for _, ann := range anns {
		if ann.Marker == marker {
			a.byLine[ann.Line] = ann.Reason
		}
	}
	return a
}

// exemptPerf reports whether node carries a //perf:<marker> annotation on
// its line or the line above; an annotation without a reason is itself a
// finding, mirroring the //det:*-ok behavior.
func (p *Pass) exemptPerf(ann annotations, node ast.Node, marker string) bool {
	reason, ok := ann.at(p.Fset.Position(node.Pos()).Line)
	if !ok {
		return false
	}
	if reason == "" {
		p.Reportf(node.Pos(), "//perf:%s annotation requires a reason", marker)
	}
	return true
}

// perfFuncAnn returns the hot/cold annotation attached to a function
// declaration: a //perf:hot or //perf:cold line inside the decl's doc
// comment or on the line directly above the declaration.
func perfFuncAnn(fset *token.FileSet, anns []perfAnn, decl *ast.FuncDecl) (marker, reason string, ok bool) {
	declLine := fset.Position(decl.Pos()).Line
	lo := declLine - 1
	if decl.Doc != nil {
		if docLine := fset.Position(decl.Doc.Pos()).Line; docLine < lo {
			lo = docLine
		}
	}
	for _, ann := range anns {
		if ann.Marker != "hot" && ann.Marker != "cold" {
			continue
		}
		if ann.Line >= lo && ann.Line <= declLine {
			return ann.Marker, ann.Reason, true
		}
	}
	return "", "", false
}

// spanSet is a set of source intervals.
type spanSet struct {
	spans [][2]token.Pos
}

func (s *spanSet) add(lo, hi token.Pos) {
	s.spans = append(s.spans, [2]token.Pos{lo, hi})
}

// contains reports whether pos falls inside any recorded interval.
func (s *spanSet) contains(pos token.Pos) bool {
	for _, sp := range s.spans {
		if sp[0] <= pos && pos <= sp[1] {
			return true
		}
	}
	return false
}

// obsValueType reports whether t is (a pointer to) a named type belonging
// to the observability layer: any type from a package named "obs"
// (TraceBuilder, Ledger, Occupancy, ...), or an engine-local sink named
// Trace (sim.Trace carries the event log; the fixtures mirror it with a
// local Trace).
func obsValueType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if pkg := obj.Pkg(); pkg != nil && pkg.Name() == "obs" {
		return true
	}
	return obj.Name() == "Trace"
}

// obsBoolGuards collects, in source order, the bool variables and fields
// of a package whose assigned value is an observability enablement check:
// `tracing := n.Trace != nil`, or a flag set once per run, such as
// `r.observed = n.Trace != nil || n.Timeline != nil`, that then guards the
// probes in every method of the run.
func obsBoolGuards(info *types.Info, files []*ast.File) map[types.Object]bool {
	guards := map[types.Object]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if sel, isSel := lhs.(*ast.SelectorExpr); isSel {
					id, ok = sel.Sel, true
				}
				if !ok || id.Name == "_" || !obsGuardCond(info, guards, as.Rhs[i]) {
					continue
				}
				if obj := info.Defs[id]; obj != nil {
					guards[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					guards[obj] = true
				}
			}
			return true
		})
	}
	return guards
}

// obsGuardCond reports whether cond is an observability enablement
// check: a nil comparison of an obs-typed value, a bool variable or field
// previously derived from one, a negation of either, or a
// conjunction/disjunction with at least one qualifying side
// (`tracer != nil && depth > 3`).
func obsGuardCond(info *types.Info, guards map[types.Object]bool, cond ast.Expr) bool {
	switch e := unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ:
			lnil := info.Types[e.X].IsNil()
			rnil := info.Types[e.Y].IsNil()
			if lnil && !rnil {
				return obsValueType(info.TypeOf(e.Y))
			}
			if rnil && !lnil {
				return obsValueType(info.TypeOf(e.X))
			}
			return false
		case token.LAND, token.LOR:
			return obsGuardCond(info, guards, e.X) || obsGuardCond(info, guards, e.Y)
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return obsGuardCond(info, guards, e.X)
		}
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil && guards[obj] {
			return true
		}
	case *ast.SelectorExpr:
		if obj := info.Uses[e.Sel]; obj != nil && guards[obj] {
			return true
		}
	}
	return false
}

// errorExitBlock reports whether the statement list ends the enclosing
// block on an error path: a return whose final result is a non-nil
// error, or a panic. Allocations and probe calls on such paths are off
// the steady state and exempt from the performance checks.
func errorExitBlock(info *types.Info, list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		if len(last.Results) == 0 {
			return false
		}
		res := last.Results[len(last.Results)-1]
		tv := info.Types[res]
		if tv.IsNil() {
			return false
		}
		if tv.Type == nil {
			return false
		}
		return types.AssignableTo(tv.Type, errorType)
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
	}
	return false
}

var errorType = types.Universe.Lookup("error").Type()

// regions are the spans of a function body that the performance
// analyzers and the call-graph walker treat as off the hot steady state:
//
//   - guards: bodies of observability guards (`if tracer != nil { ... }`,
//     or a test of one of the package's guards, see obsBoolGuards) — work
//     there only runs when a sink is attached, so only the formatting
//     rules apply;
//   - exits: nested blocks that exit on an error or a panic — failure
//     paths may format and allocate freely.
type regions struct {
	guards, exits spanSet
}

// contains reports whether pos falls inside either kind of region.
func (r *regions) contains(pos token.Pos) bool {
	return r.guards.contains(pos) || r.exits.contains(pos)
}

// coldRegions returns the cold regions of a function body. The
// function's own top-level body never qualifies as an error exit (a tail
// `return g()` returning error would otherwise blanket-exempt the whole
// function).
func coldRegions(info *types.Info, guards map[types.Object]bool, body *ast.BlockStmt) regions {
	var r regions
	if body == nil {
		return r
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.IfStmt:
			if obsGuardCond(info, guards, st.Cond) {
				r.guards.add(st.Body.Pos(), st.Body.End())
			}
		case *ast.BlockStmt:
			if st != body && errorExitBlock(info, st.List) {
				r.exits.add(st.Pos(), st.End())
			}
		case *ast.CaseClause:
			if errorExitBlock(info, st.Body) && len(st.Body) > 0 {
				r.exits.add(st.Body[0].Pos(), st.Body[len(st.Body)-1].End())
			}
		case *ast.CommClause:
			if errorExitBlock(info, st.Body) && len(st.Body) > 0 {
				r.exits.add(st.Body[0].Pos(), st.Body[len(st.Body)-1].End())
			}
		}
		return true
	})
	return r
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// funcDeclObj resolves a function declaration to its *types.Func.
func funcDeclObj(info *types.Info, decl *ast.FuncDecl) *types.Func {
	fn, _ := info.Defs[decl.Name].(*types.Func)
	return fn
}
