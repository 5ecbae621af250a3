package analysis

import (
	"go/ast"
	"go/types"
)

// ObsGuard checks that the expensive observability probes inside the
// //perf:hot closure sit behind an enablement guard: they materialize
// event structs and format strings even when observability is off.
//
// Guard-required probes: the event loop's run.emit (the engine guards
// each with `if r.observed { ... }`) and TraceBuilder.Instant/Counter,
// the registered-track forms SpanOn/CounterOn and Track (each builds a
// name value and its args even when the builder is nil).
// The known nil-safe inline paths — Occupancy.NoteDecision/Interval,
// the Ledger's Mark/Close/Reopen, TraceBuilder.WithPrefix, and
// Trace.reserve — are cheap no-ops when disabled and may appear
// unguarded. Recording functions (see ComputeHot) are reached
// only through a guard and are not checked. //perf:obsguard-ok <reason>
// exempts a call.
var ObsGuard = &Analyzer{
	Name: "obsguard",
	Doc: "requires nil/enabled guards around expensive obs probes (run.emit, TraceBuilder.SpanOn/" +
		"Instant/Counter) in //perf:hot code; nil-safe probes pass unguarded",
	Run: runObsGuard,
}

// guardRequired lists the probe methods that must be guarded in hot
// code, keyed by receiver type name.
var guardRequired = map[string]map[string]bool{
	"run":          {"emit": true},
	"TraceBuilder": {"Instant": true, "Counter": true, "SpanOn": true, "CounterOn": true, "Track": true},
}

func runObsGuard(pass *Pass) error {
	for _, f := range pass.Files {
		anns := perfByLine(perfAnnotationsFor(pass.Fset, f), "obsguard-ok")
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			fact, hot := pass.hotDecl(decl)
			if !hot || fact.recording {
				continue
			}
			pass.checkObsGuards(anns, decl, fact)
		}
	}
	return nil
}

func (p *Pass) checkObsGuards(anns annotations, decl *ast.FuncDecl, fact hotFact) {
	// coldRegions includes every recognized guard body plus error exits;
	// a probe inside either is fine (error paths are off the steady
	// state by definition).
	skip := coldRegions(p.Info, p.guards, decl.Body)

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		typeName, method, ok := p.methodCall(call)
		if !ok || !guardRequired[typeName][method] {
			return true
		}
		if skip.contains(call.Pos()) {
			return true
		}
		if p.exemptPerf(anns, call, "obsguard-ok") {
			return true
		}
		p.Reportf(call.Pos(),
			"unguarded %s.%s probe in hot function %s%s: wrap it in an enablement check "+
				"(if r.observed { ... }, if tracer != nil { ... }) so disabled observability costs one branch",
			typeName, method, decl.Name.Name, fact.via())
		return true
	})
}

// methodCall resolves a method call to (receiver type name, method).
func (p *Pass) methodCall(call *ast.CallExpr) (typeName, method string, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	s, found := p.Info.Selections[sel]
	if !found {
		return "", "", false
	}
	recv := s.Recv()
	if ptr, isPtr := recv.Underlying().(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	return named.Obj().Name(), sel.Sel.Name, true
}
