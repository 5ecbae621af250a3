package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file builds the intra-module call graph behind the //perf:hot
// annotation (DESIGN.md §13). A hot root — sim.Node.Run, cluster.Run —
// promises the zero-allocation steady state; that promise extends to
// every module-local function the root reaches, so the closure is
// computed here once and shared by hotalloc and obsguard.
//
// Edges are collected per function declaration, in source order, from
// every call expression whose callee resolves to a module-local function
// or concrete method (interface method calls do not resolve — dynamic
// callees such as sched policies carry their own //perf:hot roots).
// Call sites inside cold regions (observability-guard bodies and
// error-exit blocks, see coldRegions) contribute no hot edges: a fold
// invoked only under `if tracer != nil` is not on the hot path. A call
// inside a hot function's guard body instead makes its callee a
// recording function, and every call a recording function makes outside
// its error exits does too: they run once per event whenever a sink is
// attached, so they must record without formatting (hotalloc's
// formatting rules) even though they may allocate.
// A //perf:cold annotation stops propagation at a declaration —
// constructors and per-run setup helpers that a hot root calls once
// before entering its steady-state loop.

// A HotSet is the computed hot closure over one or more packages.
type HotSet struct {
	facts map[*types.Func]hotFact
}

// hotFact records how a function became hot.
type hotFact struct {
	// reason is the annotation reason of the root.
	reason string
	// root is the annotated declaration the hotness propagated from
	// (the function itself when directly annotated).
	root *types.Func
	// direct marks an explicitly annotated root.
	direct bool
	// recording marks a function reached only through an observability
	// guard of the root: only the formatting rules apply to it.
	recording bool
}

// hot reports whether fn is in the closure.
func (h *HotSet) hot(fn *types.Func) (hotFact, bool) {
	if h == nil || fn == nil {
		return hotFact{}, false
	}
	f, ok := h.facts[fn]
	return f, ok
}

// hotDecl is the convenience lookup the analyzers use: the fact for a
// declaration in the current pass, or ok=false for non-hot functions.
func (p *Pass) hotDecl(decl *ast.FuncDecl) (hotFact, bool) {
	return p.Hot.hot(funcDeclObj(p.Info, decl))
}

// via renders the propagation origin for diagnostics: empty for direct
// roots, " (hot via <root>)" for propagated hotness and
// " (recording via <root>)" for a recording function.
func (f hotFact) via() string {
	switch {
	case f.direct || f.root == nil:
		return ""
	case f.recording:
		return " (recording via " + f.root.FullName() + ")"
	}
	return " (hot via " + f.root.FullName() + ")"
}

// declSite pairs a function object with its declaration and its
// package's observability guards.
type declSite struct {
	decl   *ast.FuncDecl
	pkg    *Package
	guards map[types.Object]bool
}

// ComputeHot builds the hot closure over the given packages. Functions
// annotated //perf:hot seed the closure; reachability follows resolved
// calls between the given packages' declarations, skipping cold regions
// and //perf:cold declarations. The calls in the hot functions' guard
// bodies seed the recording closure, which follows every call outside
// an error exit. The walk is deterministic: roots and work items are
// processed in source-position order.
func ComputeHot(pkgs []*Package) *HotSet {
	decls := map[*types.Func]declSite{}
	cold := map[*types.Func]bool{}
	h := &HotSet{facts: map[*types.Func]hotFact{}}

	var queue []*types.Func
	for _, pkg := range pkgs {
		guards := obsBoolGuards(pkg.Info, pkg.Files)
		for _, file := range pkg.Files {
			anns := perfAnnotationsFor(pkg.Fset, file)
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				fn := funcDeclObj(pkg.Info, decl)
				if fn == nil {
					continue
				}
				decls[fn] = declSite{decl: decl, pkg: pkg, guards: guards}
				marker, reason, ok := perfFuncAnn(pkg.Fset, anns, decl)
				if !ok {
					continue
				}
				switch marker {
				case "cold":
					cold[fn] = true
				case "hot":
					h.facts[fn] = hotFact{reason: reason, root: fn, direct: true}
					queue = append(queue, fn)
				}
			}
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i].Pos() < queue[j].Pos() })

	// The hot closure comes first, so a function reached both ways is
	// hot. The recording closure then grows from the hot functions'
	// guard bodies.
	var seeds []*types.Func
	for _, fn := range h.walk(queue, decls, cold, hotSites) {
		fact := h.facts[fn]
		fact.direct, fact.recording = false, true
		for _, callee := range callees(decls[fn], guardSites) {
			if h.adopt(callee, fact, decls, cold) {
				seeds = append(seeds, callee)
			}
		}
	}
	h.walk(seeds, decls, cold, liveSites)
	return h
}

// sites selects the call sites of a declaration that contribute edges.
type sites uint8

const (
	hotSites   sites = iota // outside guard bodies and error exits
	guardSites              // inside a guard body, outside error exits
	liveSites               // anywhere outside error exits
)

// walk extends the closure breadth-first from queue along the selected
// call sites and returns the functions it visited, queue first, in
// visiting order. Each callee inherits its caller's fact.
func (h *HotSet) walk(queue []*types.Func, decls map[*types.Func]declSite, cold map[*types.Func]bool, which sites) []*types.Func {
	var order []*types.Func
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		order = append(order, fn)
		fact := h.facts[fn]
		fact.direct = false
		for _, callee := range callees(decls[fn], which) {
			if h.adopt(callee, fact, decls, cold) {
				queue = append(queue, callee)
			}
		}
	}
	return order
}

// adopt adds fn to the closure with fact unless it is cold, already in
// the closure, or declared outside the given packages.
func (h *HotSet) adopt(fn *types.Func, fact hotFact, decls map[*types.Func]declSite, cold map[*types.Func]bool) bool {
	if cold[fn] {
		return false
	}
	if _, seen := h.facts[fn]; seen {
		return false
	}
	if _, local := decls[fn]; !local {
		return false
	}
	h.facts[fn] = fact
	return true
}

// callees returns the resolved callees of a declaration's selected call
// sites in source order.
func callees(site declSite, which sites) []*types.Func {
	r := coldRegions(site.pkg.Info, site.guards, site.decl.Body)
	var out []*types.Func
	ast.Inspect(site.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if r.exits.contains(call.Pos()) || (which == hotSites && r.guards.contains(call.Pos())) ||
			(which == guardSites && !r.guards.contains(call.Pos())) {
			return true
		}
		if fn := calleeFunc(site.pkg.Info, call); fn != nil {
			out = append(out, fn)
		}
		return true
	})
	return out
}

// calleeFunc resolves a call expression to its static callee: a
// package-level function, a concrete method (through a selection), or a
// package-qualified function of another module package. Interface
// method calls, closure variables, and function-typed fields return nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			// A concrete receiver resolves statically; an interface
			// receiver does not — the dynamic callee is unknown.
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if types.IsInterface(recv.Type()) {
					return nil
				}
			}
			return fn
		}
		// Package-qualified: obs.NewTraceBuilder, fault.NewInjector, ...
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
