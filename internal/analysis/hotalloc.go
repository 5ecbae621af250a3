package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags allocation-inducing constructs inside the //perf:hot
// closure (DESIGN.md §13). PR 6 made the serving engine's steady state
// allocation-free by hand; this analyzer makes regressing that a vet
// failure instead of hoping an AllocsPerRun pin happens to execute the
// regressed path. Within hot functions it reports:
//
//   - composite literals that escape (&T{...}) and slice/map literals;
//   - make/new inside a loop (a fresh allocation per iteration);
//   - append inside a loop growing a bare local slice with no reuse
//     evidence — no reslice (buf[:0]), no preallocation, not a
//     parameter-owned buffer;
//   - string concatenation;
//   - any fmt call, and any strconv call that returns a string
//     (formatting allocates);
//   - interface boxing at call sites: a non-pointer-shaped concrete
//     argument passed to an interface parameter heap-allocates its copy.
//
// Error-exit blocks are exempt. Observability-guard bodies and the
// recording functions they reach (see ComputeHot) run once per event
// whenever a sink is attached: they may allocate, but the formatting
// rules — fmt, string-valued strconv, string concatenation — apply there
// too, since a timeline records names as obs.Name values and renders
// them at export. A statement is exempted explicitly with
// //perf:alloc-ok <reason> on its line or the line above; the reason is
// mandatory.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flags allocation-inducing constructs (escaping composites, make/append in loops, " +
		"string concat, fmt calls, interface boxing) inside the //perf:hot closure",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		anns := perfByLine(perfAnnotationsFor(pass.Fset, f), "alloc-ok")
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			fact, hot := pass.hotDecl(decl)
			if !hot {
				continue
			}
			pass.checkHotAlloc(anns, decl, fact)
		}
	}
	return nil
}

func (p *Pass) checkHotAlloc(anns annotations, decl *ast.FuncDecl, fact hotFact) {
	cold := coldRegions(p.Info, p.guards, decl.Body)
	loops := loopSpans(decl.Body)
	reuse := reuseEvidence(p.Info, decl)
	addrTaken := map[*ast.CompositeLit]bool{}
	chained := map[*ast.BinaryExpr]bool{}

	emit := func(n ast.Node, format string, args []any) {
		if p.exemptPerf(anns, n, "alloc-ok") {
			return
		}
		args = append(args, fact.via())
		p.Reportf(n.Pos(), format+"%s", args...)
	}
	// report is an allocation rule: hot code outside cold regions.
	report := func(n ast.Node, format string, args ...any) {
		if fact.recording || cold.contains(n.Pos()) {
			return
		}
		emit(n, format, args)
	}
	// formats is a formatting rule: everywhere but error exits.
	formats := func(n ast.Node, what string) {
		if cold.exits.contains(n.Pos()) {
			return
		}
		where := "in hot function %s"
		if fact.recording || cold.guards.contains(n.Pos()) {
			where = "on the recording path in %s: record an obs.Name and let the export render it"
		}
		emit(n, what+" "+where, []any{decl.Name.Name})
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.UnaryExpr:
			if e.Op != token.AND {
				return true
			}
			if cl, ok := unparen(e.X).(*ast.CompositeLit); ok {
				addrTaken[cl] = true
				report(e, "composite literal escapes to the heap in hot function %s", decl.Name.Name)
			}

		case *ast.CompositeLit:
			if addrTaken[e] {
				return true
			}
			t := p.Info.TypeOf(e)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				report(e, "%s literal allocates in hot function %s", kindWord(t), decl.Name.Name)
			}

		case *ast.CallExpr:
			p.checkHotCall(report, formats, loops, reuse, decl, e)

		case *ast.BinaryExpr:
			if e.Op != token.ADD {
				return true
			}
			if isStringType(p.Info.TypeOf(e)) && !chained[e] {
				formats(e, "string concatenation allocates")
			}
			// One finding per chain: a + b + c nests (a + b) + c, and both
			// start at a's position. An operand + has e's type.
			for _, op := range [...]ast.Expr{e.X, e.Y} {
				if b, ok := unparen(op).(*ast.BinaryExpr); ok && b.Op == token.ADD {
					chained[b] = true
				}
			}

		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && isStringType(p.Info.TypeOf(e.Lhs[0])) {
				formats(e, "string += allocates")
			}
		}
		return true
	})
}

// checkHotCall handles the call-shaped rules: builtins in loops,
// formatting calls, and interface boxing.
func (p *Pass) checkHotCall(report func(ast.Node, string, ...any), formats func(ast.Node, string), loops spanSet, reuse map[types.Object]bool, decl *ast.FuncDecl, call *ast.CallExpr) {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := p.objectOf(id).(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make", "new":
				if loops.contains(call.Pos()) {
					report(call, "%s inside a loop allocates per iteration in hot function %s", b.Name(), decl.Name.Name)
				}
			case "append":
				if loops.contains(call.Pos()) && len(call.Args) > 0 {
					if target, ok := unparen(call.Args[0]).(*ast.Ident); ok && target.Name != "_" {
						obj := p.objectOf(target)
						if obj != nil && !reuse[obj] {
							report(call, "append grows %s in a hot loop with no reuse evidence "+
								"(preallocate or reslice a scratch buffer) in hot function %s",
								target.Name, decl.Name.Name)
						}
					}
				}
			}
			return
		}
	}

	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		path, ok := p.packageQualifier(sel)
		if ok && (path == "fmt" || path == "strconv" && isStringType(p.Info.TypeOf(call))) {
			formats(call, path+"."+sel.Sel.Name+" formats (and allocates)")
			return
		}
	}

	p.checkBoxing(report, decl, call)
}

// checkBoxing flags concrete, non-pointer-shaped arguments passed to
// interface parameters: storing such a value in an interface copies it
// to the heap. Pointer-shaped kinds (pointers, maps, channels, function
// values) fit the interface word and are free.
func (p *Pass) checkBoxing(report func(ast.Node, string, ...any), decl *ast.FuncDecl, call *ast.CallExpr) {
	sig, ok := p.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		tv := p.Info.Types[arg]
		if tv.IsNil() || tv.Type == nil {
			continue
		}
		switch tv.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Map, *types.Chan, *types.Signature:
			continue
		}
		report(arg, "passing %s as interface %s boxes (allocates) in hot function %s",
			types.TypeString(tv.Type, types.RelativeTo(p.Pkg)),
			types.TypeString(pt, types.RelativeTo(p.Pkg)),
			decl.Name.Name)
	}
}

// loopSpans collects the body spans of every for/range statement in fn.
func loopSpans(body *ast.BlockStmt) spanSet {
	var spans spanSet
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ForStmt:
			spans.add(st.Body.Pos(), st.Body.End())
		case *ast.RangeStmt:
			spans.add(st.Body.Pos(), st.Body.End())
		}
		return true
	})
	return spans
}

// reuseEvidence collects the objects that may legitimately be append
// targets in a hot loop: parameters and receivers (caller-owned
// buffers), and locals some assignment initializes from a reslice or a
// call (scratch := sc.buf[:0], buf := make(..., 0, n), buf = grow(...)).
// A bare `var out []T` that only ever grows has no evidence and is the
// per-event-reallocation shape the analyzer exists to catch.
func reuseEvidence(info *types.Info, decl *ast.FuncDecl) map[types.Object]bool {
	ev := map[types.Object]bool{}
	addField := func(f *ast.Field) {
		for _, name := range f.Names {
			if obj := info.Defs[name]; obj != nil {
				ev[obj] = true
			}
		}
	}
	if decl.Recv != nil {
		for _, f := range decl.Recv.List {
			addField(f)
		}
	}
	if decl.Type.Params != nil {
		for _, f := range decl.Type.Params.List {
			addField(f)
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			if st.Type.Params != nil {
				for _, f := range st.Type.Params.List {
					addField(f)
				}
			}
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if !reusingExpr(st.Rhs[i]) {
					continue
				}
				if obj := info.Defs[id]; obj != nil {
					ev[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					ev[obj] = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if i < len(st.Values) && reusingExpr(st.Values[i]) {
					if obj := info.Defs[name]; obj != nil {
						ev[obj] = true
					}
				}
			}
		}
		return true
	})
	return ev
}

// reusingExpr reports whether an initializer shows buffer management: a
// reslice or a call result (make with capacity, a grow helper, a pool
// Get). Appends to the initialized variable amortize instead of growing
// from nil on every invocation. An append call is NOT evidence — every
// growing slice is assigned from its own append, which is precisely the
// shape under suspicion.
func reusingExpr(e ast.Expr) bool {
	switch v := unparen(e).(type) {
	case *ast.SliceExpr:
		return true
	case *ast.CallExpr:
		if id, ok := unparen(v.Fun).(*ast.Ident); ok && id.Name == "append" {
			return false
		}
		return true
	case *ast.TypeAssertExpr:
		return reusingExpr(v.X)
	}
	return false
}

// kindWord names a composite's kind for diagnostics.
func kindWord(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}

// isStringType reports whether t underlies to string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
