package analysis

import (
	"go/ast"
	"go/types"
)

// PoolCheck enforces the sync.Pool discipline the PR 6 scratch pools
// established (sim.runPool, cluster.scratchPool):
//
//   - every Get has a Put on the same pool reachable on all exit paths,
//     which in this codebase means inside a defer — an early return or
//     a panic must not leak the pooled object;
//   - the pooled value must not escape the function through a return
//     (a caller holding it past Put aliases recycled memory);
//   - every pointer-holding slice field of the pooled struct must be
//     reset (assigned) before the object goes back — a stale
//     []*Task or []Event backing array pins old requests live across
//     reuses and leaks them to the next tenant of the scratch.
//
// The check is structural, not path-sensitive: "reset" means some
// assignment to the field exists in the function (PR 6 does all resets
// in the same defer that Puts). //perf:pool-ok <reason> on the Get line
// exempts a site.
var PoolCheck = &Analyzer{
	Name: "poolcheck",
	Doc: "checks sync.Pool discipline: deferred Put for every Get, no escape of pooled " +
		"values, pointer-holding slice fields reset before Put",
	Run: runPoolCheck,
}

func runPoolCheck(pass *Pass) error {
	for _, f := range pass.Files {
		anns := perfByLine(perfAnnotationsFor(pass.Fset, f), "pool-ok")
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			pass.checkPoolFunc(anns, decl)
		}
	}
	return nil
}

// poolCall reports whether call is pool.<method>() on a sync.Pool and
// returns the pool's root object.
func (p *Pass) poolCall(call *ast.CallExpr, method string) (types.Object, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil, false
	}
	t := p.Info.TypeOf(sel.X)
	if t == nil {
		return nil, false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, false
	}
	obj := named.Obj()
	if obj.Name() != "Pool" || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return nil, false
	}
	root := rootIdent(sel.X)
	if root == nil {
		return nil, false
	}
	return p.objectOf(root), true
}

func (p *Pass) checkPoolFunc(anns annotations, decl *ast.FuncDecl) {
	type putInfo struct {
		call     *ast.CallExpr
		deferred bool
	}
	var gets []*ast.CallExpr
	getPools := map[*ast.CallExpr]types.Object{}
	var puts []putInfo

	// A Put is "deferred" when it is the deferred call itself or sits
	// inside a deferred closure.
	var deferSpans spanSet
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if ds, ok := n.(*ast.DeferStmt); ok {
			deferSpans.add(ds.Pos(), ds.End())
		}
		return true
	})

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pool, ok := p.poolCall(call, "Get"); ok {
			gets = append(gets, call)
			getPools[call] = pool
		}
		if _, ok := p.poolCall(call, "Put"); ok {
			puts = append(puts, putInfo{call: call, deferred: deferSpans.contains(call.Pos())})
		}
		return true
	})
	if len(gets) == 0 {
		return
	}

	for _, get := range gets {
		if p.exemptPerf(anns, get, "pool-ok") {
			continue
		}
		pool := getPools[get]
		var put *ast.CallExpr
		for _, pi := range puts {
			target, _ := p.poolCall(pi.call, "Put")
			if target != pool {
				continue
			}
			if pi.deferred {
				put = pi.call
				break
			}
		}
		if put == nil {
			p.Reportf(get.Pos(),
				"sync.Pool Get without a deferred Put: an early return or panic leaks the pooled object")
			continue
		}

		pooled := p.pooledVar(decl, get)
		if pooled == nil {
			continue
		}
		p.checkPoolEscape(decl, pooled)
		p.checkPoolResets(decl, get, pooled)
	}
}

// pooledVar finds the variable the Get result is bound to:
// sc := pool.Get().(*T).
func (p *Pass) pooledVar(decl *ast.FuncDecl, get *ast.CallExpr) types.Object {
	var obj types.Object
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || obj != nil {
			return obj == nil
		}
		for i, rhs := range as.Rhs {
			e := unparen(rhs)
			if ta, ok := e.(*ast.TypeAssertExpr); ok {
				e = unparen(ta.X)
			}
			if e != ast.Expr(get) || i >= len(as.Lhs) {
				continue
			}
			if id, ok := unparen(as.Lhs[i]).(*ast.Ident); ok && id.Name != "_" {
				obj = p.objectOf(id)
			}
		}
		return true
	})
	return obj
}

// checkPoolEscape flags returns through which the pooled object can
// alias out: a result that mentions the pooled variable and whose type
// still holds references (the object itself, a field slice, a struct
// embedding one). Scalar results derived from pooled state — len(sc.x),
// sc.ids[0] — carry no reference and pass.
func (p *Pass) checkPoolEscape(decl *ast.FuncDecl, pooled types.Object) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if !p.mentions(res, pooled) {
				continue
			}
			if t := p.Info.TypeOf(res); t != nil && !holdsPointers(t, map[types.Type]bool{}) {
				continue
			}
			p.Reportf(ret.Pos(),
				"pooled %s escapes through return: callers would alias memory recycled by Put",
				pooled.Name())
			return true
		}
		return true
	})
}

// checkPoolResets verifies every pointer-holding slice field of the
// pooled struct is assigned somewhere in the function before reuse.
func (p *Pass) checkPoolResets(decl *ast.FuncDecl, get *ast.CallExpr, pooled types.Object) {
	t := pooled.Type()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}

	assigned := map[string]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if root := rootIdent(sel); root != nil && p.objectOf(root) == pooled {
				assigned[sel.Sel.Name] = true
			}
		}
		return true
	})

	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		sl, ok := f.Type().Underlying().(*types.Slice)
		if !ok {
			continue
		}
		if !holdsPointers(sl.Elem(), map[types.Type]bool{}) {
			continue
		}
		if !assigned[f.Name()] {
			p.Reportf(get.Pos(),
				"pooled field %s.%s holds pointers and is not reset before Put: stale references leak across reuses",
				pooled.Name(), f.Name())
		}
	}
}

// holdsPointers reports whether values of t keep heap references alive:
// pointers, interfaces, maps, channels, functions, slices, and strings
// all do, directly or through struct/array composition.
func holdsPointers(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Map, *types.Chan, *types.Signature, *types.Slice:
		return true
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Array:
		return holdsPointers(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsPointers(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}
