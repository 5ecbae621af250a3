package analysis

import (
	"go/ast"
	"go/types"
)

// PoolCheck enforces the sync.Pool discipline of the engines' run-state
// pools (sim.runPool, cluster.runPool):
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
// assignment to the field exists in the function or in a method of the
// pooled value the function defers after the Put (defer sc.release()
// below defer pool.Put(sc), so that it runs first). In such a
// method a clear of the field, or of each element a range over it
// yields, is a reset too, and so is overwriting the whole receiver
// (*sc = T{...}) for every field the literal zeroes or sets, but not for
// one it carries over verbatim (f: sc.f). //perf:pool-ok <reason> on the
// Get line exempts a site.
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
		p.checkPoolResets(decl, get, put, pooled)
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
// pooled struct is assigned somewhere in the function, or in a method
// deferred to run before the deferred put, before reuse.
func (p *Pass) checkPoolResets(decl *ast.FuncDecl, get, put *ast.CallExpr, pooled types.Object) {
	t := pooled.Type()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}

	assigned := map[string]bool{}
	p.collectResets(decl.Body, pooled, st, assigned)
	for _, m := range p.deferredMethods(decl, pooled, put) {
		recv := m.Recv.List[0].Names
		if len(recv) == 1 {
			p.collectResets(m.Body, p.objectOf(recv[0]), st, assigned)
		}
	}

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

// collectResets records in assigned the fields of st, the struct behind
// the pooled variable v, that body resets: by assignment, by a clear of
// the field or of each element a range over it yields, or by overwriting
// all of *v with a literal that does not carry the field over verbatim.
func (p *Pass) collectResets(body *ast.BlockStmt, v types.Object, st *types.Struct, assigned map[string]bool) {
	// field returns the name of the field e selects on v, or "".
	field := func(e ast.Expr) string {
		sel, ok := unparen(e).(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		if root := rootIdent(sel); root != nil && p.objectOf(root) == v {
			return sel.Sel.Name
		}
		return ""
	}
	// ranged maps a range statement's value variable to the field it
	// ranges over.
	ranged := map[types.Object]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if id, ok := n.Value.(*ast.Ident); ok {
				if f := field(n.X); f != "" {
					ranged[p.objectOf(id)] = f
				}
			}
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); !ok || id.Name != "clear" || len(n.Args) != 1 {
				return true
			}
			if f := field(n.Args[0]); f != "" {
				assigned[f] = true
			} else if id, ok := unparen(n.Args[0]).(*ast.Ident); ok && ranged[p.objectOf(id)] != "" {
				assigned[ranged[p.objectOf(id)]] = true
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if f := field(lhs); f != "" {
					assigned[f] = true
					continue
				}
				star, ok := unparen(lhs).(*ast.StarExpr)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				if id, ok := unparen(star.X).(*ast.Ident); !ok || p.objectOf(id) != v {
					continue
				}
				if lit, ok := unparen(n.Rhs[i]).(*ast.CompositeLit); ok {
					p.literalResets(lit, st, field, assigned)
				}
			}
		}
		return true
	})
}

// literalResets records the fields a whole-value literal resets: every
// field it leaves out (zeroed) or sets, except one whose value is the
// same field of the old value (f: v.f), which keeps what it held.
func (p *Pass) literalResets(lit *ast.CompositeLit, st *types.Struct, field func(ast.Expr) string, assigned map[string]bool) {
	kept := map[string]bool{}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return // positional literal: no field is left out
		}
		if key, ok := kv.Key.(*ast.Ident); ok && field(kv.Value) == key.Name {
			kept[key.Name] = true
		}
	}
	for i := 0; i < st.NumFields(); i++ {
		if name := st.Field(i).Name(); !kept[name] {
			assigned[name] = true
		}
	}
}

// deferredMethods returns the declarations, in this package, of the
// methods decl defers directly on the pooled variable (defer v.m())
// after the defer statement holding put. Deferred calls run last in,
// first out, so only those run before the value goes back to the pool;
// one deferred above the Put runs after another goroutine may have
// taken the value.
func (p *Pass) deferredMethods(decl *ast.FuncDecl, pooled types.Object, put *ast.CallExpr) []*ast.FuncDecl {
	putEnd := put.End()
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if ds, ok := n.(*ast.DeferStmt); ok && ds.Pos() <= put.Pos() && put.End() <= ds.End() {
			putEnd = max(putEnd, ds.End())
		}
		return true
	})
	var fns []*types.Func
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeferStmt)
		if !ok || ds.Pos() < putEnd {
			return true
		}
		sel, ok := unparen(ds.Call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := unparen(sel.X).(*ast.Ident); ok && p.objectOf(id) == pooled {
			if fn, ok := p.objectOf(sel.Sel).(*types.Func); ok {
				fns = append(fns, fn)
			}
		}
		return true
	})
	var decls []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Body != nil {
				for _, fn := range fns {
					if p.Info.Defs[fd.Name] == fn {
						decls = append(decls, fd)
					}
				}
			}
		}
	}
	return decls
}
