// Package analysis implements planaria-vet, a suite of static analyzers
// that machine-check the repository's determinism contract (DESIGN.md §8)
// and performance contract (DESIGN.md §13): the cycle-level simulator,
// the spatial scheduler, and the PREMA baseline must produce
// bit-identical metrics run-to-run, or the paper's spatial-vs-temporal
// comparison is noise — and the serving hot paths must stay on the
// zero-allocation steady state PR 6 established, or the 100×-scale
// sweeps regress silently.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer / Pass / Diagnostic) but is self-contained on the standard
// library: packages are parsed with go/parser and type-checked with
// go/types, resolving module-local imports from the repository tree and
// everything else through the stdlib source importer. This keeps the
// toolchain dependency-free — the suite builds and runs offline.
//
// Analyzers:
//
//	maporder   — flags `for range` over a map in the deterministic
//	             packages unless the loop only collects keys for sorting
//	             or carries a //det:mapiter-ok <reason> annotation.
//	noclock    — forbids time.Now, global math/rand functions, and
//	             wall-clock-seeded sources in the deterministic packages.
//	parorder   — checks internal/par call sites: closures must confine
//	             writes to their index-addressed aggregation slot and must
//	             not capture enclosing loop variables.
//	floataccum — flags float accumulation whose iteration order comes
//	             from a map range (run-to-run drift in energy/latency
//	             totals).
//	perfannot  — validates the //perf: annotation family itself (known
//	             marker, mandatory reason, hot/cold on function decls).
//	hotalloc   — flags allocation-inducing constructs inside the
//	             //perf:hot closure (escaping composites, make/append in
//	             loops, string concat, fmt calls, interface boxing).
//	poolcheck  — sync.Pool discipline: deferred Put for every Get, no
//	             escaping pooled values, pointer-holding slice fields
//	             reset before Put.
//	obsguard   — expensive obs probes in hot code must sit behind an
//	             enablement guard; nil-safe probes pass unguarded.
//
// Annotation syntax: a loop or statement is exempted by a line comment
// `//det:<marker>-ok <reason>` on the same line or the line directly
// above; the reason is mandatory. Markers: mapiter, clock, parorder,
// floataccum. The performance analyzers use the //perf: family the same
// way (hot, cold, alloc-ok, pool-ok, obsguard-ok; see perf.go and
// callgraph.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and annotations.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Pass carries one analyzed package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Hot is the //perf:hot closure the performance analyzers consult.
	// Drivers that load a whole tree pass a module-wide set (hotness
	// crosses package boundaries); Run falls back to a per-package set.
	Hot *HotSet
	// guards are the package's observability guards (obsBoolGuards).
	guards map[types.Object]bool

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the analyzers in the suite, in stable order: the
// determinism checkers first, then the performance-contract checkers.
func All() []*Analyzer {
	return []*Analyzer{MapOrder, NoClock, ParOrder, FloatAccum, PerfAnnot, HotAlloc, PoolCheck, ObsGuard}
}

// Run applies one analyzer to a loaded package and returns its findings
// sorted by source position. The hot closure is computed over the single
// package; use RunWithHot with a ComputeHot over every loaded package
// when hotness must propagate across package boundaries.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	return RunWithHot(a, pkg, pkg.hotSet())
}

// RunWithHot is Run with an explicit hot closure (typically module-wide,
// from ComputeHot over all loaded packages).
func RunWithHot(a *Analyzer, pkg *Package, hot *HotSet) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Hot:      hot,
		guards:   obsBoolGuards(pkg.Info, pkg.Files),
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	sort.SliceStable(pass.diags, func(i, j int) bool { return pass.diags[i].Pos < pass.diags[j].Pos })
	return pass.diags, nil
}

// DeterministicPackages names the packages bound by the determinism
// contract: their outputs feed cycle counts, SLA rates, and fairness
// numbers that must be bit-identical run-to-run. Matching is by package
// name so the analyzers work unchanged on testdata fixtures.
var DeterministicPackages = map[string]bool{
	"sim":         true,
	"sched":       true,
	"prema":       true,
	"systolic":    true,
	"model":       true,
	"compiler":    true,
	"experiments": true,
	// Fault schedules are part of the reproducibility surface: a chaos
	// sweep at a fixed seed must inject the exact same faults at the
	// exact same simulated instants on every run.
	"fault": true,
	// The observability layer must itself be deterministic: its snapshots
	// and trace exports are compared byte-for-byte run-to-run, so a wall
	// clock or map-ordered encoder inside internal/obs is a contract
	// violation like any other. Wall-clock profiling lives in the CLI
	// layer (cmd/planaria), which is not a deterministic package.
	"obs": true,
	// The multi-chip serving front end dispatches, batches, and sheds on
	// simulated time only; BENCH_cluster.json is pinned byte-for-byte by
	// the experiments goldens and the 1-chip conformance artifacts are
	// compared byte-for-byte run-to-run.
	"cluster": true,
	// Workload generation feeds every byte-compared artifact: the same
	// seed must yield the same request stream, and the SLA tallies must
	// not depend on iteration order.
	"workload": true,
	// Trace replay doubly so: a trace spec IS a reproducibility claim
	// (same spec, same seed → the same planet-scale request stream,
	// byte-for-byte), and BENCH_autoscale.json is pinned by the
	// experiments goldens.
	"trace": true,
	// The shared simulated-time comparisons (epsilon discipline) back
	// every scheduling decision above.
	"simtime": true,
	// The elastic re-fission planner decides every between-tile re-split
	// from candidate state alone; a clock or global RNG here would make
	// EvRefission traces — compared byte-for-byte across runs — drift.
	"refission": true,
}

// annotations maps source lines to //det:<marker>-ok annotation reasons
// for one file and marker.
type annotations struct {
	// reason by line; present-but-empty means the annotation is missing
	// its mandatory reason.
	byLine map[int]string
}

// annotationsFor collects `//det:<marker>-ok <reason>` line comments.
func annotationsFor(fset *token.FileSet, file *ast.File, marker string) annotations {
	prefix := "//det:" + marker + "-ok"
	ann := annotations{byLine: map[int]string{}}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, prefix) {
				continue
			}
			rest := c.Text[len(prefix):]
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //det:mapiter-okay — not this marker
			}
			ann.byLine[fset.Position(c.Pos()).Line] = strings.TrimSpace(rest)
		}
	}
	return ann
}

// at reports whether a node starting on `line` is annotated (same line or
// the line directly above) and returns the reason.
func (a annotations) at(line int) (reason string, ok bool) {
	if r, found := a.byLine[line]; found {
		return r, true
	}
	if r, found := a.byLine[line-1]; found {
		return r, true
	}
	return "", false
}

// exempt reports whether node is annotated `//det:<marker>-ok`; an
// annotation without a reason is itself reported as a finding.
func (p *Pass) exempt(ann annotations, node ast.Node, marker string) bool {
	reason, ok := ann.at(p.Fset.Position(node.Pos()).Line)
	if !ok {
		return false
	}
	if reason == "" {
		p.Reportf(node.Pos(), "//det:%s-ok annotation requires a reason", marker)
	}
	return true
}

// isMapType reports whether the expression's type is (or underlies to) a map.
func (p *Pass) isMapType(x ast.Expr) bool {
	t := p.Info.TypeOf(x)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// rootIdent returns the base identifier of an assignable expression:
// x, x.f, x[i], *x, x.f[i].g all root at x. Nil when the root is not a
// plain identifier (e.g. a function call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// objectOf resolves an identifier to its declared object (definition or use).
func (p *Pass) objectOf(id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// declaredWithin reports whether the object's declaration lies inside the
// source interval [lo, hi]. Objects with no position (builtins) are
// treated as outside.
func declaredWithin(obj types.Object, lo, hi token.Pos) bool {
	if obj == nil || !obj.Pos().IsValid() {
		return false
	}
	return lo <= obj.Pos() && obj.Pos() <= hi
}
