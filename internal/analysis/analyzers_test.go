package analysis_test

import (
	"path/filepath"
	"testing"

	"planaria/internal/analysis"
	"planaria/internal/analysis/analysistest"
)

// Each analyzer runs over a positive fixture (diagnostics expected at
// the `// want` comments, silence elsewhere) and, where the check is
// package-gated, a negative fixture proving the gate.

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.MapOrder, "sched", "free")
}

func TestNoClock(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.NoClock, "sim", "obs", "fault", "trace", "refission")
}

func TestParOrder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ParOrder, "parfix")
}

func TestFloatAccum(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.FloatAccum, "accum")
}

// The performance-contract fixtures (DESIGN.md §13). hotalloc and
// obsguard mirror the shapes PR 6 hand-built in sim.Node.Run — tracer
// guards, hoisted guard bools, error exits — so deleting one of those
// guards in the real engine is the same AST shape the fixtures pin red.
// poolcheck mirrors the engine scratch pool's deferred Put-with-resets, and its
// bad cases are exactly what deleting the Put call or the reset lines
// would produce.

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.HotAlloc, "hotalloc")
}

func TestPoolCheck(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.PoolCheck, "poolcheck")
}

func TestObsGuard(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ObsGuard, "obsguard")
}

// TestHotPropagation pins the call-graph engine: //perf:hot flows from
// an annotated root into unannotated callees (transitively, with the
// diagnostic naming the root), //perf:cold stops it, and call sites
// inside observability guards contribute no hot edges, only recording
// ones.
func TestHotPropagation(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.HotAlloc, "hotprop")
}

func TestPerfAnnot(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.PerfAnnot, "perfbad")
}

// TestRepoClean runs the full suite over the repository tree — the same
// gate CI applies via `go run ./cmd/planaria-vet ./...` — so a
// determinism or performance-contract violation anywhere fails the
// package tests too. Like the vet command, it loads every package
// before computing the hot closure so //perf:hot propagates across
// import edges.
func TestRepoClean(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dirs, err := analysis.PackageDirs(loader.Root(), []string{"./..."})
	if err != nil {
		t.Fatalf("expand ./...: %v", err)
	}
	if len(dirs) < 10 {
		t.Fatalf("expected to find the repository's packages, got %d dirs", len(dirs))
	}
	pkgs := make([]*analysis.Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	hot := analysis.ComputeHot(pkgs)
	for _, pkg := range pkgs {
		for _, a := range analysis.All() {
			diags, err := analysis.RunWithHot(a, pkg, hot)
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				t.Errorf("%s: %s (%s)", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
			}
		}
	}
}

// TestPackageDirsSkipsTestdata guards the pattern expansion: fixture
// trees must never be vetted as repository packages.
func TestPackageDirsSkipsTestdata(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dirs, err := analysis.PackageDirs(loader.Root(), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if filepath.Base(filepath.Dir(d)) == "src" {
			t.Errorf("testdata fixture leaked into package expansion: %s", d)
		}
	}
}
