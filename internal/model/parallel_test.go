package model

import (
	"runtime"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/dnn"
	"planaria/internal/energy"
)

// sequentialBestShape is the reference implementation of the shape
// search: a plain in-order scan over the accepted shapes with the
// first-wins comparator. The chunked search must return the identical
// Result.
func sequentialBestShape(l *dnn.Layer, cfg arch.Config, s int, filter ShapeFilter) Result {
	shapes := arch.EnumerateShapes(cfg, s)
	if len(shapes) == 0 {
		shapes = []arch.Shape{arch.MonolithicShape(cfg)}
	}
	p := energy.Default()
	var best Result
	found := false
	for _, sh := range shapes {
		if filter != nil && !filter(sh) {
			continue
		}
		r := LayerOnShape(l, sh, cfg, s)
		if !found || r.Cycles < best.Cycles ||
			(r.Cycles == best.Cycles && r.Acct.Joules(p) < best.Acct.Joules(p)) {
			best, found = r, true
		}
	}
	if !found {
		return LayerOnShape(l, arch.Shape{Clusters: 1, H: 1, W: 1}, cfg, s)
	}
	return best
}

// TestBestShapeParallelMatchesSequential runs the shape search at
// GOMAXPROCS 1, 2, 3 and 7 — past the physical CPU count, so the chunks
// really run on workers — and checks it returns exactly the sequential
// scan's Result, tie-breaks included, for every GEMM layer of the suite's
// networks at several allocations, unfiltered and with a filter that
// drops every square multi-subarray cluster.
func TestBestShapeParallelMatchesSequential(t *testing.T) {
	cfg := arch.Planaria()
	filters := []struct {
		name   string
		filter ShapeFilter
	}{
		{"unfiltered", nil},
		{"no-square", func(sh arch.Shape) bool { return sh.H != sh.W || sh.H == 1 }},
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		for _, net := range dnn.All() {
			for _, s := range []int{5, 16} {
				for i := range net.Layers {
					l := &net.Layers[i]
					if !l.Kind.IsGEMM() {
						continue
					}
					for _, f := range filters {
						got := BestShapeWith(l, cfg, s, f.filter)
						if want := sequentialBestShape(l, cfg, s, f.filter); got != want {
							t.Fatalf("GOMAXPROCS=%d %s layer %d s=%d %s: chunked %+v, sequential %+v",
								procs, net.Name, i, s, f.name, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSearchShapesTiesGoToEarliest forces ties across chunk boundaries:
// the search must return the earliest accepted shape among the equal
// bests at every worker count, and report when no shape is accepted.
func TestSearchShapesTiesGoToEarliest(t *testing.T) {
	shapes := arch.EnumerateShapes(arch.Planaria(), 16)
	if len(shapes) < 40 {
		t.Fatalf("only %d shapes; the test needs 40", len(shapes))
	}
	better := func(r, best Result) bool { return r.Cycles < best.Cycles }
	for _, workers := range []int{1, 2, 3, 7, len(shapes) + 5} {
		// Shapes 10, 20 and 30 tie for the least cycles; shapes before 12
		// are rejected, so shape 20 wins.
		best, ok := searchShapes(shapes, workers, func(sh arch.Shape) (Result, bool) {
			i := indexOf(shapes, sh)
			cycles := int64(2)
			if i%10 == 0 {
				cycles = 1
			}
			return Result{Shape: sh, Cycles: cycles}, i >= 12
		}, better)
		if !ok || best.Shape != shapes[20] {
			t.Errorf("workers=%d: best %+v (found %v), want shape 20 %+v", workers, best.Shape, ok, shapes[20])
		}
		// Every shape ties: the first accepted one wins.
		best, ok = searchShapes(shapes, workers, func(sh arch.Shape) (Result, bool) {
			return Result{Shape: sh, Cycles: 1}, indexOf(shapes, sh) >= 3
		}, better)
		if !ok || best.Shape != shapes[3] {
			t.Errorf("workers=%d: all tied: best %+v (found %v), want shape 3 %+v", workers, best.Shape, ok, shapes[3])
		}
		if _, ok := searchShapes(shapes, workers, func(arch.Shape) (Result, bool) { return Result{}, false }, better); ok {
			t.Errorf("workers=%d: found a best though every shape was rejected", workers)
		}
	}
}

// indexOf returns the position of sh in shapes, or -1.
func indexOf(shapes []arch.Shape, sh arch.Shape) int {
	for i, s := range shapes {
		if s == sh {
			return i
		}
	}
	return -1
}
