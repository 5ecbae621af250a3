package sim

import (
	"math/rand"
	"sort"
	"testing"

	"planaria/internal/workload"
)

// The event-engine work (DESIGN.md §12) guarantees that steady-state
// tracing stays off the allocator: recording into a Reserved buffer and
// the disabled-tracing no-op path must both be alloc-free. These tests
// pin that contract so a future refactor that reintroduces a per-event
// allocation fails loudly instead of silently costing 1M allocs per
// serving run.

func TestTraceRecordZeroAllocs(t *testing.T) {
	tr := &Trace{}
	tr.Reserve(2048)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		tr.record(Event{Time: float64(i), Kind: EvAlloc, Task: i, Alloc: 4})
		i++
	})
	if allocs != 0 {
		t.Fatalf("Trace.record into reserved capacity: %.1f allocs/op, want 0", allocs)
	}
}

func TestNilTraceZeroAllocs(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		tr.record(Event{Kind: EvFinish, Task: 1})
		tr.Reserve(64)
	})
	if allocs != 0 {
		t.Fatalf("nil-Trace no-op path: %.1f allocs/op, want 0", allocs)
	}
}

func TestTraceReserveAmortizes(t *testing.T) {
	tr := &Trace{}
	tr.Reserve(100)
	if cap(tr.Events) < 100 {
		t.Fatalf("Reserve(100) left cap %d", cap(tr.Events))
	}
	// A second Reserve within the existing headroom must not reallocate.
	before := cap(tr.Events)
	tr.Reserve(50)
	if cap(tr.Events) != before {
		t.Fatalf("Reserve within capacity reallocated: cap %d -> %d", before, cap(tr.Events))
	}
}

// warmAllocs returns the fewest allocations seen over 20 single calls
// of f. A warm call's count is deterministic, but a call whose pooled
// state was dropped allocates more; the race detector makes sync.Pool
// drop a random share of Puts, so an average over many calls is noisy
// there while the minimum is not.
func warmAllocs(f func()) float64 {
	best := testing.AllocsPerRun(1, f)
	for i := 1; i < 20; i++ {
		best = min(best, testing.AllocsPerRun(1, f))
	}
	return best
}

// TestRefissionOffRunAllocParity pins the elastic-off fast path: a
// policy that implements Refissioner but reports inactive must drive
// Run with zero extra allocations over the identical plain policy — the
// re-fission machinery costs nothing unless it is switched on.
func TestRefissionOffRunAllocParity(t *testing.T) {
	nodeP, prog := testNode(t, nil)
	iso := nodeP.Cfg.Seconds(prog.Table(16).TotalCycles)
	reqs := refissionReqs(iso)
	nodeP.Policy = &splitPolicy{at: iso * 0.5}
	nodeE, _ := testNode(t, nil)
	nodeE.Policy = &stubRefission{splitPolicy{at: iso * 0.5}, false}
	run := func(n *Node) {
		if _, err := n.Run(reqs); err != nil {
			t.Fatal(err)
		}
	}
	aPlain := warmAllocs(func() { run(nodeP) })
	aElastic := warmAllocs(func() { run(nodeE) })
	if aElastic > aPlain {
		t.Fatalf("inactive refissioner run allocates %.1f/op, plain policy %.1f/op (want 0 extra)",
			aElastic, aPlain)
	}
}

// TestNodeRunAllocs pins the allocations of one warm Node.Run on a fixed
// 16-request stream, with and without a trace: three for the Outcome and
// its two slices, ten for the chip power breakdown behind the leakage
// charge. Everything else (tasks, scheduling buffers, the retry queue)
// comes from pooled state, and the event loop itself allocates nothing.
func TestNodeRunAllocs(t *testing.T) {
	const wantAllocs = 13
	node, prog := testNode(t, nil)
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	node.Policy = &splitPolicy{at: iso}
	var reqs []workload.Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, req(i, float64(i)*iso/3, 8*iso, 1+i%11))
	}
	for _, traced := range []bool{false, true} {
		node.Trace = nil
		if traced {
			node.Trace = &Trace{}
		}
		run := func() {
			if node.Trace != nil {
				node.Trace.Events = node.Trace.Events[:0]
			}
			if _, err := node.Run(reqs); err != nil {
				t.Fatal(err)
			}
		}
		if got := warmAllocs(run); got > wantAllocs {
			t.Errorf("warm Node.Run (traced=%v): %.1f allocs/op, want at most %d", traced, got, wantAllocs)
		}
	}
}

// TestRetryHeapOrder checks the heap against the sorted-slice queue it
// replaced: pop order must equal a stable sort by (at, task ID), with
// task ID breaking timestamp ties (IDs are unique, so the order is
// total and the two structures are behavior-identical).
func TestRetryHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tasks := make([]Task, 64)
	var want []retryEntry
	for i := range tasks {
		tasks[i].ID = i
		// Coarse timestamps force ID tie-breaks.
		want = append(want, retryEntry{t: &tasks[i], at: float64(rng.Intn(8))})
	}
	var h retryHeap
	for _, i := range rng.Perm(len(want)) {
		h.push(want[i])
	}
	sort.SliceStable(want, func(i, j int) bool { return retryBefore(want[i], want[j]) })
	for i, w := range want {
		if h.Len() != len(want)-i {
			t.Fatalf("Len() = %d before pop %d", h.Len(), i)
		}
		if p := h.peek(); p != w {
			t.Fatalf("peek %d = {%d %g}, want {%d %g}", i, p.t.ID, p.at, w.t.ID, w.at)
		}
		if g := h.pop(); g != w {
			t.Fatalf("pop %d = {%d %g}, want {%d %g}", i, g.t.ID, g.at, w.t.ID, w.at)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap not drained: %d left", h.Len())
	}
}
