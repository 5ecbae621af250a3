package sim

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"planaria/internal/obs"
	"planaria/internal/workload"
)

// The event-engine work (DESIGN.md §12) guarantees that steady-state
// tracing stays off the allocator: recording into a reserved buffer and
// the disabled-tracing no-op path must both be alloc-free. These tests
// pin that contract so a future refactor that reintroduces a per-event
// allocation fails loudly instead of silently costing 1M allocs per
// serving run.

func TestTraceRecordZeroAllocs(t *testing.T) {
	tr := &Trace{}
	tr.reserve(2048)
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
		tr.reserve(64)
	})
	if allocs != 0 {
		t.Fatalf("nil-Trace no-op path: %.1f allocs/op, want 0", allocs)
	}
}

func TestTraceReserveAmortizes(t *testing.T) {
	tr := &Trace{}
	tr.reserve(100)
	if cap(tr.Events) < 100 {
		t.Fatalf("reserve(100) left cap %d", cap(tr.Events))
	}
	// A second Reserve within the existing headroom must not reallocate.
	before := cap(tr.Events)
	tr.reserve(50)
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
// 16-request stream, untraced, traced, and with the trace, the
// attribution ledger and occupancy all attached: three for the Outcome
// and its two slices, ten for the chip power breakdown behind the
// leakage charge. Everything else (tasks, scheduling buffers, the retry
// queue) comes from pooled state, the event loop itself allocates
// nothing, and a warm trace, ledger and occupancy reuse their storage.
// One warm Node.MeetsSLA (a verdict-only run) on the same stream
// allocates none of the thirteen: its Outcome lives on the pooled state,
// it fills no per-request slice, and its verdict comes from the
// per-domain tally instead of the energy and SLA pass.
//
// With a timeline attached, a run records about 150 timeline events
// into the same builder every time and pins the same count: the
// timeline allocates only when a 1024-event chunk fills or its track
// table doubles, never per event.
func TestNodeRunAllocs(t *testing.T) {
	const wantAllocs, wantVerdictAllocs = 13, 0
	node, prog := testNode(t, nil)
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	node.Policy = &splitPolicy{at: iso}
	var reqs []workload.Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, req(i, float64(i)*iso/3, 8*iso, 1+i%11))
	}
	for _, sinks := range []string{"untraced", "traced", "trace+attrib+occ", "MeetsSLA", "observe"} {
		node.Trace, node.Attrib, node.Occ, node.Timeline = nil, nil, nil, nil
		if sinks == "traced" || sinks == "trace+attrib+occ" {
			node.Trace = &Trace{}
		}
		if sinks == "trace+attrib+occ" {
			node.Attrib, node.Occ = obs.NewLedger(0), obs.NewOccupancy(0)
		}
		if sinks == "observe" {
			node.Timeline = obs.NewTraceBuilder(1e6)
		}
		run := func() {
			if node.Trace != nil {
				node.Trace.Events = node.Trace.Events[:0]
			}
			node.Occ.Reset()
			var err error
			if sinks == "MeetsSLA" {
				_, err = node.MeetsSLA(reqs)
			} else {
				_, err = node.Run(reqs)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		want := wantAllocs
		if sinks == "MeetsSLA" {
			want = wantVerdictAllocs
		}
		if got := warmAllocs(run); got > float64(want) {
			t.Errorf("warm Node.Run (%s): %.1f allocs/op, want at most %d", sinks, got, want)
		}
	}
}

// TestNodeRunBytes pins the engine's memory to the tasks in flight, not
// the request count. Two collections empty sync.Pool, so each measured
// Node.Run builds its run state afresh, as one does after the pooled
// state is dropped; over a long stream with a shallow queue it allocates
// the Outcome's two per-request slices (16 B a request) and nearly
// nothing else. A task record or a fairness entry per request would
// cost more than the whole bound.
func TestNodeRunBytes(t *testing.T) {
	const n, bound = 50_000, 40.0
	node, prog := testNode(t, &splitPolicy{})
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = req(i, float64(i)*1.5*iso, 8*iso, 1+i%11)
	}
	run := func() {
		if _, err := node.Run(reqs); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the program's memoized layer energies
	var best uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; i == 0 || b < best {
			best = b
		}
	}
	if per := float64(best) / n; per >= bound {
		t.Fatalf("Node.Run on a fresh run state allocates %.1f B a request, want under %.0f", per, bound)
	}
}

// TestSlabGrowsWithTasksInFlight runs more simultaneous tasks than one
// slab chunk holds: the slab grows to cover them, every record is free
// again when the run ends, and a second run on the grown slab gives the
// same outcome bit for bit.
func TestSlabGrowsWithTasksInFlight(t *testing.T) {
	node, prog := testNode(t, fullPolicy{})
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	reqs := make([]workload.Request, 3*slabChunk)
	for i := range reqs {
		reqs[i] = req(i, float64(i%7)*iso/100, 1000*iso, 1+i%11)
	}
	r := new(run)
	var first *Outcome
	for pass := 0; pass < 2; pass++ {
		out, err := r.simulate(node, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.chunks) < 3 {
			t.Fatalf("pass %d: %d slab chunks for %d tasks in flight", pass, len(r.chunks), len(reqs))
		}
		checkSlabFree(t, r)
		r.release()
		if pass == 0 {
			first = out
			continue
		}
		for i := range reqs {
			if math.Float64bits(out.Finishes[i]) != math.Float64bits(first.Finishes[i]) {
				t.Fatalf("request %d finishes at %v on the grown slab, %v on a fresh one", i, out.Finishes[i], first.Finishes[i])
			}
		}
		if out.EnergyJ != first.EnergyJ || out.Fairness != first.Fairness {
			t.Fatalf("outcome differs on the grown slab: %+v vs %+v", out, first)
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
