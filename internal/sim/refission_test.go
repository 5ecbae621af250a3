package sim

import (
	"math"
	"reflect"
	"testing"

	"planaria/internal/workload"
)

// splitPolicy is a deterministic stand-in scheduler for the re-fission
// engine hook: it gives the first task the whole chip before the split
// instant `at`, then divides the chip equally. Implementing
// SliceAllocator keeps it on the engine's zero-alloc fast path, the one
// the elastic policy uses.
type splitPolicy struct{ at float64 }

func (s *splitPolicy) Name() string     { return "stub-split" }
func (s *splitPolicy) Quantum() float64 { return 0 }

func (s *splitPolicy) AllocateInto(now float64, tasks []*Task, total int, dst []int) {
	if len(tasks) == 0 {
		return
	}
	if s.at <= 0 || now < s.at {
		dst[0] = total
		return
	}
	share := total / len(tasks)
	if share < 1 {
		share = 1
	}
	left := total
	for i := range tasks {
		a := share
		if a > left {
			a = left
		}
		dst[i] = a
		left -= a
	}
}

func (s *splitPolicy) Allocate(now float64, tasks []*Task, total int) map[int]int {
	dst := make([]int, len(tasks))
	s.AllocateInto(now, tasks, total, dst)
	m := make(map[int]int, len(tasks))
	for i, t := range tasks {
		if dst[i] > 0 {
			m[t.ID] = dst[i]
		}
	}
	return m
}

// stubRefission turns splitPolicy's split instant into a Refissioner
// wakeup: the equal split happens at a policy-requested re-fission
// instant rather than waiting for the next ordinary event.
type stubRefission struct {
	splitPolicy
	active bool
}

func (s *stubRefission) RefissionActive() bool { return s.active }

func (s *stubRefission) NextRefission(now float64, tasks []*Task, total int) float64 {
	if !s.active || s.at <= 0 || now >= s.at {
		return math.Inf(1)
	}
	return s.at
}

// refissionReqs builds two co-arriving requests with slack to spare, so
// the only interesting instant is the stub's split time.
func refissionReqs(iso float64) []workload.Request {
	return []workload.Request{req(0, 0, 8*iso, 5), req(1, 0, 8*iso, 5)}
}

// TestRefissionEventSemantics drives the engine through one policy-
// requested re-split: both allocation changes at that instant must be
// recorded as EvRefission (one shrink, one grow), counted in the
// Outcome, and never double-reported as EvPreempt.
func TestRefissionEventSemantics(t *testing.T) {
	node, prog := testNode(t, nil)
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	at := iso * 0.5
	node.Policy = &stubRefission{splitPolicy{at: at}, true}
	node.Trace = &Trace{}
	out, err := node.Run(refissionReqs(iso))
	if err != nil {
		t.Fatal(err)
	}
	if out.Refissions != 2 {
		t.Fatalf("Refissions = %d, want 2 (one shrink + one grow)", out.Refissions)
	}
	var refs []Event
	for _, e := range node.Trace.Events {
		switch e.Kind {
		case EvRefission:
			refs = append(refs, e)
		case EvPreempt:
			if e.Time == at {
				t.Fatalf("EvPreempt at the re-fission instant for task %d", e.Task)
			}
		}
	}
	if len(refs) != 2 {
		t.Fatalf("trace has %d EvRefission events, want 2", len(refs))
	}
	for _, e := range refs {
		if e.Time != at {
			t.Errorf("EvRefission at %g, want the requested instant %g", e.Time, at)
		}
		if e.Alloc != 8 {
			t.Errorf("EvRefission task %d -> %d subarrays, want 8", e.Task, e.Alloc)
		}
	}
	if refs[0].Task == refs[1].Task {
		t.Errorf("both EvRefission events on task %d", refs[0].Task)
	}
	// Depth is the allocation before the change: the running first task
	// shrinks from the whole chip, the queued second one grows from none.
	grows, shrinks := 0, 0
	for _, e := range refs {
		switch {
		case e.Alloc > e.Depth:
			grows++
		case e.Alloc < e.Depth:
			shrinks++
		}
	}
	if grows != 1 || shrinks != 1 {
		t.Errorf("EvRefission events: %d grows and %d shrinks, want one of each", grows, shrinks)
	}
	// The shrink of the running donor still counts as a preemption; the
	// regrow of the survivor at the donor's completion adds the second.
	if out.Preemptions != 2 {
		t.Errorf("Preemptions = %d, want 2", out.Preemptions)
	}
	if err := node.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range out.Finishes {
		if out.Finishes[i] < 0 {
			t.Fatalf("request %d never finished", i)
		}
	}
}

// TestRefissionInactiveMatchesPlain pins the engine-level conformance
// anchor: a Refissioner reporting inactive runs the event loop
// bit-identically to the same policy without the interface.
func TestRefissionInactiveMatchesPlain(t *testing.T) {
	nodeP, prog := testNode(t, nil)
	iso := nodeP.Cfg.Seconds(prog.Table(16).TotalCycles)
	reqs := refissionReqs(iso)
	at := iso * 0.5

	nodeP.Policy = &splitPolicy{at: at}
	nodeP.Trace = &Trace{}
	outP, err := nodeP.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}

	nodeE, _ := testNode(t, nil)
	nodeE.Policy = &stubRefission{splitPolicy{at: at}, false}
	nodeE.Trace = &Trace{}
	outE, err := nodeE.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(outP, outE) {
		t.Fatalf("inactive refissioner outcome diverged:\n%+v\nvs\n%+v", outP, outE)
	}
	if !reflect.DeepEqual(nodeP.Trace.Events, nodeE.Trace.Events) {
		t.Fatalf("inactive refissioner trace diverged (%d vs %d events)",
			len(nodeP.Trace.Events), len(nodeE.Trace.Events))
	}
	for _, e := range nodeE.Trace.Events {
		if e.Kind == EvRefission {
			t.Fatal("inactive refissioner produced an EvRefission event")
		}
	}
}

// TestRefissionGrowChargeScales: growing a stalled task at a re-fission
// instant charges the configuration-swap cost through the node's
// penalty scale — with penalties disabled the same schedule finishes
// strictly earlier.
func TestRefissionGrowChargeScales(t *testing.T) {
	run := func(scale float64) *Outcome {
		node, prog := testNode(t, nil)
		iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
		node.Policy = &stubRefission{splitPolicy{at: iso * 0.5}, true}
		node.PenaltyScale = scale
		out, err := node.Run(refissionReqs(iso))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	charged := run(1)
	free := run(-1) // negative means penalty scale 0
	if charged.Refissions != free.Refissions {
		t.Fatalf("penalty scale changed the schedule shape: %d vs %d refissions",
			charged.Refissions, free.Refissions)
	}
	if charged.Finishes[1] <= free.Finishes[1] {
		t.Fatalf("grown task unaffected by penalties: charged %.9g, free %.9g",
			charged.Finishes[1], free.Finishes[1])
	}
}

// TestTileBoundaryCycles pins the re-fission instant's source: the next
// tile boundary is strictly positive for a running task, never past the
// task's own remaining work, and degenerates to the documented values
// when stalled or done.
func TestTileBoundaryCycles(t *testing.T) {
	_, prog := testNode(t, nil)

	stalled := &Task{ID: 0, Prog: prog, Alloc: 0, Finish: -1}
	if got := stalled.TileBoundaryCycles(); got != 0 {
		t.Errorf("stalled boundary = %d, want 0", got)
	}

	done := &Task{ID: 1, Prog: prog, Alloc: 4, Layer: len(prog.Table(1).Layers), PenaltyCycles: 9}
	if got := done.TileBoundaryCycles(); got != 9 {
		t.Errorf("done boundary = %d, want its penalty 9", got)
	}

	running := &Task{ID: 2, Prog: prog, Alloc: 4, Finish: -1, bind: testBinding(prog)}
	running.advance(prog.Table(4).TotalCycles / 7)
	b := running.TileBoundaryCycles()
	if b < 1 {
		t.Fatalf("running boundary = %d, want >= 1", b)
	}
	if rem := running.RemainingCycles(running.Alloc); b > rem {
		t.Fatalf("boundary %d past remaining work %d", b, rem)
	}
	// Advancing to the boundary lands on a whole tile up to integer-cycle
	// rounding, so a re-allocation there drains a vanishing sliver rather
	// than a full tile of intermediate state.
	running.advance(b)
	tab := running.Prog.Table(running.Alloc)
	if !running.Done() && running.Frac > 0 && running.Frac < 1 {
		tiles := float64(tab.Layers[running.Layer].Tiles)
		frac := running.Frac * tiles
		if d := math.Abs(frac - math.Round(frac)); d > 0.01 {
			t.Errorf("advance(boundary) left mid-tile progress: %.9g of %g tiles", frac, tiles)
		}
	}
}
