package sched

import (
	"math"
	"reflect"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/energy"
	"planaria/internal/obs"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// elasticNode builds a single-chip node around the toy program for
// full-engine policy comparisons.
func elasticNode(t *testing.T, prog *compiler.Program, pol sim.Policy, tr *sim.Trace) *sim.Node {
	t.Helper()
	return &sim.Node{
		Cfg:      arch.Planaria(),
		Policy:   pol,
		Programs: map[string]*compiler.Program{prog.Net.Name: prog},
		Params:   energy.Default(),
		Trace:    tr,
	}
}

// TestElasticMinMatchesEstimateResources: the elastic candidate minimum,
// the first n whose remaining time fits the slack, must be the exact n
// that Algorithm 1's ESTIMATERESOURCES scan picks.
func TestElasticMinMatchesEstimateResources(t *testing.T) {
	cfg := arch.Planaria()
	prog := toyProg(t, cfg)
	s := NewSpatial(cfg)
	cps := cfg.CyclesPerSecond()
	for _, deadline := range []float64{1e-9, cfg.Seconds(prog.Table(16).TotalCycles) * 1.05,
		cfg.Seconds(prog.Table(4).TotalCycles) * 1.01, 10} {
		task := mkTask(t, 0, prog, deadline, 5)
		want := s.EstimateResources(task, 0, 16)
		got := 0
		for n := 1; n <= 16; n++ {
			if float64(task.RemainingCycles(n))/cps <= task.Slack(0) {
				got = n
				break
			}
		}
		if got == 0 {
			got = 16
		}
		if got != want {
			t.Errorf("deadline %g: first fitting n is %d, EstimateResources picks %d", deadline, got, want)
		}
	}
}

// TestElasticAbsorbsArrivalByShrinkingDonor: a donor running far ahead
// of its deadline gives up exactly the subarrays a new arrival needs,
// and neither drops below its minimum.
func TestElasticAbsorbsArrivalByShrinkingDonor(t *testing.T) {
	cfg := arch.Planaria()
	prog := toyProg(t, cfg)
	el := NewElastic(cfg)
	s := el.sp
	donor := mkTask(t, 0, prog, 10.0, 5) // huge slack: headroom at any allocation
	donor.Alloc = 16
	tight := mkTask(t, 1, prog, cfg.Seconds(prog.Table(8).TotalCycles)*1.01, 5)
	tasks := []*sim.Task{donor, tight}
	dst := make([]int, 2)
	el.AllocateInto(0, tasks, 16, dst)
	minTight := s.EstimateResources(tight, 0, 16)
	if dst[1] < minTight {
		t.Fatalf("arrival got %d subarrays, needs %d", dst[1], minTight)
	}
	if dst[0] < 1 {
		t.Fatalf("donor shrunk to %d", dst[0])
	}
	if dst[0]+dst[1] > 16 {
		t.Fatalf("over-allocated: %d+%d", dst[0], dst[1])
	}
}

// TestElasticSteadyStateReissuesPlan: feeding a plan back as the
// current allocation re-issues it unchanged, so the engine applies no
// reallocation (and charges no penalty) in steady state.
func TestElasticSteadyStateReissuesPlan(t *testing.T) {
	cfg := arch.Planaria()
	prog := toyProg(t, cfg)
	el := NewElastic(cfg)
	tasks := []*sim.Task{
		mkTask(t, 0, prog, 0.5, 8),
		mkTask(t, 1, prog, 1.0, 3),
		mkTask(t, 2, prog, 0.2, 5),
	}
	dst := make([]int, len(tasks))
	el.AllocateInto(0, tasks, 16, dst)
	for i, t2 := range tasks {
		t2.Alloc = dst[i]
	}
	again := make([]int, len(tasks))
	el.AllocateInto(0, tasks, 16, again)
	if !reflect.DeepEqual(dst, again) {
		t.Fatalf("steady state re-plans %v to %v", dst, again)
	}
}

// TestElasticNextRefission covers the wakeup contract: comfortable
// queues never wake; a starved queue wakes at a boundary strictly after
// now, no sooner than MinIntervalS; an all-stalled queue (nothing
// running) has no boundary to wake at.
func TestElasticNextRefission(t *testing.T) {
	cfg := arch.Planaria()
	prog := toyProg(t, cfg)
	el := NewElastic(cfg)

	comfortable := mkTask(t, 0, prog, 10.0, 5)
	comfortable.Alloc = 16
	if got := el.NextRefission(0, []*sim.Task{comfortable}, 16); !math.IsInf(got, 1) {
		t.Fatalf("comfortable queue wakes at %g, want +Inf", got)
	}

	stalled := mkTask(t, 1, prog, 0.01, 5)
	both := []*sim.Task{comfortable, stalled}
	got := el.NextRefission(0, both, 16)
	if math.IsInf(got, 1) || got <= 0 {
		t.Fatalf("starved queue wakes at %g, want finite > now", got)
	}
	if got < el.MinIntervalS {
		t.Fatalf("wakeup %g under the %g floor", got, el.MinIntervalS)
	}

	onlyStalled := []*sim.Task{stalled}
	if got := el.NextRefission(0, onlyStalled, 16); !math.IsInf(got, 1) {
		t.Fatalf("nothing running but wake at %g, want +Inf", got)
	}
}

// elasticScenario builds a stream that forces a mid-flight re-fission:
// a front task whose tight deadline makes it hold most of the chip at
// admission, then a burst of looser arrivals whose minimal demands
// exceed the leftover — they stall at their arrival events. As the
// front task races ahead on its over-allocation, its own minimum
// decays until a donation covers a stalled task's minimum: a window
// only a tile-boundary re-split can exploit, since no arrival,
// completion, or quantum event falls inside it.
func elasticScenario(prog *compiler.Program, cfg arch.Config) []workload.Request {
	iso := cfg.Seconds(prog.Table(16).TotalCycles)
	mk := func(id int, at, qos float64, prio int) workload.Request {
		return workload.Request{
			ID: id, Model: prog.Net.Name, Domain: "classification",
			Arrival: at, Priority: prio, QoS: qos, Deadline: at + qos,
		}
	}
	reqs := []workload.Request{
		mk(0, 0, 1.2*iso, 5),
	}
	at := iso * 0.05
	for i := 1; i <= 6; i++ {
		reqs = append(reqs, mk(i, at, 3.0*iso, 5+i%3))
		at += iso * 0.02
	}
	return reqs
}

// TestElasticRunRefissionsAndIdentity runs the elastic policy through
// the full engine: the scenario must actually trigger re-fissions
// (EvRefission events and an Outcome count), the trace must validate,
// and two runs must be byte-identical.
func TestElasticRunRefissionsAndIdentity(t *testing.T) {
	cfg := arch.Planaria()
	prog := toyProg(t, cfg)
	reqs := elasticScenario(prog, cfg)

	run := func() (*sim.Outcome, *sim.Trace) {
		t.Helper()
		tr := &sim.Trace{}
		el := NewElastic(cfg)
		// The default 200 µs wakeup floor targets millisecond-scale
		// serving models; the toy program finishes in ~2.5 µs, so scale
		// the floor with it.
		el.MinIntervalS = cfg.Seconds(prog.Table(16).TotalCycles) * 0.02
		out, err := elasticNode(t, prog, el, tr).Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return out, tr
	}
	out1, tr1 := run()
	out2, tr2 := run()

	if out1.Refissions == 0 {
		t.Fatalf("scenario triggered no re-fissions (preemptions=%d)", out1.Preemptions)
	}
	refEvents := 0
	for _, e := range tr1.Events {
		if e.Kind == sim.EvRefission {
			refEvents++
		}
	}
	if refEvents == 0 {
		t.Fatal("no EvRefission events in trace")
	}
	if err := tr1.Validate(); err != nil {
		t.Fatalf("elastic trace invalid: %v", err)
	}
	if !reflect.DeepEqual(out1, out2) {
		t.Fatalf("elastic outcome not reproducible:\n%+v\nvs\n%+v", out1, out2)
	}
	if !reflect.DeepEqual(tr1.Events, tr2.Events) {
		t.Fatalf("elastic trace not reproducible (%d vs %d events)", len(tr1.Events), len(tr2.Events))
	}
}

// TestElasticObserverDelegation: an elastic decision lands as one fission
// decision in the occupancy of the Spatial it wraps, so the ablation
// compares like for like; refission activity itself is counted by the
// engine.
func TestElasticObserverDelegation(t *testing.T) {
	cfg := arch.Planaria()
	prog := toyProg(t, cfg)
	occ := &obs.Occupancy{}
	el := NewElastic(cfg)
	el.SetOccupancy(occ)
	task := mkTask(t, 0, prog, 1, 5)
	dst := make([]int, 1)
	el.AllocateInto(0, []*sim.Task{task}, 16, dst)
	if occ.Decisions != 1 || occ.FitDecisions != 1 {
		t.Fatalf("decisions %d, fit %d through delegation; want 1, 1", occ.Decisions, occ.FitDecisions)
	}
}
