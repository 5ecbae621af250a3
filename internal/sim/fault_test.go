package sim

import (
	"math"
	"reflect"
	"testing"

	"planaria/internal/fault"
	"planaria/internal/obs"
	"planaria/internal/workload"
)

// injectorOf builds an injector over the Planaria 16-subarray geometry.
func injectorOf(t *testing.T, events []fault.Event) *fault.Injector {
	t.Helper()
	in, err := fault.NewInjector(&fault.Schedule{Units: 16, Pods: 4, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestFaultKillAndRetry injects a permanent subarray fault mid-run under
// fission masking: the running task is killed at the fault instant,
// retries after its backoff, and still finishes on the surviving
// subarrays.
func TestFaultKillAndRetry(t *testing.T) {
	node, prog := testNode(t, fullPolicy{})
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	node.Trace = &Trace{}
	// Strike at half the isolated run time so the task is mid-flight.
	strike := iso / 2
	node.Faults = injectorOf(t, []fault.Event{{Time: strike, Kind: fault.KindSubarray, Unit: 0}})
	node.FaultMode = FaultFission

	out, err := simulateChecked(t, node, []workload.Request{req(0, 0, 1, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Killed != 1 || out.Retries != 1 {
		t.Fatalf("Killed=%d Retries=%d, want 1/1", out.Killed, out.Retries)
	}
	if out.FaultEvents != 1 {
		t.Fatalf("FaultEvents = %d", out.FaultEvents)
	}
	if out.Finishes[0] < 0 {
		t.Fatal("killed task never finished after retry")
	}
	// Progress restarted from scratch after the strike plus backoff, on
	// 15 of 16 subarrays.
	restartIso := node.Cfg.Seconds(prog.Table(15).TotalCycles)
	if out.Finishes[0] < strike+restartIso {
		t.Fatalf("finish %.3g earlier than strike %.3g + restarted run %.3g", out.Finishes[0], strike, restartIso)
	}
	var kills, retries int
	for _, e := range node.Trace.Events {
		switch e.Kind {
		case EvKill:
			kills++
			if e.Attempt != 1 {
				t.Errorf("kill attempt = %d", e.Attempt)
			}
		case EvRetry:
			retries++
		}
	}
	if kills != 1 || retries != 1 {
		t.Fatalf("trace kills=%d retries=%d", kills, retries)
	}
	if err := node.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultOnFreeSubarrayKillsNobody: under fission, a fault landing on a
// subarray no task owns only shrinks capacity.
func TestFaultOnFreeSubarrayKillsNobody(t *testing.T) {
	node, _ := testNode(t, halfPolicy{})
	// halfPolicy allocates 8 of 16 subarrays (the low prefix of the alive
	// set under the contiguous-placement model); unit 15 stays free.
	node.Faults = injectorOf(t, []fault.Event{{Time: 1e-6, Kind: fault.KindSubarray, Unit: 15}})
	node.FaultMode = FaultFission
	out, err := node.Run([]workload.Request{req(0, 0, 1, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Killed != 0 {
		t.Fatalf("free-subarray fault killed %d tasks", out.Killed)
	}
	if out.Finishes[0] < 0 {
		t.Fatal("task never finished")
	}
}

// halfPolicy allocates half the chip to the first task only.
type halfPolicy struct{}

func (halfPolicy) Name() string     { return "test-half" }
func (halfPolicy) Quantum() float64 { return 0 }
func (halfPolicy) Allocate(now float64, tasks []*Task, total int) map[int]int {
	if len(tasks) == 0 {
		return nil
	}
	h := total / 2
	if h < 1 {
		h = 1
	}
	return map[int]int{tasks[0].ID: h}
}

// TestDerateModeKillsRunningTask: the monolithic baseline cannot mask,
// so the same fault kills whoever is running and derates throughput.
func TestDerateModeKillsRunningTask(t *testing.T) {
	node, prog := testNode(t, fullPolicy{})
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	node.Faults = injectorOf(t, []fault.Event{{Time: iso / 2, Kind: fault.KindSubarray, Unit: 15}})
	node.FaultMode = FaultDerate
	out, err := simulateChecked(t, node, []workload.Request{req(0, 0, 1, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Killed != 1 {
		t.Fatalf("derate-mode fault killed %d tasks, want 1", out.Killed)
	}
	if out.Finishes[0] < 0 {
		t.Fatal("task never finished")
	}
	// Restarted work runs at 15/16 speed: strictly slower than a clean
	// restart at full rate.
	if out.Finishes[0] <= iso/2+iso {
		t.Fatalf("finish %.3g not derated (strike %.3g + full-rate rerun %.3g)", out.Finishes[0], iso/2, iso)
	}
}

// TestRetryBudgetExhaustionSheds: repeated strikes on the same task
// exhaust MaxAttempts and the request is dropped as shed.
func TestRetryBudgetExhaustionSheds(t *testing.T) {
	node, prog := testNode(t, fullPolicy{})
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	// Transient faults recur long before the task can finish; repairs
	// keep capacity available so the task keeps retrying.
	events := []fault.Event{}
	for i := 0; i < 5; i++ {
		events = append(events, fault.Event{
			Time: iso / 4 * float64(i+1), Kind: fault.KindSubarray, Unit: i, Duration: iso / 16,
		})
	}
	node.Faults = injectorOf(t, events)
	node.FaultMode = FaultFission
	node.MaxAttempts = 2
	// Backoff far below the strike period so retries land back in the
	// line of fire.
	node.RetryBase = iso / 100
	node.RetryCap = iso / 50
	node.Trace = &Trace{}
	out, err := simulateChecked(t, node, []workload.Request{req(0, 0, 1, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Killed < 3 {
		t.Fatalf("Killed = %d, want ≥ 3 (budget of 2 retries)", out.Killed)
	}
	if out.Shed != 1 {
		t.Fatalf("Shed = %d, want 1 (dropped after MaxAttempts)", out.Shed)
	}
	if out.Finishes[0] != -1 {
		t.Fatalf("dropped task finished at %g", out.Finishes[0])
	}
	if err := node.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShedDoomedDeclinesHopelessRequest: with the chip degraded, a
// request whose isolated run cannot meet its deadline is shed on arrival.
func TestShedDoomedDeclinesHopelessRequest(t *testing.T) {
	node, prog := testNode(t, fullPolicy{})
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	node.Shed = ShedDoomed
	node.Trace = &Trace{}
	reqs := []workload.Request{
		req(0, 0, iso*4, 5),       // generous deadline: admitted
		req(1, 1e-6, iso*0.01, 5), // hopeless deadline: shed
	}
	out, err := node.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", out.Shed)
	}
	if out.Finishes[1] != -1 {
		t.Fatalf("shed request finished at %g", out.Finishes[1])
	}
	if out.Finishes[0] < 0 {
		t.Fatal("admitted request never finished")
	}
	if err := node.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShedPriorityPrefersImportantRequests: under identical hopeless-ish
// load, the low-priority request sheds while the high-priority one is
// admitted.
func TestShedPriorityPrefersImportantRequests(t *testing.T) {
	node, prog := testNode(t, fullPolicy{})
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	node.Shed = ShedPriority
	// With one task in flight the load-inflated estimate is
	// 2×iso/priority against a 1.5×iso deadline: priority 1 misses
	// (2×iso > 1.5×iso) and sheds, priority 10 meets (0.2×iso) and is
	// admitted. ShedDoomed would admit both — the bare isolated estimate
	// of 1×iso fits the deadline.
	reqs := []workload.Request{
		req(0, 0, iso*10, 5),
		req(1, 1e-6, iso*1.5, 1),
		req(2, 2e-6, iso*1.5, 10),
	}
	out, err := node.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Finishes[2] < 0 {
		t.Fatal("high-priority request was not admitted")
	}
	if out.Shed == 0 {
		t.Fatal("no request shed under priority shedding")
	}
	if out.Finishes[1] != -1 {
		t.Fatalf("low-priority request finished at %g despite shedding", out.Finishes[1])
	}
}

// TestFaultRunDeterministic: two runs over the same schedule and seed
// produce identical outcomes and traces.
func TestFaultRunDeterministic(t *testing.T) {
	run := func() (*Outcome, *Trace) {
		node, prog := testNode(t, fullPolicy{})
		iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
		sched, err := fault.Generate(16, 4, 3/iso, iso*3, iso/8, 7)
		if err != nil {
			t.Fatal(err)
		}
		in, err := fault.NewInjector(sched)
		if err != nil {
			t.Fatal(err)
		}
		node.Faults = in
		node.FaultMode = FaultFission
		node.Shed = ShedDoomed
		node.Trace = &Trace{}
		reqs := []workload.Request{
			req(0, 0, iso*8, 5), req(1, iso/3, iso*8, 3), req(2, iso/2, iso*8, 9),
		}
		out, err := node.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return out, node.Trace
	}
	o1, t1 := run()
	o2, t2 := run()
	if !reflect.DeepEqual(o1, o2) {
		t.Fatalf("outcomes differ:\n%+v\n%+v", o1, o2)
	}
	if !reflect.DeepEqual(t1.Events, t2.Events) {
		t.Fatal("traces differ")
	}
	if err := t1.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroFaultPathUnchanged: attaching no injector and ShedNone must
// reproduce the plain serving numbers bit-for-bit — the guard for the
// acceptance criterion that fault machinery costs nothing when off.
func TestZeroFaultPathUnchanged(t *testing.T) {
	run := func(configure func(*Node)) *Outcome {
		node, _ := testNode(t, fullPolicy{})
		configure(node)
		reqs := []workload.Request{req(0, 0, 1, 5), req(1, 100e-6, 1, 3), req(2, 250e-6, 1, 9)}
		out, err := node.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := run(func(n *Node) {})
	// An injector with an empty schedule and explicit zero-value knobs.
	emptied := run(func(n *Node) {
		in, err := fault.NewInjector(&fault.Schedule{Units: 16, Pods: 4})
		if err != nil {
			t.Fatal(err)
		}
		n.Faults = in
		n.FaultMode = FaultFission
		n.Shed = ShedNone
	})
	if !reflect.DeepEqual(plain, emptied) {
		t.Fatalf("empty fault schedule perturbed the run:\n%+v\n%+v", plain, emptied)
	}
	if plain.Killed != 0 || plain.Shed != 0 || plain.Rejected != 0 || plain.FaultEvents != 0 {
		t.Fatalf("fault tallies nonzero on clean run: %+v", plain)
	}
	if math.IsNaN(plain.EnergyJ) {
		t.Fatal("energy NaN")
	}
}

// TestDeadChipRejectsUnknownModel: a request for a model the node has no
// program for is rejected even when it is still to arrive as a dead
// chip drains, the same as on a live chip; the drain sheds only requests
// the chip could have served. Here every pod link dies under the running
// task, which is killed, retried onto the dead chip and drained there.
func TestDeadChipRejectsUnknownModel(t *testing.T) {
	node, prog := testNode(t, fullPolicy{})
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	var links []fault.Event
	for pod := 0; pod < 4; pod++ {
		links = append(links, fault.Event{Time: iso / 2, Kind: fault.KindLink, Unit: pod})
	}
	node.Faults = injectorOf(t, links)
	node.Trace, node.Attrib = &Trace{}, obs.NewLedger(0)
	lost := req(1, iso+1, 1, 5)
	lost.Model = "no-such-model"
	out, err := simulateChecked(t, node, []workload.Request{req(0, 0, 1, 5), lost})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rejected != 1 || out.Shed != 1 {
		t.Fatalf("Rejected=%d Shed=%d, want 1 and 1", out.Rejected, out.Shed)
	}
	var kinds []EventKind
	for _, e := range node.Trace.Events {
		if e.Task == 1 {
			kinds = append(kinds, e.Kind)
		}
	}
	if want := []EventKind{EvArrival, EvReject}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("unknown-model request traced as %v, want %v", kinds, want)
	}
	if c := node.Attrib.Cause(1); c != obs.CauseRejected {
		t.Fatalf("unknown-model request closed with cause %v, want rejected", c)
	}
	if c := node.Attrib.Cause(0); c != obs.CauseShedDeadChip {
		t.Fatalf("drained request closed with cause %v, want shed-dead-chip", c)
	}
}

// TestDeadChipDrainFreesEveryRecord kills the chip for good with a task
// backing off after its kill, a task queued and a request still to
// arrive: the drain sheds all three, and the two admitted tasks' records
// go back to the slab.
func TestDeadChipDrainFreesEveryRecord(t *testing.T) {
	node, prog := testNode(t, fullPolicy{})
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	var links []fault.Event
	for pod := 0; pod < 4; pod++ {
		links = append(links, fault.Event{Time: iso / 2, Kind: fault.KindLink, Unit: pod})
	}
	node.Faults = injectorOf(t, links)
	// The killed task is still backing off when the second request
	// arrives on the dead chip.
	node.RetryBase, node.RetryCap = 4*iso, 4*iso
	out, err := simulateChecked(t, node, []workload.Request{req(0, 0, 1, 5), req(1, iso, 1, 5), req(2, 2*iso, 1, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Killed != 1 || out.Retries != 1 || out.Shed != 3 {
		t.Fatalf("Killed=%d Retries=%d Shed=%d, want 1, 1 and 3", out.Killed, out.Retries, out.Shed)
	}
}

// TestArrivalDuringFullOutage: a request that arrives while every pod
// link is down, with a task already waiting on the repair, is admitted at
// its own instant rather than at the repair. The clock never runs
// backwards, so the trace stays in time order and the busy time within
// the makespan; under ShedDoomed the zero-capacity chip sheds the
// arrival at once.
func TestArrivalDuringFullOutage(t *testing.T) {
	for _, shed := range []ShedPolicy{ShedNone, ShedDoomed} {
		// halfPolicy runs request 0 alone, so request 1 is still queued
		// when the outage kills request 0.
		node, prog := testNode(t, halfPolicy{})
		iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
		var links []fault.Event
		for pod := 0; pod < 4; pod++ {
			links = append(links, fault.Event{Time: iso / 2, Kind: fault.KindLink, Unit: pod, Duration: iso})
		}
		node.Faults = injectorOf(t, links)
		node.Shed, node.Trace = shed, &Trace{}
		reqs := []workload.Request{req(0, 0, 1, 5), req(1, 0, 1, 5), req(2, iso, 1, 5)}
		out, err := node.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Trace.Validate(); err != nil {
			t.Fatalf("%v: %v", shed, err)
		}
		if out.BusyTime > out.Makespan {
			t.Fatalf("%v: busy %g exceeds makespan %g", shed, out.BusyTime, out.Makespan)
		}
		if shedArrival := out.Finishes[2] < 0; shedArrival != (shed == ShedDoomed) {
			t.Fatalf("%v: request arriving mid-outage finished at %g", shed, out.Finishes[2])
		}
	}
}
