package sim

import (
	"math"
	"reflect"
	"testing"

	"planaria/internal/fault"
	"planaria/internal/obs"
	"planaria/internal/simtime"
	"planaria/internal/workload"
)

// countingPolicy is fullPolicy counting its calls and recording the
// instant of the latest.
type countingPolicy struct {
	fullPolicy
	calls int
	last  float64
}

func (p *countingPolicy) Allocate(now float64, tasks []*Task, total int) map[int]int {
	p.calls++
	p.last = now
	return p.fullPolicy.Allocate(now, tasks, total)
}

// overloaded returns n requests arriving three per isolated run time,
// each with twice that time to finish: the queue grows without bound
// and the stream misses the SLA.
func overloaded(iso float64, n int) []workload.Request {
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = req(i, float64(i)*iso/3, 2*iso, 1+i%11)
	}
	return reqs
}

// TestMeetsSLAStopsEarly checks that a verdict-only run on an overloaded
// stream gives Run's verdict, stops before the last arrival and calls
// the policy fewer times than the full run.
func TestMeetsSLAStopsEarly(t *testing.T) {
	node, prog := testNode(t, nil)
	reqs := overloaded(node.Cfg.Seconds(prog.Table(16).TotalCycles), 300)
	full := &countingPolicy{}
	node.Policy = full
	out, err := node.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if out.MeetsSLA {
		t.Fatal("the overloaded stream meets the SLA")
	}
	early := &countingPolicy{}
	node.Policy = early
	meets, err := node.MeetsSLA(reqs)
	if err != nil || meets {
		t.Fatalf("MeetsSLA = %v, %v; want false, nil", meets, err)
	}
	if last := reqs[len(reqs)-1].Arrival; early.last >= last {
		t.Errorf("verdict-only run called the policy at t=%g, last arrival at %g", early.last, last)
	}
	if early.calls >= full.calls {
		t.Errorf("verdict-only run called the policy %d times, Run %d", early.calls, full.calls)
	}
}

// TestMeetsSLAWithSinksRunsToEnd checks that with sinks attached a
// verdict-only run goes to the end: it calls the policy as often as Run
// and records the same trace and ledger.
func TestMeetsSLAWithSinksRunsToEnd(t *testing.T) {
	node, prog := testNode(t, nil)
	reqs := overloaded(node.Cfg.Seconds(prog.Table(16).TotalCycles), 100)
	type sinks struct {
		trace  *Trace
		attrib *obs.Ledger
		calls  int
	}
	var got [2]sinks
	for i := range got {
		pol := &countingPolicy{}
		node.Policy, node.Trace, node.Attrib = pol, &Trace{}, obs.NewLedger(0)
		var meets bool
		var err error
		if i == 0 {
			var out *Outcome
			if out, err = node.Run(reqs); err == nil {
				meets = out.MeetsSLA
			}
		} else {
			meets, err = node.MeetsSLA(reqs)
		}
		if err != nil || meets {
			t.Fatalf("run %d: meets %v, error %v; want false, nil", i, meets, err)
		}
		got[i] = sinks{node.Trace, node.Attrib, pol.calls}
	}
	if got[1].calls != got[0].calls {
		t.Errorf("MeetsSLA with sinks called the policy %d times, Run %d", got[1].calls, got[0].calls)
	}
	if !reflect.DeepEqual(got[1].trace.Events, got[0].trace.Events) {
		t.Errorf("MeetsSLA recorded %d trace events, Run %d, or they differ", len(got[1].trace.Events), len(got[0].trace.Events))
	}
	for i := range reqs {
		if !got[1].attrib.Closed(i) || got[1].attrib.Cause(i) != got[0].attrib.Cause(i) {
			t.Fatalf("request %d: ledger closed %v with cause %v, Run's cause %v",
				i, got[1].attrib.Closed(i), got[1].attrib.Cause(i), got[0].attrib.Cause(i))
		}
	}
}

// TestMeetsSLACountsEachMissOnce runs 100 requests of which the SLA
// allows one to miss. Request 0 misses: its deadline passes while it
// runs, and then two fault landings kill it past MaxAttempts, so it is
// shed. MeetsSLA must count it once and agree with Run that the stream
// meets the SLA.
func TestMeetsSLACountsEachMissOnce(t *testing.T) {
	node, prog := testNode(t, nil)
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	reqs := []workload.Request{req(0, 0, iso/10, 1)}
	for i := 1; i < 100; i++ {
		reqs = append(reqs, req(i, float64(2*i)*iso, 10*iso, 1+i%11))
	}
	node.FaultMode, node.MaxAttempts = FaultDerate, 1
	node.RetryBase, node.RetryCap = iso/10, iso
	s := &fault.Schedule{Units: 16, Pods: 4, Events: []fault.Event{
		{Time: 0.3 * iso, Kind: fault.KindSubarray, Unit: 3, Duration: iso / 20},
		{Time: 0.6 * iso, Kind: fault.KindSubarray, Unit: 3, Duration: iso / 20},
	}}
	var verdicts [2]bool
	for i := range verdicts {
		in, err := fault.NewInjector(s)
		if err != nil {
			t.Fatal(err)
		}
		node.Policy, node.Faults = fullPolicy{}, in
		if i == 0 {
			out, err := node.Run(reqs)
			if err != nil {
				t.Fatal(err)
			}
			if out.Shed != 1 || out.Finishes[0] >= 0 {
				t.Fatalf("request 0 finishes at %v with %d shed; want it shed", out.Finishes[0], out.Shed)
			}
			verdicts[i] = out.MeetsSLA
		} else if verdicts[i], err = node.MeetsSLA(reqs); err != nil {
			t.Fatal(err)
		}
	}
	if !verdicts[0] || !verdicts[1] {
		t.Fatalf("Run meets the SLA: %v, MeetsSLA: %v; want both true", verdicts[0], verdicts[1])
	}
}

// TestMeetsSLADeadlineBoundary pins the on-time boundary of a
// verdict-only run: request 0 finishes exactly at its deadline plus
// simtime.Eps, which is on time, so both Run and MeetsSLA must say the
// two-request stream meets the SLA. Request 1 arrives long after, so the
// run is still going when request 0 retires and the verdict is checked
// (with request 0 alone the run would end first). A late test of
// "at or past" instead of "past" would count request 0 as a miss and,
// with one miss in two, doom the verdict.
func TestMeetsSLADeadlineBoundary(t *testing.T) {
	node, prog := testNode(t, fullPolicy{})
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	reqs := []workload.Request{req(0, 0, 1, 5), req(1, 10*iso, 10*iso, 5)}
	out, err := node.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	f := out.Finishes[0]
	if f <= 0 || f >= reqs[1].Arrival {
		t.Fatalf("request 0 finishes at %g, want in (0, %g)", f, reqs[1].Arrival)
	}
	// The deadline d with d + Eps == f, found by stepping one ulp at a
	// time from f - Eps.
	d := f - simtime.Eps
	for d+simtime.Eps > f {
		d = math.Nextafter(d, math.Inf(-1))
	}
	for d+simtime.Eps < f {
		d = math.Nextafter(d, math.Inf(1))
	}
	if d+simtime.Eps != f {
		t.Fatalf("no deadline d with d + %g == %g", simtime.Eps, f)
	}
	reqs[0].QoS, reqs[0].Deadline = d, d
	if out, err = node.Run(reqs); err != nil {
		t.Fatal(err)
	}
	if out.Finishes[0] != f || !out.MeetsSLA {
		t.Fatalf("Run: request 0 finishes at %g (want %g), meets %v; want on time and true", out.Finishes[0], f, out.MeetsSLA)
	}
	if meets, err := node.MeetsSLA(reqs); err != nil || !meets {
		t.Fatalf("MeetsSLA = %v, %v; want true, nil: a finish at deadline + Eps is on time", meets, err)
	}
}

// TestMarkLateBoundary pins markLate's on-time boundary. At a clock equal
// to a task's Deadline+simtime.Eps the task can still finish on time (a
// finish at that instant is on time), so it is not counted as a miss and
// that instant comes back as the next one to check; one ulp later it is
// a certain miss, counted once. A test of "at or past" instead of "past"
// would count it at the boundary. No run-level test sees that: it changes
// only how early a doomed run stops, never the verdict.
func TestMarkLateBoundary(t *testing.T) {
	r := &run{reqs: []workload.Request{req(0, 0, 1, 5)}}
	r.startTally()
	task := &Task{ID: 0, Req: r.reqs[0], pos: 0}
	d := task.Req.Deadline + simtime.Eps
	r.now = d
	if next := r.markLate(task, math.Inf(1)); task.late || next != d || r.doms[0].misses != 0 {
		t.Fatalf("at deadline + Eps: late %v, next %g (want %g), %d misses; want on time",
			task.late, next, d, r.doms[0].misses)
	}
	r.now = math.Nextafter(d, math.Inf(1))
	if next := r.markLate(task, 7); !task.late || next != 7 || r.doms[0].misses != 1 {
		t.Fatalf("one ulp past deadline + Eps: late %v, next %g (want 7), %d misses; want one miss",
			task.late, next, r.doms[0].misses)
	}
	if next := r.markLate(task, 7); next != 7 || r.doms[0].misses != 1 {
		t.Fatalf("a late task marked again: next %g, %d misses; want 7 and still one", next, r.doms[0].misses)
	}
}
