package sim

import (
	"math"
	"math/rand"
	"testing"

	"planaria/internal/fault"
	"planaria/internal/obs"
	"planaria/internal/workload"
)

// fuzzValue maps one fuzz byte to a field value: a small multiple of unit
// (ties are common), or NaN, ±Inf or -1.
func fuzzValue(b byte, unit float64) float64 {
	switch b % 16 {
	case 12:
		return math.NaN()
	case 13:
		return math.Inf(1)
	case 14:
		return math.Inf(-1)
	case 15:
		return -1
	}
	return float64(b/16) * unit
}

// fuzzStream decodes up to 16 requests, five bytes each (ID, arrival,
// deadline, work, model and priority), after one header byte that picks
// the ID scheme. iso is the toy model's isolated run time.
func fuzzStream(data []byte, iso float64) []workload.Request {
	if len(data) == 0 {
		return nil
	}
	positional := data[0]&1 == 0
	data = data[1:]
	var reqs []workload.Request
	for i := 0; len(data) >= 5 && i < 16; i, data = i+1, data[5:] {
		r := req(int(data[0]%32), fuzzValue(data[1], iso/2), 0, 1+int(data[4]%11))
		if positional {
			r.ID = i
		}
		r.Deadline = r.Arrival + fuzzValue(data[2], iso)
		r.QoS = r.Deadline - r.Arrival
		r.Work = fuzzValue(data[3], 0.25)
		if data[4]%8 == 0 {
			r.Model = "no-such-model"
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// fuzzFaults decodes the fault header byte of FuzzNodeRun: bit 0 attaches
// a transient fault schedule, bit 2 selects derate instead of fission
// masking, bits 3-4 pick what fails (subarray 0, subarray 15, pod 0's
// link or every pod link) and bits 5-7 when it first lands. The fault
// lands twice, half an isolated run apart, and MaxAttempts is 0, 1 or 2.
// In the last slot (bits 5-7 all set) it is never repaired, so failing
// every pod link kills the chip for good.
// It returns a fresh injector per call (injectors are stateful), or nil.
func fuzzFaults(node *Node, extra byte, iso float64) func() *fault.Injector {
	if extra&1 == 0 {
		return nil
	}
	node.FaultMode = FaultFission
	if extra&4 != 0 {
		node.FaultMode = FaultDerate
	}
	slot := int(extra >> 5)
	node.MaxAttempts = slot % 3
	var failing []fault.Event
	switch (extra >> 3) & 3 {
	case 0:
		failing = []fault.Event{{Kind: fault.KindSubarray, Unit: 0}}
	case 1:
		failing = []fault.Event{{Kind: fault.KindSubarray, Unit: 15}}
	case 2:
		failing = []fault.Event{{Kind: fault.KindLink, Unit: 0}}
	default:
		for pod := 0; pod < 4; pod++ {
			failing = append(failing, fault.Event{Kind: fault.KindLink, Unit: pod})
		}
	}
	s := &fault.Schedule{Units: 16, Pods: 4}
	repair := iso / 3
	if slot == 7 {
		repair = 0 // permanent
	}
	for _, at := range []float64{float64(slot) * iso / 4, float64(slot)*iso/4 + iso/2} {
		for _, e := range failing {
			e.Time, e.Duration = at, repair
			s.Events = append(s.Events, e)
		}
	}
	return func() *fault.Injector {
		in, err := fault.NewInjector(s)
		if err != nil {
			panic(err)
		}
		return in
	}
}

// simulateChecked is Node.Run on a run state of its own. After a run
// that succeeds it asserts that every task record is back on the slab's
// free list (checkSlabFree).
func simulateChecked(t *testing.T, node *Node, reqs []workload.Request) (*Outcome, error) {
	t.Helper()
	r := new(run)
	defer r.release()
	out, err := r.simulate(node, reqs)
	if err == nil {
		checkSlabFree(t, r)
	}
	return out, err
}

// checkSlabFree asserts that each of the slab's records is on its free
// list exactly once: every request's record went back at its one
// terminal point, and none went back twice.
func checkSlabFree(t *testing.T, r *run) {
	t.Helper()
	if want := len(r.chunks) * slabChunk; len(r.free) != want {
		t.Fatalf("%d of %d task records free when the run ended", len(r.free), want)
	}
	seen := make(map[*Task]bool, len(r.free))
	for _, rec := range r.free {
		if seen[rec] {
			t.Fatalf("task record %p on the free list twice", rec)
		}
		seen[rec] = true
	}
}

// checkFairness asserts that the fairness folded at retirement equals,
// bit for bit, the reference computed from the Outcome (refFairness).
func checkFairness(t *testing.T, node *Node, reqs []workload.Request, out *Outcome) {
	t.Helper()
	if want := refFairness(node, reqs, out); math.Float64bits(out.Fairness) != math.Float64bits(want) {
		t.Fatalf("Fairness = %v, reference over the Outcome %v", out.Fairness, want)
	}
}

// checkObserved asserts the views a fully observed run folded from its
// event stream: a closed ledger record per request whose cause is done
// exactly for the completed ones, trace event counts equal to the
// Outcome's tallies, the occupancy partition and a valid trace.
func checkObserved(t *testing.T, node *Node, reqs []workload.Request, out *Outcome) {
	t.Helper()
	completed := 0
	for i, fin := range out.Finishes {
		if fin >= 0 {
			completed++
		}
		if !node.Attrib.Closed(i) {
			t.Fatalf("request %d: ledger record left open", i)
		}
		if done := node.Attrib.Cause(i) == obs.CauseDone; done != (fin >= 0) {
			t.Fatalf("request %d: cause %v with finish %v", i, node.Attrib.Cause(i), fin)
		}
	}
	var n [EvRefission + 1]int
	preempted := 0
	for _, e := range node.Trace.Events {
		n[e.Kind]++
		// Resizing a running task is also a preemption.
		if e.Kind == EvPreempt || e.Kind == EvRefission && e.Depth > 0 {
			preempted++
		}
	}
	for _, c := range []struct {
		what, field string
		trace, want int
	}{
		{"finishes", "completed Finishes", n[EvFinish], completed},
		{"kills", "Outcome.Killed", n[EvKill], out.Killed},
		{"sheds", "Outcome.Shed", n[EvShed], out.Shed},
		{"rejects", "Outcome.Rejected", n[EvReject], out.Rejected},
		{"faults", "Outcome.FaultEvents", n[EvFault], out.FaultEvents},
		{"refissions", "Outcome.Refissions", n[EvRefission], out.Refissions},
		{"preemptions", "Outcome.Preemptions", preempted, out.Preemptions},
	} {
		if c.trace != c.want {
			t.Fatalf("trace %s %d, %s %d", c.what, c.trace, c.field, c.want)
		}
	}
	o := node.Occ
	if sum := o.Busy + o.Reconfig + o.Faulted + o.Idle; sum != o.Units*o.Horizon {
		t.Fatalf("occupancy %+v: busy+reconfig+faulted+idle = %d, units×horizon = %d", *o, sum, o.Units*o.Horizon)
	}
	if err := node.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}

// checkVerdict asserts that a verdict-only run of reqs on node, with a
// fresh policy and fault injector and no sinks, agrees with the full
// run's outcome out or error err: the same verdict, and where the full
// run failed, the same error or false.
func checkVerdict(t *testing.T, node Node, newPolicy func() Policy, faults func() *fault.Injector, reqs []workload.Request, out *Outcome, err error) {
	t.Helper()
	node.Policy = newPolicy()
	node.Trace, node.Timeline, node.Attrib, node.Occ = nil, nil, nil, nil
	if faults != nil {
		node.Faults = faults()
	}
	meets, verr := node.MeetsSLA(reqs)
	switch {
	case err == nil && (verr != nil || meets != out.MeetsSLA):
		t.Fatalf("MeetsSLA = %v, %v; Run's verdict %v", meets, verr, out.MeetsSLA)
	case err != nil && verr != nil && verr.Error() != err.Error():
		t.Fatalf("MeetsSLA error %q, Run error %q", verr, err)
	case err != nil && verr == nil && meets:
		t.Fatalf("MeetsSLA = true where Run failed: %v", err)
	}
}

// FuzzNodeRun drives Node.Run with small arbitrary streams: unsorted and
// tied arrivals, duplicate and non-positional IDs, an unknown model, and
// NaN, ±Inf and negative fields, under the map-path, slice-path and
// elastic test policies, every shed policy and, per the extra header
// byte, a fault schedule (fuzzFaults) and all four sinks (bit 1). Run
// must not panic, must fail exactly when workload.Validate rejects the
// stream, and on success must account for every request (completed +
// shed + rejected = n) with no finish before its arrival, give every
// task record back to the slab (checkSlabFree) and fold the reference
// fairness (checkFairness); an observed run must pass checkObserved.
// MeetsSLA must agree with Run (checkVerdict). A
// stream with distinct arrivals,
// shuffled with IDs kept, must give every request the same finish bit for
// bit.
func FuzzNodeRun(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{0, 0, 0, 16, 0, 1, 1, 16, 32, 16, 2})
	f.Add(byte(4), byte(2), []byte{1, 3, 48, 32, 16, 5, 3, 16, 32, 0, 6, 7, 16, 16, 0, 9})
	f.Add(byte(7), byte(0x23), []byte{0, 1, 12, 16, 0, 1, 2, 13, 16, 15, 1})
	f.Add(byte(2), byte(0x5f), []byte{0, 0, 0, 16, 0, 1, 16, 32, 64, 16, 2, 32, 48, 16, 0, 3})
	// Every pod link fails, twice, before the only arrival: the faults
	// must be applied, and traced, before the arrival is.
	f.Add(byte(1), byte(0x5f), []byte("000000"))
	// Every pod link fails for good while tasks run and more arrive: the
	// dead-chip drain sheds them all.
	f.Add(byte(1), byte(0xfb), []byte{0, 0, 0, 16, 0, 1, 16, 32, 64, 16, 2, 32, 48, 16, 0, 3})
	// The second arrival preempts the running task, then every pod link
	// fails for good and both are shed: the preemption still counts.
	f.Add(byte(2), byte(0xfb), []byte("00 00100001"))
	f.Fuzz(func(t *testing.T, setup, extra byte, data []byte) {
		node, prog := testNode(t, nil)
		iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
		reqs := fuzzStream(data, iso)
		if len(reqs) == 0 {
			return
		}
		faults := fuzzFaults(node, extra, iso)
		if faults != nil {
			node.Faults = faults()
		}
		observed := extra&2 != 0
		if observed {
			node.Trace, node.Timeline = &Trace{}, obs.NewTraceBuilder(1e6)
			node.Attrib, node.Occ = obs.NewLedger(0), obs.NewOccupancy(0)
		}
		policies := []func() Policy{
			func() Policy { return fullPolicy{} },
			func() Policy { return &splitPolicy{at: iso} },
			func() Policy { return &stubRefission{splitPolicy{at: iso}, true} },
		}
		newPolicy := policies[int(setup)%len(policies)]
		node.Shed = ShedPolicy(setup / 4 % 3)
		node.Policy = newPolicy()
		out, err := simulateChecked(t, node, reqs)
		verr := workload.Validate(reqs)
		if (err != nil) != (verr != nil) {
			t.Fatalf("Run error %v, Validate error %v", err, verr)
		}
		checkVerdict(t, *node, newPolicy, faults, reqs, out, err)
		if err != nil {
			return
		}
		completed := 0
		for i, fin := range out.Finishes {
			if fin < 0 {
				continue
			}
			completed++
			if fin < reqs[i].Arrival {
				t.Fatalf("request %d finishes at %g before arriving at %g", i, fin, reqs[i].Arrival)
			}
		}
		if completed+out.Shed+out.Rejected != len(reqs) {
			t.Fatalf("completed %d + shed %d + rejected %d != %d requests", completed, out.Shed, out.Rejected, len(reqs))
		}
		checkFairness(t, node, reqs, out)
		if observed {
			checkObserved(t, node, reqs, out)
		}

		seen := map[float64]bool{}
		for _, r := range reqs {
			if seen[r.Arrival] {
				return
			}
			seen[r.Arrival] = true
		}
		shuffled := append([]workload.Request(nil), reqs...)
		rand.New(rand.NewSource(int64(len(data)))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		node.Policy = newPolicy()
		node.Trace, node.Timeline, node.Attrib, node.Occ = nil, nil, nil, nil
		if faults != nil {
			node.Faults = faults()
		}
		out2, err := node.Run(shuffled)
		if err != nil {
			t.Fatalf("shuffled stream failed: %v", err)
		}
		byID := map[int]float64{}
		for i, r := range reqs {
			byID[r.ID] = out.Finishes[i]
		}
		for i, r := range shuffled {
			if math.Float64bits(out2.Finishes[i]) != math.Float64bits(byID[r.ID]) {
				t.Fatalf("request ID %d finishes at %v shuffled, %v in order", r.ID, out2.Finishes[i], byID[r.ID])
			}
		}
	})
}
