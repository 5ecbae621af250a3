package sim

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
	"planaria/internal/energy"
	"planaria/internal/workload"
)

// fullPolicy gives every task an equal share (test stand-in).
type fullPolicy struct{}

func (fullPolicy) Name() string     { return "test-equal" }
func (fullPolicy) Quantum() float64 { return 0 }
func (fullPolicy) Allocate(now float64, tasks []*Task, total int) map[int]int {
	m := make(map[int]int, len(tasks))
	if len(tasks) == 0 {
		return m
	}
	share := total / len(tasks)
	if share < 1 {
		share = 1
	}
	left := total
	for _, t := range tasks {
		a := share
		if a > left {
			a = left
		}
		m[t.ID] = a
		left -= a
	}
	return m
}

func toyNet(t *testing.T, name string) *dnn.Network {
	t.Helper()
	b := dnn.NewBuilder(name, "classification", 32, 32, 8)
	b.Conv("c1", 32, 3, 1)
	b.Conv("c2", 32, 3, 1)
	b.GlobalPool("gp")
	b.FC("fc", 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testNode(t *testing.T, pol Policy) (*Node, *compiler.Program) {
	t.Helper()
	cfg := arch.Planaria()
	net := toyNet(t, "sim-toy")
	prog, err := compiler.CompileProgram(net, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	return &Node{
		Cfg:      cfg,
		Policy:   pol,
		Programs: map[string]*compiler.Program{"sim-toy": prog},
		Params:   energy.Default(),
	}, prog
}

func req(id int, arrival, qos float64, prio int) workload.Request {
	return workload.Request{
		ID: id, Model: "sim-toy", Domain: "classification",
		Arrival: arrival, Priority: prio, QoS: qos, Deadline: arrival + qos,
	}
}

func TestSingleRequestLatencyEqualsIsolated(t *testing.T) {
	node, prog := testNode(t, fullPolicy{})
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	out, err := node.Run([]workload.Request{req(0, 0, 1, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Latency[0]-iso) > iso*0.01+1e-9 {
		t.Fatalf("lone-task latency %.3g, isolated %.3g", out.Latency[0], iso)
	}
	if out.Preemptions != 0 {
		t.Errorf("lone task preempted %d times", out.Preemptions)
	}
	if out.EnergyJ <= 0 {
		t.Errorf("energy = %g", out.EnergyJ)
	}
}

func TestCoLocatedTasksBothFinish(t *testing.T) {
	node, prog := testNode(t, fullPolicy{})
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	reqs := []workload.Request{req(0, 0, 1, 5), req(1, 0, 1, 5)}
	out, err := node.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if out.Finishes[i] < 0 {
			t.Fatalf("request %d never finished", i)
		}
		if out.Latency[i] < iso {
			t.Errorf("co-located latency %.3g below isolated %.3g", out.Latency[i], iso)
		}
	}
	if out.Fairness <= 0 || out.Fairness > 1+1e-9 {
		t.Errorf("fairness = %g outside (0,1]", out.Fairness)
	}
}

func TestStaggeredArrivals(t *testing.T) {
	node, _ := testNode(t, fullPolicy{})
	reqs := []workload.Request{
		req(0, 0.000, 1, 5),
		req(1, 0.001, 1, 5),
		req(2, 0.050, 1, 5),
	}
	out, err := node.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if out.Finishes[i] < reqs[i].Arrival {
			t.Fatalf("request %d finished before arriving", i)
		}
	}
	if !out.MeetsSLA {
		t.Error("easy workload should meet SLA")
	}
}

func TestDeterminism(t *testing.T) {
	reqs := []workload.Request{req(0, 0, 1, 5), req(1, 0.0005, 1, 7), req(2, 0.001, 1, 2)}
	node1, _ := testNode(t, fullPolicy{})
	node2, _ := testNode(t, fullPolicy{})
	o1, err := node1.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := node2.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range o1.Finishes {
		if o1.Finishes[i] != o2.Finishes[i] {
			t.Fatalf("nondeterministic finish for request %d: %g vs %g", i, o1.Finishes[i], o2.Finishes[i])
		}
	}
	if o1.EnergyJ != o2.EnergyJ {
		t.Fatalf("nondeterministic energy: %g vs %g", o1.EnergyJ, o2.EnergyJ)
	}
}

func TestUnknownModelRejected(t *testing.T) {
	node, _ := testNode(t, fullPolicy{})
	bad := workload.Request{ID: 0, Model: "no-such-model", Arrival: 0, QoS: 1, Deadline: 1, Priority: 1}
	out, err := node.Run([]workload.Request{bad})
	if err != nil {
		t.Fatalf("an unknown model must reject its request, not fail the run: %v", err)
	}
	if out.Rejected != 1 || out.Finishes[0] != -1 {
		t.Fatalf("Rejected = %d, Finishes[0] = %g; want 1 and -1", out.Rejected, out.Finishes[0])
	}
}

// TestUnknownModelRejectionOutcome checks that a request for an unknown
// model becomes a per-request rejection rather than failing the whole
// run, and the other requests finish untouched.
func TestUnknownModelRejectionOutcome(t *testing.T) {
	node, _ := testNode(t, fullPolicy{})
	node.Trace = &Trace{}
	reqs := []workload.Request{
		req(0, 0, 1, 1),
		{ID: 1, Model: "no-such-model", Arrival: 10e-6, QoS: 1, Deadline: 1, Priority: 1},
		req(2, 20e-6, 1, 1),
	}
	out, err := node.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", out.Rejected)
	}
	if out.Finishes[1] != -1 {
		t.Fatalf("rejected request got a finish time %g", out.Finishes[1])
	}
	for _, i := range []int{0, 2} {
		if out.Finishes[i] < 0 {
			t.Fatalf("request %d did not finish (%g)", i, out.Finishes[i])
		}
	}
	var sawReject bool
	for _, e := range node.Trace.Events {
		if e.Kind == EvReject && e.Task == 1 {
			sawReject = true
		}
	}
	if !sawReject {
		t.Fatal("no EvReject for the unknown-model request")
	}
	if err := node.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsMalformedRequests feeds Node.Run one malformed field at
// a time: each run fails before any event is simulated, with an error
// naming the request and the field.
func TestRunRejectsMalformedRequests(t *testing.T) {
	cases := []struct {
		name  string
		edit  func(r *workload.Request)
		field string
	}{
		{"NaN arrival", func(r *workload.Request) { r.Arrival = math.NaN() }, "Arrival"},
		{"+Inf arrival", func(r *workload.Request) { r.Arrival = math.Inf(1) }, "Arrival"},
		{"negative arrival", func(r *workload.Request) { r.Arrival = -1 }, "Arrival"},
		{"NaN deadline", func(r *workload.Request) { r.Deadline = math.NaN() }, "Deadline"},
		{"+Inf work", func(r *workload.Request) { r.Work = math.Inf(1) }, "Work"},
		{"duplicate ID", func(r *workload.Request) { r.ID = 0 }, "ID"},
	}
	for _, c := range cases {
		node, _ := testNode(t, fullPolicy{})
		node.Trace = &Trace{}
		reqs := []workload.Request{req(0, 0, 1, 1), req(1, 1e-3, 1, 1)}
		c.edit(&reqs[1])
		_, err := node.Run(reqs)
		var re *workload.RequestError
		if !errors.As(err, &re) || re.Index != 1 || re.Field != c.field {
			t.Errorf("%s: err = %v, want a RequestError for index 1, field %s", c.name, err, c.field)
		}
		if len(node.Trace.Events) != 0 {
			t.Errorf("%s: %d events simulated before the error", c.name, len(node.Trace.Events))
		}
	}
}

func TestEmptyRunRejected(t *testing.T) {
	node, _ := testNode(t, fullPolicy{})
	if _, err := node.Run(nil); err == nil {
		t.Fatal("expected empty-request error")
	}
}

func TestValidateAllocationContract(t *testing.T) {
	tasks := []*Task{{ID: 1}, {ID: 2}}
	alloc := make([]int, len(tasks))
	if err := allocFromMap(map[int]int{1: 8, 2: 8}, tasks, alloc); err != nil {
		t.Fatal(err)
	}
	if alloc[0] != 8 || alloc[1] != 8 {
		t.Errorf("allocFromMap = %v, want [8 8]", alloc)
	}
	if err := validateAllocation(alloc, tasks, 16); err != nil {
		t.Errorf("valid allocation rejected: %v", err)
	}
	if err := allocFromMap(map[int]int{2: 3}, tasks, alloc); err != nil || alloc[0] != 0 || alloc[1] != 3 {
		t.Errorf("omitted task: alloc %v, err %v; want [0 3]", alloc, err)
	}
	if err := allocFromMap(map[int]int{5: 1, 3: 1, 1: 1}, tasks, alloc); err == nil || !strings.Contains(err.Error(), "unknown task 3") {
		t.Errorf("unknown-task allocation: err = %v, want the smallest unknown ID 3", err)
	}
	if err := validateAllocation([]int{9, 8}, tasks, 16); err == nil {
		t.Error("over-allocation accepted")
	}
	if err := validateAllocation([]int{-1, 0}, tasks, 16); err == nil {
		t.Error("negative allocation accepted")
	}
}

// contractPolicy returns a fixed allocation map at every event, through
// Allocate only (the map path).
type contractPolicy struct{ alloc map[int]int }

func (contractPolicy) Name() string     { return "test-contract" }
func (contractPolicy) Quantum() float64 { return 0 }
func (p contractPolicy) Allocate(now float64, tasks []*Task, total int) map[int]int {
	return p.alloc
}

// contractSlicePolicy serves the same allocation positionally through
// AllocateInto (the slice path).
type contractSlicePolicy struct{ contractPolicy }

func (p contractSlicePolicy) AllocateInto(now float64, tasks []*Task, total int, dst []int) {
	for i, t := range tasks {
		dst[i] = p.alloc[t.ID]
	}
}

// TestPolicyContractErrors runs two co-arriving requests (IDs 7 and 8)
// under policies that break the allocation contract; each run must fail
// with an error naming the offending task, on both the map and the slice
// path.
func TestPolicyContractErrors(t *testing.T) {
	const total = 16
	cases := []struct {
		name    string
		alloc   map[int]int
		mapOnly bool
		want    string
	}{
		{"negative", map[int]int{7: -1, 8: 1}, false, "task 7"},
		{"above total", map[int]int{7: total + 1}, false, "task 7"},
		{"over-allocated sum", map[int]int{7: total, 8: 1}, false, "task 8"},
		{"unknown task", map[int]int{7: 1, 99: 1}, true, "unknown task 99"},
	}
	reqs := []workload.Request{req(7, 0, 1, 1), req(8, 0, 1, 1)}
	for _, c := range cases {
		pols := []Policy{contractPolicy{c.alloc}}
		if !c.mapOnly {
			pols = append(pols, contractSlicePolicy{contractPolicy{c.alloc}})
		}
		for _, pol := range pols {
			node, _ := testNode(t, pol)
			_, err := node.Run(reqs)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s (%T): err = %v, want one containing %q", c.name, pol, err, c.want)
			}
		}
	}
}

func TestReallocChargesPenalty(t *testing.T) {
	node, prog := testNode(t, fullPolicy{})
	_ = node
	task := &Task{ID: 0, Prog: prog, Alloc: 16, Frac: 0.3, Finish: -1}
	task.applyRealloc(8, &node.Cfg, 1)
	if task.PenaltyCycles <= configLoadCycles {
		t.Errorf("penalty = %d, want > %d (tile drain + checkpoint included)", task.PenaltyCycles, configLoadCycles)
	}
	if task.Preemptions != 1 {
		t.Errorf("preemptions = %d", task.Preemptions)
	}
	// No-op realloc has no cost.
	before := task.PenaltyCycles
	task.applyRealloc(8, &node.Cfg, 1)
	if task.PenaltyCycles != before {
		t.Error("no-op realloc charged a penalty")
	}
	// Stall (alloc 0) also checkpoints.
	task.applyRealloc(0, &node.Cfg, 1)
	if task.Alloc != 0 {
		t.Errorf("alloc = %d after stall", task.Alloc)
	}
}

func TestTaskAdvanceAcrossLayers(t *testing.T) {
	_, prog := testNode(t, fullPolicy{})
	task := &Task{ID: 0, Prog: prog, Alloc: 16, Finish: -1}
	total := prog.Table(16).TotalCycles
	consumed := task.advance(total, energy.Default())
	if consumed != total {
		t.Fatalf("consumed %d of %d", consumed, total)
	}
	if !task.Done() {
		t.Fatal("task not done after consuming all cycles")
	}
	if task.EnergyJ <= 0 {
		t.Fatal("no energy accumulated")
	}
	// Further advancing consumes nothing.
	if task.advance(100, energy.Default()) != 0 {
		t.Fatal("done task consumed cycles")
	}
}

func TestRemainingCyclesMonotoneInProgress(t *testing.T) {
	_, prog := testNode(t, fullPolicy{})
	task := &Task{ID: 0, Prog: prog, Alloc: 4, Finish: -1}
	prev := task.RemainingCycles(4)
	step := prev / 10
	for i := 0; i < 9; i++ {
		task.advance(step, energy.Default())
		cur := task.RemainingCycles(4)
		if cur > prev {
			t.Fatalf("remaining increased %d → %d at step %d", prev, cur, i)
		}
		prev = cur
	}
}

func TestCheckpointScalesWithBandwidthShare(t *testing.T) {
	// A task preempted from a small allocation has a smaller bandwidth
	// share, so checkpointing the same tile takes longer.
	node, prog := testNode(t, fullPolicy{})
	wide := &Task{ID: 0, Prog: prog, Alloc: 16, Finish: -1}
	narrow := &Task{ID: 1, Prog: prog, Alloc: 1, Finish: -1}
	cw := wide.checkpointCycles(&node.Cfg, 16)
	cn := narrow.checkpointCycles(&node.Cfg, 1)
	if cn <= cw {
		t.Fatalf("narrow-allocation checkpoint %d not above wide %d", cn, cw)
	}
	// Done tasks have nothing to checkpoint.
	done := &Task{ID: 2, Prog: prog, Alloc: 4, Layer: len(prog.Table(1).Layers)}
	if done.checkpointCycles(&node.Cfg, 4) != 0 {
		t.Fatal("done task checkpointed")
	}
}

// TestTiedArrivalsFollowSortSlice pins the order in which an unsorted
// stream with many tied arrivals is admitted: the order sort.Slice gives
// the requests themselves. Under splitPolicy the first admitted task takes
// the whole chip, so tasks finish one at a time in admission order.
func TestTiedArrivalsFollowSortSlice(t *testing.T) {
	node, prog := testNode(t, &splitPolicy{})
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	rng := rand.New(rand.NewSource(3))
	var reqs []workload.Request
	for i := 0; i < 40; i++ {
		reqs = append(reqs, req(100+i, float64(rng.Intn(6))*iso/4, 1, 1))
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	want := append([]workload.Request(nil), reqs...)
	sort.Slice(want, func(i, j int) bool { return want[i].Arrival < want[j].Arrival })

	out, err := node.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(reqs))
	for i := range got {
		got[i] = i
	}
	sort.Slice(got, func(i, j int) bool { return out.Finishes[got[i]] < out.Finishes[got[j]] })
	for k, i := range got {
		if reqs[i].ID != want[k].ID {
			t.Fatalf("finish #%d is request ID %d, want ID %d (sort.Slice order)", k, reqs[i].ID, want[k].ID)
		}
	}
}
