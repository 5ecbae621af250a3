package sim_test

// Trace coverage for both serving engines: the Planaria spatial scheduler
// and the PREMA baseline must emit queue-depth samples, and their
// preemptions (spatial re-fission vs temporal context switch) must land
// as EvPreempt so either timeline converts to a Perfetto track set.

import (
	"testing"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
	"planaria/internal/energy"
	"planaria/internal/obs"
	"planaria/internal/prema"
	"planaria/internal/sched"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

func engineNode(t *testing.T, pol sim.Policy) (*sim.Node, float64) {
	t.Helper()
	cfg := arch.Planaria()
	b := dnn.NewBuilder("trace-toy", "classification", 32, 32, 8)
	b.Conv("c1", 32, 3, 1)
	b.Conv("c2", 32, 3, 1)
	b.GlobalPool("gp")
	b.FC("fc", 10)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.CompileProgram(net, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	iso := cfg.Seconds(prog.Table(cfg.NumSubarrays()).TotalCycles)
	return &sim.Node{
		Cfg:      cfg,
		Policy:   pol,
		Programs: map[string]*compiler.Program{"trace-toy": prog},
		Params:   energy.Default(),
		Trace:    &sim.Trace{},
	}, iso
}

// colocated builds three overlapping requests: the later arrivals force a
// scheduling reaction (re-fission or context switch) while request 0 runs.
func colocated(iso float64) []workload.Request {
	reqs := make([]workload.Request, 3)
	for i := range reqs {
		arr := float64(i) * iso / 4
		reqs[i] = workload.Request{
			ID: i, Model: "trace-toy", Domain: "classification",
			Arrival: arr, Priority: 1 + i, QoS: 20 * iso, Deadline: arr + 20*iso,
		}
	}
	return reqs
}

func countKinds(tr *sim.Trace) map[sim.EventKind]int {
	n := map[sim.EventKind]int{}
	for _, e := range tr.Events {
		n[e.Kind]++
	}
	return n
}

func runEngine(t *testing.T, name string, pol sim.Policy) *sim.Node {
	t.Helper()
	node, iso := engineNode(t, pol)
	node.Timeline = obs.NewTraceBuilder(1e6)
	if ob, ok := pol.(obs.Observable); ok {
		ob.SetObserver(node.Timeline)
	}
	if _, err := node.Run(colocated(iso)); err != nil {
		t.Fatalf("%s run: %v", name, err)
	}
	if err := node.Trace.Validate(); err != nil {
		t.Fatalf("%s trace invalid: %v", name, err)
	}
	kinds := countKinds(node.Trace)
	if kinds[sim.EvQueue] == 0 {
		t.Errorf("%s trace has no queue-depth samples", name)
	}
	if kinds[sim.EvPreempt] == 0 {
		t.Errorf("%s trace has no preemption events", name)
	}
	if kinds[sim.EvFinish] != 3 {
		t.Errorf("%s trace finished %d of 3 requests", name, kinds[sim.EvFinish])
	}
	if node.Timeline.Len() == 0 {
		t.Errorf("%s recorded no timeline events", name)
	}
	return node
}

func TestPlanariaEngineTraceCoverage(t *testing.T) {
	cfg := arch.Planaria()
	node := runEngine(t, "planaria", sched.NewSpatial(cfg))
	// Spatial co-location: while all three overlap, more than one task
	// must hold a non-zero allocation in at least one queue sample.
	spatial := false
	for _, e := range node.Trace.Events {
		if e.Kind == sim.EvQueue && e.Running > 1 {
			spatial = true
		}
	}
	if !spatial {
		t.Error("Planaria never co-located tasks (no queue sample with running > 1)")
	}
}

func TestPREMAEngineTraceCoverage(t *testing.T) {
	cfg := arch.Planaria()
	node := runEngine(t, "prema", prema.NewToken(cfg))
	// Temporal multi-tenancy: at most one task runs at any sample, and a
	// preemption means some task's allocation dropped to zero.
	fullDrop := false
	for _, e := range node.Trace.Events {
		switch e.Kind {
		case sim.EvQueue:
			if e.Running > 1 {
				t.Fatalf("PREMA ran %d tasks concurrently at t=%g", e.Running, e.Time)
			}
		case sim.EvPreempt:
			if e.Alloc == 0 {
				fullDrop = true
			}
		}
	}
	if !fullDrop {
		t.Error("PREMA preemptions never fully revoked an allocation")
	}
}
