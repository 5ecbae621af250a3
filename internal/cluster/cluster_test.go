package cluster

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
	"planaria/internal/energy"
	"planaria/internal/fault"
	"planaria/internal/metrics"
	"planaria/internal/prema"
	"planaria/internal/sched"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// toyNet builds a small network; channel width differentiates models so
// their isolated latencies differ.
func toyNet(t testing.TB, name string, ch int) *dnn.Network {
	t.Helper()
	b := dnn.NewBuilder(name, "classification", 32, 32, 8)
	b.Conv("c1", ch, 3, 1)
	b.Conv("c2", ch, 3, 1)
	b.GlobalPool("gp")
	b.FC("fc", 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// toyModels are the model names every test system serves.
var toyModels = []string{"toy-a", "toy-b"}

// compilePrograms compiles the toy models for a config.
func compilePrograms(t testing.TB, cfg arch.Config) map[string]*compiler.Program {
	t.Helper()
	progs := map[string]*compiler.Program{}
	for i, name := range toyModels {
		p, err := compiler.CompileProgram(toyNet(t, name, 32+16*i), cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = p
	}
	return progs
}

// spatialSystem is a toy Planaria chip (spatial fission scheduler).
func spatialSystem(t testing.TB) metrics.System {
	t.Helper()
	cfg := arch.Planaria()
	return metrics.System{
		Name: "Planaria", Cfg: cfg, Programs: compilePrograms(t, cfg),
		Params:    energy.Default(),
		NewPolicy: func() sim.Policy { return sched.NewSpatial(cfg) },
	}
}

// premaSystem is a toy monolithic chip (PREMA token scheduler).
func premaSystem(t testing.TB) metrics.System {
	t.Helper()
	cfg := arch.Monolithic()
	return metrics.System{
		Name: "PREMA", Cfg: cfg, Programs: compilePrograms(t, cfg),
		Params:    energy.Default(),
		NewPolicy: func() sim.Policy { return prema.NewToken(cfg) },
	}
}

// genReqs draws a seeded Poisson stream over the toy models. QoS bounds
// are generous by default so completion dominates; tests that want
// pressure pass a small qos.
func genReqs(n int, qps, qos float64, seed int64) []workload.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]workload.Request, 0, n)
	levels := []string{"QoS-S", "QoS-M", "QoS-H"}
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / qps
		model := toyModels[rng.Intn(len(toyModels))]
		reqs = append(reqs, workload.Request{
			ID: i, Model: model, Domain: "classification",
			Arrival: t, Priority: rng.Intn(11) + 1,
			QoS: qos, Deadline: t + qos,
			Level: levels[rng.Intn(len(levels))],
		})
	}
	return reqs
}

// checkConservation asserts the terminal-state invariant and that no
// request ID reached more than one chip.
func checkConservation(t *testing.T, cfg Config, reqs []workload.Request, out *Outcome) {
	t.Helper()
	total := out.Completed + out.ShedFront + out.ShedChips + out.Rejected + out.ShedDrain
	if total != len(reqs) {
		t.Errorf("conservation violated: completed %d + shedFront %d + shedChips %d + rejected %d + shedDrain %d = %d, want %d",
			out.Completed, out.ShedFront, out.ShedChips, out.Rejected, out.ShedDrain, total, len(reqs))
	}
	completed := 0
	for i, fin := range out.Finishes {
		if fin >= 0 {
			completed++
			if out.Latency[i] < 0 {
				t.Errorf("request %d: negative latency %g", i, out.Latency[i])
			}
			if fin < reqs[i].Arrival {
				t.Errorf("request %d finished at %g before its arrival %g", i, fin, reqs[i].Arrival)
			}
		}
	}
	if completed != out.Completed {
		t.Errorf("Completed = %d but %d finishes are non-negative", out.Completed, completed)
	}
	seen := map[int]int{}
	groups := 0
	for c, cr := range out.PerChip {
		groups += len(cr.Requests)
		for _, r := range cr.Requests {
			if prev, dup := seen[r.ID]; dup {
				t.Errorf("request ID %d dispatched to chip %d and chip %d", r.ID, prev, c)
			}
			seen[r.ID] = c
		}
		if len(cr.Requests) != out.Dispatched[c] {
			t.Errorf("chip %d: %d requests vs Dispatched %d", c, len(cr.Requests), out.Dispatched[c])
		}
	}
	if groups != out.Batches {
		t.Errorf("Batches = %d but chips hold %d dispatch groups", out.Batches, groups)
	}
	if cfg.Trace != nil {
		if err := cfg.Trace.Validate(); err != nil {
			t.Errorf("front-door trace invalid: %v", err)
		}
	}
	if out.Fleet != nil {
		if err := out.Fleet.Validate(); err != nil {
			t.Errorf("fleet lifecycle log invalid: %v", err)
		}
	}
}

func TestConservationTable(t *testing.T) {
	spatial := spatialSystem(t)
	monolithic := premaSystem(t)
	faults16 := func(chips int, seed int64) []*fault.Schedule {
		out := make([]*fault.Schedule, chips)
		for i := range out {
			s, err := fault.Generate(16, 4, 40, 0.5, 0.05, seed+int64(i))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = s
		}
		return out
	}
	cases := []struct {
		name string
		cfg  Config
		reqs []workload.Request
	}{
		{
			name: "single-chip-passthrough",
			cfg:  Config{System: spatial, Chips: 1},
			reqs: genReqs(60, 400, 1, 1),
		},
		{
			name: "round-robin-4",
			cfg:  Config{System: spatial, Chips: 4, Policy: "round-robin"},
			reqs: genReqs(120, 800, 1, 2),
		},
		{
			name: "least-work-batching",
			cfg: Config{System: spatial, Chips: 3, Policy: "least-work",
				BatchWindow: 2e-3, MaxBatch: 4},
			reqs: genReqs(120, 1500, 1, 3),
		},
		{
			name: "affinity-admission",
			cfg: Config{System: spatial, Chips: 2, Policy: "affinity",
				Admission: map[string]TokenBucket{
					"QoS-H": {Rate: 200, Burst: 4, MaxQueue: 2},
					"":      {Rate: 2000, Burst: 32, MaxQueue: 16},
				}},
			reqs: genReqs(150, 2000, 1, 4),
		},
		{
			name: "faulted-fission-shedding",
			cfg: Config{System: spatial, Chips: 3, Policy: "least-work",
				Faults: faults16(3, 7), FaultMode: sim.FaultFission,
				Shed: sim.ShedDoomed},
			reqs: genReqs(100, 600, 0.02, 5),
		},
		{
			name: "prema-derate-batched",
			cfg: Config{System: monolithic, Chips: 2, Policy: "round-robin",
				BatchWindow: 1e-3,
				Faults:      faults16(2, 11), FaultMode: sim.FaultDerate},
			reqs: genReqs(80, 500, 1, 6),
		},
		{
			name: "unknown-model-rejected",
			cfg:  Config{System: spatial, Chips: 2, Policy: "least-work"},
			reqs: append(genReqs(40, 400, 1, 8),
				workload.Request{ID: 900, Model: "no-such-model", Domain: "classification",
					Arrival: 0.01, Priority: 5, QoS: 1, Deadline: 1.01}),
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			cfg.Trace = &sim.Trace{}
			out, err := Run(cfg, tc.reqs)
			if err != nil {
				t.Fatal(err)
			}
			checkConservation(t, cfg, tc.reqs, out)
			if tc.name == "unknown-model-rejected" && out.Rejected != 1 {
				t.Errorf("Rejected = %d, want exactly the unknown-model request", out.Rejected)
			}
		})
	}
}

// TestConservationRandomized is the quick-style sweep: random cluster
// shapes, policies, batching, admission, and faults, all seeded, must
// preserve the terminal-state invariant.
func TestConservationRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized conservation sweep is not short")
	}
	spatial := spatialSystem(t)
	policies := Policies()
	for trial := 0; trial < 12; trial++ {
		trial := trial
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		cfg := Config{
			System: spatial,
			Chips:  1 + rng.Intn(5),
			Policy: policies[rng.Intn(len(policies))],
		}
		if rng.Intn(2) == 1 {
			cfg.BatchWindow = 1e-4 * float64(1+rng.Intn(50))
			cfg.MaxBatch = 1 + rng.Intn(8)
		}
		if rng.Intn(2) == 1 {
			cfg.Admission = map[string]TokenBucket{
				"QoS-H": {Rate: 50 + 400*rng.Float64(), Burst: 1 + float64(rng.Intn(8)), MaxQueue: rng.Intn(4)},
				"QoS-M": {Rate: 100 + 900*rng.Float64(), Burst: 1 + float64(rng.Intn(16)), MaxQueue: rng.Intn(8)},
			}
		}
		if rng.Intn(2) == 1 {
			cfg.FaultMode = sim.FaultFission
			cfg.Shed = sim.ShedPolicy(rng.Intn(3))
			cfg.Faults = make([]*fault.Schedule, cfg.Chips)
			for i := range cfg.Faults {
				s, err := fault.Generate(16, 4, 20+80*rng.Float64(), 0.4, 0.03, int64(trial*10+i))
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults[i] = s
			}
		}
		qos := []float64{0.01, 0.05, 1}[rng.Intn(3)]
		reqs := genReqs(40+rng.Intn(80), 200+2000*rng.Float64(), qos, int64(trial))
		t.Run("", func(t *testing.T) {
			t.Parallel()
			cfg := cfg
			cfg.Trace = &sim.Trace{}
			out, err := Run(cfg, reqs)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			checkConservation(t, cfg, reqs, out)
		})
	}
}

func TestBatchingGroupsWithinWindow(t *testing.T) {
	sys := spatialSystem(t)
	mk := func(id int, at float64, model string) workload.Request {
		return workload.Request{ID: id, Model: model, Domain: "classification",
			Arrival: at, Priority: 5, QoS: 1, Deadline: at + 1}
	}
	reqs := []workload.Request{
		mk(0, 0.0000, "toy-a"),
		mk(1, 0.0004, "toy-a"), // inside 0's window
		mk(2, 0.0006, "toy-b"), // different model: own batch
		mk(3, 0.0030, "toy-a"), // after 0's window closed
	}
	tr := &sim.Trace{}
	out, err := Run(Config{System: sys, Chips: 1, BatchWindow: 1e-3, Trace: tr}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Batches != 3 {
		t.Fatalf("Batches = %d, want 3 (a+a fused, b alone, late a alone)", out.Batches)
	}
	if out.BatchedReqs != 2 {
		t.Errorf("BatchedReqs = %d, want 2", out.BatchedReqs)
	}
	if want := 4.0 / 3.0; math.Abs(out.MeanBatchSize-want) > 1e-12 {
		t.Errorf("MeanBatchSize = %g, want %g", out.MeanBatchSize, want)
	}
	chip := out.PerChip[0]
	if len(chip.Requests) != 3 {
		t.Fatalf("chip got %d dispatch groups, want 3", len(chip.Requests))
	}
	lead := chip.Requests[0]
	if lead.ID != 0 || lead.Work != 1+DefaultBatchAlpha {
		t.Errorf("fused leader = ID %d Work %g, want ID 0 Work %g", lead.ID, lead.Work, 1+DefaultBatchAlpha)
	}
	if lead.Arrival != 1e-3 {
		t.Errorf("fused batch dispatched at %g, want window close 1e-3", lead.Arrival)
	}
	// Both members share the batch finish; latency runs from own arrival.
	if out.Finishes[0] != out.Finishes[1] {
		t.Errorf("batch members finished at %g and %g, want shared completion", out.Finishes[0], out.Finishes[1])
	}
	if out.Latency[0] <= out.Latency[1] {
		t.Errorf("leader latency %g should exceed later member's %g", out.Latency[0], out.Latency[1])
	}
	batchEvents := 0
	for _, e := range tr.Events {
		if e.Kind == sim.EvBatch {
			batchEvents++
			if e.Task == 0 && e.Alloc != 2 {
				t.Errorf("fused batch event size %d, want 2", e.Alloc)
			}
		}
	}
	if batchEvents != 3 {
		t.Errorf("trace has %d batch events, want 3", batchEvents)
	}
}

func TestBatchingMaxBatchClosesEarly(t *testing.T) {
	sys := spatialSystem(t)
	var reqs []workload.Request
	for i := 0; i < 4; i++ {
		at := float64(i) * 1e-5
		reqs = append(reqs, workload.Request{ID: i, Model: "toy-a", Domain: "classification",
			Arrival: at, Priority: 5, QoS: 1, Deadline: at + 1})
	}
	out, err := Run(Config{System: sys, Chips: 1, BatchWindow: 1e-2, MaxBatch: 2}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Batches != 2 || out.BatchedReqs != 4 {
		t.Fatalf("Batches = %d BatchedReqs = %d, want 2 full pairs", out.Batches, out.BatchedReqs)
	}
	// A full batch closes at its filling arrival, not the window end.
	if got := out.PerChip[0].Requests[0].Arrival; got != 1e-5 {
		t.Errorf("first pair dispatched at %g, want 1e-5 (second member's arrival)", got)
	}
}

func TestAdmissionBucketShedsOverflow(t *testing.T) {
	sys := spatialSystem(t)
	var reqs []workload.Request
	for i := 0; i < 5; i++ {
		reqs = append(reqs, workload.Request{ID: i, Model: "toy-a", Domain: "classification",
			Arrival: float64(i) * 1e-6, Priority: 5, QoS: 10, Deadline: 10, Level: "QoS-H"})
	}
	out, err := Run(Config{
		System: sys, Chips: 1,
		Admission: map[string]TokenBucket{"QoS-H": {Rate: 10, Burst: 1, MaxQueue: 2}},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Burst admits one instantly, two wait for tokens, two overflow.
	if out.ShedFront != 2 {
		t.Fatalf("ShedFront = %d, want 2 (queue bound 2)", out.ShedFront)
	}
	if out.Completed != 3 {
		t.Errorf("Completed = %d, want 3", out.Completed)
	}
	// The queued admits are paced at the refill rate.
	dispatchTimes := make([]float64, 0, 3)
	for _, r := range out.PerChip[0].Requests {
		dispatchTimes = append(dispatchTimes, r.Arrival)
	}
	if len(dispatchTimes) != 3 {
		t.Fatalf("chip got %d requests, want 3", len(dispatchTimes))
	}
	if math.Abs(dispatchTimes[1]-0.1) > 1e-9 || math.Abs(dispatchTimes[2]-0.2) > 1e-9 {
		t.Errorf("queued admits at %g and %g, want 0.1 and 0.2 (rate 10/s)", dispatchTimes[1], dispatchTimes[2])
	}
}

func TestAdmissionUnmatchedLevelFallsBack(t *testing.T) {
	sys := spatialSystem(t)
	reqs := []workload.Request{
		{ID: 0, Model: "toy-a", Domain: "classification", Arrival: 0, Priority: 5, QoS: 1, Deadline: 1, Level: "QoS-S"},
		{ID: 1, Model: "toy-a", Domain: "classification", Arrival: 1e-6, Priority: 5, QoS: 1, Deadline: 1, Level: "QoS-S"},
	}
	// No "QoS-S" bucket and no "" fallback: admit freely.
	out, err := Run(Config{System: sys, Chips: 1,
		Admission: map[string]TokenBucket{"QoS-H": {Rate: 1, Burst: 1}}}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if out.ShedFront != 0 || out.Completed != 2 {
		t.Fatalf("unmatched level: shed %d completed %d, want 0/2", out.ShedFront, out.Completed)
	}
	// With a "" fallback of burst 1 and no queue, the second request sheds.
	out, err = Run(Config{System: sys, Chips: 1,
		Admission: map[string]TokenBucket{"": {Rate: 1, Burst: 1}}}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if out.ShedFront != 1 || out.Completed != 1 {
		t.Fatalf("fallback bucket: shed %d completed %d, want 1/1", out.ShedFront, out.Completed)
	}
}

func TestDeadChipsRoutedAround(t *testing.T) {
	sys := spatialSystem(t)
	// Chip 0 permanently loses every subarray before any arrival.
	dead := &fault.Schedule{Units: 16, Pods: 4}
	for u := 0; u < 16; u++ {
		dead.Events = append(dead.Events, fault.Event{Time: 1e-4, Kind: fault.KindSubarray, Unit: u})
	}
	reqs := genReqs(40, 300, 1, 9)
	for i := range reqs {
		reqs[i].Arrival += 1e-3 // all arrive after the chip dies
		reqs[i].Deadline = reqs[i].Arrival + reqs[i].QoS
	}
	for _, pol := range Policies() {
		out, err := Run(Config{
			System: sys, Chips: 2, Policy: pol,
			Faults:    []*fault.Schedule{dead, nil},
			FaultMode: sim.FaultFission,
		}, reqs)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if out.Dispatched[0] != 0 {
			t.Errorf("%s: dead chip 0 received %d dispatches", pol, out.Dispatched[0])
		}
		if out.Dispatched[1] != len(reqs) {
			t.Errorf("%s: healthy chip got %d of %d dispatches", pol, out.Dispatched[1], len(reqs))
		}
	}
}

func TestAllChipsDeadShedsEverything(t *testing.T) {
	sys := spatialSystem(t)
	dead := &fault.Schedule{Units: 16, Pods: 4}
	for u := 0; u < 16; u++ {
		dead.Events = append(dead.Events, fault.Event{Time: 0, Kind: fault.KindSubarray, Unit: u})
	}
	reqs := genReqs(10, 300, 1, 10)
	tr := &sim.Trace{}
	out, err := Run(Config{
		System: sys, Chips: 1,
		Faults:    []*fault.Schedule{dead},
		FaultMode: sim.FaultFission,
		Trace:     tr,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if out.ShedFront != len(reqs) || out.Completed != 0 {
		t.Fatalf("dead cluster: shed %d completed %d, want %d/0", out.ShedFront, out.Completed, len(reqs))
	}
	checkConservation(t, Config{Trace: tr}, reqs, out)
}

func TestRunRejectsBadConfigs(t *testing.T) {
	sys := spatialSystem(t)
	reqs := genReqs(4, 100, 1, 1)
	cases := []struct {
		name string
		cfg  Config
		rs   []workload.Request
	}{
		{"zero chips", Config{System: sys, Chips: 0}, reqs},
		{"no requests", Config{System: sys, Chips: 1}, nil},
		{"unknown policy", Config{System: sys, Chips: 1, Policy: "bogus"}, reqs},
		{"fault arity", Config{System: sys, Chips: 2, Faults: []*fault.Schedule{nil}}, reqs},
		{"bad bucket", Config{System: sys, Chips: 1,
			Admission: map[string]TokenBucket{"QoS-H": {Rate: -1, Burst: 1}}}, reqs},
		{"duplicate IDs", Config{System: sys, Chips: 1},
			[]workload.Request{reqs[0], reqs[0]}},
		{"fission units mismatch", Config{System: sys, Chips: 1,
			Faults:    []*fault.Schedule{{Units: 4, Pods: 4, Events: []fault.Event{{Kind: fault.KindSubarray}}}},
			FaultMode: sim.FaultFission}, reqs},
	}
	for _, tc := range cases {
		if _, err := Run(tc.cfg, tc.rs); err == nil {
			t.Errorf("%s: Run accepted a bad config", tc.name)
		}
	}
}

// TestClusterRunDeterministic pins byte-level reproducibility of a full
// cluster run (batching + admission + faults + all policies).
func TestClusterRunDeterministic(t *testing.T) {
	sys := spatialSystem(t)
	reqs := genReqs(80, 1200, 0.05, 14)
	faults := make([]*fault.Schedule, 3)
	for i := range faults {
		s, err := fault.Generate(16, 4, 30, 0.3, 0.02, int64(20+i))
		if err != nil {
			t.Fatal(err)
		}
		faults[i] = s
	}
	for _, pol := range Policies() {
		run := func() string {
			tr := &sim.Trace{}
			out, err := Run(Config{
				System: sys, Chips: 3, Policy: pol,
				BatchWindow: 5e-4, MaxBatch: 4,
				Admission: map[string]TokenBucket{"QoS-H": {Rate: 400, Burst: 8, MaxQueue: 4}},
				Faults:    faults, FaultMode: sim.FaultFission, Shed: sim.ShedDoomed,
				Trace: tr,
			}, reqs)
			if err != nil {
				t.Fatal(err)
			}
			return renderOutcome(out) + tr.String()
		}
		if a, b := run(), run(); a != b {
			t.Errorf("%s: cluster run not deterministic", pol)
		}
	}
}

// TestRunRejectsMalformedRequests feeds cluster.Run one malformed field
// at a time: each call fails before any event is recorded, with an error
// naming the request and the field.
func TestRunRejectsMalformedRequests(t *testing.T) {
	sys := spatialSystem(t)
	cases := []struct {
		name  string
		edit  func(r *workload.Request)
		field string
	}{
		{"NaN arrival", func(r *workload.Request) { r.Arrival = math.NaN() }, "Arrival"},
		{"+Inf arrival", func(r *workload.Request) { r.Arrival = math.Inf(1) }, "Arrival"},
		{"negative arrival", func(r *workload.Request) { r.Arrival = -1 }, "Arrival"},
		{"NaN deadline", func(r *workload.Request) { r.Deadline = math.NaN() }, "Deadline"},
		{"negative work", func(r *workload.Request) { r.Work = -1 }, "Work"},
		{"duplicate ID", func(r *workload.Request) { r.ID = 0 }, "ID"},
	}
	for _, c := range cases {
		reqs := genReqs(4, 100, 1, 1)
		c.edit(&reqs[2])
		tr := &sim.Trace{}
		_, err := Run(Config{System: sys, Chips: 2, Trace: tr}, reqs)
		var re *workload.RequestError
		if !errors.As(err, &re) || re.Index != 2 || re.Field != c.field {
			t.Errorf("%s: err = %v, want a RequestError for index 2, field %s", c.name, err, c.field)
		}
		if len(tr.Events) != 0 {
			t.Errorf("%s: %d events recorded before the error", c.name, len(tr.Events))
		}
	}
}
