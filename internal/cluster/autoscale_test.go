package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"planaria/internal/fault"
	"planaria/internal/obs"
	"planaria/internal/workload"
)

// wantChips is a test controller that always asks for a fixed fleet size.
type wantChips int

func (w wantChips) Name() string              { return "fixed" }
func (w wantChips) Desired(s ScaleSignal) int { return int(w) }

// deadChip is a fault schedule that takes every pod's link down
// permanently at the given instant — the cluster's model of a chip that
// dies and never comes back.
func deadChip(t *testing.T, at float64) *fault.Schedule {
	t.Helper()
	s := &fault.Schedule{Units: 16, Pods: 4}
	for pod := 0; pod < s.Pods; pod++ {
		s.Events = append(s.Events, fault.Event{Time: at, Kind: fault.KindLink, Unit: pod})
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// burstReqs is genReqs plus a dense burst: burstN extra requests packed
// into [burstAt, burstAt+burstLen), modelling a flash crowd.
func burstReqs(n int, qps, qos float64, seed int64, burstAt, burstLen float64, burstN int) []workload.Request {
	reqs := genReqs(n, qps, qos, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < burstN; i++ {
		at := burstAt + burstLen*float64(i)/float64(burstN)
		model := toyModels[rng.Intn(len(toyModels))]
		reqs = append(reqs, workload.Request{
			ID: n + i, Model: model, Domain: "classification",
			Arrival: at, Priority: rng.Intn(11) + 1,
			QoS: qos, Deadline: at + qos,
			Level: "QoS-M",
		})
	}
	// Re-sort by arrival so the stream stays a valid arrival order; IDs
	// stop being the identity permutation, which also exercises the
	// non-identity input path.
	for i := 1; i < len(reqs); i++ {
		for j := i; j > 0 && reqs[j].Arrival < reqs[j-1].Arrival; j-- {
			reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
		}
	}
	return reqs
}

func TestHysteresisController(t *testing.T) {
	h := &Hysteresis{TargetS: 0.1, HoldTicks: 2}
	// Proportional up: a backlog of 0.95s at 0.1s/chip wants 10 chips in
	// one tick, not one-per-tick creep.
	if got := h.Desired(ScaleSignal{Active: 2, BacklogS: 0.95}); got != 10 {
		t.Fatalf("flash-crowd tick: want 10 chips, got %d", got)
	}
	// Admission debt trips even when the backlog estimate looks calm.
	if got := h.Desired(ScaleSignal{Active: 2, BacklogS: 0, MaxWaitS: 0.2}); got != 3 {
		t.Fatalf("debt trip: want 3 chips, got %d", got)
	}
	// Down needs HoldTicks consecutive calm ticks.
	if got := h.Desired(ScaleSignal{Active: 4, BacklogS: 0.01}); got != 4 {
		t.Fatalf("first calm tick must hold, got %d", got)
	}
	if got := h.Desired(ScaleSignal{Active: 4, BacklogS: 0.01}); got != 3 {
		t.Fatalf("second calm tick should release one chip, got %d", got)
	}
	// A loaded tick resets the calm streak.
	h.Desired(ScaleSignal{Active: 4, BacklogS: 0.01}) // calm 1
	h.Desired(ScaleSignal{Active: 4, BacklogS: 10})   // reset
	if got := h.Desired(ScaleSignal{Active: 4, BacklogS: 0.01}); got != 4 {
		t.Fatalf("calm streak must reset after load, got %d", got)
	}
	// The debt trip wire is strict and sits at exactly 50 ms of wait.
	h = &Hysteresis{TargetS: 0.1, HoldTicks: 2}
	if got := h.Desired(ScaleSignal{Active: 2, MaxWaitS: 0.05}); got != 2 {
		t.Fatalf("wait at the trip wire: want 2 chips, got %d", got)
	}
	if got := h.Desired(ScaleSignal{Active: 2, MaxWaitS: math.Nextafter(0.05, 1)}); got != 3 {
		t.Fatalf("wait one ULP past the trip wire: want 3 chips, got %d", got)
	}
}

func TestScriptController(t *testing.T) {
	s := &Script{Steps: []ScaleStep{{AtS: 1, Chips: 4}, {AtS: 2, Chips: 2}}}
	if got := s.Desired(ScaleSignal{Time: 0.5, Active: 3}); got != 3 {
		t.Fatalf("before first step: want current size 3, got %d", got)
	}
	if got := s.Desired(ScaleSignal{Time: 1}); got != 4 {
		t.Fatalf("at step: want 4, got %d", got)
	}
	if got := s.Desired(ScaleSignal{Time: 5}); got != 2 {
		t.Fatalf("past last step: want 2, got %d", got)
	}
}

// TestDrainCandidateTiesToHighestIndex pins the scale-down pick: the
// ready slot with the least backlog, the highest index on ties (so the
// newest spare retires first), never a slot that is not ready.
func TestDrainCandidateTiesToHighestIndex(t *testing.T) {
	a := newAutoscaler(&Autoscale{Min: 1, Initial: 3, IntervalS: 1}, 4)
	chips := make([]chip, 4)
	if got := a.drainCandidate(0, chips); got != 2 {
		t.Errorf("idle ready slots 0-2: pick %d, want 2", got)
	}
	chips[2].busyUntil = 5
	if got := a.drainCandidate(0, chips); got != 1 {
		t.Errorf("slot 2 busy: pick %d, want 1", got)
	}
	// Backlog is clamped at zero: work finished before t reads as idle.
	if got := a.drainCandidate(6, chips); got != 2 {
		t.Errorf("slot 2's work done by t: pick %d, want 2", got)
	}
	a.slots[1].state, a.slots[2].state = slotDraining, slotBooting
	if got := a.drainCandidate(0, chips); got != 0 {
		t.Errorf("slots 1-2 not ready: pick %d, want 0", got)
	}
	a.slots[0].state = slotOff
	if got := a.drainCandidate(0, chips); got != -1 {
		t.Errorf("no ready slot: pick %d, want -1", got)
	}
}

func TestAutoscaleValidate(t *testing.T) {
	sys := spatialSystem(t)
	reqs := genReqs(4, 100, 1, 1)
	bad := []Autoscale{
		{Min: 5, IntervalS: 0.1},             // Min above the ceiling
		{Min: 1, Initial: 9, IntervalS: 0.1}, // Initial above the ceiling
		{Min: 2, Initial: 1, IntervalS: 0.1}, // Initial below Min
		{Min: 1, IntervalS: 0},               // no control period
		{Min: 1, IntervalS: 0.1, BootS: -1},  // negative boot
		{Min: 1, IntervalS: math.Inf(1)},     // non-finite period
	}
	for i, a := range bad {
		cfg := Config{System: sys, Chips: 4, Scale: &a}
		if _, err := Run(cfg, reqs); err == nil {
			t.Errorf("bad autoscale config %d accepted", i)
		}
	}
}

func TestAutoscaledRunConservation(t *testing.T) {
	sys := spatialSystem(t)
	reqs := genReqs(2000, 600, 1, 7)
	cfg := Config{
		System: sys, Chips: 6, Policy: "least-work",
		BatchWindow: 2e-4, MaxBatch: 8,
		Scale:  &Autoscale{Min: 1, Initial: 2, BootS: 0.05, IntervalS: 0.05},
		Attrib: true, Observe: true,
	}
	out, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, cfg, reqs, out)
	if out.Fleet == nil {
		t.Fatal("autoscaled run returned no fleet log")
	}
	horizon := reqs[len(reqs)-1].Arrival
	cs := out.Fleet.ChipSeconds(horizon)
	if cs <= 0 || cs >= float64(cfg.Chips)*horizon {
		t.Errorf("chip-seconds %g outside (0, %g): the fleet never scaled", cs, float64(cfg.Chips)*horizon)
	}
	if peak := out.Fleet.PeakActive(horizon); peak < 2 || peak > cfg.Chips {
		t.Errorf("peak active %d outside [2, %d]", peak, cfg.Chips)
	}
	if out.Completed == 0 {
		t.Error("nothing completed")
	}
}

// TestAutoscaleConstantFleetMatchesStatic pins the integration's zero
// point: an autoscaler whose controller always wants the full ceiling,
// starting with every slot ready, must reproduce the static fleet's
// outcome bit-exactly — the autoscaled code path may add state, never
// behavior.
func TestAutoscaleConstantFleetMatchesStatic(t *testing.T) {
	sys := spatialSystem(t)
	reqs := genReqs(1500, 500, 1, 11)
	base := Config{
		System: sys, Chips: 4, Policy: "least-work",
		BatchWindow: 2e-4, MaxBatch: 8,
	}
	static, err := Run(base, reqs)
	if err != nil {
		t.Fatal(err)
	}
	scaled := base
	scaled.Scale = &Autoscale{Min: 4, Initial: 4, IntervalS: 0.05, Controller: wantChips(4)}
	got, err := Run(scaled, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Finishes, static.Finishes) {
		t.Fatal("constant-fleet autoscaled finishes differ from static")
	}
	if got.Completed != static.Completed || got.ShedFront != static.ShedFront ||
		got.ShedChips != static.ShedChips || got.Batches != static.Batches {
		t.Fatalf("constant-fleet tallies differ: %+v vs %+v", got, static)
	}
	if got.ShedDrain != 0 || got.Migrated != 0 {
		t.Fatalf("constant fleet drained: ShedDrain %d Migrated %d", got.ShedDrain, got.Migrated)
	}
}

func TestAutoscaleDeterministic(t *testing.T) {
	sys := spatialSystem(t)
	reqs := burstReqs(1200, 400, 0.5, 3, 1.0, 0.2, 800)
	run := func() *Outcome {
		cfg := Config{
			System: sys, Chips: 8, Policy: "least-work",
			BatchWindow: 2e-4, MaxBatch: 8,
			Scale:  &Autoscale{Min: 1, Initial: 1, BootS: 0.1, IntervalS: 0.05},
			Attrib: true,
		}
		out, err := Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Finishes, b.Finishes) {
		t.Fatal("autoscaled run is not deterministic: finishes differ")
	}
	if a.ShedDrain != b.ShedDrain || a.Migrated != b.Migrated || a.Completed != b.Completed {
		t.Fatal("autoscaled run is not deterministic: tallies differ")
	}
	if !reflect.DeepEqual(a.Fleet.Events(), b.Fleet.Events()) {
		t.Fatal("autoscaled run is not deterministic: fleet logs differ")
	}
	if renderFront(a.Attrib) != renderFront(b.Attrib) {
		t.Fatal("autoscaled run is not deterministic: front ledgers differ")
	}
}

// TestDrainMigratesQueuedWork forces a scale-down while queued work sits
// on the drained chip and checks the work survives on other chips. The
// toy models run in microseconds, so the burst is dense and the drain
// lands milliseconds in — while each chip still holds a deep queue.
func TestDrainMigratesQueuedWork(t *testing.T) {
	sys := spatialSystem(t)
	// A dense burst up front queues estimated work well past the drain
	// instant; a sparse tail keeps control ticks firing afterwards.
	reqs := burstReqs(200, 50, 10, 5, 0.0, 0.01, 10000)
	cfg := Config{
		System: sys, Chips: 3, Policy: "least-work",
		Scale: &Autoscale{
			Min: 1, Initial: 3, IntervalS: 0.002,
			Controller: &Script{Steps: []ScaleStep{{AtS: 0.002, Chips: 2}}},
		},
		Attrib: true,
	}
	out, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, cfg, reqs, out)
	if out.Migrated == 0 {
		t.Fatal("drain migrated nothing despite queued work")
	}
	if out.ShedDrain != 0 {
		t.Fatalf("drain shed %d requests despite routable targets", out.ShedDrain)
	}
	if !slices.ContainsFunc(out.Fleet.Events(), func(e obs.FleetEvent) bool { return e.Kind == obs.FleetDrain }) {
		t.Fatal("fleet log has no drain")
	}
}

// TestDrainShedsWhenNoTargetRemains drains a loaded chip after every
// other chip has died permanently: the queued groups have nowhere to go
// and must land in ShedDrain, never vanish.
func TestDrainShedsWhenNoTargetRemains(t *testing.T) {
	sys := spatialSystem(t)
	reqs := burstReqs(100, 40, 10, 9, 0.0, 0.01, 10000)
	cfg := Config{
		System: sys, Chips: 2, Policy: "least-work",
		Faults: []*fault.Schedule{deadChip(t, 0.001), deadChip(t, 0.001)},
		Scale: &Autoscale{
			Min: 1, Initial: 2, IntervalS: 0.002,
			Controller: &Script{Steps: []ScaleStep{{AtS: 0.002, Chips: 1}}},
		},
		Attrib: true,
	}
	out, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, cfg, reqs, out)
	if out.ShedDrain == 0 {
		t.Fatal("drain with no live target shed nothing — queued work vanished or test setup idle")
	}
	if out.Migrated != 0 {
		t.Fatalf("migrated %d requests to dead chips", out.Migrated)
	}
}

// TestDrainRacesFaultOnDrainingChip lands a permanent chip death on the
// very chip being drained, at the drain instant: the two removal paths
// (drain migration and dead-chip queue shedding) must partition the
// chip's requests without losing or double-counting any.
func TestDrainRacesFaultOnDrainingChip(t *testing.T) {
	sys := spatialSystem(t)
	reqs := burstReqs(300, 60, 0.05, 13, 0.0, 0.002, 4000)
	for _, faultAt := range []float64{0.0015, 0.002, 0.0025} {
		faults := []*fault.Schedule{nil, nil, nil}
		// The script drains one chip at t=0.002; the fault lands just
		// before, exactly at, and just after the drain instant across the
		// three passes, covering both interleavings of the race.
		faults[2] = deadChip(t, faultAt)
		cfg := Config{
			System: sys, Chips: 3, Policy: "least-work",
			Faults: faults,
			Scale: &Autoscale{
				Min: 1, Initial: 3, IntervalS: 0.002,
				Controller: &Script{Steps: []ScaleStep{{AtS: 0.002, Chips: 2}}},
			},
			Attrib: true,
		}
		out, err := Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, cfg, reqs, out)
	}
}

// TestDrainRacesFlashCrowd scales down into the face of a flash crowd:
// the script drains at t=2ms, the crowd lands at t=2.5ms, and the script
// books the fleet back out at t=4ms — exercising slot re-boot after
// retirement and routing around a still-draining slot.
func TestDrainRacesFlashCrowd(t *testing.T) {
	sys := spatialSystem(t)
	reqs := burstReqs(600, 100, 5, 17, 0.0025, 0.0025, 3000)
	cfg := Config{
		System: sys, Chips: 4, Policy: "least-work",
		BatchWindow: 2e-4, MaxBatch: 8,
		Scale: &Autoscale{
			Min: 1, Initial: 4, BootS: 0.001, IntervalS: 0.002,
			Controller: &Script{Steps: []ScaleStep{
				{AtS: 0.002, Chips: 2},
				{AtS: 0.004, Chips: 4},
			}},
		},
	}
	out, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, cfg, reqs, out)
	// Control ticks start one interval in, so a boot after 0 is a scale-up.
	if !slices.ContainsFunc(out.Fleet.Events(), func(e obs.FleetEvent) bool { return e.Kind == obs.FleetBoot && e.Time > 0 }) {
		t.Fatal("flash crowd never scaled the fleet back up")
	}
	if err := out.Fleet.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestScaleDownRacesRandomized is the seeded fuzz of the tentpole's race
// matrix: random drains and re-boots (scripted) against random permanent
// and transient faults, with chips departing mid-run both gracefully and
// by death. The only assertion is the one that matters: conservation
// holds bit-exactly and no request ID is lost or double-served.
func TestScaleDownRacesRandomized(t *testing.T) {
	sys := spatialSystem(t)
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(1000 + trial)
		rng := rand.New(rand.NewSource(seed))
		chips := 2 + rng.Intn(4)
		reqs := burstReqs(200+rng.Intn(400), 50+50*float64(rng.Intn(4)), 5, seed,
			rng.Float64()*0.005, 0.005, 1500+rng.Intn(3000))
		var steps []ScaleStep
		at := 0.0
		for len(steps) < 4 {
			at += 0.001 + rng.Float64()*0.004
			steps = append(steps, ScaleStep{AtS: at, Chips: 1 + rng.Intn(chips)})
		}
		faults := make([]*fault.Schedule, chips)
		for i := range faults {
			switch rng.Intn(3) {
			case 0:
				faults[i] = deadChip(t, rng.Float64()*0.01)
			case 1:
				s, err := fault.Generate(16, 4, 3000, 0.02, 0.002, seed+int64(i))
				if err != nil {
					t.Fatal(err)
				}
				faults[i] = s
			default:
				faults[i] = &fault.Schedule{Units: 16, Pods: 4}
			}
		}
		cfg := Config{
			System: sys, Chips: chips, Policy: "least-work",
			BatchWindow: 2e-4, MaxBatch: 8,
			Faults: faults,
			Scale: &Autoscale{
				Min: 1, Initial: 1 + rng.Intn(chips),
				BootS: rng.Float64() * 0.002, IntervalS: 0.0005 + rng.Float64()*0.002,
				Controller: &Script{Steps: steps},
			},
			Attrib: true,
		}
		out, err := Run(cfg, reqs)
		if err != nil {
			t.Fatalf("trial %d (seed %d): %v", trial, seed, err)
		}
		checkConservation(t, cfg, reqs, out)
		if t.Failed() {
			t.Fatalf("trial %d (seed %d) violated conservation", trial, seed)
		}
	}
}

// TestDrainAttribution checks the ledger story of a migrated request:
// its front record reopens in drain-migrate and re-closes as dispatched
// (or shed-drain), with spans that still telescope exactly.
func TestDrainAttribution(t *testing.T) {
	sys := spatialSystem(t)
	reqs := burstReqs(100, 40, 10, 21, 0.0, 0.01, 10000)
	cfg := Config{
		System: sys, Chips: 3, Policy: "least-work",
		Scale: &Autoscale{
			Min: 1, Initial: 3, IntervalS: 0.002,
			Controller: &Script{Steps: []ScaleStep{{AtS: 0.002, Chips: 2}}},
		},
		Attrib: true,
	}
	out, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Migrated == 0 {
		t.Fatal("no migrations to attribute")
	}
	led := out.Attrib.Front
	sawDrainPhase := 0
	var buf []obs.PhaseSpan
	for i := range reqs {
		buf = led.Spans(i, buf[:0])
		for k, sp := range buf {
			if sp.Phase == obs.PhaseDrainMigrate {
				sawDrainPhase++
			}
			if k > 0 && sp.From != buf[k-1].To {
				t.Fatalf("request %d: span %d not contiguous", i, k)
			}
		}
	}
	if sawDrainPhase == 0 {
		t.Fatal("no drain-migrate phase spans recorded")
	}
}

// TestDrainMigrationKeepsCapacity checks that the records an unbatched
// autoscaled run appends for migrated groups fit the drainHeadroom
// reserved in start: neither the dispatch records nor their estimated
// ends regrow while the walk migrates. A fresh run state stands in for
// a pooled one, whose buffers may carry a larger earlier run's capacity.
// The burst leaves 27 requests queued on the drained chip.
func TestDrainMigrationKeepsCapacity(t *testing.T) {
	reqs := burstReqs(200, 50, 10, 5, 0.0, 0.004, 3000)
	r := &run{
		cfg: Config{
			System: spatialSystem(t), Chips: 3,
			Scale: &Autoscale{
				Min: 1, Initial: 3, IntervalS: 0.002,
				Controller: &Script{Steps: []ScaleStep{{AtS: 0.002, Chips: 2}}},
			},
		},
		reqs: reqs, pol: leastWork,
		chips: make([]chip, 3), errs: make([]error, 3),
	}
	if err := r.start(); err != nil {
		t.Fatal(err)
	}
	capD, capE := cap(r.dispatches), cap(r.ends)
	if capD != len(reqs)+drainHeadroom || capE != capD {
		t.Fatalf("start reserved %d dispatch and %d end records, want %d", capD, capE, len(reqs)+drainHeadroom)
	}
	r.admit()
	r.walk()
	if m := r.out.Migrated; m == 0 || m > drainHeadroom {
		t.Fatalf("drain migrated %d groups, want 1..%d", m, drainHeadroom)
	}
	if len(r.dispatches) <= len(reqs) {
		t.Fatalf("%d dispatch records for %d requests: no migrated record appended", len(r.dispatches), len(reqs))
	}
	if cap(r.dispatches) != capD || cap(r.ends) != capE {
		t.Fatalf("migration regrew the records: capacity %d/%d -> %d/%d", capD, capE, cap(r.dispatches), cap(r.ends))
	}
}
