package experiments

import (
	"testing"

	"planaria/internal/fault"
	"planaria/internal/metrics"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// chaosTestOptions keeps the sweep cheap: one scenario, two rates, small
// instances.
func chaosTestOptions() ChaosOptions {
	o := DefaultChaosOptions()
	o.Opt = metrics.Options{Requests: 60, Instances: 2, Seed: 11}
	o.Rates = []float64{0, 40}
	return o
}

// TestChaosZeroRateMatchesPlainServing: the rate-0 row must reproduce
// the fault-free serving numbers exactly — same nodes, no injector, no
// shedding — so enabling the chaos machinery cannot perturb baselines.
func TestChaosZeroRateMatchesPlainServing(t *testing.T) {
	s := testSuite(t)
	o := chaosTestOptions()
	o.Rates = []float64{0}
	rows, err := s.ChaosSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the plain path by hand for both systems.
	var plSLA, prSLA float64
	for inst := 0; inst < o.Opt.Instances; inst++ {
		reqs, err := workload.Generate(o.Scenario, o.Level, o.QPS, o.Opt.Requests, o.Opt.Seed+int64(inst)*7919)
		if err != nil {
			t.Fatal(err)
		}
		pl := &sim.Node{Cfg: s.Planaria.Cfg, Policy: s.Planaria.NewPolicy(), Programs: s.Planaria.Programs, Params: s.Planaria.Params}
		plOut, err := pl.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		pr := &sim.Node{Cfg: s.PREMA.Cfg, Policy: s.PREMA.NewPolicy(), Programs: s.PREMA.Programs, Params: s.PREMA.Params}
		prOut, err := pr.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		plSLA += workload.DeadlineFraction(reqs, plOut.Finishes)
		prSLA += workload.DeadlineFraction(reqs, prOut.Finishes)
	}
	n := float64(o.Opt.Instances)
	if rows[0].PlanariaSLA != plSLA/n || rows[0].PremaSLA != prSLA/n {
		t.Fatalf("rate-0 row (%.6f, %.6f) drifted from plain serving (%.6f, %.6f)",
			rows[0].PlanariaSLA, rows[0].PremaSLA, plSLA/n, prSLA/n)
	}
	if rows[0].FaultEvents != 0 || rows[0].PlanariaKilled != 0 || rows[0].PlanariaShed != 0 {
		t.Fatalf("rate-0 row has fault activity: %+v", rows[0])
	}
}

// TestChaosGracefulDegradation is the headline robustness claim: at a
// nonzero fault rate, Planaria's fission masking with shedding retains
// strictly more SLA than PREMA's monolithic derate.
func TestChaosGracefulDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep")
	}
	s := testSuite(t)
	o := chaosTestOptions()
	o.Rates = []float64{0, 40, 160}
	rows, err := s.ChaosSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	better := false
	for _, r := range rows[1:] {
		if r.FaultEvents == 0 {
			t.Errorf("rate %g produced no fault events", r.Rate)
		}
		if r.PlanariaSLA > r.PremaSLA {
			better = true
		}
	}
	if !better {
		t.Fatalf("Planaria never beat PREMA under faults: %+v", rows)
	}
	// The zero-fault row must not show degradation machinery at work.
	if rows[0].PlanariaKilled != 0 || rows[0].PremaKilled != 0 {
		t.Fatalf("kills on the fault-free row: %+v", rows[0])
	}
}

// TestChaosExplicitSchedule: a -faults style schedule collapses the
// sweep to one replayed row.
func TestChaosExplicitSchedule(t *testing.T) {
	s := testSuite(t)
	o := chaosTestOptions()
	o.Schedule = &fault.Schedule{Units: 16, Pods: 4, Events: []fault.Event{
		{Time: 0.050, Kind: fault.KindSubarray, Unit: 3},
		{Time: 0.120, Kind: fault.KindLink, Unit: 1, Duration: 0.100},
	}}
	rows, err := s.ChaosSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Rate != -1 {
		t.Fatalf("explicit schedule produced rows %+v", rows)
	}
	if rows[0].FaultEvents == 0 {
		t.Fatal("explicit schedule applied no transitions")
	}
	if out := FormatChaos(o, rows); out == "" {
		t.Fatal("empty chaos table")
	}
}
