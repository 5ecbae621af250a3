package experiments

import (
	"strings"
	"testing"

	"planaria/internal/cluster"
	"planaria/internal/workload/trace"
)

// autoscaleTestOptions compresses the planet-day sweep ~48× (a 30-minute
// "day" with one flash crowd) so the acceptance claim runs in test time.
// Control-loop constants shrink with the timescale.
func autoscaleTestOptions() AutoscaleOptions {
	return AutoscaleOptions{
		Trace: &trace.Spec{
			Version:  trace.FormatVersion,
			Name:     "planet-day-compressed",
			Models:   []string{"GNMT", "SSD-R", "YOLOv3"},
			QoS:      "QoS-M",
			Seed:     17,
			HorizonS: 1800,
			BaseQPS:  13,
			Diurnal: []trace.RatePoint{
				{AtS: 0, Mult: 0.35},
				{AtS: 375, Mult: 0.25},
				{AtS: 675, Mult: 1.2},
				{AtS: 900, Mult: 1.5},
				{AtS: 1125, Mult: 1.35},
				{AtS: 1350, Mult: 1.6},
				{AtS: 1575, Mult: 0.9},
				{AtS: 1800, Mult: 0.35},
			},
			Crowds:   []trace.Crowd{{AtS: 940, Mult: 12, RampS: 60, DecayS: 240}},
			ZipfS:    0.9,
			Users:    500,
			UserBias: 0.3,
		},
		Statics: []int{1, 2, 3},
		Chips:   6,
		Scale: cluster.Autoscale{
			Min:       1,
			Initial:   1,
			BootS:     10,
			IntervalS: 5,
			Controller: &cluster.Hysteresis{
				TargetS:   0.03,
				HoldTicks: 8,
			},
		},
	}
}

func TestAutoscaleSweepRejectsBadOptions(t *testing.T) {
	s := testSuite(t)
	for name, o := range map[string]AutoscaleOptions{
		"no statics": {Chips: 4},
		"no ceiling": {Statics: []int{1}},
		"bad trace":  {Statics: []int{1}, Chips: 4, Trace: &trace.Spec{}},
	} {
		if _, err := s.AutoscaleSweep(o); err == nil {
			t.Errorf("%s: sweep accepted bad options", name)
		}
	}
}

// TestAutoscaleSweepAcceptance is the headline claim scaled to test
// time: over a diurnal trace with a flash crowd, the autoscaled fleet
// matches or beats every static row's SLA-hit rate while billing
// strictly fewer chip-hours than the best static. TestGolden pins the
// BENCH_autoscale.json artifact's bytes.
func TestAutoscaleSweepAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("autoscale sweep")
	}
	s := testSuite(t)
	o := autoscaleTestOptions()
	rows, err := s.AutoscaleSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(o.Statics)+1 {
		t.Fatalf("rows = %d, want %d", len(rows), len(o.Statics)+1)
	}
	t.Logf("\n%s", FormatAutoscale(o, rows))

	bestFrac, bestHours := 0.0, 0.0
	for i, r := range rows[:len(o.Statics)] {
		if r.Mode != "static" || r.Chips != o.Statics[i] {
			t.Fatalf("row %d: %s/%d, want static/%d", i, r.Mode, r.Chips, o.Statics[i])
		}
		if got := r.Completed + r.ShedFront + r.ShedChips + r.ShedDrain; got != r.Requests {
			t.Errorf("static-%d: tallies sum to %d of %d requests", r.Chips, got, r.Requests)
		}
		if r.ShedDrain != 0 || r.Migrated != 0 || r.PeakActive != 0 {
			t.Errorf("static-%d: autoscaler tallies leaked: %+v", r.Chips, r)
		}
		if r.DeadlineFrac > bestFrac {
			bestFrac, bestHours = r.DeadlineFrac, r.ChipHours
		}
	}
	auto := rows[len(rows)-1]
	if auto.Mode != "autoscaled" || auto.Controller != "hysteresis" {
		t.Fatalf("last row is %s/%s, want autoscaled/hysteresis", auto.Mode, auto.Controller)
	}
	if got := auto.Completed + auto.ShedFront + auto.ShedChips + auto.ShedDrain; got != auto.Requests {
		t.Errorf("autoscaled: tallies sum to %d of %d requests", got, auto.Requests)
	}
	if auto.DeadlineFrac < bestFrac {
		t.Errorf("autoscaled deadline fraction %.4f below best static %.4f",
			auto.DeadlineFrac, bestFrac)
	}
	if auto.ChipHours >= bestHours {
		t.Errorf("autoscaled bills %.2f chip-hours, best static bills %.2f",
			auto.ChipHours, bestHours)
	}
	if auto.PeakActive < 2 || auto.PeakActive > o.Chips {
		t.Errorf("peak active %d outside (1, %d]", auto.PeakActive, o.Chips)
	}
	if auto.ScaleUps == 0 || auto.ScaleDowns == 0 {
		t.Errorf("fleet never moved: %d ups, %d downs", auto.ScaleUps, auto.ScaleDowns)
	}

	table := FormatAutoscale(o, rows)
	if !strings.Contains(table, "autoscaled") || !strings.Contains(table, "hysteresis") {
		t.Errorf("table missing rows:\n%s", table)
	}
	js1, err := AutoscaleJSON(o, rows)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js1), `"name": "planet-day-compressed"`) {
		t.Errorf("artifact missing trace header:\n%.400s", js1)
	}
}
