package experiments

import (
	"strings"
	"testing"

	"planaria/internal/metrics"
	"planaria/internal/workload"
	"planaria/internal/workload/trace"
)

// TestElasticAblationGain is the headline acceptance claim for the
// elastic re-fission loop: on the headroom-scarce serving mix (hard QoS,
// where Algorithm 1 queues what elastic absorbs into donated headroom),
// the cluster sustains a strictly higher maximum SLA-meeting arrival
// rate at equal chips, and the artifact run records the gain.
func TestElasticAblationGain(t *testing.T) {
	if testing.Short() {
		t.Skip("elastic ablation bisection sweep")
	}
	s := testSuite(t)
	rows, err := s.ElasticAblation(workload.ScenarioB(), workload.QoSHard, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (off + on at one chip count)", len(rows))
	}
	var off, on float64
	for _, r := range rows {
		if r.Elastic {
			on = r.MaxQPS
		} else {
			off = r.MaxQPS
		}
	}
	t.Logf("max SLA-meeting QPS at 1 chip: elastic-off %.1f, elastic-on %.1f (%.2fx)", off, on, on/off)
	if off <= 0 {
		t.Fatal("elastic-off sustains nothing; the comparison is vacuous")
	}
	if on <= off {
		t.Fatalf("elastic-on max QPS %.1f does not raise elastic-off %.1f", on, off)
	}
	table := FormatElasticAblation(rows)
	if !strings.Contains(table, "elastic") || !strings.Contains(table, "on") {
		t.Errorf("ablation table missing cells:\n%s", table)
	}
}

// elasticClusterTestOptions adds the elastic axis to one 2-chip
// least-work cell.
func elasticClusterTestOptions() ClusterOptions {
	o := clusterTestOptions()
	o.Chips = []int{2}
	o.Policies = []string{"least-work"}
	o.Elastic = true
	return o
}

// elasticAutoscaleTestOptions serves a 4-minute planet-day on the
// elastic scheduler against one static 2-chip fleet.
func elasticAutoscaleTestOptions() AutoscaleOptions {
	o := autoscaleTestOptions()
	o.Statics = []int{2}
	o.Elastic = true
	// A further-compressed trace: in the overloaded stretches the
	// re-fission loop replans at every rate-limited stall wakeup, so
	// elastic serving costs far more sim events per trace second than
	// the plain sweep — the full compressed planet-day belongs to the
	// benchmark, not this wiring + conservation test.
	o.Trace = &trace.Spec{
		Version:  trace.FormatVersion,
		Name:     "planet-day-mini",
		Models:   []string{"GNMT", "SSD-R", "YOLOv3"},
		QoS:      "QoS-M",
		Seed:     17,
		HorizonS: 240,
		BaseQPS:  13,
		Diurnal: []trace.RatePoint{
			{AtS: 0, Mult: 0.35},
			{AtS: 60, Mult: 1.2},
			{AtS: 120, Mult: 1.5},
			{AtS: 180, Mult: 1.0},
			{AtS: 240, Mult: 0.4},
		},
		Crowds:   []trace.Crowd{{AtS: 100, Mult: 8, RampS: 20, DecayS: 40}},
		ZipfS:    0.9,
		Users:    200,
		UserBias: 0.3,
	}
	return o
}

// TestElasticClusterSweepAxis: with Elastic set, the sweep gains
// Planaria-Elastic rows and the BENCH_cluster.json artifact records the
// axis in its header.
func TestElasticClusterSweepAxis(t *testing.T) {
	if testing.Short() {
		t.Skip("elastic cluster sweep")
	}
	s := testSuite(t)
	o := elasticClusterTestOptions()
	rows, err := s.ClusterSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (Planaria, PREMA, Planaria-Elastic)", len(rows))
	}
	sawElastic := false
	for _, r := range rows {
		if r.System == "Planaria-Elastic" {
			sawElastic = true
			if r.MaxQPS <= 0 {
				t.Errorf("elastic cell sustains nothing")
			}
		}
	}
	if !sawElastic {
		t.Fatal("sweep missing the Planaria-Elastic system")
	}
	js1, err := ClusterJSON(o, rows)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js1), `"elastic": true`) {
		t.Errorf("artifact header missing the elastic axis:\n%.400s", js1)
	}
}

// TestElasticAutoscaleAxis: the autoscale sweep serves the compressed
// planet-day with the elastic scheduler; conservation-by-construction
// row tallies still partition the stream and the artifact records the
// axis.
func TestElasticAutoscaleAxis(t *testing.T) {
	if testing.Short() {
		t.Skip("elastic autoscale sweep")
	}
	s := testSuite(t)
	o := elasticAutoscaleTestOptions()
	rows, err := s.AutoscaleSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if got := r.Completed + r.ShedFront + r.ShedChips + r.ShedDrain; got != r.Requests {
			t.Errorf("%s/%d: terminal tallies %d != %d requests under elastic serving",
				r.Mode, r.Chips, got, r.Requests)
		}
	}
	js1, err := AutoscaleJSON(o, rows)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js1), `"elastic": true`) {
		t.Errorf("autoscale artifact missing the elastic axis:\n%.400s", js1)
	}
}

// TestElasticSystemWired pins the Suite wiring: the elastic system
// shares the Planaria chip and programs and its policies report active
// re-fission.
func TestElasticSystemWired(t *testing.T) {
	s := testSuite(t)
	if s.Elastic.Name != "Planaria-Elastic" {
		t.Errorf("elastic system name %q", s.Elastic.Name)
	}
	if s.Elastic.Cfg != s.Planaria.Cfg {
		t.Error("elastic system runs different hardware than Planaria")
	}
	if len(s.Elastic.Programs) != len(s.Planaria.Programs) {
		t.Error("elastic system compiled a different model set")
	}
	pol := s.Elastic.NewPolicy()
	type refissioner interface{ RefissionActive() bool }
	r, ok := pol.(refissioner)
	if !ok || !r.RefissionActive() {
		t.Fatalf("elastic policy %T does not have re-fission active", pol)
	}
	_ = metrics.Options{}
}
