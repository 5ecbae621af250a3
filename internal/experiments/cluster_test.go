package experiments

import (
	"strings"
	"testing"

	"planaria/internal/metrics"
)

// clusterTestOptions shrinks the sweep for test turnaround.
func clusterTestOptions() ClusterOptions {
	o := DefaultClusterOptions()
	o.Opt = metrics.Options{Requests: 80, Instances: 1, Seed: 17}
	o.QPS = []float64{25}
	return o
}

// clusterGridTestOptions is one batched 2-chip least-work cell on the
// fixed-rate grid.
func clusterGridTestOptions() ClusterOptions {
	o := clusterTestOptions()
	o.Chips = []int{2}
	o.Policies = []string{"least-work"}
	o.BatchWindow = 2e-3
	o.MaxBatch = 4
	return o
}

func TestClusterSweepRejectsBadOptions(t *testing.T) {
	s := testSuite(t)
	for name, o := range map[string]ClusterOptions{
		"no chips":    {Policies: []string{"least-work"}, QPS: []float64{10}, Opt: metrics.Options{Requests: 10, Instances: 1}},
		"no policies": {Chips: []int{1}, QPS: []float64{10}, Opt: metrics.Options{Requests: 10, Instances: 1}},
		"bad policy":  {Chips: []int{1}, Policies: []string{"bogus"}, Opt: metrics.Options{Requests: 10, Instances: 1}},
		"zero chips":  {Chips: []int{0}, Policies: []string{"least-work"}, Opt: metrics.Options{Requests: 10, Instances: 1}},
		"bad opt":     {Chips: []int{1}, Policies: []string{"least-work"}},
	} {
		if _, err := s.ClusterSweep(o); err == nil {
			t.Errorf("%s: sweep accepted bad options", name)
		}
	}
}

// TestClusterScaleOut is the scale-out acceptance claim: for Workload-A,
// at least one balancing policy lets a 4-chip cluster sustain at least
// 3× the maximum SLA-meeting arrival rate of a single chip — under both
// the Planaria spatial engine and the PREMA baseline.
func TestClusterScaleOut(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster scale-out sweep")
	}
	s := testSuite(t)
	o := clusterTestOptions()
	o.Chips = []int{1, 4}
	o.QPS = nil // only the bisected maxima matter here
	rows, err := s.ClusterSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	max := map[string]float64{} // system|chips|policy → MaxQPS
	for _, r := range rows {
		max[r.System+"|"+string(rune('0'+r.Chips))+"|"+r.Policy] = r.MaxQPS
	}
	for _, sys := range []string{"Planaria", "PREMA"} {
		scaled := false
		for _, pol := range o.Policies {
			one := max[sys+"|1|"+pol]
			four := max[sys+"|4|"+pol]
			if one <= 0 {
				t.Errorf("%s/%s: single chip sustains nothing", sys, pol)
				continue
			}
			t.Logf("%s/%s: 1 chip %.1f QPS, 4 chips %.1f QPS (%.2fx)", sys, pol, one, four, four/one)
			if four >= 3*one {
				scaled = true
			}
		}
		if !scaled {
			t.Errorf("%s: no policy reached 3x scale-out from 1 to 4 chips", sys)
		}
	}
}

// TestClusterSweepGridAndArtifacts covers the fixed-rate grid, the table
// renderer, and the BENCH_cluster.json header; TestGolden pins the
// artifact's bytes.
func TestClusterSweepGridAndArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster grid sweep")
	}
	s := testSuite(t)
	o := clusterGridTestOptions()
	rows, err := s.ClusterSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (one cell per system)", len(rows))
	}
	for _, r := range rows {
		if len(r.Grid) != len(o.QPS) {
			t.Fatalf("%s: grid has %d points, want %d", r.System, len(r.Grid), len(o.QPS))
		}
		for _, p := range r.Grid {
			if p.MeanBatch < 1 {
				t.Errorf("%s@%g: mean batch %g < 1 with batching on", r.System, p.QPS, p.MeanBatch)
			}
			if p.EnergyJ <= 0 {
				t.Errorf("%s@%g: energy %g", r.System, p.QPS, p.EnergyJ)
			}
			if p.DeadlineFrac < 0 || p.DeadlineFrac > 1 {
				t.Errorf("%s@%g: deadline fraction %g", r.System, p.QPS, p.DeadlineFrac)
			}
		}
	}
	table := FormatCluster(o, rows)
	if !strings.Contains(table, "least-work") || !strings.Contains(table, "Planaria") {
		t.Errorf("table missing cells:\n%s", table)
	}
	js1, err := ClusterJSON(o, rows)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js1), `"scenario": "Workload-A"`) {
		t.Errorf("artifact missing header:\n%.400s", js1)
	}
}

// TestClusterSweepMoreChipsNeverHurt: on the fixed grid, a 4-chip
// cluster's deadline fraction is at least the 1-chip cluster's at every
// rate (identical request streams, more capacity).
func TestClusterSweepMoreChipsNeverHurt(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster grid sweep")
	}
	s := testSuite(t)
	o := clusterTestOptions()
	o.Chips = []int{1, 4}
	o.Policies = []string{"least-work"}
	o.QPS = []float64{40}
	rows, err := s.ClusterSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	frac := map[string]map[int]float64{}
	for _, r := range rows {
		if frac[r.System] == nil {
			frac[r.System] = map[int]float64{}
		}
		frac[r.System][r.Chips] = r.Grid[0].DeadlineFrac
	}
	for sys, byChips := range frac {
		if byChips[4] < byChips[1]-1e-9 {
			t.Errorf("%s: 4 chips retain %.3f of deadlines, 1 chip %.3f", sys, byChips[4], byChips[1])
		}
	}
}
