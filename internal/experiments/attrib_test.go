package experiments

import (
	"strings"
	"testing"

	"planaria/internal/metrics"
	"planaria/internal/obs"
)

// attribTestOptions shrinks the run for test turnaround while keeping
// batching and admission on so the interesting phases appear.
func attribTestOptions() AttribOptions {
	o := DefaultAttribOptions()
	o.Opt = metrics.Options{Requests: 60, Seed: 17}
	return o
}

func TestAttribRunRejectsBadOptions(t *testing.T) {
	s := testSuite(t)
	for name, o := range map[string]AttribOptions{
		"no requests": {Chips: 2, QPS: 90},
		"zero chips":  {QPS: 90, Opt: metrics.Options{Requests: 10}},
		"zero qps":    {Chips: 2, Opt: metrics.Options{Requests: 10}},
	} {
		o.Scenario = DefaultAttribOptions().Scenario
		if _, err := s.AttribRun(o); err == nil {
			t.Errorf("%s: run accepted bad options", name)
		}
	}
}

// TestAttribWorkloadMix pins the mixed-QoS stream: all three levels
// present, total request count honored, arrivals sorted, IDs identity.
func TestAttribWorkloadMix(t *testing.T) {
	o := attribTestOptions()
	reqs, err := attribWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != o.Opt.Requests {
		t.Fatalf("generated %d requests, want %d", len(reqs), o.Opt.Requests)
	}
	levels := map[string]int{}
	for i, r := range reqs {
		if r.ID != i {
			t.Fatalf("request %d has ID %d (want identity)", i, r.ID)
		}
		if i > 0 && reqs[i].Arrival < reqs[i-1].Arrival {
			t.Fatalf("arrivals not sorted at %d", i)
		}
		levels[r.Level]++
	}
	if len(levels) != 3 {
		t.Fatalf("QoS levels in stream: %v, want all 3", levels)
	}
}

// TestAttribRunReportAndArtifact runs the experiment end to end and pins
// the acceptance properties: per-group request conservation, fleet
// occupancy partition, a rendered table, and the artifact header;
// TestGolden pins the artifact's bytes.
func TestAttribRunReportAndArtifact(t *testing.T) {
	s := testSuite(t)
	o := attribTestOptions()
	rows, err := s.AttribRun(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want one per system", len(rows))
	}
	for _, r := range rows {
		if r.Report == nil {
			t.Fatalf("%s: no report", r.System)
		}
		var reqTotal int64
		for _, g := range r.Report.Groups {
			reqTotal += g.Requests
		}
		if reqTotal != int64(o.Opt.Requests) {
			t.Errorf("%s: report covers %d requests, want %d", r.System, reqTotal, o.Opt.Requests)
		}
		if f := r.Report.Fleet; f == nil {
			t.Errorf("%s: no fleet utilization row", r.System)
		} else if f.Busy+f.Idle+f.Faulted+f.Reconfig != f.Units*f.Horizon {
			t.Errorf("%s: fleet occupancy partition broke: %+v", r.System, f)
		}
		// Re-rendering from the JSON round trip must not lose groups.
		j, err := r.Report.JSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := obs.LoadAttribReport(j)
		if err != nil {
			t.Fatal(err)
		}
		if len(back.Groups) != len(r.Report.Groups) {
			t.Errorf("%s: round trip lost groups", r.System)
		}
	}

	text := FormatAttrib(o, rows)
	for _, want := range []string{"Planaria", "PREMA", "fleet", "qos"} {
		if !strings.Contains(text, want) {
			t.Errorf("FormatAttrib missing %q:\n%.600s", want, text)
		}
	}

	j1, err := AttribJSON(o, rows)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(j1), `"scenario": "Workload-A"`) {
		t.Errorf("artifact missing header:\n%.400s", j1)
	}
}
