package experiments

import (
	"strings"
	"testing"

	"planaria/internal/workload"
)

// tracedPoint is the acceptance fixture: a 2-task co-location instance at
// a rate that overlaps the two requests on the chip.
func tracedPoint(t *testing.T, s *Suite) *TracedResult {
	t.Helper()
	res, err := s.TracedRun(workload.ScenarioA(), workload.QoSMedium, 200, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTracedRunContents checks both systems landed in the shared
// artifacts: system-labeled series in the snapshot and per-system track
// prefixes in the timeline.
func TestTracedRunContents(t *testing.T) {
	s := testSuite(t)
	res := tracedPoint(t, s)
	snap := string(res.MetricsJSON)
	for _, want := range []string{
		`"sim_requests_total"`, `"sim_completions_total"`, `"sim_latency_seconds"`,
		`"sched_decisions_total"`, `"prema_decisions_total"`,
		`"value": "planaria"`, `"value": "prema"`,
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("metrics snapshot missing %s", want)
		}
	}
	trace := string(res.TraceJSON)
	for _, want := range []string{`"planaria/task 000"`, `"prema/task 000"`, `"planaria/chip"`} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing track %s", want)
		}
	}
	if res.Planaria == nil || res.PREMA == nil {
		t.Fatal("missing outcome")
	}
	if len(res.Planaria.Finishes) != 2 {
		t.Fatalf("expected 2 requests, got %d", len(res.Planaria.Finishes))
	}
	if res.MetricsText == "" {
		t.Error("empty metrics text table")
	}
}
