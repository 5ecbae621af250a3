package cluster

import (
	"fmt"
	"strings"
	"testing"

	"planaria/internal/metrics"
	"planaria/internal/obs"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// renderOutcome renders a cluster outcome with hex floats, so equality
// means bit-identical numbers, not close ones.
func renderOutcome(out *Outcome) string {
	var b strings.Builder
	for i := range out.Finishes {
		fmt.Fprintf(&b, "%d fin=%x lat=%x\n", i, out.Finishes[i], out.Latency[i])
	}
	fmt.Fprintf(&b, "completed=%d shedFront=%d shedChips=%d rejected=%d killed=%d retries=%d faults=%d\n",
		out.Completed, out.ShedFront, out.ShedChips, out.Rejected, out.Killed, out.Retries, out.FaultEvents)
	fmt.Fprintf(&b, "batches=%d batched=%d mean=%x dispatched=%v\n",
		out.Batches, out.BatchedReqs, out.MeanBatchSize, out.Dispatched)
	fmt.Fprintf(&b, "energy=%x makespan=%x sla=%v frac=%x\n",
		out.EnergyJ, out.Makespan, out.MeetsSLA, out.DeadlineFrac)
	return b.String()
}

// renderFront renders the front ledger: each request's chip/position
// link, terminal cause and phase spans.
func renderFront(a *Attribution) string {
	var b strings.Builder
	var spans []obs.PhaseSpan
	for i := range a.Chip {
		spans = a.Front.Spans(i, spans[:0])
		fmt.Fprintf(&b, "%d chip=%d pos=%d cause=%v spans=%x\n", i, a.Chip[i], a.Pos[i], a.Front.Cause(i), spans)
	}
	return b.String()
}

// renderNodeOutcome renders a chip-level outcome the same way.
func renderNodeOutcome(out *sim.Outcome) string {
	var b strings.Builder
	for i := range out.Finishes {
		fmt.Fprintf(&b, "%d fin=%x lat=%x\n", i, out.Finishes[i], out.Latency[i])
	}
	fmt.Fprintf(&b, "energy=%x makespan=%x busy=%x fair=%x preempt=%d sla=%v\n",
		out.EnergyJ, out.Makespan, out.BusyTime, out.Fairness, out.Preemptions, out.MeetsSLA)
	fmt.Fprintf(&b, "killed=%d retries=%d shed=%d rejected=%d faults=%d\n",
		out.Killed, out.Retries, out.Shed, out.Rejected, out.FaultEvents)
	return b.String()
}

// directArtifacts runs the request stream straight through sim.Node.Run
// with a fresh timeline and trace, mirroring what a 1-chip cluster sets
// up, and renders every artifact.
func directArtifacts(t *testing.T, sys metrics.System, shed sim.ShedPolicy, reqs []workload.Request) string {
	t.Helper()
	tl := obs.NewTraceBuilder(1e6)
	pol := sys.NewPolicy()
	if ob, ok := pol.(obs.Observable); ok {
		ob.SetObserver(tl)
	}
	tr := &sim.Trace{}
	node := &sim.Node{
		Cfg: sys.Cfg, Policy: pol, Programs: sys.Programs, Params: sys.Params,
		Trace: tr, Timeline: tl, Shed: shed,
	}
	out, err := node.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return renderArtifacts(out, tr, tl)
}

// clusterArtifacts runs the same stream through a 1-chip cluster with
// batching and admission disabled and renders the chip's artifacts.
func clusterArtifacts(t *testing.T, sys metrics.System, policy string, shed sim.ShedPolicy, reqs []workload.Request) (string, *Outcome) {
	t.Helper()
	out, err := Run(Config{
		System: sys, Chips: 1, Policy: policy, Shed: shed,
		Observe: true, ChipTraces: true,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	chip := out.PerChip[0]
	return renderArtifacts(chip.Outcome, chip.Trace, chip.Timeline), out
}

// renderArtifacts concatenates the three chip artifacts: hex outcome,
// trace timeline, and Perfetto timeline JSON (which carries every
// sched/prema decision instant).
func renderArtifacts(out *sim.Outcome, tr *sim.Trace, tl *obs.TraceBuilder) string {
	return renderNodeOutcome(out) +
		"--- trace\n" + tr.String() +
		"--- timeline\n" + string(tl.JSON())
}

// TestSingleChipConformance pins the pass-through identity: a 1-chip
// cluster with batching and admission disabled produces byte-identical
// outcome, trace, and timeline artifacts to calling sim.Node.Run
// directly — under both engines and with shedding on and off. Each side
// runs twice, so the test also pins run-to-run determinism.
func TestSingleChipConformance(t *testing.T) {
	systems := []metrics.System{spatialSystem(t), premaSystem(t)}
	sheds := []sim.ShedPolicy{sim.ShedNone, sim.ShedDoomed}
	for _, sys := range systems {
		for _, shed := range sheds {
			name := fmt.Sprintf("%s/%s", sys.Name, shed)
			t.Run(name, func(t *testing.T) {
				// Tight-but-mixed deadlines so some requests shed under
				// ShedDoomed and the artifact exercises that path too.
				reqs := genReqs(50, 900, 0.05, 42)
				direct1 := directArtifacts(t, sys, shed, reqs)
				direct2 := directArtifacts(t, sys, shed, reqs)
				if direct1 != direct2 {
					t.Fatalf("direct node run is not deterministic")
				}
				for _, policy := range Policies() {
					got1, out1 := clusterArtifacts(t, sys, policy, shed, reqs)
					got2, _ := clusterArtifacts(t, sys, policy, shed, reqs)
					if got1 != got2 {
						t.Fatalf("%s: 1-chip cluster run is not deterministic", policy)
					}
					if got1 != direct1 {
						t.Errorf("%s: 1-chip cluster artifacts differ from direct sim.Node.Run\n--- cluster\n%.2000s\n--- direct\n%.2000s",
							policy, got1, direct1)
					}
					// Cluster-level view agrees with the chip view.
					for i := range reqs {
						chipFin := out1.PerChip[0].Outcome.Finishes[i]
						if out1.Finishes[i] != chipFin {
							t.Fatalf("%s: cluster finish[%d]=%x, chip %x", policy, i, out1.Finishes[i], chipFin)
						}
					}
				}
			})
		}
	}
}

// TestConformanceRequestsUntouched pins that the pass-through path hands
// the chip the exact request structs it was given.
func TestConformanceRequestsUntouched(t *testing.T) {
	sys := spatialSystem(t)
	reqs := genReqs(20, 500, 1, 7)
	out, err := Run(Config{System: sys, Chips: 1}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	chip := out.PerChip[0]
	if len(chip.Requests) != len(reqs) {
		t.Fatalf("chip got %d requests, want %d", len(chip.Requests), len(reqs))
	}
	for i := range reqs {
		if chip.Requests[i] != reqs[i] {
			t.Errorf("request %d mutated on the pass-through path:\n got %+v\nwant %+v", i, chip.Requests[i], reqs[i])
		}
	}
}
