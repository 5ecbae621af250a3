package cluster

import (
	"math/big"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/energy"
	"planaria/internal/metrics"
	"planaria/internal/obs"
	"planaria/internal/sched"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// elasticSystem is the toy Planaria chip under the elastic re-fission
// scheduler. The wakeup floor scales with the toy models' microsecond
// run times (the production default targets millisecond serving
// models), so re-fission windows actually open inside a test stream.
func elasticSystem(t testing.TB, disabled bool) metrics.System {
	t.Helper()
	cfg := arch.Planaria()
	progs := compilePrograms(t, cfg)
	minIso := 0.0
	for _, name := range toyModels {
		iso := cfg.Seconds(progs[name].Table(cfg.NumSubarrays()).TotalCycles)
		if minIso == 0 || iso < minIso {
			minIso = iso
		}
	}
	interval := minIso * 0.02
	return metrics.System{
		Name: "Planaria-Elastic", Cfg: cfg, Programs: progs,
		Params: energy.Default(),
		NewPolicy: func() sim.Policy {
			el := sched.NewElastic(cfg)
			el.Disabled = disabled
			el.MinIntervalS = interval
			return el
		},
	}
}

// elasticReqs draws a stream under genuine contention — inter-arrivals
// comparable to the toy isolated run time and deadlines only a few
// multiples of it — so queues build, tasks stall, and the elastic
// policy has starvation to resolve.
func elasticReqs(t testing.TB, sys metrics.System, n int, seed int64) []workload.Request {
	t.Helper()
	iso := sys.Cfg.Seconds(sys.Programs[toyModels[0]].Table(sys.Cfg.NumSubarrays()).TotalCycles)
	return genReqs(n, 2/iso, 12*iso, seed)
}

// TestElasticDisabledClusterConformance pins the cluster-level half of
// the conformance contract: a disabled elastic system produces byte-
// identical chip artifacts (outcome, trace, metrics, timeline) and
// attribution reports to the plain spatial system it wraps.
func TestElasticDisabledClusterConformance(t *testing.T) {
	spatial := spatialSystem(t)
	elastic := elasticSystem(t, true)
	reqs := elasticReqs(t, spatial, 60, 42)

	gotS, outS := clusterArtifacts(t, spatial, "least-work", sim.ShedNone, reqs)
	gotE, outE := clusterArtifacts(t, elastic, "least-work", sim.ShedNone, reqs)
	if gotS != gotE {
		t.Fatalf("disabled elastic chip artifacts differ from spatial\n--- spatial\n%.2000s\n--- elastic\n%.2000s", gotS, gotE)
	}
	if outE.PerChip[0].Outcome.Refissions != 0 {
		t.Fatalf("disabled elastic recorded %d refissions", outE.PerChip[0].Outcome.Refissions)
	}
	for i := range reqs {
		if outS.Finishes[i] != outE.Finishes[i] {
			t.Fatalf("finish[%d]: spatial %x, disabled elastic %x", i, outS.Finishes[i], outE.Finishes[i])
		}
	}

	// Attribution half: the ledgers must agree span for span.
	report := func(sys metrics.System) string {
		out, err := Run(Config{System: sys, Chips: 2, Policy: "least-work", Attrib: true}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := out.AttribReport(reqs)
		if err != nil {
			t.Fatal(err)
		}
		j, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(j)
	}
	if a, b := report(spatial), report(elastic); a != b {
		t.Fatalf("disabled elastic attribution report diverged:\n%s\n---\n%s", a, b)
	}
}

// TestElasticClusterConservation runs the elastic policy hot through the
// full cluster stack and checks every conservation identity survives
// re-fission: terminal-state partition, per-request ledger telescoping
// (Σ spans == end − start, bit-exact), and the integer occupancy
// partition busy+idle+faulted+reconfig == units × horizon.
func TestElasticClusterConservation(t *testing.T) {
	sys := elasticSystem(t, false)
	reqs := elasticReqs(t, sys, 120, 9)
	cfg := Config{System: sys, Chips: 2, Policy: "least-work", Attrib: true}
	out, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, cfg, reqs, out)

	refissions := 0
	for _, cr := range out.PerChip {
		refissions += cr.Outcome.Refissions
	}
	if refissions == 0 {
		t.Fatal("contended elastic cluster run triggered no re-fissions — the invariants below would be vacuous")
	}

	a := out.Attrib
	if a == nil {
		t.Fatal("no attribution state")
	}
	for i := range reqs {
		spans := a.Front.Spans(i, nil)
		if len(spans) == 0 {
			t.Fatalf("request %d has no spans", i)
		}
		if a.Front.Cause(i) == obs.CauseDispatched {
			led, pos, ok := a.ChipLedger(out, i)
			if !ok {
				t.Fatalf("request %d dispatched but has no chip ledger", i)
			}
			chipSpans := led.Spans(pos, nil)
			if len(chipSpans) == 0 || spans[len(spans)-1].To != chipSpans[0].From {
				t.Fatalf("request %d: front/chip handoff not seamless", i)
			}
			spans = append(spans, chipSpans...)
		}
		endStart := new(big.Float).SetPrec(200).Sub(
			big.NewFloat(spans[len(spans)-1].To), big.NewFloat(spans[0].From))
		if s := bigSum(spans); s.Cmp(endStart) != 0 {
			t.Fatalf("request %d: Σ spans %s != end−start %s under re-fission",
				i, s.Text('g', 25), endStart.Text('g', 25))
		}
	}

	for c, cr := range out.PerChip {
		if cr.Occ == nil {
			t.Fatalf("chip %d has no occupancy accountant", c)
		}
		o := cr.Occ
		if got := o.Busy + o.Idle + o.Faulted + o.Reconfig; got != o.Units*o.Horizon {
			t.Errorf("chip %d occupancy partition under re-fission: %d != %d (%+v)",
				c, got, o.Units*o.Horizon, o)
		}
		if o.Reconfig == 0 && cr.Outcome.Refissions > 0 {
			t.Errorf("chip %d re-fissioned %d times but accounted no reconfiguration cycles",
				c, cr.Outcome.Refissions)
		}
	}
}

// TestElasticClusterDeterministic pins two-run byte-identity of the full
// elastic-on artifact set, including the EvRefission trace timeline.
func TestElasticClusterDeterministic(t *testing.T) {
	sys := elasticSystem(t, false)
	reqs := elasticReqs(t, sys, 80, 23)
	got1, out1 := clusterArtifacts(t, sys, "least-work", sim.ShedNone, reqs)
	got2, _ := clusterArtifacts(t, sys, "least-work", sim.ShedNone, reqs)
	if got1 != got2 {
		t.Fatal("elastic-on cluster artifacts are not reproducible")
	}
	if out1.PerChip[0].Outcome.Refissions == 0 {
		t.Fatal("single-chip contended run triggered no re-fissions")
	}
	saw := false
	for _, e := range out1.PerChip[0].Trace.Events {
		if e.Kind == sim.EvRefission {
			saw = true
			break
		}
	}
	if !saw {
		t.Fatal("no EvRefission events in the chip trace")
	}
}
