package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"planaria/internal/arch"
	"planaria/internal/cluster"
	"planaria/internal/compiler"
	"planaria/internal/energy"
	"planaria/internal/metrics"
	"planaria/internal/obs"
	"planaria/internal/prema"
	"planaria/internal/sched"
	"planaria/internal/sim"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run re-executes itself with -probe to time the host. It answers with
// the reference time at once: under the race detector the probe kernel
// alone would take longer than the tests, and the tests check outputs,
// not speed.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-probe" {
		fmt.Println(probeRefS)
		os.Exit(0)
	}
	// A race-enabled binary sleeps a second at exit by default; the
	// probe children need not.
	_ = os.Setenv("GORACE", "atexit_sleep_ms=0")
	os.Exit(m.Run())
}

// readDefinition loads the repository's BENCHMARK.json.
func readDefinition(t *testing.T) (def struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}) {
	t.Helper()
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &def); err != nil {
		t.Fatal(err)
	}
	return def
}

func TestDefinitionNamesTheWorkloads(t *testing.T) {
	def := readDefinition(t)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// checkMetrics fails unless got reports exactly the listed metrics, with
// their units, and every value is a finite number.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	names := make([]string, 0, len(got))
	for k, m := range got {
		names = append(names, k)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", k, m.Value)
		}
	}
	sort.Strings(names)
	var listed []string
	for _, m := range want {
		listed = append(listed, m.Name)
		if g, ok := got[m.Name]; ok && g.Unit != m.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	sort.Strings(listed)
	if !reflect.DeepEqual(names, listed) {
		t.Errorf("reported metrics %v\nBENCHMARK.json lists %v", names, listed)
	}
}

// TestWorkloadsSmall runs every workload at a reduced size, untraced and
// traced: conservation holds and every call reproduces the warm-up
// call's digest (both checked inside the runs), the traced run's wrapped
// policies and chip replays agree with the untraced outcome, and each
// run reports exactly the metrics BENCHMARK.json lists.
func TestWorkloadsSmall(t *testing.T) {
	def := readDefinition(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(w, 3, time.Millisecond, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() || rep.Calls < minCalls {
				t.Fatalf("untraced run: %d calls, failures %v", rep.Calls, rep.Failures)
			}
			checkMetrics(t, rep.Metrics, def.EndToEnd)
			if v := rep.Metrics["sim_sla_frac"].Value; !(v > 0 && v <= 1) {
				t.Errorf("sim_sla_frac = %v", v)
			}

			spans := filepath.Join(t.TempDir(), "spans.json")
			tr, err := runTraced(w, 3, time.Millisecond, true, spans)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.correct() {
				t.Fatalf("traced run: failures %v", tr.Failures)
			}
			checkMetrics(t, tr.Metrics, def.PerLayer)
			var file struct{ TraceEvents []map[string]any }
			if err := readJSON(spans, &file); err != nil || len(file.TraceEvents) == 0 {
				t.Errorf("span file: %v, %d events", err, len(file.TraceEvents))
			}
		})
	}
}

// toySystems returns the three policies the simulator's systems use,
// each on a chip with the two toy networks compiled for it.
func toySystems(t *testing.T) []metrics.System {
	t.Helper()
	nets, err := toyNets()
	if err != nil {
		t.Fatal(err)
	}
	st := newSetupTimer(nil, -1)
	spatial, err := planariaSystem(nets, false, st)
	if err != nil {
		t.Fatal(err)
	}
	elastic, err := planariaSystem(nets, true, st)
	if err != nil {
		t.Fatal(err)
	}
	mono := arch.Monolithic()
	progs := map[string]*compiler.Program{}
	for _, net := range nets {
		if progs[net.Name], err = compiler.CompileProgram(net, mono, false); err != nil {
			t.Fatal(err)
		}
	}
	return []metrics.System{spatial, elastic, {
		Name: "PREMA", Cfg: mono, Programs: progs, Params: energy.Default(),
		NewPolicy: func() sim.Policy { return prema.NewToken(mono) },
	}}
}

// interfaceSet lists which of the five optional policy interfaces p has.
func interfaceSet(p sim.Policy) [5]bool {
	_, sa := p.(sim.SliceAllocator)
	_, rf := p.(sim.Refissioner)
	_, ha := p.(sim.HealthAware)
	_, ob := p.(obs.Observable)
	_, oc := p.(obs.OccupancyAware)
	return [5]bool{sa, rf, ha, ob, oc}
}

func TestTimingWrapperIsTransparent(t *testing.T) {
	for _, sys := range toySystems(t) {
		t.Run(sys.Name, func(t *testing.T) {
			rec := &recorder{}
			inner := sys.NewPolicy()
			w, _, err := rec.wrap(inner)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := interfaceSet(w), interfaceSet(inner); got != want {
				t.Fatalf("wrapper implements %v, policy %v (SliceAllocator, Refissioner, HealthAware, Observable, OccupancyAware)", got, want)
			}

			// A tight deadline keeps queues deep enough for the elastic
			// policy to re-fission, and observing every chip exercises the
			// forwarded SetObserver and SetOccupancy.
			nets, err := toyNets()
			if err != nil {
				t.Fatal(err)
			}
			iso := sys.Cfg.Seconds(sys.Programs[nets[0].Name].Table(sys.Cfg.NumSubarrays()).TotalCycles)
			reqs := poissonStream(nets, 300, 2/iso, 7)
			for i := range reqs {
				reqs[i].QoS = 4 * iso
				reqs[i].Deadline = reqs[i].Arrival + reqs[i].QoS
			}
			in := &instance{reqs: reqs, config: func() cluster.Config {
				return cluster.Config{System: sys, Chips: 2, Observe: true, Attrib: true}
			}}
			plain, err := in.run(callOpts{})
			if err != nil {
				t.Fatal(err)
			}
			traced, err := in.run(callOpts{wrap: rec.wrapSystem})
			if err != nil {
				t.Fatal(err)
			}
			tot, err := rec.takeTotals()
			if err != nil {
				t.Fatal(err)
			}
			if tot.policies != 2 {
				t.Errorf("%d policies wrapped, want one per chip", tot.policies)
			}
			if tot.sched.calls+tot.prema.calls == 0 {
				t.Error("no allocation call was counted")
			}
			if _, ok := inner.(sim.Refissioner); ok && tot.refNext.calls == 0 {
				t.Error("the engine never asked the wrapped elastic policy for a re-fission point")
			}
			a, err := in.verify(plain)
			if err != nil {
				t.Fatal(err)
			}
			b, err := in.verify(traced)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Error("wrapped policies changed the cluster outcome")
			}
			if _, err := replay(traced, &recorder{}, nil, -1); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestWrapRefusesUnknownPolicies(t *testing.T) {
	if _, _, err := (&recorder{}).wrap(&sched.FCFS{}); err == nil {
		t.Fatal("wrapped a policy with no timing wrapper")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	for _, c := range []struct{ xs, want []float64 }{
		{[]float64{7}, []float64{7, 7, 7}},
		{[]float64{2, 1}, []float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, []float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := []float64{q1, q2, q3}; !reflect.DeepEqual(got, c.want) {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	ten := func(base, step float64) []float64 {
		v := make([]float64, 10)
		for i := range v {
			v[i] = base + step*float64(i%3)
		}
		return v
	}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", ten(1, 0.01), ten(1, 0.01), false, "unchanged"},
		{"slower", ten(1, 0.01), ten(1.5, 0.01), false, "worse"},
		{"faster, nine of ten pairs", ten(1, 0.01), ten(0.9, 0.01), false, "better"},
		{"higher is better", ten(1, 0.01), ten(0.5, 0.01), true, "worse"},
		{"noisy", []float64{1, 2, 1, 2}, []float64{1, 2, 1, 2}, false, "unresolved"},
		{"exact metric moved", []float64{1, 1, 1}, []float64{0.9, 0.9, 0.9}, true, "worse"},
	} {
		if got := verdict(c.a, c.b, 0.05, c.higher); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := &spanLog{spans: []span{
		{name: "call", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 60},
		{name: "a.1", parent: 1, start: 10, end: 20},
	}}
	if got := l.self(0); got != 50 {
		t.Errorf("self(call) = %v, want 50 (children cover 10..60)", got)
	}
	if got := l.self(1); got != 20 {
		t.Errorf("self(a) = %v, want 20", got)
	}
}

func TestResultLineIsLast(t *testing.T) {
	var buf bytes.Buffer
	rep := &report{Workload: "w", Attempted: 3, Metrics: map[string]metric{"call_s": {0.5, "s"}}}
	if err := printReport(rep, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if !last.Correct || last.Attempted != 3 || last.Metrics["call_s"].Value != 0.5 {
		t.Errorf("last line %q", lines[len(lines)-1])
	}
}
