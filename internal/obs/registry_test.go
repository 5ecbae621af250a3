package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", L("model", "resnet"))
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotone
	g := r.Gauge("queue_depth")
	g.Max(3)
	g.Max(7)
	g.Max(2) // below the high-water mark
	h := r.Histogram("latency_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}

	snap := r.Snapshot()
	if len(snap.Series) != 3 {
		t.Fatalf("snapshot has %d series, want 3", len(snap.Series))
	}
	byName := func(name string) SeriesSnapshot {
		for _, s := range snap.Series {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("series %q missing", name)
		return SeriesSnapshot{}
	}
	if v := byName("requests_total").Value; v != 3 {
		t.Errorf("counter = %g, want 3", v)
	}
	if v := byName("queue_depth").Value; v != 7 {
		t.Errorf("gauge = %g, want 7 (high-water)", v)
	}
	hs := byName("latency_seconds")
	if hs.Count != 4 || math.Abs(hs.Sum-5.555) > 1e-12 {
		t.Errorf("histogram count=%d sum=%g, want 4/5.555", hs.Count, hs.Sum)
	}
	for i, want := range []uint64{1, 1, 1, 1} {
		if hs.Buckets[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, hs.Buckets[i], want)
		}
	}
}

func TestSeriesIdentityIgnoresLabelOrder(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", L("b", "2"), L("a", "1"))
	b := r.Counter("x", L("a", "1"), L("b", "2"))
	a.Inc()
	b.Inc()
	snap := r.Snapshot()
	if len(snap.Series) != 1 {
		t.Fatalf("label order split the series: %d series", len(snap.Series))
	}
	if snap.Series[0].Value != 2 {
		t.Fatalf("value = %g, want 2", snap.Series[0].Value)
	}
}

func TestWithLabelsAndKindConflict(t *testing.T) {
	r := NewRegistry()
	sub := r.With(L("system", "planaria"))
	sub.Counter("decisions_total").Inc()
	snap := r.Snapshot()
	if len(snap.Series) != 1 || snap.Series[0].Labels[0].Value != "planaria" {
		t.Fatalf("derived view lost its base label: %+v", snap.Series)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	sub.Gauge("decisions_total")
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Max(2)
	r.Histogram("c", DurationBuckets()).Observe(1)
	if r.With(L("k", "v")) != nil {
		t.Fatal("nil.With should stay nil")
	}
	snap := r.Snapshot()
	if len(snap.Series) != 0 {
		t.Fatal("nil registry produced series")
	}
	var o *Observer
	if o.Registry() != nil || o.Tracer() != nil || o.Named("x") != nil {
		t.Fatal("nil observer must yield nil sinks")
	}
}

func TestSnapshotEncodingsDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("z_total", L("m", "b")).Add(2)
		r.Counter("a_total", L("m", "a")).Add(1)
		r.Histogram("h", []float64{1, 2}).Observe(1.5)
		r.Gauge("g").Max(0.25)
		return r
	}
	j1, err := build().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := build().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("JSON snapshots differ:\n%s\n---\n%s", j1, j2)
	}
	t1, t2 := build().Snapshot().Text(), build().Snapshot().Text()
	if t1 != t2 {
		t.Fatalf("text snapshots differ:\n%s\n---\n%s", t1, t2)
	}
	// Sorted by series id: a_total before g before h before z_total.
	idx := func(s string) int { return strings.Index(t1, s) }
	if !(idx("a_total") < idx("g") && idx("g") < idx("h") && idx("h") < idx("z_total")) {
		t.Fatalf("series not sorted:\n%s", t1)
	}
}

// TestHistogramJSONAlwaysCarriesCountSum pins the artifact contract: a
// histogram series exports "count" and "sum" unconditionally — even at
// zero samples — so means are derivable from any snapshot without
// re-running, while counters/gauges keep the compact value-only form.
func TestHistogramJSONAlwaysCarriesCountSum(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty_h", []float64{1, 2}) // registered, never observed
	r.Histogram("warm_h", []float64{1, 2}).Observe(0.5)
	r.Counter("c_total").Inc()
	j, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Series []map[string]any `json:"series"`
	}
	if err := json.Unmarshal(j, &doc); err != nil {
		t.Fatal(err)
	}
	for _, s := range doc.Series {
		name := s["name"].(string)
		_, hasCount := s["count"]
		_, hasSum := s["sum"]
		switch name {
		case "empty_h", "warm_h":
			if !hasCount || !hasSum {
				t.Errorf("%s: histogram JSON missing count/sum: %v", name, s)
			}
		default:
			if hasCount || hasSum {
				t.Errorf("%s: non-histogram JSON grew count/sum: %v", name, s)
			}
		}
	}
	if c := byNameIn(t, doc.Series, "empty_h"); c["count"].(float64) != 0 || c["sum"].(float64) != 0 {
		t.Errorf("zero-sample histogram count/sum: %v", c)
	}
	// The text rendering derives the mean in its own column.
	text := r.Snapshot().Text()
	if !strings.Contains(text, "mean") {
		t.Fatalf("text snapshot lost the mean column:\n%s", text)
	}
}

func byNameIn(t *testing.T, series []map[string]any, name string) map[string]any {
	t.Helper()
	for _, s := range series {
		if s["name"] == name {
			return s
		}
	}
	t.Fatalf("series %q missing", name)
	return nil
}

// TestRegistryAppendOnlyContract asserts the documented append-only
// contract (see the Registry doc comment): no removal, handles valid
// forever, re-registration returns the same storage, and each Snapshot's
// series set is a superset of every earlier one.
func TestRegistryAppendOnlyContract(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("reqs_total", L("chip", "0"))
	c1.Inc()
	seen := map[string]bool{}
	for _, s := range r.Snapshot().Series {
		seen[s.Name] = true
	}

	// Re-registering the same (name, label set) must return the same
	// storage — increments through either handle land in one series.
	c2 := r.Counter("reqs_total", L("chip", "0"))
	c2.Inc()
	snap := r.Snapshot()
	if len(snap.Series) != 1 || snap.Series[0].Value != 2 {
		t.Fatalf("re-registration split or reset the series: %+v", snap.Series)
	}

	// Registering more series only grows the set; everything previously
	// snapshotted is still there with its value intact.
	r.Gauge("depth").Max(3)
	r.Histogram("lat", []float64{1}).Observe(0.5)
	snap = r.Snapshot()
	if len(snap.Series) != 3 {
		t.Fatalf("series set = %d, want 3", len(snap.Series))
	}
	for name := range seen {
		found := false
		for _, s := range snap.Series {
			if s.Name == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("earlier series %q vanished from a later snapshot", name)
		}
	}

	// The old handle stays valid after arbitrary later registrations.
	c1.Inc()
	for _, s := range r.Snapshot().Series {
		if s.Name == "reqs_total" && s.Value != 3 {
			t.Fatalf("stale handle: value = %g, want 3", s.Value)
		}
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("spins_total").Inc()
				r.Histogram("h", []float64{10, 100}).Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	for _, s := range snap.Series {
		switch s.Name {
		case "spins_total":
			if s.Value != 8000 {
				t.Errorf("spins_total = %g, want 8000", s.Value)
			}
		case "h":
			if s.Count != 8000 {
				t.Errorf("h count = %d, want 8000", s.Count)
			}
		}
	}
}

func TestTableRenderer(t *testing.T) {
	tab := NewTable("name", "v")
	tab.Row("alpha", "1")
	tab.Row("b", "22")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines, want 3:\n%s", len(lines), out)
	}
	for _, l := range lines[1:] {
		if len(l) != len(lines[0]) {
			t.Fatalf("misaligned table:\n%s", out)
		}
	}
	if !strings.HasPrefix(lines[1], "alpha") || !strings.HasSuffix(lines[2], "22") {
		t.Fatalf("alignment wrong:\n%s", out)
	}
}
