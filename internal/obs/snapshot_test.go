package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// histogram returns an empty histogram series over bounds.
func histogram(name string, bounds ...float64) SeriesSnapshot {
	return SeriesSnapshot{Name: name, Kind: "histogram", Bounds: bounds, Buckets: make([]uint64, len(bounds)+1)}
}

// TestHistogramObserve pins the bucket placement: a sample lands in the
// first bucket whose bound is at or above it, past the last bound in the
// unbounded bucket.
func TestHistogramObserve(t *testing.T) {
	h := histogram("latency_seconds", 0.01, 0.1, 1)
	for _, v := range []float64{0.005, 0.01, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count != 4 || h.Sum != 0.005+0.01+0.5+5 {
		t.Errorf("histogram count=%d sum=%g, want 4/5.515", h.Count, h.Sum)
	}
	for i, want := range []uint64{2, 0, 1, 1} {
		if h.Buckets[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, h.Buckets[i], want)
		}
	}
}

func TestSnapshotEncodingsDeterministic(t *testing.T) {
	build := func() Snapshot {
		h := histogram("h", 1, 2)
		h.Observe(1.5)
		s := Snapshot{Series: []SeriesSnapshot{
			{Name: "z_total", Labels: []Label{{"m", "b"}}, Kind: "counter", Value: 2},
			{Name: "a_total", Labels: []Label{{"m", "b"}}, Kind: "counter", Value: 1},
			h,
			{Name: "a_total", Labels: []Label{{"m", "a"}}, Kind: "counter", Value: 3},
			{Name: "g", Kind: "gauge", Value: 0.25},
		}}
		s.Sort()
		return s
	}
	j1, err := build().JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := build().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("JSON snapshots differ:\n%s\n---\n%s", j1, j2)
	}
	t1, t2 := build().Text(), build().Text()
	if t1 != t2 {
		t.Fatalf("text snapshots differ:\n%s\n---\n%s", t1, t2)
	}
	// Sorted by series id: the name, then the label values, so
	// a_total{m=a} before a_total{m=b} before g before h before z_total.
	idx := func(s string) int { return strings.Index(t1, s) }
	if !(idx("m=a") < idx("m=b") && idx("m=b") < idx("g ") && idx("g ") < idx("h ") && idx("h ") < idx("z_total")) {
		t.Fatalf("series not sorted:\n%s", t1)
	}
}

// TestHistogramJSONAlwaysCarriesCountSum pins the artifact contract: a
// histogram series exports "count" and "sum" unconditionally — even at
// zero samples — so means are derivable from any snapshot without
// re-running, while counters/gauges keep the compact value-only form.
func TestHistogramJSONAlwaysCarriesCountSum(t *testing.T) {
	warm := histogram("warm_h", 1, 2)
	warm.Observe(0.5)
	snap := Snapshot{Series: []SeriesSnapshot{
		histogram("empty_h", 1, 2), // never observed
		warm,
		{Name: "c_total", Kind: "counter", Value: 1},
	}}
	j, err := snap.JSON()
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
	text := snap.Text()
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
