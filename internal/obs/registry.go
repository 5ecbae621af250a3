package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A Label is one key=value dimension of a metric series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates the series types.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// metric is one registered series. Which fields are live depends on kind.
type metric struct {
	name   string
	labels []Label // sorted by key
	kind   metricKind

	value   float64   // counter total / gauge level
	bounds  []float64 // histogram upper bounds (exclusive of +Inf)
	buckets []uint64  // len(bounds)+1; last is the +Inf bucket
	count   uint64
	sum     float64
}

// regCore is the shared storage behind possibly-many label-scoped
// Registry views.
type regCore struct {
	mu      sync.Mutex
	series  map[string]*metric
	ordered []string // series ids in registration order (snapshot sorts)
}

// Registry is a deterministic metrics registry. The zero value is not
// usable; construct with NewRegistry. All methods are safe on a nil
// receiver (no-ops) and for concurrent use.
//
// The registry is append-only by contract: there is deliberately no
// Remove or per-series reset. A series, once registered, lives as long
// as the registry, its handles stay valid forever, re-registering the
// same (name, label set) returns the same storage, and every Snapshot's
// series set is a superset of every earlier one. This is what makes
// cached handles safe to hold across runs and snapshot encodings
// byte-stable as instrumentation accumulates; a run that wants a clean
// slate constructs a fresh registry (they are one map allocation).
// registry_test.go asserts this contract.
type Registry struct {
	core *regCore
	base []Label // labels every series of this view carries
}

// NewRegistry returns an empty registry.
//
//perf:cold once-per-run constructor
func NewRegistry() *Registry {
	return &Registry{core: &regCore{series: map[string]*metric{}}}
}

// With returns a view whose every series carries the given labels in
// addition to the view's existing base labels. Storage is shared with
// the parent.
func (r *Registry) With(labels ...Label) *Registry {
	if r == nil {
		return nil
	}
	base := make([]Label, 0, len(r.base)+len(labels))
	base = append(base, r.base...)
	base = append(base, labels...)
	return &Registry{core: r.core, base: base}
}

// seriesID renders the canonical identity of a series: the name plus its
// label set sorted by key. Two series with the same name and labels are
// the same series regardless of label argument order.
func seriesID(name string, labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return name, nil
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Key != sorted[j].Key {
			return sorted[i].Key < sorted[j].Key
		}
		return sorted[i].Value < sorted[j].Value
	})
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String(), sorted
}

// lookup finds or registers a series. Registering an existing id with a
// different kind panics: that is a programming error the tests catch.
func (r *Registry) lookup(name string, kind metricKind, bounds []float64, labels []Label) *metric {
	all := make([]Label, 0, len(r.base)+len(labels))
	all = append(all, r.base...)
	all = append(all, labels...)
	id, sorted := seriesID(name, all)
	c := r.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.series[id]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: series %s registered as %s, requested as %s", id, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, labels: sorted, kind: kind}
	if kind == kindHistogram {
		m.bounds = append([]float64(nil), bounds...)
		sort.Float64s(m.bounds)
		m.buckets = make([]uint64, len(m.bounds)+1)
	}
	c.series[id] = m
	c.ordered = append(c.ordered, id)
	return m
}

// A Counter is a monotonically increasing series handle.
type Counter struct {
	m    *metric
	core *regCore
}

// A Gauge is a high-water-mark series handle: Max only raises it.
type Gauge struct {
	m    *metric
	core *regCore
}

// A Histogram is a bucketed distribution handle.
type Histogram struct {
	m    *metric
	core *regCore
}

// Counter finds or creates a counter series.
//
//perf:cold handle registration: series intern once, callers keep the handle
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{m: r.lookup(name, kindCounter, nil, labels), core: r.core}
}

// Gauge finds or creates a gauge series.
//
//perf:cold handle registration: series intern once, callers keep the handle
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{m: r.lookup(name, kindGauge, nil, labels), core: r.core}
}

// Histogram finds or creates a histogram series with the given upper
// bucket bounds (a +Inf bucket is implicit). Bounds are fixed at first
// registration; later calls reuse the existing series.
//
//perf:cold handle registration: series intern once, callers keep the handle
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return &Histogram{m: r.lookup(name, kindHistogram, bounds, labels), core: r.core}
}

// Add increases the counter by v (negative deltas are ignored: counters
// are monotone).
//
//perf:hot per-event probe: nil-safe, no formatting, no allocation
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	c.core.mu.Lock()
	c.m.value += v
	c.core.mu.Unlock()
}

// Inc increases the counter by one. The nil check lives here (not only
// in Add) so the disabled-observability case inlines to an untaken
// branch at the call site instead of a function call per probe.
//
//perf:hot per-event probe: nil-safe, no formatting, no allocation
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.Add(1)
}

// Max raises the gauge to v if v exceeds the current value (a running
// high-water mark on simulated time).
//
//perf:hot per-event probe: nil-safe, no formatting, no allocation
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	g.core.mu.Lock()
	if v > g.m.value {
		g.m.value = v
	}
	g.core.mu.Unlock()
}

// Observe records one sample into the histogram.
//
//perf:hot per-event probe: nil-safe, no formatting, no allocation
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.core.mu.Lock()
	m := h.m
	idx := sort.SearchFloat64s(m.bounds, v)
	m.buckets[idx]++
	m.count++
	m.sum += v
	h.core.mu.Unlock()
}

// DurationBuckets is a general-purpose exponential bound set for
// simulated-seconds distributions (100 µs … ~13 s).
func DurationBuckets() []float64 {
	bounds := make([]float64, 0, 18)
	v := 1e-4
	for i := 0; i < 18; i++ {
		bounds = append(bounds, v)
		v *= 2
	}
	return bounds
}

// SeriesSnapshot is the frozen state of one series.
type SeriesSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Kind   string  `json:"kind"`

	// Counter / gauge value.
	Value float64 `json:"value,omitempty"`

	// Histogram state: Bounds[i] is the inclusive upper bound of
	// Buckets[i]; the final bucket is unbounded. Count and Sum are
	// always present in the JSON encoding for histograms (even at zero
	// samples), so means are derivable from an artifact without
	// re-running — see MarshalJSON.
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
	Count   uint64    `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
}

// MarshalJSON emits histogram series with unconditional count/sum
// fields (a zero-sample histogram still reports count 0, sum 0), while
// counters and gauges keep the compact value-only form.
func (s SeriesSnapshot) MarshalJSON() ([]byte, error) {
	if s.Kind == "histogram" {
		return json.Marshal(struct {
			Name    string    `json:"name"`
			Labels  []Label   `json:"labels,omitempty"`
			Kind    string    `json:"kind"`
			Bounds  []float64 `json:"bounds,omitempty"`
			Buckets []uint64  `json:"buckets,omitempty"`
			Count   uint64    `json:"count"`
			Sum     float64   `json:"sum"`
		}{s.Name, s.Labels, s.Kind, s.Bounds, s.Buckets, s.Count, s.Sum})
	}
	return json.Marshal(struct {
		Name   string  `json:"name"`
		Labels []Label `json:"labels,omitempty"`
		Kind   string  `json:"kind"`
		Value  float64 `json:"value,omitempty"`
	}{s.Name, s.Labels, s.Kind, s.Value})
}

// Snapshot is the frozen state of a whole registry, sorted by series id.
type Snapshot struct {
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot freezes the registry. The result is sorted by canonical series
// id, so identical instrumentation histories yield byte-identical
// encodings regardless of registration concurrency.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	c := r.core
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, len(c.ordered))
	copy(ids, c.ordered)
	sort.Strings(ids)
	snap := Snapshot{Series: make([]SeriesSnapshot, 0, len(ids))}
	for _, id := range ids {
		m := c.series[id]
		s := SeriesSnapshot{
			Name:   m.name,
			Labels: append([]Label(nil), m.labels...),
			Kind:   m.kind.String(),
		}
		switch m.kind {
		case kindHistogram:
			s.Bounds = append([]float64(nil), m.bounds...)
			s.Buckets = append([]uint64(nil), m.buckets...)
			s.Count = m.count
			s.Sum = m.sum
		default:
			s.Value = m.value
		}
		snap.Series = append(snap.Series, s)
	}
	return snap
}

// JSON encodes the snapshot deterministically (stable field order, series
// sorted by id).
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// labelString renders a series' labels for the text table.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return "-"
	}
	parts := make([]string, 0, len(labels))
	for _, l := range labels {
		parts = append(parts, l.Key+"="+l.Value)
	}
	return strings.Join(parts, ",")
}

// Text renders the snapshot as an aligned table — the same renderer the
// latency tables use (see metrics.FormatLatencyTable).
func (s Snapshot) Text() string {
	t := NewTable("metric", "labels", "kind", "value", "count", "sum", "mean")
	for _, m := range s.Series {
		switch m.Kind {
		case "histogram":
			mean := "-"
			if m.Count > 0 {
				mean = strconv.FormatFloat(m.Sum/float64(m.Count), 'g', 6, 64)
			}
			t.Row(m.Name, labelString(m.Labels), m.Kind, "-",
				strconv.FormatUint(m.Count, 10),
				strconv.FormatFloat(m.Sum, 'g', 6, 64),
				mean)
		default:
			t.Row(m.Name, labelString(m.Labels), m.Kind,
				strconv.FormatFloat(m.Value, 'g', 6, 64), "-", "-", "-")
		}
	}
	return t.String()
}
