package obs

import (
	"encoding/json"
	"sort"
	"strconv"
	"strings"
)

// A Label is one key=value dimension of a metric series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
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
	Labels []Label `json:"labels,omitempty"` // sorted by key
	Kind   string  `json:"kind"`             // counter, gauge or histogram

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

// Observe records one sample into a histogram series: the bucket whose
// bound is the first at or above v, the count and the sum.
func (s *SeriesSnapshot) Observe(v float64) {
	s.Buckets[sort.SearchFloat64s(s.Bounds, v)]++
	s.Count++
	s.Sum += v
}

// id renders the canonical identity of a series: the name plus its
// key-sorted labels with quoted values.
func (s SeriesSnapshot) id() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, l := range s.Labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String()
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

// Snapshot is a set of frozen series, published sorted by series id.
type Snapshot struct {
	Series []SeriesSnapshot `json:"series"`
}

// Sort orders the series by canonical id, so a snapshot's encodings do
// not depend on the order its series were built in.
func (s Snapshot) Sort() {
	sort.Slice(s.Series, func(i, j int) bool { return s.Series[i].id() < s.Series[j].id() })
}

// JSON encodes the snapshot deterministically (stable field order,
// series in slice order).
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
