package obs

import "testing"

// Alloc-regression pins for the observability hot paths (DESIGN.md §12):
// a warm metric handle and a Reserved trace buffer must record without
// touching the allocator, and every probe must be a free no-op when
// observability is disabled (nil receivers). A serving run emits millions
// of probes — one allocation per probe would dominate the engine's own
// footprint.

func TestCounterIncZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", L("chip", "0"))
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		t.Fatalf("warm Counter.Inc: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { c.Add(2) }); allocs != 0 {
		t.Fatalf("warm Counter.Add: %.1f allocs/op, want 0", allocs)
	}
}

func TestGaugeHistogramZeroAllocs(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	h := r.Histogram("latency_s", DurationBuckets())
	v := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		g.Set(v)
		g.Max(v + 1)
		h.Observe(v)
		v += 1e-3
	})
	if allocs != 0 {
		t.Fatalf("warm Gauge/Histogram updates: %.1f allocs/op, want 0", allocs)
	}
}

func TestNilMetricsZeroAllocs(t *testing.T) {
	var r *Registry
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(1)
		g.Set(1)
		g.Max(1)
		h.Observe(1)
		_ = r.With() // label-scoping a nil registry is free too
	})
	if allocs != 0 {
		t.Fatalf("nil metric no-op paths: %.1f allocs/op, want 0", allocs)
	}
}

func TestTraceBuilderCounterZeroAllocs(t *testing.T) {
	tb := NewTraceBuilder(1e6)
	tb.Counter("chip0", "subarrays_in_use", 0, 0) // intern the track
	tb.Reserve(2048)
	i := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		tb.Counter("chip0", "subarrays_in_use", i, i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm TraceBuilder.Counter into reserved capacity: %.1f allocs/op, want 0", allocs)
	}
}

// TestTraceBuilderCounterOnZeroAllocs pins the interned-track path on a
// prefixed view: a warm CounterOn builds no track name and allocates
// nothing, and the track it samples is the one Counter names.
func TestTraceBuilderCounterOnZeroAllocs(t *testing.T) {
	root := NewTraceBuilder(1e6)
	tb := root.WithPrefix("chip0/")
	track := tb.Track("task 007")
	tb.Reserve(2048)
	i := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		tb.CounterOn(track, "subarrays", i, i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm TraceBuilder.CounterOn into reserved capacity: %.1f allocs/op, want 0", allocs)
	}
	if again := root.Track("chip0/task 007"); again != track {
		t.Fatalf("Track on the root = %d, on the prefixed view = %d", again, track)
	}
}

func TestNilTraceBuilderZeroAllocs(t *testing.T) {
	var tb *TraceBuilder
	allocs := testing.AllocsPerRun(1000, func() {
		tb.Counter("c", "s", 0, 1)
		tb.Instant("c", "x", 0)
		tb.Span("c", "x", 0, 1)
		tb.CounterOn(tb.Track("c"), "s", 0, 1)
		tb.SpanOn(-1, "x", 0, 1)
		tb.Reserve(64)
		_ = tb.WithPrefix("p/")
	})
	if allocs != 0 {
		t.Fatalf("nil-TraceBuilder no-op paths: %.1f allocs/op, want 0", allocs)
	}
}
