package obs

import (
	"strings"
	"testing"
)

// Alloc-regression pins for the observability hot paths (DESIGN.md §12):
// a trace builder with room left in its chunks must record without
// touching the allocator, and every probe must be a free no-op when
// observability is disabled (nil receivers). A serving run emits millions
// of probes — one allocation per probe would dominate the engine's own
// footprint.

func TestTraceBuilderCounterZeroAllocs(t *testing.T) {
	tb := NewTraceBuilder(1e6)
	tb.Counter("chip0", "subarrays_in_use", 0, 0) // intern the track, take a chunk
	i := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		tb.Counter("chip0", "subarrays_in_use", i, i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm TraceBuilder.Counter within a chunk: %.1f allocs/op, want 0", allocs)
	}
}

// TestTraceBuilderCounterOnZeroAllocs pins the registered-track path on
// a prefixed view: a warm CounterOn builds no track name and allocates
// nothing, and the track it samples is the one a root track of the same
// full name exports as.
func TestTraceBuilderCounterOnZeroAllocs(t *testing.T) {
	root := NewTraceBuilder(1e6)
	tb := root.WithPrefix("chip0/")
	track := tb.Track(Fmt("task %03d").Int(7))
	tb.CounterOn(track, "subarrays", 0, 0) // take a chunk
	i := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		tb.CounterOn(track, "subarrays", i, i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm TraceBuilder.CounterOn within a chunk: %.1f allocs/op, want 0", allocs)
	}
	root.CounterOn(root.Track(Lit("chip0/task 007")), "subarrays", i, i)
	if n := strings.Count(string(root.JSON()), `"thread_name"`); n != 1 {
		t.Fatalf("the prefixed and the root track export as %d tracks, want 1", n)
	}
}

// TestTraceBuilderSpanZeroAllocs pins the recording path of a formatted
// name with args: a warm SpanOn formats nothing, and its args land in
// the arena without escaping.
func TestTraceBuilderSpanZeroAllocs(t *testing.T) {
	tb := NewTraceBuilder(1e6)
	track := tb.Track(Fmt("task %03d").Int(1))
	model := "ResNet-50"
	span := func(i int) {
		tb.SpanOn(track, Fmt("req %d %s").Int(i).Str(model), float64(i), float64(i)+1,
			Str("model", model), Num("priority", 3), Num("latency_ms", 1), Num("deadline_ms", 2), Num("preemptions", 0))
	}
	span(0) // take an event chunk and an arg chunk
	i := 1
	allocs := testing.AllocsPerRun(500, func() {
		span(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm TraceBuilder.SpanOn with a formatted name and args: %.1f allocs/op, want 0", allocs)
	}
}

func TestNilTraceBuilderZeroAllocs(t *testing.T) {
	var tb *TraceBuilder
	allocs := testing.AllocsPerRun(1000, func() {
		tb.Counter("c", "s", 0, 1)
		tb.Instant("c", Fmt("x %d").Int(1), 0)
		tb.CounterOn(tb.Track(Lit("c")), "s", 0, 1)
		tb.SpanOn(-1, Lit("x"), 0, 1)
		_ = tb.WithPrefix("p/")
	})
	if allocs != 0 {
		t.Fatalf("nil-TraceBuilder no-op paths: %.1f allocs/op, want 0", allocs)
	}
}
