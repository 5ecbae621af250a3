package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

func buildTimeline() *TraceBuilder {
	tb := NewTraceBuilder(1e6) // seconds → µs
	tb.SpanOn(tb.Track(Lit("task 000")), Fmt("req %d %s").Int(0).Str("ResNet-50"), 0, 0.010, Str("model", "ResNet-50"), Num("priority", 5))
	tb.Counter("chip", "subarrays", 0, 16)
	tb.Counter("chip", "subarrays", 0.004, 12)
	tb.Instant("sched", Lit("preempt task 0"), 0.004, Num("task", 0))
	sub := tb.WithPrefix("prema/")
	sub.SpanOn(sub.Track(Lit("task 001")), Lit("req 1"), 0.001, 0.02)
	return tb
}

func TestTraceJSONIsValidAndDeterministic(t *testing.T) {
	tb := buildTimeline()
	raw := tb.JSON()
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v\n%s", err, raw)
	}
	// Metadata: process name + 2 per track (name, sort index), 4 tracks.
	var spans, counters, instants, meta int
	var sawPrefixed bool
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Name == "req 0 ResNet-50" {
				if e.Ts != 0 || e.Dur != 10000 {
					t.Errorf("span ts=%g dur=%g, want 0/10000 µs", e.Ts, e.Dur)
				}
				if e.Args["model"] != "ResNet-50" || e.Args["priority"] != 5.0 {
					t.Errorf("span args = %v", e.Args)
				}
			}
		case "C":
			counters++
			if !strings.Contains(e.Name, "chip:subarrays") {
				t.Errorf("counter name %q not track-qualified", e.Name)
			}
		case "i":
			instants++
		case "M":
			meta++
			if name, _ := e.Args["name"].(string); strings.HasPrefix(name, "prema/") {
				sawPrefixed = true
			}
		}
	}
	if spans != 2 || counters != 2 || instants != 1 {
		t.Fatalf("spans=%d counters=%d instants=%d, want 2/2/1", spans, counters, instants)
	}
	if meta != 1+2*4 {
		t.Fatalf("metadata events = %d, want 9 (process + 2×4 tracks)", meta)
	}
	if !sawPrefixed {
		t.Fatal("WithPrefix track missing from thread metadata")
	}
	if string(buildTimeline().JSON()) != string(raw) {
		t.Fatal("identical timelines encode differently")
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tb *TraceBuilder
	tb.SpanOn(tb.Track(Lit("a")), Lit("b"), 0, 1)
	tb.Instant("a", Lit("b"), 0)
	tb.Counter("a", "b", 0, 1)
	if tb.WithPrefix("x/") != nil {
		t.Fatal("nil.WithPrefix should stay nil")
	}
	if tb.Len() != 0 {
		t.Fatal("nil builder has events")
	}
	var doc map[string]any
	if err := json.Unmarshal(tb.JSON(), &doc); err != nil {
		t.Fatalf("nil builder export invalid: %v", err)
	}
}

func TestSpanClampsReversedInterval(t *testing.T) {
	tb := NewTraceBuilder(1)
	tb.SpanOn(tb.Track(Lit("t")), Lit("s"), 5, 3)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tb.JSON(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, e := range doc.TraceEvents {
		if e["ph"] == "X" && e["dur"] != 0.0 {
			t.Fatalf("reversed span dur = %v, want 0", e["dur"])
		}
	}
}

// nameTemplates are the timeline name formats the simulators record,
// each with the operand kinds its verbs take in order ('s' or 'd').
var nameTemplates = []struct{ format, verbs string }{
	{"%s fault lands on unit %d", "sd"},
	{"%s fault repairs on unit %d", "sd"},
	{"kill task %d (attempt %d)", "dd"},
	{"%s task %d -> %d", "sdd"},
	{"req %d %s", "ds"},
	{"task %03d", "d"},
	{"fission: fit %d tasks", "d"},
	{"fission: unfit %d tasks", "d"},
	{"elastic: %s %d tasks", "sd"},
	{"dispatch task %d", "d"},
	{"%s x%d", "sd"},
	{"band %d,%d", "dd"},
	{"queue %05d", "d"},
}

// TestNameRendersAsSprintf checks that every name template, recorded as
// an event name and as a track name, exports exactly as fmt.Sprintf
// renders it, for zero, negative, padded-overflow and extreme integers
// and for strings JSON must escape.
func TestNameRendersAsSprintf(t *testing.T) {
	ints := []int{0, 7, -1, -42, 999, 1000, 123456, math.MaxInt64, math.MinInt64}
	strs := []string{"", "ResNet-50", `a<b>&"c"`}
	for _, tpl := range nameTemplates {
		for i, x := range ints {
			y := ints[(i+3)%len(ints)]
			for _, s := range strs {
				name, args := Fmt(tpl.format), []any{}
				next := []int{x, y}
				for _, v := range tpl.verbs {
					if v == 's' {
						name, args = name.Str(s), append(args, s)
					} else {
						name, args = name.Int(next[0]), append(args, next[0])
						next = next[1:]
					}
				}
				want := fmt.Sprintf(tpl.format, args...)
				tb := NewTraceBuilder(1)
				tb.SpanOn(tb.Track(name), name, 0, 1)
				var doc struct {
					TraceEvents []struct {
						Name string
						Ph   string
						Args map[string]any
					}
				}
				if err := json.Unmarshal(tb.JSON(), &doc); err != nil {
					t.Fatal(err)
				}
				for _, e := range doc.TraceEvents {
					got := e.Name
					if e.Name == "thread_name" {
						got, _ = e.Args["name"].(string)
					} else if e.Ph != "X" {
						continue
					}
					if got != want {
						t.Errorf("%q with %v renders %q, fmt.Sprintf gives %q", tpl.format, args, got, want)
					}
				}
			}
		}
	}
}

// TestNameEdgeCases pins what a name renders beyond its operands: a
// literal's verbs stay literal, an unused operand is dropped, names are
// HTML-escaped as encoding/json does, and a verb outside the set or
// without its operand panics at export.
func TestNameEdgeCases(t *testing.T) {
	tb := NewTraceBuilder(1)
	tb.Instant("t", Lit("100% %d"), 0)
	tb.Instant("t", Fmt("task %d").Int(1).Int(2).Str("x"), 0)
	tb.Instant("t", Fmt("preempt task %d -> %d").Int(3).Int(4), 0)
	raw := string(tb.JSON())
	for _, want := range []string{
		`"name":"100% %d"`,
		`"name":"task 1"`,
		`"name":"preempt task 3 -\u003e 4"`,
	} {
		if !strings.Contains(raw, want) {
			t.Errorf("timeline lacks %s:\n%s", want, raw)
		}
	}
	for _, bad := range []string{"%x", "%5d", "%05s", "100%", "100%%", "%d %d", "%s %d"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("format %q exported without a panic", bad)
				}
			}()
			tb := NewTraceBuilder(1)
			tb.Instant("t", Fmt(bad).Int(1), 0)
			tb.JSON()
		}()
	}
}

// TestTrackNamesMergeAtExport pins export-time track assignment: tracks
// registered under the same rendered name, by string or by name value,
// from the root or a prefixed view, export as one track, numbered in
// first-registration order.
func TestTrackNamesMergeAtExport(t *testing.T) {
	tb := NewTraceBuilder(1)
	sub := tb.WithPrefix("chip0/")
	a := sub.Track(Fmt("task %03d").Int(7))
	tb.Counter("queue", "inflight", 0, 1)
	b := tb.Track(Lit("chip0/task 007"))
	sub.CounterOn(a, "subarrays", 1, 2)
	tb.CounterOn(b, "subarrays", 2, 3)
	sub.SpanOn(sub.Track(Lit("task 007")), Lit("req 7"), 0, 3)
	raw := string(tb.JSON())
	if n := strings.Count(raw, `"thread_name"`); n != 2 {
		t.Fatalf("%d exported tracks, want 2:\n%s", n, raw)
	}
	for _, want := range []string{
		`"tid":1,"args":{"name":"chip0/task 007"}`,
		`"tid":2,"args":{"name":"queue"}`,
		`{"name":"chip0/task 007:subarrays","ph":"C","ts":2,"pid":0,"tid":1,"args":{"subarrays":3}}`,
		`{"name":"req 7","ph":"X","ts":0,"dur":3,"pid":0,"tid":1}`,
	} {
		if !strings.Contains(raw, want) {
			t.Errorf("timeline lacks %s:\n%s", want, raw)
		}
	}
}

// exported keeps BenchmarkTraceBuilder's export from being optimized away.
var exported []byte

// BenchmarkTraceBuilder records the event mix of a captured
// observed-faults chip timeline (bench workload observed-faults, seed 1,
// chip 0: 5553 requests, 60070 events) into a fresh builder, then
// exports it. Per request: a task track, four samples on it, two fit
// instants with a chip sample each, and the request's span; every 10th
// request a preemption and an alive-subarray sample, every 15th the
// queue pair, every 20th a fault landing and its repair, every 40th a
// kill.
func BenchmarkTraceBuilder(b *testing.B) {
	const requests = 5553
	models := []string{"SSD-R", "YOLOv3", "GoogLeNet", "GNMT", "ResNet-50"}
	record := func() *TraceBuilder {
		tb := NewTraceBuilder(1e6)
		for i := 0; i < requests; i++ {
			model, now := models[i%len(models)], float64(i)*1e-4
			tr := tb.Track(Fmt("task %03d").Int(i))
			for k := 0; k < 2; k++ {
				tb.Instant("sched", Fmt("fission: fit %d tasks").Int(1+i%3), now,
					Num("tasks", float64(1+i%3)), Num("demand", 12), Num("subarrays", 16))
				tb.Counter("chip", "subarrays_in_use", now, 16)
				tb.CounterOn(tr, "subarrays", now, 8)
				tb.CounterOn(tr, "subarrays", now, 4)
			}
			if i%10 == 0 {
				tb.Instant("sched", Fmt("%s task %d -> %d").Str("preempt").Int(i).Int(4), now,
					Str("model", model), Num("subarrays", 4))
				tb.Counter("chip", "alive_subarrays", now, 16)
			}
			if i%15 == 0 {
				tb.Counter("queue", "inflight", now, 3)
				tb.Counter("queue", "running", now, 2)
			}
			if i%20 == 0 {
				tb.Instant("faults", Fmt("%s fault lands on unit %d").Str("subarray").Int(i%16), now,
					Str("kind", "subarray"), Num("unit", float64(i%16)))
				tb.Instant("faults", Fmt("%s fault repairs on unit %d").Str("subarray").Int(i%16), now,
					Str("kind", "subarray"), Num("unit", float64(i%16)))
			}
			if i%40 == 0 {
				tb.Instant("faults", Fmt("kill task %d (attempt %d)").Int(i).Int(1), now,
					Str("model", model), Num("attempt", 1))
			}
			tb.SpanOn(tr, Fmt("req %d %s").Int(i).Str(model), now, now+2e-3,
				Str("model", model), Num("priority", float64(1+i%11)), Num("latency_ms", 2),
				Num("deadline_ms", 15), Num("preemptions", 0))
		}
		return tb
	}
	b.Run("record", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			record()
		}
	})
	b.Run("export", func(b *testing.B) {
		tb := record()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exported = tb.JSON()
		}
	})
}
