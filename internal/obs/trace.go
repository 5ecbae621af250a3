package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
)

// An Arg is one key/value annotation attached to a trace event. Args keep
// their call-site order in the exported JSON.
type Arg struct {
	Key string
	Str string
	Num float64
	num bool
}

// Str constructs a string-valued Arg.
func Str(key, value string) Arg { return Arg{Key: key, Str: value} }

// Num constructs a numeric Arg.
func Num(key string, value float64) Arg { return Arg{Key: key, Num: value, num: true} }

// event phases of the Chrome trace-event format.
const (
	phaseComplete = 'X' // span with ts + dur
	phaseInstant  = 'i'
	phaseCounter  = 'C'
)

// traceEvent is one recorded timeline entry in builder-native units.
// Counter samples store their value inline (cval) instead of an args
// slice so the hot Counter path allocates nothing per sample; the
// encoder synthesizes the identical {"series":value} args object.
type traceEvent struct {
	phase byte
	name  string
	track int
	ts    float64
	dur   float64
	cval  float64
	args  []Arg
}

// traceCore is the storage shared by prefix-scoped TraceBuilder views.
type traceCore struct {
	mu       sync.Mutex
	scale    float64 // microseconds per timestamp unit
	tracks   []string
	trackIDs map[string]int
	events   []traceEvent
}

// TraceBuilder records a simulated-time timeline and exports it in the
// Chrome trace-event JSON format, which Perfetto (ui.perfetto.dev) and
// chrome://tracing load directly. Tracks become named threads; spans,
// instants, and counter series land on them in record order.
//
// Timestamps are simulated time in whatever unit the caller works in
// (seconds for the serving simulator, cycles for the systolic grid); the
// scale passed to NewTraceBuilder converts that unit to the format's
// microseconds. All methods are nil-safe no-ops on a nil receiver and
// safe for concurrent use.
type TraceBuilder struct {
	core   *traceCore
	prefix string
}

// NewTraceBuilder returns an empty builder whose timestamps are
// multiplied by scale to obtain microseconds (0 means 1: timestamps are
// already microseconds).
//
//perf:cold once-per-run constructor
func NewTraceBuilder(scale float64) *TraceBuilder {
	if scale == 0 {
		scale = 1
	}
	return &TraceBuilder{core: &traceCore{scale: scale, trackIDs: map[string]int{}}}
}

// WithPrefix returns a view that prepends prefix to every track name,
// sharing the parent's storage.
func (tb *TraceBuilder) WithPrefix(prefix string) *TraceBuilder {
	if tb == nil {
		return nil
	}
	return &TraceBuilder{core: tb.core, prefix: tb.prefix + prefix}
}

// track interns a track name. Caller holds core.mu.
func (c *traceCore) track(name string) int {
	if id, ok := c.trackIDs[name]; ok {
		return id
	}
	id := len(c.tracks)
	c.tracks = append(c.tracks, name)
	c.trackIDs[name] = id
	return id
}

// Track interns the named track (under the view's prefix) and returns
// its ID for CounterOn and SpanOn, which then record on it without
// building or looking up the name again. The first Track of a name
// registers it, so a track interned ahead of its first event takes an
// earlier place in the exported track order. Nil-safe: returns -1.
func (tb *TraceBuilder) Track(name string) int {
	if tb == nil {
		return -1
	}
	c := tb.core
	c.mu.Lock()
	id := c.track(tb.prefix + name)
	c.mu.Unlock()
	return id
}

// add appends e; track < 0 means the track is interned by name.
func (tb *TraceBuilder) add(e traceEvent, name string) {
	c := tb.core
	c.mu.Lock()
	if e.track < 0 {
		e.track = c.track(tb.prefix + name)
	}
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Span records a completed slice [start, end] on a track.
func (tb *TraceBuilder) Span(track, name string, start, end float64, args ...Arg) {
	if tb == nil {
		return
	}
	tb.add(span(-1, name, start, end, args), track)
}

// SpanOn is Span on a track interned by Track.
func (tb *TraceBuilder) SpanOn(track int, name string, start, end float64, args ...Arg) {
	if tb == nil {
		return
	}
	tb.add(span(track, name, start, end, args), "")
}

// span is the event of a slice [start, end], clamped to zero length.
func span(track int, name string, start, end float64, args []Arg) traceEvent {
	if end < start {
		end = start
	}
	return traceEvent{phase: phaseComplete, name: name, track: track, ts: start, dur: end - start, args: args}
}

// Instant records a point event on a track.
func (tb *TraceBuilder) Instant(track, name string, ts float64, args ...Arg) {
	if tb == nil {
		return
	}
	tb.add(traceEvent{phase: phaseInstant, name: name, track: -1, ts: ts, args: args}, track)
}

// Counter records a sample of a counter series. Perfetto renders each
// counter name as its own numeric track. The sample value lands inline
// in the event record — no per-sample args allocation.
func (tb *TraceBuilder) Counter(track, series string, ts, value float64) {
	if tb == nil {
		return
	}
	tb.add(traceEvent{phase: phaseCounter, name: series, track: -1, ts: ts, cval: value}, track)
}

// CounterOn is Counter on a track interned by Track: no name is built
// or looked up per sample.
func (tb *TraceBuilder) CounterOn(track int, series string, ts, value float64) {
	if tb == nil {
		return
	}
	tb.add(traceEvent{phase: phaseCounter, name: series, track: track, ts: ts, cval: value}, "")
}

// Reserve pre-grows the event buffer so the next n recordings append
// without reallocating. Nil-safe no-op.
func (tb *TraceBuilder) Reserve(n int) {
	if tb == nil || n <= 0 {
		return
	}
	c := tb.core
	c.mu.Lock()
	if free := cap(c.events) - len(c.events); free < n {
		grown := make([]traceEvent, len(c.events), len(c.events)+n)
		copy(grown, c.events)
		c.events = grown
	}
	c.mu.Unlock()
}

// Len returns the number of recorded events.
func (tb *TraceBuilder) Len() int {
	if tb == nil {
		return 0
	}
	c := tb.core
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// jsonString renders s as a JSON string literal (deterministic; falls
// back to quoting on the never-expected marshal error).
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return strconv.Quote(s)
	}
	return string(b)
}

// jsonFloat renders a finite float compactly and deterministically.
func jsonFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func appendArgs(buf *bytes.Buffer, args []Arg) {
	buf.WriteByte('{')
	for i, a := range args {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(jsonString(a.Key))
		buf.WriteByte(':')
		if a.num {
			buf.WriteString(jsonFloat(a.Num))
		} else {
			buf.WriteString(jsonString(a.Str))
		}
	}
	buf.WriteByte('}')
}

// JSON encodes the timeline as a Chrome trace-event document. The
// encoding is hand-rolled so the bytes are a pure function of the
// recorded events: process/thread metadata first (tracks in registration
// order), then events in record order.
func (tb *TraceBuilder) JSON() []byte {
	var c *traceCore
	if tb != nil {
		c = tb.core
	}
	var buf bytes.Buffer
	buf.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			buf.WriteString(",\n")
		}
		first = false
		buf.WriteString(line)
	}
	emit(`{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"planaria-sim"}}`)
	if c != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		for id, name := range c.tracks {
			emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":%s}}`,
				id+1, jsonString(name)))
			emit(fmt.Sprintf(`{"name":"thread_sort_index","ph":"M","pid":0,"tid":%d,"args":{"sort_index":%d}}`,
				id+1, id+1))
		}
		for _, e := range c.events {
			var line bytes.Buffer
			name := e.name
			if e.phase == phaseCounter {
				// Perfetto keys counter tracks by (pid, name); qualify the
				// series with its track so same-named series on different
				// tracks stay separate.
				name = c.tracks[e.track] + ":" + e.name
			}
			fmt.Fprintf(&line, `{"name":%s,"ph":"%c","ts":%s`,
				jsonString(name), e.phase, jsonFloat(e.ts*c.scale))
			if e.phase == phaseComplete {
				fmt.Fprintf(&line, `,"dur":%s`, jsonFloat(e.dur*c.scale))
			}
			fmt.Fprintf(&line, `,"pid":0,"tid":%d`, e.track+1)
			if e.phase == phaseInstant {
				line.WriteString(`,"s":"t"`)
			}
			if e.phase == phaseCounter {
				// Counter values live inline; synthesize the one-entry
				// args object the format expects, byte-identical to the
				// old []Arg encoding.
				line.WriteString(`,"args":{`)
				line.WriteString(jsonString(e.name))
				line.WriteByte(':')
				line.WriteString(jsonFloat(e.cval))
				line.WriteByte('}')
			} else if len(e.args) > 0 {
				line.WriteString(`,"args":`)
				appendArgs(&line, e.args)
			}
			line.WriteByte('}')
			emit(line.String())
		}
	}
	buf.WriteString("\n]}\n")
	return buf.Bytes()
}
