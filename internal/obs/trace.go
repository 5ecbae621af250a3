package obs

import (
	"encoding/json"
	"strconv"
	"unsafe"
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

// A Name names a timeline event or track: a literal (Lit), or a format
// (Fmt) with at most one string operand (Str) and two integer operands
// (Int). The builder records it as interned ids and numbers and renders
// it only in JSON, exactly as fmt.Sprintf would, so recording formats
// nothing. The verbs are %s, %d and %0Nd; JSON panics on any other verb
// and on a verb without its operand, and an operand no verb takes is not
// rendered.
//
//	obs.Fmt("req %d %s").Int(id).Str(model)
type Name struct {
	text, s string // the literal or format, and the string operand
	a, b    int64  // the integer operands
	form    form
}

// form says how a name renders: formFmt marks a format, formStr a string
// operand, and the bits from formInt up count the integer operands.
type form uint8

const (
	formFmt form = 1 << iota
	formStr
	formInt
)

// Lit is a literal name.
func Lit(s string) Name { return Name{text: s} }

// Fmt is a name rendered from format at export.
func Fmt(format string) Name { return Name{text: format, form: formFmt} }

// Str sets the string operand, the one %s renders.
func (n Name) Str(v string) Name {
	if n.form&formStr != 0 {
		panic("obs: a timeline name takes one string operand")
	}
	n.s, n.form = v, n.form|formStr
	return n
}

// Int adds the next integer operand, the one the next %d renders.
func (n Name) Int(v int) Name {
	switch n.form / formInt {
	case 0:
		n.a = int64(v)
	case 1:
		n.b = int64(v)
	default:
		panic("obs: a timeline name takes two integer operands")
	}
	n.form += formInt
	return n
}

// event phases of the Chrome trace-event format.
const (
	phaseComplete = 'X' // span with ts + dur
	phaseInstant  = 'i'
	phaseCounter  = 'C'
)

// ref is a recorded Name: its strings are ids into the string table.
type ref struct {
	a, b      int64
	text, str int32
}

// event is one recorded timeline entry in builder-native units, fixed
// size and pointer-free. A span's v is its duration and a counter's v
// its value; a counter's name is its series. Its args are the nargs
// arena slots from arg.
type event struct {
	ts, v float64
	name  ref
	track int32
	arg   int32
	form  form
	nargs uint8
	phase byte
}

// track is one registered track: a view's prefix and a name.
type track struct {
	name   ref
	prefix int32
	form   form
}

// arg is an Arg with its strings interned; str < 0 marks a number.
type arg struct {
	num      float64
	key, str int32
}

// Events and args fill fixed-size chunks that are never copied.
const (
	eventChunk = 1024
	argChunk   = 4096
)

// recent is one slot of the string table's header cache.
type recent struct {
	s  string
	id int32
}

// traceCore is the storage shared by prefix-scoped TraceBuilder views.
type traceCore struct {
	scale float64 // microseconds per timestamp unit
	// strs holds every interned string by id, "" first; ids maps a
	// string to its id, and cache, a two-way set per hash of a string's
	// data pointer, answers a string header seen before without hashing.
	strs   []string
	ids    map[string]int32
	cache  [256]recent
	tracks []track
	events []*[eventChunk]event
	n      int // events recorded
	args   []*[argChunk]arg
	nargs  int // arena slots used, chunk-end padding included
}

// TraceBuilder records a simulated-time timeline and exports it in the
// Chrome trace-event JSON format, which Perfetto (ui.perfetto.dev) and
// chrome://tracing load directly. Tracks become named threads; spans,
// instants, and counter series land on them in record order.
//
// Timestamps are simulated time in whatever unit the caller works in
// (seconds for the serving simulator); the scale passed to
// NewTraceBuilder converts that unit to the format's microseconds. All methods are nil-safe no-ops on a nil receiver.
//
// A builder has a single writer: one goroutine at a time records into it
// and its prefixed views, and JSON and Len read it after recording.
type TraceBuilder struct {
	core   *traceCore
	prefix int32   // string id of the view's track-name prefix
	byStr  []int32 // 1 + the view's track named by each string id, or 0
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
	return &TraceBuilder{core: &traceCore{scale: scale, strs: []string{""}, ids: map[string]int32{"": 0}}}
}

// WithPrefix returns a view that prepends prefix to every track name,
// sharing the parent's storage.
func (tb *TraceBuilder) WithPrefix(prefix string) *TraceBuilder {
	if tb == nil {
		return nil
	}
	c := tb.core
	return &TraceBuilder{core: c, prefix: c.intern(c.strs[tb.prefix] + prefix)}
}

// intern returns the id of s in the string table.
func (c *traceCore) intern(s string) int32 {
	p := unsafe.StringData(s)
	set := c.cache[uint64(uintptr(unsafe.Pointer(p)))*0x9e3779b97f4a7c15>>57<<1:]
	for i := range 2 {
		if r := &set[i]; len(r.s) == len(s) && unsafe.StringData(r.s) == p {
			return r.id
		}
	}
	id, ok := c.ids[s]
	if !ok {
		id = int32(len(c.strs))
		c.strs = append(c.strs, s)
		c.ids[s] = id
	}
	set[1], set[0] = set[0], recent{s, id}
	return id
}

// ref interns a Name's strings.
func (c *traceCore) ref(n Name) ref {
	r := ref{a: n.a, b: n.b, text: c.intern(n.text)}
	if n.form&formStr != 0 {
		r.str = c.intern(n.s)
	}
	return r
}

// Track registers the named track (under the view's prefix) and returns
// its handle for CounterOn and SpanOn. Tracks whose names render alike
// export as one track, placed where the first of them registered, so a
// track registered ahead of its first event takes an earlier place in
// the exported order. Nil-safe: returns -1.
func (tb *TraceBuilder) Track(name Name) int {
	if tb == nil {
		return -1
	}
	c := tb.core
	c.tracks = append(c.tracks, track{name: c.ref(name), prefix: tb.prefix, form: name.form})
	return len(c.tracks) - 1
}

// trackOf returns the view's track named by a string, registering it on
// first use.
func (tb *TraceBuilder) trackOf(name string) int32 {
	id := tb.core.intern(name)
	if int(id) < len(tb.byStr) && tb.byStr[id] != 0 {
		return tb.byStr[id] - 1
	}
	for len(tb.byStr) <= int(id) {
		tb.byStr = append(tb.byStr, 0)
	}
	t := int32(tb.Track(Lit(name)))
	tb.byStr[id] = t + 1
	return t
}

// add appends one event, its args copied into one arena chunk.
func (c *traceCore) add(phase byte, track int32, n Name, ts, v float64, args []Arg) {
	if c.n%eventChunk == 0 {
		c.events = append(c.events, new([eventChunk]event))
	}
	e := &c.events[c.n/eventChunk][c.n%eventChunk]
	c.n++
	*e = event{ts: ts, v: v, name: c.ref(n), track: track, form: n.form, phase: phase}
	if len(args) == 0 {
		return
	}
	if len(args) > 255 {
		panic("obs: a trace event takes at most 255 args")
	}
	if i := c.nargs % argChunk; i+len(args) > argChunk {
		c.nargs += argChunk - i
	}
	if c.nargs%argChunk == 0 {
		c.args = append(c.args, new([argChunk]arg))
	}
	e.arg, e.nargs = int32(c.nargs), uint8(len(args))
	run := c.args[c.nargs/argChunk][c.nargs%argChunk:]
	for j := range args {
		a := &args[j]
		run[j] = arg{num: a.Num, key: c.intern(a.Key), str: -1}
		if !a.num {
			run[j].str = c.intern(a.Str)
		}
	}
	c.nargs += len(args)
}

// SpanOn records a completed slice [start, end] on a track registered
// by Track; a reversed slice has zero length.
func (tb *TraceBuilder) SpanOn(track int, name Name, start, end float64, args ...Arg) {
	if tb == nil {
		return
	}
	tb.core.add(phaseComplete, int32(track), name, start, max(end-start, 0), args)
}

// Instant records a point event on a track.
func (tb *TraceBuilder) Instant(track string, name Name, ts float64, args ...Arg) {
	if tb == nil {
		return
	}
	tb.core.add(phaseInstant, tb.trackOf(track), name, ts, 0, args)
}

// Counter records a sample of a counter series. Perfetto renders each
// counter name as its own numeric track.
func (tb *TraceBuilder) Counter(track, series string, ts, value float64) {
	if tb == nil {
		return
	}
	tb.core.add(phaseCounter, tb.trackOf(track), Lit(series), ts, value, nil)
}

// CounterOn is Counter on a track registered by Track.
func (tb *TraceBuilder) CounterOn(track int, series string, ts, value float64) {
	if tb == nil {
		return
	}
	tb.core.add(phaseCounter, int32(track), Lit(series), ts, value, nil)
}

// Len returns the number of recorded events.
func (tb *TraceBuilder) Len() int {
	if tb == nil {
		return 0
	}
	return tb.core.n
}

// appendName renders a recorded name.
func (c *traceCore) appendName(dst []byte, f form, r *ref) []byte {
	s := c.strs[r.text]
	if f&formFmt == 0 {
		return append(dst, s...)
	}
	ints, used := [2]int64{r.a, r.b}, 0
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			dst = append(dst, s[i])
			continue
		}
		width := 0
		if i+1 < len(s) && s[i+1] == '0' {
			for i++; i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9'; i++ {
				width = 10*width + int(s[i+1]-'0')
			}
			if i+1 == len(s) || s[i+1] != 'd' {
				badFormat(s)
			}
		}
		if i++; i == len(s) {
			badFormat(s)
		}
		switch {
		case s[i] == 's' && f&formStr != 0:
			dst = append(dst, c.strs[r.str]...)
		case s[i] == 'd' && used < int(f/formInt):
			dst = appendPadded(dst, ints[used], width)
			used++
		default:
			badFormat(s)
		}
	}
	return dst
}

// badFormat panics on a name format outside the verb set or with a verb
// that has no operand.
func badFormat(format string) {
	panic("obs: timeline name format " + strconv.Quote(format) + " needs verbs %s, %d or %0Nd, each with its operand")
}

// appendPadded renders v as %0<width>d does: the sign, zeros up to
// width, then the digits.
func appendPadded(dst []byte, v int64, width int) []byte {
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], v, 10)
	if v < 0 {
		dst, digits, width = append(dst, '-'), digits[1:], width-1
	}
	for n := len(digits); n < width; n++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// appendString renders s as a JSON string literal, byte for byte what
// encoding/json writes (HTML-escaped): printable ASCII that needs no
// escape is copied, anything else goes through json.Marshal.
func appendString[T string | []byte](dst []byte, s T) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b >= 0x7f || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			q, err := json.Marshal(string(s))
			if err != nil {
				return strconv.AppendQuote(dst, string(s))
			}
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// appendFloat renders a finite float compactly and deterministically.
func appendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// JSON encodes the timeline as a Chrome trace-event document. The
// encoding is hand-rolled so the bytes are a pure function of the
// recorded events: process/thread metadata first (tracks in registration
// order), then events in record order.
//
//perf:cold export: renders every name once, after recording
func (tb *TraceBuilder) JSON() []byte {
	buf := []byte("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" +
		`{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"planaria-sim"}}`)
	if tb != nil {
		buf = tb.core.appendEvents(buf)
	}
	return append(buf, "\n]}\n"...)
}

// appendEvents renders the metadata of every exported track, then every
// event, each line after a separator. Tracks whose names render alike
// export as one, numbered in first-registration order.
func (c *traceCore) appendEvents(buf []byte) []byte {
	tid := make([]int32, len(c.tracks))
	var names []string
	ids := map[string]int32{}
	var nb []byte
	for i := range c.tracks {
		t := &c.tracks[i]
		nb = c.appendName(append(nb[:0], c.strs[t.prefix]...), t.form, &t.name)
		id, ok := ids[string(nb)]
		if !ok {
			id = int32(len(names)) + 1
			names = append(names, string(nb))
			ids[names[id-1]] = id
		}
		tid[i] = id
	}
	for i, name := range names {
		id := strconv.Itoa(i + 1)
		buf = append(buf, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"+id+`,"args":{"name":`...)
		buf = appendString(buf, name)
		buf = append(buf, "}},\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":"+id+`,"args":{"sort_index":`+id+"}}"...)
	}
	for i := 0; i < c.n; i++ {
		e := &c.events[i/eventChunk][i%eventChunk]
		if e.phase == phaseCounter {
			// Perfetto keys counter tracks by (pid, name); qualify the
			// series with its track so same-named series on different
			// tracks stay separate.
			nb = append(append(append(nb[:0], names[tid[e.track]-1]...), ':'), c.strs[e.name.text]...)
		} else {
			nb = c.appendName(nb[:0], e.form, &e.name)
		}
		buf = appendString(append(buf, ",\n{\"name\":"...), nb)
		buf = appendFloat(append(append(append(buf, `,"ph":"`...), e.phase), `","ts":`...), e.ts*c.scale)
		if e.phase == phaseComplete {
			buf = appendFloat(append(buf, `,"dur":`...), e.v*c.scale)
		}
		buf = strconv.AppendInt(append(buf, `,"pid":0,"tid":`...), int64(tid[e.track]), 10)
		switch e.phase {
		case phaseInstant:
			buf = append(buf, `,"s":"t"`...)
		case phaseCounter:
			buf = appendString(append(buf, `,"args":{`...), c.strs[e.name.text])
			buf = append(appendFloat(append(buf, ':'), e.v), '}')
		}
		if e.nargs > 0 {
			buf = append(buf, `,"args":{`...)
			for j, a := range c.args[e.arg/argChunk][e.arg%argChunk:][:e.nargs] {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = append(appendString(buf, c.strs[a.key]), ':')
				if a.str < 0 {
					buf = appendFloat(buf, a.num)
				} else {
					buf = appendString(buf, c.strs[a.str])
				}
			}
			buf = append(buf, '}')
		}
		buf = append(buf, '}')
	}
	return buf
}
