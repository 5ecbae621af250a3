package sim

import (
	"math"
	"slices"

	"planaria/internal/obs"
)

// The event methods in engine.go emit every engine event once, as one
// Event, behind the run's single observed guard; emit folds it online,
// in event order, into each sink the node attached. The folds read only
// the stream, the request slice and the chip constants.

// views holds a run's sinks and their fold state. emit skips nil sinks.
type views struct {
	trace   *Trace
	tracer  *obs.TraceBuilder
	led     *obs.Ledger
	occ     *obs.Occupancy
	occFrom float64 // where the open occupancy interval began
}

// attach binds node n's sinks to the run: the ledger sized to the input
// so records are addressed by the positions the Outcome uses, the
// occupancy unit count, the trace's reserve and the timeline's
// per-request track handles.
//
//perf:cold per-run setup: runs once before the event loop
func (r *run) attach(n *Node) {
	r.views = views{trace: n.Trace, tracer: n.Timeline, led: n.Attrib, occ: n.Occ, occFrom: r.now}
	r.led.Reset(len(r.reqs))
	r.occ.SetUnits(int64(r.total))
	// A typical request contributes arrival + alloc + finish plus a queue
	// sample to the trace; reserving per request keeps steady-state
	// tracing off the allocator.
	r.trace.reserve(4 * len(r.reqs))
	if r.tracer != nil {
		r.tracks = slices.Grow(r.tracks[:0], len(r.reqs))[:len(r.reqs)]
		clear(r.tracks)
	}
}

// emit folds one engine event into every attached view.
func (r *run) emit(e Event) {
	if r.trace != nil {
		r.record(&e)
	}
	if r.tracer != nil {
		r.timeline(&e)
	}
	if r.led != nil {
		r.attribute(&e)
	}
	if r.occ != nil && e.Kind == evInterval {
		r.occ.Interval(int64(math.Ceil((e.Time-r.occFrom)*r.cps)), int64(e.Alloc), int64(e.Depth), int64(e.Unit))
		r.occFrom = e.Time
	}
}

// record is the trace fold: it keeps every trace kind and drops the
// stream-only ones. A preemption or a re-fission is also an allocation
// change, recorded as EvAlloc just before it.
func (r *run) record(e *Event) {
	switch e.Kind {
	case evPhase, evAlive, evSched, evInterval:
		return
	case EvPreempt, EvRefission:
		alloc := *e
		alloc.Kind = EvAlloc
		r.trace.record(alloc)
	}
	r.trace.record(*e)
}

// timeline is the Perfetto fold: fault and scheduling instants, one
// subarray counter track per request, the chip and queue counters, and
// one span per completed request.
func (r *run) timeline(e *Event) {
	tb := r.tracer
	switch e.Kind {
	case EvFault:
		name := obs.Fmt("%s fault lands on unit %d")
		if e.Up {
			name = obs.Fmt("%s fault repairs on unit %d")
		}
		tb.Instant("faults", name.Str(e.Model).Int(e.Unit), e.Time,
			obs.Str("kind", e.Model), obs.Num("unit", float64(e.Unit)))
	case evAlive:
		tb.Counter("chip", "alive_subarrays", e.Time, float64(e.Alloc))
	case EvKill:
		tb.Instant("faults", obs.Fmt("kill task %d (attempt %d)").Int(e.Task).Int(e.Attempt), e.Time,
			obs.Str("model", e.Model), obs.Num("attempt", float64(e.Attempt)))
		tb.CounterOn(r.taskTrack(e), "subarrays", e.Time, 0)
	case EvRefission, EvPreempt:
		tb.Instant("sched", obs.Fmt("%s task %d -> %d").Str(eventKindNames[e.Kind]).Int(e.Task).Int(e.Alloc), e.Time,
			obs.Str("model", e.Model), obs.Num("subarrays", float64(e.Alloc)))
		tb.CounterOn(r.taskTrack(e), "subarrays", e.Time, float64(e.Alloc))
	case EvAlloc:
		tb.CounterOn(r.taskTrack(e), "subarrays", e.Time, float64(e.Alloc))
	case EvQueue:
		tb.Counter("queue", "inflight", e.Time, float64(e.Depth))
		tb.Counter("queue", "running", e.Time, float64(e.Running))
	case evSched:
		tb.Counter("chip", "subarrays_in_use", e.Time, float64(e.Alloc))
	case EvFinish:
		q := &r.reqs[e.Pos]
		lat := e.Time - q.Arrival
		track := r.taskTrack(e)
		tb.SpanOn(track, obs.Fmt("req %d %s").Int(e.Task).Str(e.Model), q.Arrival, e.Time,
			obs.Str("model", e.Model),
			obs.Num("priority", float64(q.Priority)),
			obs.Num("latency_ms", lat*1e3),
			obs.Num("deadline_ms", (q.Deadline-q.Arrival)*1e3),
			obs.Num("preemptions", float64(e.Depth)))
		tb.CounterOn(track, "subarrays", e.Time, 0)
	}
}

// taskTrack returns the timeline track of e's request, registering it
// on the request's first sample. The name is zero-padded so Perfetto's
// lexicographic track ordering matches request IDs.
func (r *run) taskTrack(e *Event) int {
	if r.tracks[e.Pos] == 0 {
		r.tracks[e.Pos] = int32(r.tracer.Track(obs.Fmt("task %03d").Int(e.Task))) + 1
	}
	return int(r.tracks[e.Pos]) - 1
}

// attribute is the ledger fold: an arrival opens the request's record in
// queue-wait, a phase boundary marks it, and a terminal event (a
// completion, shed or rejection) closes it with its cause.
func (r *run) attribute(e *Event) {
	switch {
	case e.Kind == EvArrival:
		r.led.Mark(int(e.Pos), e.Time, obs.PhaseQueueWait)
	case e.Kind == evPhase:
		r.led.Mark(int(e.Pos), e.Time, e.Phase)
	case e.Cause != obs.CauseOpen:
		r.led.Close(int(e.Pos), e.Time, e.Cause)
	}
}
