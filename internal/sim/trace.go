package sim

import (
	"fmt"
	"strings"

	"planaria/internal/obs"
	"planaria/internal/simtime"
)

// EventKind classifies trace events.
type EventKind int

const (
	// EvArrival marks a request joining the node's queue.
	EvArrival EventKind = iota
	// EvAlloc marks an allocation change decided by the scheduler
	// (Alloc = new subarray count; 0 = stalled).
	EvAlloc
	// EvFinish marks a request completing.
	EvFinish
	// EvPreempt marks a running task losing or changing its allocation
	// while unfinished (Alloc = new subarray count; 0 = fully preempted).
	// Both engines emit it: Planaria on spatial re-fission, PREMA on a
	// temporal context switch.
	EvPreempt
	// EvQueue samples the scheduler's queue occupancy after a scheduling
	// event: Depth dispatched-but-unfinished tasks, of which Running hold
	// a non-zero allocation. Recorded only when the pair changes.
	EvQueue
	// EvKill marks a running task losing its progress to an injected
	// fault (Attempt = how many times this request has now been killed).
	EvKill
	// EvRetry marks a killed task rejoining the queue after its backoff
	// (Attempt = the attempt number it resumes at).
	EvRetry
	// EvShed marks a request declined by admission control — its
	// estimated completion misses the deadline at the chip's current
	// (possibly degraded) capacity, or its retry budget is exhausted.
	EvShed
	// EvReject marks a request for a model the node has no program for;
	// the rest of the run is unaffected.
	EvReject
	// EvFault marks a fault transition applied to the chip: Unit is the
	// faulted unit index, Up distinguishes repair from landing, and Model
	// carries the fault kind name ("pe", "subarray", "link").
	EvFault
	// EvRefission marks an elastic re-fission: the scheduler resized a
	// task's allocation at a tile boundary — outside any arrival,
	// completion, quantum, or fault event — to absorb an arrival or grow
	// a starved task (Alloc = new subarray count). Emitted instead of
	// EvPreempt at re-fission instants; only elastic policies produce it.
	EvRefission

	// Stream-only kinds: the folds in observe.go need them, a Trace never
	// records them.

	// evPhase marks a request's attribution phase boundary: Pos entered
	// Phase at Time.
	evPhase
	// evAlive closes a batch of fault transitions: Alloc subarrays are
	// alive.
	evAlive
	// evSched closes a scheduling event: Alloc subarrays are in use.
	evSched
	// evInterval closes the chip interval that ends at Time and began at
	// the previous one (or at the first arrival): Alloc subarrays were
	// computing, Depth reconfiguring and Unit fault-masked.
	evInterval
)

// eventKindNames names the trace kinds.
var eventKindNames = [...]string{
	EvArrival: "arrive", EvAlloc: "alloc", EvFinish: "finish", EvPreempt: "preempt",
	EvQueue: "queue", EvKill: "kill", EvRetry: "retry", EvShed: "shed", EvReject: "reject",
	EvFault: "fault", EvRefission: "refission",
}

// String names the event kind.
func (k EventKind) String() string {
	if k >= 0 && int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one engine event. Node.Run emits each event once, and every
// attached sink folds the stream in event order (observe.go); a Trace
// records the stream minus the stream-only kinds. The struct is fixed
// size, and the meaning of the payload fields depends on Kind.
type Event struct {
	Time  float64
	Kind  EventKind
	Task  int // request ID (unused for EvQueue)
	Model string
	// Alloc is the new subarray count of EvAlloc, EvPreempt and
	// EvRefission.
	Alloc int
	// Depth and Running carry EvQueue's occupancy sample. Depth is also
	// the previous subarray count of an allocation change and the
	// preemption count of EvFinish.
	Depth   int
	Running int
	// Unit and Up carry EvFault's transition: the faulted unit index
	// (subarray, PE-owning subarray, or pod for link faults) and whether
	// the transition is a repair.
	Unit int
	Up   bool
	// Phase is the attribution phase evPhase enters; Cause the ledger
	// cause EvFinish, EvShed and EvReject close a record with.
	Phase obs.Phase
	Cause obs.Cause
	// Pos is the request's position in the slice passed to Node.Run, the
	// index of its Outcome entries and ledger record.
	Pos int32
	// Attempt carries EvKill/EvRetry/EvShed's fault-restart count.
	Attempt int
}

// Trace is a recorded serving timeline.
type Trace struct {
	Events []Event
}

// record appends an event (nil-safe: tracing is optional). Appending
// within a reserved buffer's capacity allocates nothing — the engine
// reserves an arrival-count-based estimate up front so steady-state
// recording stays off the allocator.
func (tr *Trace) record(e Event) {
	if tr == nil {
		return
	}
	tr.Events = append(tr.Events, e)
}

// reserve grows the trace's capacity so at least n more events append
// without reallocating. Nil-safe no-op, like record.
func (tr *Trace) reserve(n int) {
	if tr == nil || n <= cap(tr.Events)-len(tr.Events) {
		return
	}
	grown := make([]Event, len(tr.Events), len(tr.Events)+n)
	copy(grown, tr.Events)
	tr.Events = grown
}

// Validate checks trace sanity: times are non-decreasing, every task
// arrives once before any other event of its own, and nothing follows
// its terminal event (a completion, shed or rejection).
func (tr *Trace) Validate() error {
	prev := -1.0
	arrived := map[int]bool{}
	ended := map[int]bool{}
	for i, e := range tr.Events {
		if simtime.After(prev, e.Time) {
			return fmt.Errorf("sim: trace time went backwards at event %d", i)
		}
		prev = e.Time
		switch e.Kind {
		case EvArrival:
			if arrived[e.Task] {
				return fmt.Errorf("sim: task %d arrived twice", e.Task)
			}
			arrived[e.Task] = true
			continue
		case EvQueue:
			if e.Depth < e.Running || e.Running < 0 {
				return fmt.Errorf("sim: queue sample depth=%d running=%d at event %d", e.Depth, e.Running, i)
			}
			continue
		case EvFault:
			continue // not bound to a task
		}
		if !arrived[e.Task] {
			return fmt.Errorf("sim: task %d %s before arrival", e.Task, e.Kind)
		}
		if ended[e.Task] {
			return fmt.Errorf("sim: task %d %s after its terminal event", e.Task, e.Kind)
		}
		ended[e.Task] = e.Kind == EvFinish || e.Kind == EvShed || e.Kind == EvReject
	}
	return nil
}

// String renders the timeline, one event per line.
func (tr *Trace) String() string {
	var b strings.Builder
	for _, e := range tr.Events {
		fmt.Fprintf(&b, "%9.3f ms  ", e.Time*1e3)
		switch e.Kind {
		case EvQueue:
			fmt.Fprintf(&b, "%-7s depth %d running %d\n", e.Kind, e.Depth, e.Running)
			continue
		case EvFault:
			dir := "down"
			if e.Up {
				dir = "up"
			}
			fmt.Fprintf(&b, "%-7s %s unit %d %s\n", e.Kind, e.Model, e.Unit, dir)
			continue
		}
		fmt.Fprintf(&b, "%-7s task %-3d %-16s", e.Kind, e.Task, e.Model)
		switch e.Kind {
		case EvAlloc, EvPreempt, EvRefission:
			fmt.Fprintf(&b, " -> %d subarrays", e.Alloc)
		case EvKill, EvRetry:
			fmt.Fprintf(&b, " attempt %d", e.Attempt)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
