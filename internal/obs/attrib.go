package obs

import "math"

// SLA root-cause attribution (DESIGN.md §14): every request's life is a
// chain of phases — front-door admission throttling, batch-window
// waiting, queueing behind co-tenants, compute, preemption stalls, retry
// backoff, fault outages — ending in a terminal cause. The Ledger below
// records that chain as phase-boundary *instants* on simulated time, so
// the span between consecutive marks is attributable exactly: the sum of
// a record's phase spans telescopes to end − start as real numbers (the
// cluster invariant suite verifies this with math/big exact arithmetic).
// Storing durations instead would round at every accumulation and break
// the conservation identity.

// Phase is one segment of a request's life between admission to the
// serving system and its terminal event. Values index fixed-size
// duration arrays, so the order here is load-bearing; it is also the
// tie-break order of the dominant-cause rule (earlier phase wins ties).
type Phase uint8

const (
	// PhaseAdmitWait is time spent in the cluster front door waiting for
	// an admission-control token.
	PhaseAdmitWait Phase = iota
	// PhaseBatchWait is time spent parked in a dynamic-batching window
	// after admission, waiting for the window to close.
	PhaseBatchWait
	// PhaseQueueWait is time spent dispatched to a chip but allocated
	// zero subarrays — queued behind co-tenants by the fission policy.
	PhaseQueueWait
	// PhaseCompute is time spent running on a nonzero subarray
	// allocation with no outstanding reconfiguration penalty.
	PhaseCompute
	// PhasePreemptStall is time spent paying a re-allocation penalty
	// (tile drain, checkpoint DMA, configuration load) after a fission
	// decision changed the task's allocation.
	PhasePreemptStall
	// PhaseRetryBackoff is time spent waiting out the capped exponential
	// backoff after a fault killed the task.
	PhaseRetryBackoff
	// PhaseFaultStall is time spent waiting while the chip had zero
	// usable capacity (every subarray masked by faults).
	PhaseFaultStall
	// PhaseDrainMigrate is time a dispatched-but-unstarted request spent
	// parked on a chip that then began a graceful drain, measured from
	// its original dispatch to the drain instant where it was migrated
	// (or shed, when no routable chip remained).
	PhaseDrainMigrate

	// NumPhases sizes per-phase duration arrays.
	NumPhases int = iota
)

// String names the phase as it appears in artifacts and tables.
func (p Phase) String() string {
	switch p {
	case PhaseAdmitWait:
		return "admit-wait"
	case PhaseBatchWait:
		return "batch-wait"
	case PhaseQueueWait:
		return "queue-wait"
	case PhaseCompute:
		return "compute"
	case PhasePreemptStall:
		return "preempt-stall"
	case PhaseRetryBackoff:
		return "retry-backoff"
	case PhaseFaultStall:
		return "fault-stall"
	case PhaseDrainMigrate:
		return "drain-migrate"
	default:
		return "phase(?)"
	}
}

// Cause is a record's terminal state. CauseOpen (the zero value) marks a
// record still in flight; everything else closes it.
type Cause uint8

const (
	// CauseOpen: the record has not reached a terminal event.
	CauseOpen Cause = iota
	// CauseDone: the request completed.
	CauseDone
	// CauseDispatched closes a front-door record whose request was
	// handed to a chip; the chip's ledger record continues the timeline
	// from the same instant.
	CauseDispatched
	// CauseShedAdmission: the front-door admission bucket overflowed.
	CauseShedAdmission
	// CauseShedUnroutable: no healthy chip was left to dispatch to.
	CauseShedUnroutable
	// CauseShedChip: the chip's local admission control declined the
	// request (doomed deadline or priority pressure).
	CauseShedChip
	// CauseShedRetries: the request exhausted its fault-retry budget.
	CauseShedRetries
	// CauseShedDeadChip: the chip died permanently and drained its
	// queue.
	CauseShedDeadChip
	// CauseRejected: no program exists for the request's model.
	CauseRejected
	// CauseShedDrain: the request was queued on a draining chip and no
	// routable chip remained to migrate it to.
	CauseShedDrain

	// NumCauses sizes per-cause count arrays.
	NumCauses int = iota
)

// String names the cause as it appears in artifacts and tables.
func (c Cause) String() string {
	switch c {
	case CauseOpen:
		return "open"
	case CauseDone:
		return "done"
	case CauseDispatched:
		return "dispatched"
	case CauseShedAdmission:
		return "shed-admission"
	case CauseShedUnroutable:
		return "shed-unroutable"
	case CauseShedChip:
		return "shed-chip"
	case CauseShedRetries:
		return "shed-retries"
	case CauseShedDeadChip:
		return "shed-dead-chip"
	case CauseRejected:
		return "rejected"
	case CauseShedDrain:
		return "shed-drain"
	default:
		return "cause(?)"
	}
}

// PhaseSpan is one chronological segment of a record: the request was in
// Phase from From to To (simulated seconds).
type PhaseSpan struct {
	Phase    Phase
	From, To float64
}

// attribMark is one phase boundary. Marks for all records share one
// arena and chain backwards through prev, so stamping is a single
// amortized append regardless of how records interleave.
type attribMark struct {
	t     float64
	prev  int32
	phase Phase
}

// Ledger records per-request phase chains for one run. Records are
// addressed by position (the caller's request-slice index). All methods
// are no-ops on a nil Ledger, so a caller may stamp unconditionally and
// pay only an untaken branch when attribution is off. A Ledger is
// single-goroutine like the engine that feeds it; storage is
// arena-backed and reusable via Reset, so warm stamping allocates
// nothing (pinned by TestWarmLedgerStampingZeroAllocs).
type Ledger struct {
	marks []attribMark
	head  []int32   // per record: latest mark index, -1 = none
	end   []float64 // per record: terminal instant, NaN while open
	cause []Cause   // per record: CauseOpen while in flight
}

// NewLedger returns a ledger with n empty records.
//
//perf:cold once-per-run constructor
func NewLedger(n int) *Ledger {
	l := &Ledger{}
	l.Reset(n)
	return l
}

// Reset re-initializes the ledger for n records, reusing prior capacity.
//
//perf:cold per-run (re)initialization, not a per-event probe
func (l *Ledger) Reset(n int) {
	if l == nil || n < 0 {
		return
	}
	if cap(l.head) < n {
		l.head = make([]int32, n)
		l.end = make([]float64, n)
		l.cause = make([]Cause, n)
	}
	l.head = l.head[:n]
	l.end = l.end[:n]
	l.cause = l.cause[:n]
	nan := math.NaN()
	for i := range l.head {
		l.head[i] = -1
		l.end[i] = nan
		l.cause[i] = CauseOpen
	}
	l.marks = l.marks[:0]
}

// Len returns the record count (0 on a nil ledger).
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	return len(l.head)
}

// stamp appends one phase boundary, clamping t monotone against the
// record's latest mark (admission can fire up to simtime.Eps before the
// nominal arrival; the clamp absorbs that skew so spans never run
// backwards).
func (l *Ledger) stamp(pos int, t float64, p Phase) {
	if h := l.head[pos]; h >= 0 && t < l.marks[h].t {
		t = l.marks[h].t
	}
	l.marks = append(l.marks, attribMark{t: t, prev: l.head[pos], phase: p})
	l.head[pos] = int32(len(l.marks) - 1)
}

// Mark transitions a record into phase p at instant t: a record's first
// mark opens it, and a later one ends the preceding phase's span here.
func (l *Ledger) Mark(pos int, t float64, p Phase) {
	if l == nil || pos < 0 || pos >= len(l.head) {
		return
	}
	l.stamp(pos, t, p)
}

// Close terminates a record at instant t with the given cause. The
// current phase's span ends at t.
func (l *Ledger) Close(pos int, t float64, c Cause) {
	if l == nil || pos < 0 || pos >= len(l.head) {
		return
	}
	if h := l.head[pos]; h >= 0 && t < l.marks[h].t {
		t = l.marks[h].t
	}
	l.end[pos] = t
	l.cause[pos] = c
}

// Reopen re-enters a closed record in phase p, starting at the instant
// the record was closed — the cluster autoscaler uses it when a graceful
// drain pulls an already-dispatched request back into the front door for
// migration: the [close, re-close] gap becomes an attributable span
// instead of a hole. No-op while the record is still open (there is
// nothing to resume from).
func (l *Ledger) Reopen(pos int, p Phase) {
	if l == nil || pos < 0 || pos >= len(l.head) {
		return
	}
	t := l.end[pos]
	if math.IsNaN(t) {
		return
	}
	l.end[pos] = math.NaN()
	l.cause[pos] = CauseOpen
	l.stamp(pos, t, p)
}

// Closed reports whether the record has reached its terminal event.
func (l *Ledger) Closed(pos int) bool {
	if l == nil || pos < 0 || pos >= len(l.end) {
		return false
	}
	return !math.IsNaN(l.end[pos])
}

// Cause returns the record's terminal cause (CauseOpen while in flight
// or on a nil ledger).
func (l *Ledger) Cause(pos int) Cause {
	if l == nil || pos < 0 || pos >= len(l.cause) {
		return CauseOpen
	}
	return l.cause[pos]
}

// Durations accumulates the record's per-phase spans into dur. Each span
// is the float64 difference of two recorded instants; summing them
// rounds, so exact-conservation checks must use Spans with big-float
// arithmetic instead. Returns false (adding nothing) while the record is
// open or absent.
func (l *Ledger) Durations(pos int, dur *[NumPhases]float64) bool {
	if l == nil || pos < 0 || pos >= len(l.head) {
		return false
	}
	h := l.head[pos]
	if h < 0 || math.IsNaN(l.end[pos]) {
		return false
	}
	next := l.end[pos]
	for i := h; i >= 0; i = l.marks[i].prev {
		m := &l.marks[i]
		dur[m.phase] += next - m.t
		next = m.t
	}
	return true
}

// Spans appends the record's chronological phase spans to buf and
// returns it. Consecutive spans share their boundary instants bit-exactly
// (span[i].To == span[i+1].From), which is what makes big-float
// telescoping over the result exact.
func (l *Ledger) Spans(pos int, buf []PhaseSpan) []PhaseSpan {
	if l == nil || pos < 0 || pos >= len(l.head) {
		return buf
	}
	h := l.head[pos]
	if h < 0 || math.IsNaN(l.end[pos]) {
		return buf
	}
	start := len(buf)
	next := l.end[pos]
	for i := h; i >= 0; i = l.marks[i].prev {
		m := &l.marks[i]
		buf = append(buf, PhaseSpan{Phase: m.phase, From: m.t, To: next})
		next = m.t
	}
	// Reverse the appended run into chronological order.
	for a, b := start, len(buf)-1; a < b; a, b = a+1, b-1 {
		buf[a], buf[b] = buf[b], buf[a]
	}
	return buf
}
