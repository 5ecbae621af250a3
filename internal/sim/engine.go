package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/energy"
	"planaria/internal/fault"
	"planaria/internal/obs"
	"planaria/internal/simtime"
	"planaria/internal/workload"
)

// configLoadCycles covers the double-buffered configuration-register swap
// and the per-subarray instruction-buffer prefetch on a re-allocation
// (§IV-C); the checkpoint DMA of one tile of intermediate results is
// modeled separately from the allocation's bandwidth share
// (Task.checkpointCycles).
const configLoadCycles = 500

// Outcome aggregates one simulated workload instance.
type Outcome struct {
	// Finishes[i] is the completion time of the i-th request of the
	// slice passed to Run (-1 if the request never completed: shed by
	// admission control, rejected for an unknown model, or dropped after
	// exhausting its fault-retry budget).
	Finishes []float64
	// Latency[i] = Finishes[i] − Arrival[i].
	Latency []float64
	// EnergyJ is total energy: per-task dynamic energy + chip leakage
	// over the makespan.
	EnergyJ float64
	// Makespan is the time from first arrival to last completion.
	Makespan float64
	// BusyTime is the total time at least one task was in flight; chip
	// leakage and fission-support overhead power are charged over it
	// (the chip power-gates when idle).
	BusyTime float64
	// Fairness is the PREMA metric min_{i,j} PP_i/PP_j.
	Fairness float64
	// Preemptions counts allocation changes of running tasks, whether
	// the task later completes, is shed or is killed.
	Preemptions int
	// Refissions counts elastic re-fission resizes: allocation changes
	// applied at a Refissioner-scheduled wakeup rather than an arrival,
	// completion, quantum, or fault event. Always zero unless the policy
	// implements Refissioner and has it active.
	Refissions int
	// MeetsSLA reports the MLPerf server criterion over this instance.
	MeetsSLA bool

	// Fault-injection and degradation tallies (all zero when the node has
	// no injector and shedding is off). Requests that are shed, rejected,
	// or dropped keep Finishes[i] = -1 and count against the SLA.
	//
	// Killed counts fault-induced task kills; Retries counts the subset
	// re-enqueued after backoff (a kill past MaxAttempts sheds instead).
	Killed  int
	Retries int
	// Shed counts admission-control declines plus retry-budget
	// exhaustions.
	Shed int
	// Rejected counts requests for models the node has no program for.
	Rejected int
	// FaultEvents counts fault transitions (landings and repairs)
	// applied during the run.
	FaultEvents int
}

// Node simulates one accelerator under a scheduling policy.
type Node struct {
	Cfg    arch.Config
	Policy Policy
	// Programs maps model name → compiled program (matching Cfg).
	Programs map[string]*compiler.Program
	// Params are the energy constants.
	Params energy.Params
	// The optional sinks, each folded from the run's event stream
	// (observe.go); with all four nil, observability costs one untaken
	// branch per event. Trace records the serving timeline (arrivals,
	// allocation changes, preemptions, queue samples, completions).
	// Timeline receives tracks on simulated time (request lifecycle
	// spans, per-task allocation counters, queue occupancy); every run
	// tally is an Outcome field.
	// Attrib receives per-request phase attribution (DESIGN.md §14):
	// queue-wait, compute, preempt-stall, retry-backoff and fault-stall
	// boundaries plus the terminal cause, addressed by input-slice
	// position; Run resizes it to len(reqs). Occ splits every interval's
	// wall-cycles into busy/reconfig/faulted/idle unit-cycles.
	Trace    *Trace
	Timeline *obs.TraceBuilder
	Attrib   *obs.Ledger
	Occ      *obs.Occupancy
	// PenaltyScale multiplies every re-allocation penalty (tile drain,
	// checkpoint DMA, configuration load). 0 = free preemption, 1 =
	// default; used by the reconfiguration-cost sensitivity ablation.
	// Zero value means 1.
	PenaltyScale float64

	// Faults, when non-nil, replays a deterministic fault schedule
	// against the node: transitions are applied exactly at their
	// simulated instants, victims are killed and re-enqueued with capped
	// exponential backoff, and capacity/throughput degrade per FaultMode.
	// Nil keeps the fault-free paths bit-identical to a node without any
	// fault machinery.
	Faults *fault.Injector
	// FaultMode selects fission masking (Planaria) or monolithic
	// derating (PREMA baseline). Meaningful only with Faults set.
	FaultMode FaultMode
	// Shed selects the admission-control policy (default ShedNone).
	Shed ShedPolicy
	// RetryBase and RetryCap bound the kill-retry backoff in simulated
	// seconds (zero values mean 200 µs and 5 ms). MaxAttempts caps how
	// often one request may be killed before it is shed; 0 = unlimited.
	RetryBase   float64
	RetryCap    float64
	MaxAttempts int
}

// Run simulates the requests to completion and computes the outcome
// metrics. Isolated times for fairness come from each program's
// full-allocation table.
//
//perf:hot serving steady state: the per-event loop must not allocate (DESIGN.md §13)
func (n *Node) Run(reqs []workload.Request) (*Outcome, error) {
	r := runPool.Get().(*run)
	defer runPool.Put(r)
	defer r.release()
	return r.simulate(n, reqs)
}

// MeetsSLA reports whether the requests meet the MLPerf server SLA on the
// node: Run(reqs).MeetsSLA, without simulating what the verdict does not
// need. The run stops as soon as some domain can no longer meet the SLA
// (verdict.go), so an error a full run would hit after that point is not
// seen and false is returned instead. A run that goes to the end takes
// its verdict from the same per-domain tally, so it fills no per-request
// slice and prices no energy. With any sink attached the run is a full
// Run, so every sink sees a whole run.
//
//perf:hot the max-QPS searches' vote: one call per instance per probed rate
func (n *Node) MeetsSLA(reqs []workload.Request) (bool, error) {
	r := runPool.Get().(*run)
	defer runPool.Put(r)
	defer r.release()
	r.verdictOnly = true
	out, err := r.simulate(n, reqs)
	if err != nil {
		return false, err
	}
	return out.MeetsSLA, nil
}

// simulate is Run on the pooled state r. A verdict-only run (see
// MeetsSLA) returns the run's own verdictOut, whose MeetsSLA is the
// verdict and whose other fields are partial; it lives until the state
// goes back to the pool.
func (r *run) simulate(n *Node, reqs []workload.Request) (*Outcome, error) {
	if n.Policy == nil {
		return nil, fmt.Errorf("sim: node has no policy")
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("sim: no requests")
	}
	if err := workload.Validate(reqs); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	total := n.Cfg.NumSubarrays()
	if n.Faults != nil && n.FaultMode == FaultFission && n.Faults.Health().Units() != total {
		return nil, fmt.Errorf("sim: fault schedule has %d units, fission config has %d subarrays",
			n.Faults.Health().Units(), total)
	}

	r.reqs, r.tasks, r.bindings = reqs, r.tasks[:0], r.bindings[:0]
	r.start(n, total)
	// Faults that landed before the first arrival are in force when it is
	// admitted, and are emitted before it.
	r.applyFaults()
	r.admit()

	const maxEvents = 10_000_000
	for iter := 0; ; iter++ {
		if iter > maxEvents {
			now, active, retrying, admitted := r.now, len(r.tasks), r.retryQ.Len(), r.next
			return nil, fmt.Errorf("sim: exceeded %d events (livelock?) at t=%.9f: %d tasks, %d retries queued, %d/%d arrivals admitted",
				maxEvents, now, active, retrying, admitted, len(reqs))
		}
		if r.verdictOnly && r.failed() {
			return r.out, nil
		}
		r.applyFaults()
		if len(r.tasks) == 0 {
			if r.drained() {
				break
			}
			r.idle()
			continue
		}
		capNow, sp := n.capacity(total), n.speed()
		if capNow == 0 || sp == 0 {
			if r.awaitRepair() {
				continue
			}
			r.drainDeadChip()
			break
		}
		running, err := r.schedule(capNow)
		if err != nil {
			return nil, err
		}
		if err := r.step(capNow, running, sp); err != nil {
			return nil, err
		}
		r.admit()
		if len(r.tasks) == 0 && r.drained() {
			break
		}
	}
	out := r.finish()
	return out, nil
}

// run is the state of one Node.Run: the arrival calendar, the clock, the
// active tasks, the retry queue, the outcome and the sink handles. Each
// event kind is one method. Run takes the state from runPool, so
// back-to-back simulations (cluster shards, sweeps, benchmarks) reuse its
// buffers instead of paying a large-allocation zeroing tax per run. Task
// records are engine-owned: nothing in an Outcome, Trace, or timeline
// references them, and policies must not retain *Task pointers across
// calls (the scheduling contract), so a record is free for reuse the
// moment its request retires or sheds. Every buffer is appended from
// empty or fully overwritten before it is read, so stale contents cannot
// influence a run.
type run struct {
	n    *Node
	reqs []workload.Request
	// perm is the arrival calendar: perm[k] is the input position of the
	// k-th arrival. It is nil when arrivals strictly increase, as in
	// generated streams and cluster dispatch, and the input is its own
	// calendar.
	perm []int
	next int // calendar cursor: the first arrival not yet admitted
	now  float64

	total    int     // physical subarrays
	cps      float64 // clock rate in cycles per second
	penScale float64
	prioSum  float64
	// binds interns each model's program, isolated time and layer
	// energies, so an admit does one map lookup and a retirement none.
	// Its values point into bindings, which start sizes before filling,
	// so the pointers tasks hold stay valid for the run.
	binds    map[string]*progBinding
	bindings []progBinding
	out      *Outcome

	// chunks hold the task records, slabChunk to an allocation, so a
	// *Task stays valid while the slab grows; free lists the records not
	// in use. A record is taken at admit and goes back at its request's
	// one terminal point, retirement or a shed, so the slab is as large as
	// the most tasks ever in flight at once, not the request count.
	chunks [][]Task
	free   []*Task
	tasks  []*Task // active: admitted, unfinished, not backing off
	// completed counts retirements; ppMin and ppMax fold the PREMA
	// normalized progress of each (fairness).
	completed    int
	ppMin, ppMax float64
	alloc        []int // positional allocation of the current event
	retryQ       retryHeap
	prevUsable   []bool

	sliceAlloc SliceAllocator // nil when the policy only returns maps
	// refis is set only when the policy re-fissions elastically; refAt is
	// its requested wakeup (+Inf for none).
	refis Refissioner
	refAt float64

	// observed is the one guard of every emit: set when the node has any
	// sink attached. The sinks and their fold state are in views
	// (observe.go).
	observed bool
	views
	// tracks caches each request's timeline track, by input position, plus
	// one; zero until the request's first sample interns it.
	tracks []int32
	// lastDepth and lastRunning dedupe EvQueue: a sample is emitted only
	// when the pair changes.
	lastDepth, lastRunning int

	// verdictOnly marks a MeetsSLA run with no sink attached: the run
	// tallies certain misses per domain in doms and stops once doomed
	// (verdict.go). lateAt is the earliest Deadline+simtime.Eps of the
	// tasks in flight not yet counted late, or less.
	verdictOnly bool
	doomed      bool
	lateAt      float64
	doms        []domTally
	// verdictOut is a verdict-only run's Outcome, kept on the pooled
	// state so such a run allocates none: it has no per-request slices,
	// and finish leaves everything but MeetsSLA as the run left it.
	verdictOut Outcome
}

var runPool = sync.Pool{New: func() any { return new(run) }}

// slabChunk is the number of task records one slab allocation holds.
const slabChunk = 64

// release drops the run's references to the caller's requests, the node
// and its sinks before the state goes back to the pool. It keeps only the
// reusable buffers; every other field is back at its zero value, which
// start relies on. Every task record is zeroed, so the slab pins no
// request strings, program or binding, and listed free again, including
// those a failed run left in flight.
func (r *run) release() {
	clear(r.binds)
	clear(r.bindings)
	clear(r.doms)
	free := r.free[:0]
	for _, c := range r.chunks {
		clear(c)
		for i := range c {
			free = append(free, &c[i])
		}
	}
	*r = run{
		chunks:     r.chunks,
		free:       free,
		tasks:      r.tasks[:0],
		alloc:      r.alloc[:0],
		retryQ:     retryHeap{entries: r.retryQ.entries[:0]},
		prevUsable: r.prevUsable[:0],
		tracks:     r.tracks[:0],
		binds:      r.binds,
		bindings:   r.bindings[:0],
		doms:       r.doms[:0],
	}
}

// start binds the run to node n: the arrival calendar, the clock, the
// outcome, the model bindings, the policy's optional interfaces and the
// sinks.
//
//perf:cold per-run setup: runs once before the event loop
func (r *run) start(n *Node, total int) {
	reqs := r.reqs
	r.n, r.total = n, total
	r.cps = n.Cfg.CyclesPerSecond()
	// A zero PenaltyScale means 1; a negative one makes preemption free.
	r.penScale = max(n.PenaltyScale, 0)
	if n.PenaltyScale == 0 {
		r.penScale = 1
	}
	r.perm = calendar(reqs)
	r.now = reqs[r.pos(0)].Arrival
	r.ppMin = math.Inf(1)
	// Priorities are integers, so their float sum is exact in any order.
	for i := range reqs {
		r.prioSum += float64(reqs[i].Priority)
	}
	if r.binds == nil {
		r.binds = make(map[string]*progBinding, len(n.Programs))
	}
	r.bindings = slices.Grow(r.bindings, len(n.Programs))
	for m, p := range n.Programs { //det:mapiter-ok builds a map from a map; contents are iteration-order-insensitive
		joules, sums := p.LayerJoules(n.Params)
		r.bindings = append(r.bindings, progBinding{
			prog:   p,
			iso:    float64(p.Table(total).TotalCycles) / r.cps,
			joules: joules,
			sums:   sums,
		})
		r.binds[m] = &r.bindings[len(r.bindings)-1]
	}

	r.sliceAlloc, _ = n.Policy.(SliceAllocator)
	// Elastic re-fission (DESIGN.md §16) is decided once per run: only an
	// active Refissioner gets scheduling wakeups.
	r.refAt = math.Inf(1)
	if rf, ok := n.Policy.(Refissioner); ok && rf.RefissionActive() {
		r.refis = rf
	}
	r.lastDepth, r.lastRunning = -1, -1
	r.observed = n.Trace != nil || n.Timeline != nil || n.Attrib != nil || n.Occ != nil
	if r.observed {
		r.attach(n)
	}
	r.verdictOnly = r.verdictOnly && !r.observed
	if r.verdictOnly {
		r.out = &r.verdictOut
		r.startTally()
		return
	}
	r.out = &Outcome{
		Finishes: make([]float64, len(reqs)),
		Latency:  make([]float64, len(reqs)),
	}
	for i := range r.out.Finishes {
		r.out.Finishes[i] = -1
	}
}

// calendar returns the arrival order of reqs as a permutation of input
// positions, or nil when arrivals strictly increase. sort.Slice's result
// depends only on its comparator's answers, so tied arrivals come out in
// the order sorting the requests themselves would give them.
//
//perf:cold per-run setup: one pass, and one sort of an unsorted stream
func calendar(reqs []workload.Request) []int {
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival <= reqs[i-1].Arrival {
			perm := make([]int, len(reqs))
			for k := range perm {
				perm[k] = k
			}
			sort.Slice(perm, func(a, b int) bool { return reqs[perm[a]].Arrival < reqs[perm[b]].Arrival })
			return perm
		}
	}
	return nil
}

// pos returns the input position of the k-th arrival.
func (r *run) pos(k int) int {
	if r.perm == nil {
		return k
	}
	return r.perm[k]
}

// drained reports whether no arrival and no retry is left to admit.
func (r *run) drained() bool {
	return r.next >= len(r.reqs) && r.retryQ.Len() == 0
}

// arrive takes the next arrival off the calendar and returns its input
// position and model binding. A request for a model without a program is
// rejected here, on every path an arrival takes, and ok is false.
func (r *run) arrive() (pos int, bind *progBinding, ok bool) {
	pos = r.pos(r.next)
	r.next++
	q := &r.reqs[pos]
	if r.observed {
		r.emit(Event{Time: q.Arrival, Kind: EvArrival, Task: q.ID, Model: q.Model, Pos: int32(pos)})
	}
	if bind, ok = r.binds[q.Model]; !ok {
		r.out.Rejected++
		if r.verdictOnly {
			r.miss(pos)
		}
		if r.observed {
			r.emit(Event{Time: q.Arrival, Kind: EvReject, Task: q.ID, Model: q.Model, Pos: int32(pos), Cause: obs.CauseRejected})
		}
	}
	return pos, bind, ok
}

// admit moves the arrivals and retries due at r.now into the active set.
// Admission control may shed an arrival or a retry instead of queueing
// it.
func (r *run) admit() {
	for r.next < len(r.reqs) && simtime.Due(r.reqs[r.pos(r.next)].Arrival, r.now) {
		pos, bind, ok := r.arrive()
		if !ok {
			continue
		}
		q := &r.reqs[pos]
		if r.n.shouldShed(r.now, bind.prog, q, r.total, len(r.tasks)) {
			r.shed(r.now, pos, nil, obs.CauseShedChip)
			continue
		}
		t := r.take()
		// Field writes rather than a composite literal: the literal
		// materializes a 200-byte temporary and block-copies it into the
		// record on every admit.
		t.ID = q.ID
		t.Req = *q
		t.Prog = bind.prog
		t.bind = bind
		t.Layer, t.Frac = 0, 0
		t.Alloc, t.PenaltyCycles = 0, 0
		t.Finish = -1
		t.EnergyJ = 0
		t.Preemptions = 0
		t.pos = pos
		t.Attempts = 0
		t.phase = obs.PhaseQueueWait
		t.late = false
		if r.verdictOnly {
			r.lateAt = min(r.lateAt, q.Deadline+simtime.Eps)
		}
		r.tasks = append(r.tasks, t)
	}
	// Killed tasks whose backoff has elapsed rejoin the queue; a task
	// whose prospects died with the chip's capacity is shed here.
	for r.retryQ.Len() > 0 && simtime.Due(r.retryQ.peek().at, r.now) {
		t := r.retryQ.pop().t
		if r.n.shouldShed(r.now, t.Prog, &t.Req, r.total, len(r.tasks)) {
			r.shed(r.now, t.pos, t, obs.CauseShedRetries)
			continue
		}
		if r.observed {
			r.emit(Event{Time: r.now, Kind: EvRetry, Task: t.ID, Model: t.Req.Model, Attempt: t.Attempts, Pos: int32(t.pos)})
		}
		r.enter(t, obs.PhaseQueueWait)
		r.tasks = append(r.tasks, t)
	}
}

// take returns a free task record, growing the slab by a chunk when
// every record is in use.
func (r *run) take() *Task {
	if len(r.free) == 0 {
		//perf:alloc-ok the slab grows only past its most tasks ever in flight; a warm run reuses its chunks
		c := make([]Task, slabChunk)
		r.chunks = append(r.chunks, c)
		for i := range c {
			r.free = append(r.free, &c[i])
		}
	}
	t := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	return t
}

// shed stamps the request at input position pos as shed at instant at
// for cause and charges the energy its task t consumed; t is nil for a
// request that was never admitted.
func (r *run) shed(at float64, pos int, t *Task, cause obs.Cause) {
	attempt := 0
	if r.verdictOnly && (t == nil || !t.late) {
		r.miss(pos)
	}
	if t != nil {
		attempt = t.Attempts
		r.out.EnergyJ += t.EnergyJ
		r.free = append(r.free, t)
	}
	r.out.Shed++
	if r.observed {
		q := &r.reqs[pos]
		r.emit(Event{Time: at, Kind: EvShed, Task: q.ID, Model: q.Model, Attempt: attempt, Pos: int32(pos), Cause: cause})
	}
}

// enter moves task t into attribution phase ph at r.now. Only an actual
// transition is emitted, so steady state adds no ledger marks.
func (r *run) enter(t *Task, ph obs.Phase) {
	if r.observed && ph != t.phase {
		t.phase = ph
		r.emit(Event{Time: r.now, Kind: evPhase, Task: t.ID, Pos: int32(t.pos), Phase: ph})
	}
}

// kill resets a fault victim's progress and re-enqueues it after its
// backoff, or sheds it once it has used up MaxAttempts.
func (r *run) kill(t *Task) {
	t.Attempts++
	t.Alloc, t.Layer, t.Frac, t.PenaltyCycles = 0, 0, 0, 0
	r.out.Killed++
	if r.observed {
		r.emit(Event{Time: r.now, Kind: EvKill, Task: t.ID, Model: t.Req.Model, Attempt: t.Attempts, Pos: int32(t.pos)})
	}
	if r.n.MaxAttempts > 0 && t.Attempts > r.n.MaxAttempts {
		r.shed(r.now, t.pos, t, obs.CauseShedRetries)
		return
	}
	r.enter(t, obs.PhaseRetryBackoff)
	r.retryQ.push(retryEntry{t: t, at: r.now + r.n.backoff(t.Attempts)})
	r.out.Retries++
}

// applyFaults applies every fault transition due at or before r.now:
// records the transitions, kills the victims, and hands the updated
// health mask to a health-aware policy. No-op without an injector.
func (r *run) applyFaults() {
	n := r.n
	if n.Faults == nil || !n.Faults.Due(r.now) {
		return
	}
	h := n.Faults.Health()
	prev := r.prevUsable[:0]
	for i := 0; i < h.Units(); i++ {
		prev = append(prev, h.UsableSub(i))
	}
	r.prevUsable = prev
	changes := n.Faults.AdvanceTo(r.now)
	anyDown := false
	for _, ch := range changes {
		if !ch.Up {
			anyDown = true
		}
		if r.observed {
			r.emit(Event{Time: ch.Time, Kind: EvFault, Unit: ch.Event.Unit, Up: ch.Up, Model: ch.Event.Kind.String()})
		}
	}
	r.out.FaultEvents += len(changes)
	if r.observed {
		r.emit(Event{Time: r.now, Kind: evAlive, Alloc: h.Alive()})
	}
	victims := faultVictims(r.tasks, prev, h, n.FaultMode, anyDown)
	if len(victims) > 0 {
		dead := make(map[int]bool, len(victims))
		for _, v := range victims {
			dead[v.ID] = true
			r.kill(v)
		}
		kept := r.tasks[:0]
		for _, t := range r.tasks {
			if !dead[t.ID] {
				kept = append(kept, t)
			}
		}
		r.tasks = kept
	}
	if ha, ok := n.Policy.(HealthAware); ok {
		ha.SetHealth(h.Mask())
	}
}

// wake returns the instant of the next arrival or retry, +Inf for none.
func (r *run) wake() float64 {
	wake := math.Inf(1)
	if r.next < len(r.reqs) {
		wake = r.reqs[r.pos(r.next)].Arrival
	}
	if r.retryQ.Len() > 0 && r.retryQ.peek().at < wake {
		wake = r.retryQ.peek().at
	}
	return wake
}

// idle jumps the clock over an empty queue to the next arrival or retry
// and admits what is due there.
func (r *run) idle() {
	wake := r.wake()
	if r.observed {
		// The whole chip sits idle (or masked) until the wakeup.
		r.emit(Event{Time: wake, Kind: evInterval, Unit: r.total - r.n.capacity(r.total)})
	}
	// The queue emptied, so any pending re-fission wakeup is moot; clear
	// it so the jump target cannot coincide with a stale one.
	r.refAt = math.Inf(1)
	r.now = wake
	r.applyFaults()
	r.admit()
}

// awaitRepair handles a chip with every subarray masked: nothing can run
// until a repair, the only event that can change capacity, so the
// waiting tasks stall on the fault while the clock jumps to the repair.
// An arrival or retry due before the repair is admitted at its own
// instant on the way. It reports false when no repair is scheduled: the
// chip is permanently dead.
func (r *run) awaitRepair() bool {
	nc := r.n.Faults.NextChange(r.now)
	if math.IsInf(nc, 1) {
		return false
	}
	wake := min(r.wake(), nc)
	if r.observed {
		for _, t := range r.tasks {
			r.enter(t, obs.PhaseFaultStall)
		}
		r.emit(Event{Time: wake, Kind: evInterval, Unit: r.total})
	}
	r.now = wake
	if wake < nc {
		r.admit()
	}
	return true
}

// drainDeadChip ends the run on a permanently dead chip: no queued,
// retrying, or still-to-arrive request can ever be served, so every one
// is shed, except that an arrival for a model without a program is
// rejected as on a live chip. Their Finishes stay -1 and count against
// the SLA.
func (r *run) drainDeadChip() {
	for _, t := range r.tasks {
		r.shed(r.now, t.pos, t, obs.CauseShedDeadChip)
	}
	r.tasks = r.tasks[:0]
	for r.retryQ.Len() > 0 {
		t := r.retryQ.pop().t
		r.shed(r.now, t.pos, t, obs.CauseShedDeadChip)
	}
	for r.next < len(r.reqs) {
		if pos, _, ok := r.arrive(); ok {
			r.shed(r.reqs[pos].Arrival, pos, nil, obs.CauseShedDeadChip)
		}
	}
}

// schedule invokes the policy at r.now over capNow usable subarrays and
// applies its allocation: every change is emitted (as an elastic
// re-fission at the Refissioner's wakeup, as a preemption of a running
// task otherwise), re-allocation penalties are charged, and attribution
// phases are entered. It returns the number of running tasks.
func (r *run) schedule(capNow int) (int, error) {
	n, tasks, now := r.n, r.tasks, r.now
	if cap(r.alloc) < len(tasks) {
		r.alloc = make([]int, len(tasks))
	}
	alloc := r.alloc[:len(tasks)]
	if r.sliceAlloc != nil {
		clear(alloc)
		r.sliceAlloc.AllocateInto(now, tasks, capNow, alloc)
	} else if err := allocFromMap(n.Policy.Allocate(now, tasks, capNow), tasks, alloc); err != nil {
		return 0, err
	}
	if err := validateAllocation(alloc, tasks, capNow); err != nil {
		return 0, err
	}
	// The loop woke exactly at the Refissioner's requested time (step
	// folds refAt into the next-event minimum, so equality is exact).
	atRef := r.refis != nil && now == r.refAt
	running, inUse := 0, 0
	for i, t := range tasks {
		na := alloc[i]
		if na != t.Alloc {
			kind := EvAlloc
			wasRunning := t.Alloc > 0 && !t.Done()
			if wasRunning {
				r.out.Preemptions++
			}
			if atRef && !t.Done() {
				// An elastic resize at a tile boundary: grow a starved task
				// into freed subarrays or shrink an SLA-beating donor.
				// Emitted as EvRefission instead of EvPreempt; a running
				// task is still preempted (applyRealloc charges it, and it
				// counts in Preemptions).
				kind = EvRefission
				r.out.Refissions++
				if !wasRunning && na > 0 {
					// Growing a stalled task mid-run is not free: the freed
					// subarrays swap in its configuration and prefetch its
					// instructions (§IV-C) before work resumes. Ordinary-event
					// dispatches of queued tasks stay free.
					t.PenaltyCycles += int64(float64(n.Cfg.ConfigSwapCycles(na)) * r.penScale)
				}
			} else if wasRunning {
				// A running task's allocation changed: a preemption (full,
				// on PREMA's context switch; partial, on a Planaria
				// re-fission).
				kind = EvPreempt
			}
			if r.observed {
				r.emit(Event{Time: now, Kind: kind, Task: t.ID, Model: t.Req.Model, Alloc: na, Depth: t.Alloc, Pos: int32(t.pos)})
			}
		}
		t.applyRealloc(int64(na), &n.Cfg, r.penScale)
		if r.observed {
			// Allocated and penalty-free means computing, allocated but
			// draining a re-allocation penalty means preempt-stall,
			// unallocated means queued.
			ph := obs.PhaseQueueWait
			if t.Alloc > 0 {
				if t.PenaltyCycles > 0 {
					ph = obs.PhasePreemptStall
				} else {
					ph = obs.PhaseCompute
				}
			}
			r.enter(t, ph)
		}
		if t.Alloc > 0 {
			running++
			inUse += t.Alloc
		}
	}
	if running == 0 {
		return 0, fmt.Errorf("sim: policy %s stalled all %d tasks", n.Policy.Name(), len(tasks))
	}
	if r.observed {
		if r.lastDepth != len(tasks) || r.lastRunning != running {
			r.lastDepth, r.lastRunning = len(tasks), running
			r.emit(Event{Time: now, Kind: EvQueue, Depth: r.lastDepth, Running: r.lastRunning})
		}
		r.emit(Event{Time: now, Kind: evSched, Alloc: inUse})
	}
	return running, nil
}

// step picks the next event (the earliest completion, arrival, quantum
// expiry, fault transition, retry, or requested re-fission), advances the
// running tasks to it, and retires those that finished. capNow and sp are
// the chip's usable subarrays and speed; running is the number of
// allocated tasks.
func (r *run) step(capNow, running int, sp float64) error {
	n, tasks, now, cps := r.n, r.tasks, r.now, r.cps
	next := math.Inf(1)
	for _, t := range tasks {
		if t.Alloc > 0 {
			rem := float64(t.RemainingCycles(t.Alloc)) / cps
			if sp != 1 {
				rem /= sp
			}
			if fin := now + rem; fin < next {
				next = fin
			}
		}
	}
	if r.next < len(r.reqs) {
		if a := r.reqs[r.pos(r.next)].Arrival; a < next {
			next = a
		}
	}
	if q := n.Policy.Quantum(); q > 0 && len(tasks) > running {
		// The quantum is a cycle-count epoch, so a derated chip takes
		// proportionally longer wall-clock to complete one. (Keeping it
		// wall-clock-fixed would let the per-switch reconfiguration
		// penalty outrun the work retired per epoch at low speeds — tasks
		// would thrash forever without progressing.)
		if sp != 1 {
			q /= sp
		}
		if now+q < next {
			next = now + q
		}
	}
	if n.Faults != nil {
		if nc := n.Faults.NextChange(now); nc < next {
			next = nc
		}
	}
	if r.retryQ.Len() > 0 && r.retryQ.peek().at < next {
		next = r.retryQ.peek().at
	}
	if r.refis != nil {
		// The Refissioner names the next tile boundary worth a re-split
		// (+Inf when the current fission needs no revisit); fold it into
		// the minimum so the loop wakes exactly there.
		r.refAt = r.refis.NextRefission(now, tasks, capNow)
		if r.refAt <= now {
			r.refAt = math.Inf(1)
		} else if r.refAt < next {
			next = r.refAt
		}
	}
	if math.IsInf(next, 1) {
		return fmt.Errorf("sim: no next event with %d tasks active", len(tasks))
	}

	// Under derate the chip retires work at the alive fraction of its
	// nominal rate.
	dt := next - now
	r.out.BusyTime += dt
	work := dt * cps
	if sp != 1 {
		work *= sp
	}
	dtCycles := int64(math.Ceil(work))
	if dtCycles < 1 {
		dtCycles = 1
	}
	if r.observed {
		// Occupancy is in wall-cycles (not derate-scaled work cycles, so
		// the split is speed-independent): each allocated subarray is busy
		// or, while its task drains a re-allocation penalty,
		// reconfiguring; fault-masked subarrays are faulted; the rest idle.
		busy, reconf := 0, 0
		for _, t := range tasks {
			if t.PenaltyCycles > 0 {
				reconf += t.Alloc
			} else {
				busy += t.Alloc
			}
		}
		r.emit(Event{Time: next, Kind: evInterval, Alloc: busy, Depth: reconf, Unit: r.total - capNow})
	}
	for _, t := range tasks {
		if t.Alloc > 0 {
			t.advance(dtCycles)
		}
	}
	r.now = next
	r.retire()
	return nil
}

// retire completes every task that finished its last layer and paid its
// penalties, writing its finish time and latency at its input position
// and folding its normalized progress into fairness, and frees its
// record.
func (r *run) retire() {
	now := r.now
	kept := r.tasks[:0]
	for _, t := range r.tasks {
		if !t.Done() || t.PenaltyCycles > 0 {
			kept = append(kept, t)
			continue
		}
		t.Finish = now
		if r.verdictOnly && !t.late && simtime.After(now, t.Req.Deadline) {
			r.miss(t.pos)
		}
		if r.observed {
			r.emit(Event{Time: now, Kind: EvFinish, Task: t.ID, Model: t.Req.Model, Depth: t.Preemptions, Pos: int32(t.pos), Cause: obs.CauseDone})
		}
		lat := now - t.Req.Arrival
		if !r.verdictOnly {
			r.out.Finishes[t.pos] = now
			r.out.Latency[t.pos] = lat
		}
		r.out.EnergyJ += t.EnergyJ
		// PREMA: PP = (T_iso / T_multi) / (priority / Σ priority).
		if lat > 0 {
			pp := (t.bind.iso / lat) / (float64(t.Req.Priority) / r.prioSum)
			if pp < r.ppMin {
				r.ppMin = pp
			}
			if pp > r.ppMax {
				r.ppMax = pp
			}
		}
		r.completed++
		r.free = append(r.free, t)
	}
	r.tasks = kept
}

// finish closes the outcome: makespan, chip leakage and fission-support
// overhead power over the busy time, fairness, and the SLA verdict. A
// verdict-only run that drained has retired, shed or rejected every
// request, so its tally of certain misses is final: the SLA holds unless
// some domain's tally already doomed the run.
func (r *run) finish() *Outcome {
	out, n := r.out, r.n
	if r.verdictOnly {
		out.MeetsSLA = !r.doomed
		return out
	}
	out.Makespan = r.now - r.reqs[r.pos(0)].Arrival
	out.EnergyJ += (energy.LeakageWatts(n.Cfg, n.Params) + energy.OverheadWatts(n.Cfg)) * out.BusyTime
	// Fairness is PREMA's min_{i,j} PP_i / PP_j = min PP / max PP.
	out.Fairness = 1
	if r.completed >= 2 && r.ppMax != 0 && !math.IsInf(r.ppMin, 1) {
		out.Fairness = r.ppMin / r.ppMax
	}
	out.MeetsSLA = workload.MeetsSLA(r.reqs, out.Finishes)
	return out
}

// progBinding is one model's interned admission state: its compiled
// program, the isolated full-chip run time used by the fairness metric,
// and its layer energies under the node's parameters with their running
// sums (compiler.Program.LayerJoules).
type progBinding struct {
	prog         *compiler.Program
	iso          float64
	joules, sums [][]float64
}
