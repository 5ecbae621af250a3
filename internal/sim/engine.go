package sim

import (
	"fmt"
	"math"
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

// TimeEps re-exports the repository-wide simulated-time comparison
// tolerance (see internal/simtime, which sits below both this package
// and internal/fault). Every due-at/later-than check in the engine, the
// fault injector, and the cluster front end uses the same tolerance.
const TimeEps = simtime.Eps

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
	// Preemptions counts allocation changes of running tasks.
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
	// Trace, when non-nil, records the serving timeline (arrivals,
	// allocation changes, preemptions, queue samples, completions).
	Trace *Trace
	// Obs, when non-nil, receives metrics and timeline tracks on
	// simulated time (request lifecycle spans, per-task allocation
	// counters, queue occupancy). Nil costs only untaken branches.
	Obs *obs.Observer
	// Attrib, when non-nil, receives per-request phase-attribution
	// stamps (DESIGN.md §14): queue-wait, compute, preempt-stall,
	// retry-backoff, fault-stall boundaries plus the terminal cause,
	// addressed by input-slice position. Run resizes it to len(reqs).
	// Nil costs only untaken branches.
	Attrib *obs.Ledger
	// Occ, when non-nil, receives integer subarray-cycle occupancy
	// accounting: every event interval's wall-cycles split into
	// busy/reconfig/faulted/idle unit-cycles. Nil costs only untaken
	// branches.
	Occ *obs.Occupancy
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

	r := runPool.Get().(*run)
	defer runPool.Put(r)
	defer r.release()
	// At most one task is ever created per request (retries re-enqueue
	// the same record), so the arena never grows mid-run and task
	// pointers stay stable.
	r.reqs, r.tasks = reqs, r.tasks[:0]
	if len(r.arena) < len(reqs) {
		r.arena = make([]Task, len(reqs))
	}
	r.start(n, total)
	r.admit()

	const maxEvents = 10_000_000
	for iter := 0; ; iter++ {
		if iter > maxEvents {
			now, active, retrying, admitted := r.now, len(r.tasks), r.retryQ.Len(), r.next
			return nil, fmt.Errorf("sim: exceeded %d events (livelock?) at t=%.9f: %d tasks, %d retries queued, %d/%d arrivals admitted",
				maxEvents, now, active, retrying, admitted, len(reqs))
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
// records are engine-owned: nothing in an Outcome, Trace, or observer
// references them, and policies must not retain *Task pointers across
// calls (the scheduling contract), so the arena is free for reuse the
// moment Run returns. Every buffer is appended from empty or fully
// overwritten before it is read, so stale contents cannot influence a
// run.
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
	// binds interns each model's program and isolated time, so an admit
	// does one map lookup and a retirement none.
	binds map[string]progBinding
	out   *Outcome

	arena      []Task
	used       int     // arena records handed out
	tasks      []*Task // active: admitted, unfinished, not backing off
	pp         []ppEntry
	alloc      []int // positional allocation of the current event
	retryQ     retryHeap
	prevUsable []bool

	sliceAlloc SliceAllocator // nil when the policy only returns maps
	// refis is set only when the policy re-fissions elastically; refAt is
	// its requested wakeup (+Inf for none).
	refis Refissioner
	refAt float64

	// Sinks. Nil handles cost one untaken branch per probe.
	trace                  *Trace
	tracer                 *obs.TraceBuilder
	reg                    *obs.Registry
	led                    *obs.Ledger
	occ                    *obs.Occupancy
	c                      counters
	latHists               map[string]*obs.Histogram
	lastDepth, lastRunning int
}

// counters are a run's registry handles, nil without an observer.
type counters struct {
	requests, done, preempt, sched, kills, retries, sheds, rejects, faults *obs.Counter
	refis, refisGrow, refisShrink                                          *obs.Counter
	alive, depth                                                           *obs.Gauge
}

var runPool = sync.Pool{New: func() any { return new(run) }}

// release drops the run's references to the caller's requests, the node
// and its sinks before the state goes back to the pool. It keeps only the
// reusable buffers; every other field is back at its zero value, which
// start relies on.
func (r *run) release() {
	clear(r.binds)
	*r = run{
		arena:      r.arena,
		tasks:      r.tasks[:0],
		pp:         r.pp[:0],
		alloc:      r.alloc[:0],
		retryQ:     retryHeap{entries: r.retryQ.entries[:0]},
		prevUsable: r.prevUsable[:0],
		binds:      r.binds,
	}
}

// start binds the run to node n: the arrival calendar, the clock, the
// outcome, the model bindings, the policy's optional interfaces and the
// sink handles.
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
	// Priorities are integers, so their float sum is exact in any order.
	for i := range reqs {
		r.prioSum += float64(reqs[i].Priority)
	}
	r.out = &Outcome{
		Finishes: make([]float64, len(reqs)),
		Latency:  make([]float64, len(reqs)),
	}
	for i := range r.out.Finishes {
		r.out.Finishes[i] = -1
	}
	if r.binds == nil {
		r.binds = make(map[string]progBinding, len(n.Programs))
	}
	for m, p := range n.Programs { //det:mapiter-ok builds a map from a map; contents are iteration-order-insensitive
		r.binds[m] = progBinding{prog: p, iso: float64(p.Table(total).TotalCycles) / r.cps}
	}

	reg := n.Obs.Registry()
	r.trace, r.tracer, r.reg = n.Trace, n.Obs.Tracer(), reg
	r.c = counters{
		requests: reg.Counter("sim_requests_total"),
		done:     reg.Counter("sim_completions_total"),
		preempt:  reg.Counter("sim_preemptions_total"),
		sched:    reg.Counter("sim_sched_events_total"),
		kills:    reg.Counter("sim_kills_total"),
		retries:  reg.Counter("sim_retries_total"),
		sheds:    reg.Counter("sim_sheds_total"),
		rejects:  reg.Counter("sim_rejects_total"),
		faults:   reg.Counter("fault_events_total"),
		alive:    reg.Gauge("fault_alive_subarrays"),
		depth:    reg.Gauge("sim_queue_depth_max"),
	}
	r.lastDepth, r.lastRunning = -1, -1
	if reg != nil {
		// Per-model latency histograms are interned on first completion.
		r.latHists = make(map[string]*obs.Histogram, len(n.Programs))
	}
	// The ledger is resized to the input so stamps address records by the
	// positions the Outcome uses.
	r.led, r.occ = n.Attrib, n.Occ
	if r.led != nil {
		r.led.Reset(len(reqs))
	}
	if r.occ != nil {
		r.occ.SetUnits(int64(total))
	}
	// A typical request contributes arrival + alloc + finish plus a queue
	// sample; reserving 4 events per request keeps steady-state tracing
	// off the allocator.
	r.trace.Reserve(4 * len(reqs))

	r.sliceAlloc, _ = n.Policy.(SliceAllocator)
	// Elastic re-fission (DESIGN.md §16) is decided once per run: only an
	// active Refissioner gets scheduling wakeups, and only then are the
	// refission counters registered, so other runs export no such series.
	r.refAt = math.Inf(1)
	if rf, ok := n.Policy.(Refissioner); ok && rf.RefissionActive() {
		r.refis = rf
		r.c.refis = reg.Counter("sim_refissions_total")
		r.c.refisGrow = reg.Counter("sim_refission_grows_total")
		r.c.refisShrink = reg.Counter("sim_refission_shrinks_total")
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

// admit moves the arrivals and retries due at r.now into the active set.
// A request for a model without a program is rejected, and admission
// control may shed an arrival or a retry instead of queueing it.
func (r *run) admit() {
	for r.next < len(r.reqs) {
		pos := r.pos(r.next)
		q := &r.reqs[pos]
		if !simtime.Due(q.Arrival, r.now) {
			break
		}
		r.next++
		if r.trace != nil {
			r.trace.record(Event{Time: q.Arrival, Kind: EvArrival, Task: q.ID, Model: q.Model})
		}
		r.c.requests.Inc()
		bind, ok := r.binds[q.Model]
		if !ok {
			if r.trace != nil {
				r.trace.record(Event{Time: q.Arrival, Kind: EvReject, Task: q.ID, Model: q.Model})
			}
			r.c.rejects.Inc()
			r.out.Rejected++
			if r.led != nil {
				r.led.Terminal(pos, q.Arrival, q.Arrival, obs.PhaseQueueWait, obs.CauseRejected)
			}
			continue
		}
		if r.n.shouldShed(r.now, bind.prog, q, r.total, len(r.tasks)) {
			r.shed(r.now, q, pos, nil, obs.CauseShedChip)
			continue
		}
		t := &r.arena[r.used]
		r.used++
		// Field writes rather than a composite literal: the literal
		// materializes a 200-byte temporary and block-copies it into the
		// arena slot on every admit.
		t.ID = q.ID
		t.Req = *q
		t.Prog = bind.prog
		t.Layer, t.Frac = 0, 0
		t.Alloc, t.PenaltyCycles = 0, 0
		t.Finish = -1
		t.EnergyJ = 0
		t.Preemptions = 0
		t.iso = bind.iso
		t.pos = pos
		t.Attempts = 0
		if r.led != nil {
			r.led.Open(pos, q.Arrival, obs.PhaseQueueWait)
			t.phase = obs.PhaseQueueWait
		}
		r.tasks = append(r.tasks, t)
	}
	// Killed tasks whose backoff has elapsed rejoin the queue; a task
	// whose prospects died with the chip's capacity is shed here.
	for r.retryQ.Len() > 0 && simtime.Due(r.retryQ.peek().at, r.now) {
		t := r.retryQ.pop().t
		if r.n.shouldShed(r.now, t.Prog, &t.Req, r.total, len(r.tasks)) {
			r.shed(r.now, &t.Req, t.pos, t, obs.CauseShedRetries)
			continue
		}
		if r.trace != nil {
			r.trace.record(Event{Time: r.now, Kind: EvRetry, Task: t.ID, Model: t.Req.Model, Attempt: t.Attempts})
		}
		if r.led != nil {
			r.led.Mark(t.pos, r.now, obs.PhaseQueueWait)
			t.phase = obs.PhaseQueueWait
		}
		r.tasks = append(r.tasks, t)
	}
}

// shed stamps request q (input position pos) as shed at instant at and
// charges the energy its task t consumed; t is nil for a request that was
// never admitted. The ledger record of a never-admitted request opens at
// its arrival and closes at once. An admitted request out of retries
// closes its open record; one drained off a dead chip ends it with a
// zero-length queue-wait phase.
func (r *run) shed(at float64, q *workload.Request, pos int, t *Task, cause obs.Cause) {
	attempt, energyJ := 0, 0.0
	if t != nil {
		attempt, energyJ = t.Attempts, t.EnergyJ
	}
	if r.trace != nil {
		r.trace.record(Event{Time: at, Kind: EvShed, Task: q.ID, Model: q.Model, Attempt: attempt})
	}
	r.c.sheds.Inc()
	r.out.Shed++
	r.out.EnergyJ += energyJ
	if r.led != nil {
		switch {
		case cause == obs.CauseShedRetries:
			r.led.Close(pos, at, cause)
		case t == nil:
			r.led.Terminal(pos, q.Arrival, at, obs.PhaseQueueWait, cause)
		default:
			r.led.Terminal(pos, at, at, obs.PhaseQueueWait, cause)
		}
	}
}

// kill resets a fault victim's progress and re-enqueues it after its
// backoff, or sheds it once it has used up MaxAttempts.
func (r *run) kill(t *Task) {
	t.Attempts++
	t.Alloc, t.Layer, t.Frac, t.PenaltyCycles = 0, 0, 0, 0
	if r.trace != nil {
		r.trace.record(Event{Time: r.now, Kind: EvKill, Task: t.ID, Model: t.Req.Model, Attempt: t.Attempts})
	}
	r.c.kills.Inc()
	r.out.Killed++
	if r.tracer != nil {
		r.tracer.Instant("faults", fmt.Sprintf("kill task %d (attempt %d)", t.ID, t.Attempts), r.now,
			obs.Str("model", t.Req.Model), obs.Num("attempt", float64(t.Attempts)))
		r.tracer.Counter(taskTrack(t.ID), "subarrays", r.now, 0)
	}
	if r.n.MaxAttempts > 0 && t.Attempts > r.n.MaxAttempts {
		r.shed(r.now, &t.Req, t.pos, t, obs.CauseShedRetries)
		return
	}
	if r.led != nil {
		r.led.Mark(t.pos, r.now, obs.PhaseRetryBackoff)
		t.phase = obs.PhaseRetryBackoff
	}
	r.retryQ.push(retryEntry{t: t, at: r.now + r.n.backoff(t.Attempts)})
	r.out.Retries++
	r.c.retries.Inc()
}

// applyFaults applies every fault transition due at or before r.now:
// records the transitions, kills the victims, and hands the updated
// health mask to a health-aware policy. No-op without an injector.
func (r *run) applyFaults() {
	n := r.n
	if n.Faults == nil {
		return
	}
	h := n.Faults.Health()
	prev := r.prevUsable[:0]
	for i := 0; i < h.Units(); i++ {
		prev = append(prev, h.UsableSub(i))
	}
	r.prevUsable = prev
	changes := n.Faults.AdvanceTo(r.now)
	if len(changes) == 0 {
		return
	}
	anyDown := false
	for _, ch := range changes {
		if !ch.Up {
			anyDown = true
		}
		if r.trace != nil {
			r.trace.record(Event{Time: ch.Time, Kind: EvFault, Unit: ch.Event.Unit, Up: ch.Up, Model: ch.Event.Kind.String()})
		}
		r.c.faults.Inc()
		r.out.FaultEvents++
		if r.tracer != nil {
			dir := "lands"
			if ch.Up {
				dir = "repairs"
			}
			r.tracer.Instant("faults", fmt.Sprintf("%s fault %s on unit %d", ch.Event.Kind, dir, ch.Event.Unit), ch.Time,
				obs.Str("kind", ch.Event.Kind.String()), obs.Num("unit", float64(ch.Event.Unit)))
		}
	}
	r.c.alive.Set(float64(h.Alive()))
	if r.tracer != nil {
		r.tracer.Counter("chip", "alive_subarrays", r.now, float64(h.Alive()))
	}
	victims := faultVictims(r.tasks, prev, h, n.FaultMode, anyDown)
	if len(victims) > 0 {
		dead := make(map[int]bool, len(victims))
		for _, v := range victims {
			r.kill(v)
			dead[v.ID] = true
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

// idle jumps the clock over an empty queue to the next arrival or retry
// and admits what is due there.
func (r *run) idle() {
	wake := math.Inf(1)
	if r.next < len(r.reqs) {
		wake = r.reqs[r.pos(r.next)].Arrival
	}
	if r.retryQ.Len() > 0 && r.retryQ.peek().at < wake {
		wake = r.retryQ.peek().at
	}
	if r.occ != nil && wake > r.now {
		// The whole chip sits idle (or masked) until the wakeup.
		r.occ.Interval(int64(math.Ceil((wake-r.now)*r.cps)), 0, 0, int64(r.total-r.n.capacity(r.total)))
	}
	// The queue emptied, so any pending re-fission wakeup is moot; clear
	// it so the jump target cannot coincide with a stale one.
	r.refAt = math.Inf(1)
	r.now = wake
	r.applyFaults()
	r.admit()
}

// awaitRepair handles a chip with every subarray masked: nothing can run
// until a repair, the only event that can change capacity, so the clock
// jumps there and the waiting tasks stall on the fault. It reports false
// when no repair is scheduled: the chip is permanently dead.
func (r *run) awaitRepair() bool {
	nc := r.n.Faults.NextChange(r.now)
	if math.IsInf(nc, 1) {
		return false
	}
	if r.led != nil {
		for _, t := range r.tasks {
			if t.phase != obs.PhaseFaultStall {
				r.led.Mark(t.pos, r.now, obs.PhaseFaultStall)
				t.phase = obs.PhaseFaultStall
			}
		}
	}
	if r.occ != nil && nc > r.now {
		r.occ.Interval(int64(math.Ceil((nc-r.now)*r.cps)), 0, 0, int64(r.total))
	}
	r.now = nc
	return true
}

// drainDeadChip ends the run on a permanently dead chip: no queued,
// retrying, or still-to-arrive request can ever be served, so every one
// is shed. Their Finishes stay -1 and count against the SLA.
func (r *run) drainDeadChip() {
	for _, t := range r.tasks {
		r.shed(r.now, &t.Req, t.pos, t, obs.CauseShedDeadChip)
	}
	r.tasks = r.tasks[:0]
	for r.retryQ.Len() > 0 {
		t := r.retryQ.pop().t
		r.shed(r.now, &t.Req, t.pos, t, obs.CauseShedDeadChip)
	}
	for ; r.next < len(r.reqs); r.next++ {
		pos := r.pos(r.next)
		q := &r.reqs[pos]
		if r.trace != nil {
			r.trace.record(Event{Time: q.Arrival, Kind: EvArrival, Task: q.ID, Model: q.Model})
		}
		r.c.requests.Inc()
		r.shed(q.Arrival, q, pos, nil, obs.CauseShedDeadChip)
	}
}

// schedule invokes the policy at r.now over capNow usable subarrays and
// applies its allocation: every change is traced and counted (as an
// elastic re-fission at the Refissioner's wakeup, as a preemption of a
// running task otherwise), re-allocation penalties are charged, and
// attribution phases are stamped. It returns the number of running tasks.
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
	r.c.sched.Inc()
	// The loop woke exactly at the Refissioner's requested time (step
	// folds refAt into the next-event minimum, so equality is exact).
	atRef := r.refis != nil && now == r.refAt
	running, inUse := 0, 0
	for i, t := range tasks {
		na := alloc[i]
		if na != t.Alloc {
			if r.trace != nil {
				r.trace.record(Event{Time: now, Kind: EvAlloc, Task: t.ID, Model: t.Req.Model, Alloc: na})
			}
			wasRunning := t.Alloc > 0 && !t.Done()
			if atRef && !t.Done() {
				// An elastic resize at a tile boundary: grow a starved task
				// into freed subarrays or shrink an SLA-beating donor.
				// Recorded as EvRefission instead of EvPreempt; the
				// preemption counter still ticks for running tasks
				// (applyRealloc charges them and bumps Preemptions).
				if r.trace != nil {
					r.trace.record(Event{Time: now, Kind: EvRefission, Task: t.ID, Model: t.Req.Model, Alloc: na})
				}
				r.c.refis.Inc()
				if na > t.Alloc {
					r.c.refisGrow.Inc()
				} else {
					r.c.refisShrink.Inc()
				}
				r.out.Refissions++
				if wasRunning {
					r.c.preempt.Inc()
				} else if na > 0 {
					// Growing a stalled task mid-run is not free: the freed
					// subarrays swap in its configuration and prefetch its
					// instructions (§IV-C) before work resumes. Ordinary-event
					// dispatches of queued tasks stay free.
					t.PenaltyCycles += int64(float64(n.Cfg.ConfigSwapCycles(na)) * r.penScale)
				}
				if r.tracer != nil {
					r.tracer.Instant("sched", fmt.Sprintf("refission task %d -> %d", t.ID, na), now,
						obs.Str("model", t.Req.Model), obs.Num("subarrays", float64(na)))
				}
			} else if wasRunning {
				// A running task's allocation changed: a preemption (full,
				// on PREMA's context switch; partial, on a Planaria
				// re-fission).
				if r.trace != nil {
					r.trace.record(Event{Time: now, Kind: EvPreempt, Task: t.ID, Model: t.Req.Model, Alloc: na})
				}
				r.c.preempt.Inc()
				if r.tracer != nil {
					r.tracer.Instant("sched", fmt.Sprintf("preempt task %d -> %d", t.ID, na), now,
						obs.Str("model", t.Req.Model), obs.Num("subarrays", float64(na)))
				}
			}
			if r.tracer != nil {
				r.tracer.Counter(taskTrack(t.ID), "subarrays", now, float64(na))
			}
		}
		t.applyRealloc(int64(na), &n.Cfg, r.penScale)
		if r.led != nil {
			// Allocated and penalty-free means computing, allocated but
			// draining a re-allocation penalty means preempt-stall,
			// unallocated means queued. Stamp only actual transitions so
			// steady state adds no marks.
			ph := obs.PhaseQueueWait
			if t.Alloc > 0 {
				if t.PenaltyCycles > 0 {
					ph = obs.PhasePreemptStall
				} else {
					ph = obs.PhaseCompute
				}
			}
			if ph != t.phase {
				r.led.Mark(t.pos, now, ph)
				t.phase = ph
			}
		}
		if t.Alloc > 0 {
			running++
			inUse += t.Alloc
		}
	}
	if running == 0 {
		return 0, fmt.Errorf("sim: policy %s stalled all %d tasks", n.Policy.Name(), len(tasks))
	}
	if r.lastDepth != len(tasks) || r.lastRunning != running {
		r.lastDepth, r.lastRunning = len(tasks), running
		if r.trace != nil {
			r.trace.record(Event{Time: now, Kind: EvQueue, Depth: r.lastDepth, Running: r.lastRunning})
		}
		r.c.depth.Max(float64(r.lastDepth))
		if r.tracer != nil {
			r.tracer.Counter("queue", "inflight", now, float64(r.lastDepth))
			r.tracer.Counter("queue", "running", now, float64(r.lastRunning))
		}
	}
	if r.tracer != nil {
		r.tracer.Counter("chip", "subarrays_in_use", now, float64(inUse))
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
	if r.occ != nil {
		// Occupancy in wall-cycles (not derate-scaled work cycles, so the
		// split is speed-independent): each allocated subarray is busy or,
		// while its task drains a re-allocation penalty, reconfiguring;
		// fault-masked subarrays are faulted; the rest idle.
		var busyU, reconfU int64
		for _, t := range tasks {
			if t.Alloc > 0 {
				if t.PenaltyCycles > 0 {
					reconfU += int64(t.Alloc)
				} else {
					busyU += int64(t.Alloc)
				}
			}
		}
		r.occ.Interval(int64(math.Ceil(dt*cps)), busyU, reconfU, int64(r.total-capNow))
	}
	for _, t := range tasks {
		if t.Alloc > 0 {
			t.advance(dtCycles, n.Params)
		}
	}
	r.now = next
	r.retire()
	return nil
}

// retire completes every task that finished its last layer and paid its
// penalties, writing its finish time and latency at its input position.
func (r *run) retire() {
	now := r.now
	kept := r.tasks[:0]
	for _, t := range r.tasks {
		if !t.Done() || t.PenaltyCycles > 0 {
			kept = append(kept, t)
			continue
		}
		t.Finish = now
		if r.trace != nil {
			r.trace.record(Event{Time: now, Kind: EvFinish, Task: t.ID, Model: t.Req.Model})
		}
		lat := now - t.Req.Arrival
		r.c.done.Inc()
		if r.reg != nil {
			h := r.latHists[t.Req.Model]
			if h == nil {
				h = r.reg.Histogram("sim_latency_seconds", obs.DurationBuckets(), obs.L("model", t.Req.Model))
				r.latHists[t.Req.Model] = h
			}
			h.Observe(lat)
		}
		if r.tracer != nil {
			r.tracer.Span(taskTrack(t.ID), fmt.Sprintf("req %d %s", t.ID, t.Req.Model),
				t.Req.Arrival, now,
				obs.Str("model", t.Req.Model),
				obs.Num("priority", float64(t.Req.Priority)),
				obs.Num("latency_ms", lat*1e3),
				obs.Num("deadline_ms", (t.Req.Deadline-t.Req.Arrival)*1e3),
				obs.Num("preemptions", float64(t.Preemptions)))
			r.tracer.Counter(taskTrack(t.ID), "subarrays", now, 0)
		}
		if r.led != nil {
			r.led.Close(t.pos, now, obs.CauseDone)
		}
		r.out.Finishes[t.pos] = now
		r.out.Latency[t.pos] = lat
		r.out.EnergyJ += t.EnergyJ
		r.out.Preemptions += t.Preemptions
		r.pp = appendPP(r.pp, t)
	}
	r.tasks = kept
}

// finish closes the outcome: makespan, chip leakage and fission-support
// overhead power over the busy time, fairness, and the SLA verdict.
func (r *run) finish() *Outcome {
	out, n := r.out, r.n
	out.Makespan = r.now - r.reqs[r.pos(0)].Arrival
	out.EnergyJ += (energy.LeakageWatts(n.Cfg, n.Params) + energy.OverheadWatts(n.Cfg)) * out.BusyTime
	out.Fairness = fairnessOf(r.pp, r.prioSum)
	out.MeetsSLA = workload.MeetsSLA(r.reqs, out.Finishes)
	return out
}

// taskTrack names one request's timeline track; zero-padded so Perfetto's
// lexicographic track ordering matches request IDs.
func taskTrack(id int) string {
	return fmt.Sprintf("task %03d", id)
}

// ppEntry carries one finished task's normalized progress for fairness.
type ppEntry struct {
	priority int
	iso      float64
	multi    float64
}

// progBinding is one model's interned admission state: its compiled
// program and the isolated full-chip run time used by the fairness
// metric.
type progBinding struct {
	prog *compiler.Program
	iso  float64
}

func appendPP(pp []ppEntry, t *Task) []ppEntry {
	return append(pp, ppEntry{
		priority: t.Req.Priority,
		iso:      t.iso,
		multi:    t.Finish - t.Req.Arrival,
	})
}

// fairnessOf computes PREMA's fairness metric:
// PP_i = (T_iso / T_multi) / (priority_i / Σ priority), fairness =
// min_{i,j} PP_i / PP_j = min PP / max PP.
func fairnessOf(pp []ppEntry, prioSum float64) float64 {
	if len(pp) < 2 {
		return 1
	}
	minPP, maxPP := math.Inf(1), 0.0
	for _, e := range pp {
		if e.multi <= 0 {
			continue
		}
		v := (e.iso / e.multi) / (float64(e.priority) / prioSum)
		if v < minPP {
			minPP = v
		}
		if v > maxPP {
			maxPP = v
		}
	}
	if maxPP == 0 || math.IsInf(minPP, 1) {
		return 1
	}
	return minPP / maxPP
}
