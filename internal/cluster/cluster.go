// Package cluster is the deterministic multi-chip serving front end: it
// dispatches one Poisson request stream across N independent accelerator
// chips — each chip a sim.Node running either the Planaria spatial
// scheduler or the PREMA baseline — through three stages:
//
//  1. Admission: per-QoS-level token buckets (simulated-time refill) with
//     a bounded wait queue; overflow sheds deterministically, with the
//     cause obs.CauseShedAdmission.
//  2. Dynamic batching: per-model batch windows fuse requests that arrive
//     within BatchWindow (capped at MaxBatch) into one chip request that
//     shares a single allocation; completions fan back out to every
//     member. A fused batch of k costs 1 + α·(k−1) single inferences
//     (weight reuse amortizes the re-fetch, compute still scales).
//  3. Load balancing: one of three policies (round-robin,
//     least-outstanding-work, model-affinity rendezvous hashing) picks a
//     healthy chip per dispatch; per-chip fault schedules mask dead chips
//     out of the routable set, so routing goes around failures.
//
// Everything advances on simulated time only and every tie is broken
// explicitly, so a cluster run at a fixed seed is byte-reproducible
// (the package is in planaria-vet's deterministic set). A 1-chip cluster
// with admission and batching disabled is a bit-exact pass-through to
// sim.Node.Run — the conformance tests pin that identity.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"unsafe"

	"planaria/internal/fault"
	"planaria/internal/metrics"
	"planaria/internal/obs"
	"planaria/internal/par"
	"planaria/internal/sim"
	"planaria/internal/simtime"
	"planaria/internal/workload"
)

// BatchAlpha is the marginal cost of each extra fused inference: batch k
// costs 1 + α·(k−1) single runs.
const BatchAlpha = 0.35

// Config describes one cluster serving run.
type Config struct {
	// System is the chip template (architecture, compiled programs,
	// energy constants, and the per-chip scheduling policy constructor).
	System metrics.System
	// Chips is the cluster size (>= 1).
	Chips int
	// Policy names the load-balancing policy (see PolicyName); empty
	// means "least-work".
	Policy string

	// BatchWindow is the per-model batching window in simulated seconds.
	// <= 0 disables the batching stage entirely (every request dispatches
	// at its admit instant, untouched); NaN and +Inf are errors.
	BatchWindow float64
	// MaxBatch caps a batch's size; reaching it closes the window early.
	// <= 0 means unbounded. A batch's work follows BatchAlpha.
	MaxBatch int

	// Admission maps QoS level name → token bucket. Nil or empty
	// disables admission control. Levels without a bucket fall back to
	// the "" bucket when present and admit freely otherwise.
	Admission map[string]TokenBucket

	// Scale, when non-nil, turns the fixed fleet into an autoscaled one:
	// Chips becomes the slot ceiling and a ScaleController moves the
	// active count between Scale.Min and Chips, with simulated boot
	// latency on the way up and graceful drain (migrate queued work,
	// finish in-flight, retire) on the way down. Nil keeps the exact
	// static-fleet behavior. See autoscale.go / DESIGN.md §15.
	Scale *Autoscale

	// Faults holds one fault schedule per chip (nil entries = healthy
	// chip). Nil disables fault injection cluster-wide.
	Faults []*fault.Schedule
	// FaultMode selects each chip's degradation mode (fission for
	// Planaria, derate for the PREMA baseline).
	FaultMode sim.FaultMode
	// Shed is each chip's local admission-control policy.
	Shed sim.ShedPolicy

	// Observe attaches a fresh timeline to every chip node and its
	// policy (exposed on ChipResult.Timeline for artifact comparison).
	Observe bool
	// ChipTraces attaches a sim.Trace to every chip node (exposed on
	// ChipResult.Trace).
	ChipTraces bool
	// Attrib enables SLA root-cause attribution (DESIGN.md §14): a
	// front-door phase ledger over the input stream, a per-chip ledger
	// and occupancy accountant on every node, and the chip/position
	// links joining them, exposed on Outcome.Attrib. Off by default.
	Attrib bool
}

// validate checks the configuration against the request stream.
func (c *Config) validate() error {
	if c.Chips < 1 {
		return fmt.Errorf("cluster: need at least 1 chip, got %d", c.Chips)
	}
	if c.System.NewPolicy == nil {
		return fmt.Errorf("cluster: system %q has no policy constructor", c.System.Name)
	}
	if math.IsNaN(c.BatchWindow) || math.IsInf(c.BatchWindow, 1) {
		return fmt.Errorf("cluster: BatchWindow %g is not a finite time", c.BatchWindow)
	}
	if c.Faults != nil && len(c.Faults) != c.Chips {
		return fmt.Errorf("cluster: %d fault schedules for %d chips", len(c.Faults), c.Chips)
	}
	if c.Scale != nil {
		if err := c.Scale.validate(c.Chips); err != nil {
			return err
		}
	}
	if c.FaultMode == sim.FaultFission {
		units := c.System.Cfg.NumSubarrays()
		for i, s := range c.Faults {
			if s != nil && s.Units != units {
				return fmt.Errorf("cluster: chip %d fault schedule has %d units, config has %d subarrays",
					i, s.Units, units)
			}
		}
	}
	return nil
}

// ChipResult is one chip's share of a cluster run.
type ChipResult struct {
	// Requests is the dispatch stream the chip served (merged batch
	// leaders, in dispatch order).
	Requests []workload.Request
	// Outcome is the chip's simulation outcome, nil when the chip
	// received no requests.
	Outcome *sim.Outcome
	// Trace is the chip's serving timeline (nil unless Config.ChipTraces).
	Trace *sim.Trace
	// Timeline is the chip's private timeline, carrying the engine's
	// tracks and the policy's decision instants (nil unless
	// Config.Observe).
	Timeline *obs.TraceBuilder
	// Attrib is the chip's phase ledger, indexed like Requests (nil
	// unless Config.Attrib).
	Attrib *obs.Ledger
	// Occ is the chip's subarray-cycle occupancy accountant (nil unless
	// Config.Attrib).
	Occ *obs.Occupancy
}

// Outcome aggregates one cluster run over the original request stream.
type Outcome struct {
	// Finishes[i] / Latency[i] are indexed like the input slice;
	// Finishes[i] = −1 marks a request that never completed. A batched
	// request's latency runs from its own arrival to the shared batch
	// completion.
	Finishes []float64
	Latency  []float64

	// Terminal-state conservation: every request lands in exactly one of
	// these five tallies, so
	// Completed + ShedFront + ShedChips + Rejected + ShedDrain == len(reqs)
	// (ShedDrain is zero on static fleets).
	Completed int
	// ShedFront counts front-door declines: admission-bucket overflow
	// plus dispatches with no healthy chip left.
	ShedFront int
	// ShedChips counts requests (expanded to batch members) whose chip
	// shed them locally — doomed-deadline declines, retry-budget
	// exhaustion, and dead-chip drains.
	ShedChips int
	// Rejected counts requests for models no chip has a program for.
	Rejected int
	// ShedDrain counts requests queued on a draining chip with no
	// routable chip left to migrate to (autoscaled runs only).
	ShedDrain int
	// Migrated counts requests pulled off a draining chip and re-routed.
	// Informational, not part of the conservation partition: a migrated
	// request still terminates in one of the five tallies above.
	Migrated int

	// Killed/Retries/FaultEvents total the chips' fault tallies.
	Killed      int
	Retries     int
	FaultEvents int

	// Batches counts dispatch groups; BatchedReqs counts requests that
	// shared a batch of size >= 2; MeanBatchSize is members per dispatch.
	Batches       int
	BatchedReqs   int
	MeanBatchSize float64

	// Dispatched[c] counts dispatch groups routed to chip c.
	Dispatched []int

	// EnergyJ totals chip energy; Makespan spans first arrival to last
	// completion; MeetsSLA / DeadlineFrac apply the MLPerf server
	// criterion over the original stream.
	EnergyJ      float64
	Makespan     float64
	MeetsSLA     bool
	DeadlineFrac float64

	// PerChip holds each chip's share.
	PerChip []*ChipResult

	// Fleet is the autoscaled run's chip-lifecycle log (nil on static
	// fleets); Fleet.ChipSeconds costs the run in chip-time.
	Fleet *obs.Fleet

	// Attrib joins the front-door ledger with the per-chip ledgers (nil
	// unless Config.Attrib). See Outcome.AttribReport.
	Attrib *Attribution
}

// healthSteps is a chip's precomputed alive-subarray step function,
// replayed once from its fault schedule so the balancer can consult chip
// health at any dispatch instant without running the chip first.
type healthSteps struct {
	times []float64
	alive []int
}

// healthStepsOf replays a schedule into its step function. Nil (or
// empty) schedules yield nil: the chip is always fully alive.
//
//perf:cold per-run setup: health timelines build once before the serving loop
func healthStepsOf(s *fault.Schedule) (*healthSteps, error) {
	if s.Empty() {
		return nil, nil
	}
	in, err := fault.NewInjector(s)
	if err != nil {
		return nil, err
	}
	h := &healthSteps{}
	at := -1.0
	for in.Pending() {
		next := in.NextChange(at)
		if math.IsInf(next, 1) {
			break
		}
		in.AdvanceTo(next)
		h.times = append(h.times, next)
		h.alive = append(h.alive, in.Health().Alive())
		at = next
	}
	return h, nil
}

// aliveAt returns the chip's usable subarray count at time t.
func (h *healthSteps) aliveAt(t float64, total int) int {
	if h == nil {
		return total
	}
	// Last step at or before t.
	idx := sort.Search(len(h.times), func(i int) bool { return simtime.After(h.times[i], t) })
	if idx == 0 {
		return total
	}
	return h.alive[idx-1]
}

// chip is one chip's routing state in the front end.
type chip struct {
	health *healthSteps
	// busyUntil is the estimated instant the chip's dispatched work is
	// done; groups is the number of dispatch groups placed on the chip,
	// which is also the next group's position in its request slice.
	busyUntil float64
	groups    int
}

// backlog is the chip's estimated outstanding work at instant t.
func (c *chip) backlog(t float64) float64 { return max(c.busyUntil-t, 0) }

// dispatchRec is one routed dispatch group: the chip it went to, its
// position within the chip's request slice, and the run of the member
// arena holding the input indices whose completions fan out from it. The
// merged request's adjusted fields are captured as scalars at routing
// time so the layout phase can rebuild it straight into the escaping
// backing array — a leader copy, plus five scalar writes when merged is
// set. The record holds no pointers, so the dispatch buffer costs the
// garbage collector nothing to scan.
// On autoscaled runs chip can also be a tombstone: -1 marks a group shed
// during a drain (ShedDrain), -2 a group migrated away (a later record
// serves its members); both are skipped by the layout and merge phases.
type dispatchRec struct {
	chip     int
	pos      int     // position within the chip's request slice
	first, n int32   // members are arena[first : first+n]
	prio     int32   // merged Priority (highest member)
	merged   bool    // the dispatched request differs from its leader's record
	cost     float64 // estimated service seconds added to the chip's backlog
	at       float64 // dispatch instant, the merged Arrival
	deadline float64 // merged Deadline (tightest member)
	work     float64 // merged Work (fused batch cost multiplier)
}

// openBatch is one in-flight batching window.
type openBatch struct {
	model   int32 // interned model ID (see columns.mids)
	closeAt float64
	members []int
	closed  bool
}

// windows is the batching stage's state: the window open per model, the
// FIFO of windows in close order and a free list of recycled windows.
// The handful of concurrently open windows (one per model) lives in a
// small list: a linear scan beats per-admit string hashing. The FIFO
// advances by head index, not by re-slicing: a queue[1:] walk marches
// the append head off the backing array and allocates a fresh tiny slice
// per window. Draining rewinds to the front, and in-place compaction
// bounds the backing at the open-window high-water mark; both preserve
// FIFO order exactly.
type windows struct {
	open  []*openBatch
	queue []*openBatch
	head  int
	free  []*openBatch
}

// model is one interned model: its name, whether the system has a
// program for it, and its isolated full-chip execution time, the unit of
// the routing backlog estimate (the same estimate metrics.MinNodes uses).
type model struct {
	name  string
	known bool
	iso   float64
}

// columns are the per-request fields of the input stream that the later
// stages read, filled in start's one pass over the records, which also
// validates them. Later passes then touch a few bytes per request instead
// of the whole 96-byte record. ats and ord are filled by admission.
type columns struct {
	arrs, dls []float64
	works     []float64 // raw Work: 0 means 1
	prios     []int32
	mids      []int32 // model IDs, indexing models
	doms      []int32 // domain IDs, indexing domNames
	domNames  []string
	models    []model   // interned in first-sight order
	ats       []float64 // admit instants when admission control is on
	ord       []int32   // backing of run.order
}

// run is the state of one cluster.Run: the input columns, admission and
// batching state, per-chip routing state, the dispatch records, the
// outcome and the views. Each stage is one method. Run takes the
// state from runPool, so back-to-back runs (sweeps, benchmarks) reuse its
// large buffers instead of paying a large-allocation zeroing tax per run.
// Every buffer is appended from empty or fully rewritten before it is
// read, so stale contents cannot influence a run.
type run struct {
	cfg      Config
	reqs     []workload.Request
	pol      policy
	adm      *admissionState
	asc      *autoscaler
	out      *Outcome
	total    int // subarrays per chip
	batching bool
	maxBatch int

	col          columns
	firstArrival float64
	// order is the admission order: order[k] is the input position of the
	// k-th admitted request. It is nil when every request is admitted in
	// input order. instants[i] is request i's admit instant: the arrival
	// column, or admission control's own column.
	order    []int32
	instants []float64

	chips        []chip
	rrNext       int // round-robin cursor
	win          windows
	dispatches   []dispatchRec
	ends         []float64 // autoscaled runs: estimated completion per record
	arena        []int     // member lists of every dispatch group
	membersTotal int       // members over all live dispatch groups
	errs         []error   // per-chip simulation errors

	// observed guards every per-request emit: Attrib is on.
	observed bool
	views
}

var runPool = sync.Pool{New: func() any { return new(run) }}

// release drops the run's references to the caller's requests,
// configuration and sinks before the state goes back to the pool. It
// keeps only the reusable buffers; every other field is back at its zero
// value, which start relies on.
func (r *run) release() {
	clear(r.chips)
	clear(r.errs)
	*r = run{
		col: columns{
			arrs: r.col.arrs[:0], dls: r.col.dls[:0], works: r.col.works[:0],
			prios: r.col.prios[:0], mids: r.col.mids[:0], doms: r.col.doms[:0],
			models: r.col.models[:0], ats: r.col.ats[:0], ord: r.col.ord[:0],
		},
		chips:      r.chips[:0],
		win:        windows{open: r.win.open[:0], queue: r.win.queue[:0], free: r.win.free},
		dispatches: r.dispatches[:0],
		ends:       r.ends[:0],
		arena:      r.arena[:0],
		errs:       r.errs[:0],
	}
}

// drainHeadroom is the number of migrated-group records an unbatched
// autoscaled run reserves beyond one dispatch record per request. Sized
// at exactly n, the first migration would regrow, and so copy, both
// whole buffers: about 128 MB for the 1.6M-request 24 h trace of
// experiments.DefaultAutoscaleTrace. On that trace, seeds 1–10, a run
// makes over 200 drains and migrates one group in total (seed 1; none
// on the others), so 64 records leave a wide margin; a run that
// migrates more regrows them, as append does.
const drainHeadroom = 64

// grow returns buf emptied with capacity for at least n elements.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// Run serves the request stream through the cluster front end and the N
// chip simulations, then merges per-chip outcomes back onto the original
// stream. Requests must have unique IDs; each is dispatched to at most
// one chip.
//
//perf:hot cluster front-end steady state: admit/batch/dispatch per request without allocating (DESIGN.md §13)
func Run(cfg Config, reqs []workload.Request) (*Outcome, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("cluster: no requests")
	}
	r := runPool.Get().(*run)
	defer runPool.Put(r)
	defer r.release()
	if err := r.frontDoor(cfg, reqs); err != nil {
		return nil, err
	}
	par.PerItem(cfg.Chips, r.runChip)
	if err := par.FirstError(r.errs); err != nil {
		return nil, err
	}
	out := r.merge()
	return out, nil
}

// frontDoor binds the run to a validated configuration and a non-empty
// stream, and runs every stage before the chips: start, admission, the
// walk and the per-chip layout.
func (r *run) frontDoor(cfg Config, reqs []workload.Request) error {
	r.cfg, r.reqs = cfg, reqs
	r.chips, r.errs = grow(r.chips, cfg.Chips)[:cfg.Chips], grow(r.errs, cfg.Chips)[:cfg.Chips]
	if err := r.start(); err != nil {
		return err
	}
	r.admit()
	r.walk()
	r.layout()
	return nil
}

// start binds the run to its input and configuration. Its one pass over
// the requests validates them and fills the stream's columns; only then
// come the balancing policy, the admission buckets, the per-chip health
// timelines, the batching parameters, the autoscaler, and the views, so
// a malformed request is reported before any configuration error and
// before any sink sees an event.
//
//perf:cold per-run setup: runs once before the admit walk
func (r *run) start() error {
	cfg, n := &r.cfg, len(r.reqs)
	r.total = cfg.System.Cfg.NumSubarrays()
	r.out = &Outcome{
		Finishes:   make([]float64, n),
		Latency:    make([]float64, n),
		Dispatched: make([]int, cfg.Chips),
		PerChip:    make([]*ChipResult, cfg.Chips),
	}
	if err := r.scan(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	var err error
	if r.pol, err = parsePolicy(cmp.Or(cfg.Policy, "least-work")); err != nil {
		return err
	}
	if r.adm, err = newAdmissionState(cfg.Admission); err != nil {
		return err
	}
	for i := range r.chips {
		if cfg.Faults != nil {
			if r.chips[i].health, err = healthStepsOf(cfg.Faults[i]); err != nil {
				return err
			}
		}
	}
	r.batching = cfg.BatchWindow > 0
	r.maxBatch = cfg.MaxBatch
	if r.maxBatch <= 0 {
		r.maxBatch = math.MaxInt32
	}
	if cfg.Scale != nil {
		r.asc = newAutoscaler(cfg.Scale, cfg.Chips)
	}
	results := make([]ChipResult, cfg.Chips)
	for i := range results {
		r.out.PerChip[i] = &results[i]
	}
	r.attach()

	// Without batching every admit is its own dispatch group, so the
	// record count is known; batched runs grow the buffer from its
	// previous high-water mark. An autoscaled run also appends a record
	// per group a drain migrates (see drainHeadroom).
	r.arena = grow(r.arena, n)
	groups := 0
	if !r.batching {
		groups = n
		if r.asc != nil {
			groups += drainHeadroom
		}
	}
	r.dispatches = grow(r.dispatches, groups)
	if r.asc != nil {
		r.ends = grow(r.ends, groups)
	}
	return nil
}

// scan is the one pass over the input records. It validates each with
// workload.Validate's rules and errors, and fills everything the later
// stages read: the arrival, deadline, raw work and priority columns, the
// model and domain IDs, the earliest arrival, the not-yet-completed
// marker, and the arrival order. Models and domains intern in first-sight
// order; a serving mix has a handful of each.
func (r *run) scan() error {
	reqs, col, n := r.reqs, &r.col, len(r.reqs)
	col.arrs, col.dls, col.works = grow(col.arrs, n)[:n], grow(col.dls, n)[:n], grow(col.works, n)[:n]
	col.prios, col.mids, col.doms = grow(col.prios, n)[:n], grow(col.mids, n)[:n], grow(col.doms, n)[:n]
	col.domNames = make([]string, 0, 8)
	chk := workload.NewChecker(reqs)
	sorted, last := true, 0.0
	r.firstArrival = math.Inf(1)
	for i := range reqs {
		if !chk.Clean(i) {
			if err := chk.Check(i); err != nil {
				return err
			}
		}
		q := &reqs[i]
		// A valid arrival is ≥ 0, so last can start at 0.
		if q.Arrival < last {
			sorted = false
		}
		last = q.Arrival
		col.arrs[i] = q.Arrival
		r.firstArrival = min(r.firstArrival, q.Arrival)
		col.dls[i], col.works[i], col.prios[i] = q.Deadline, q.Work, int32(q.Priority)
		col.mids[i] = r.intern(q.Model)
		dom := slices.Index(col.domNames, q.Domain)
		if dom < 0 {
			dom = len(col.domNames)
			col.domNames = append(col.domNames, q.Domain)
		}
		col.doms[i] = int32(dom)
		r.out.Finishes[i] = -1
	}
	// Requests arrive in arrival order, ties by input position. A sorted
	// stream — the generator's natural order — needs no permutation: the
	// stable sort would be the identity.
	r.instants = col.arrs
	if !sorted {
		col.ord = grow(col.ord, n)[:n]
		r.order = col.ord
		for i := range r.order {
			r.order[i] = int32(i)
		}
		slices.SortStableFunc(r.order, func(a, b int32) int { return cmp.Compare(col.arrs[a], col.arrs[b]) })
	}
	return nil
}

// intern returns the ID of the named model, its position in the run's
// first-sight model list. The handful of models makes a linear scan
// cheaper than hashing. Requests built from one model list share each
// name's bytes, so a first scan matches string headers alone: names of
// one length, such as "SSD-R" and "SSD-M", then cost no byte compare.
func (r *run) intern(name string) int32 {
	for i := range r.col.models {
		if m := r.col.models[i].name; len(m) == len(name) && unsafe.StringData(m) == unsafe.StringData(name) {
			return int32(i)
		}
	}
	for i := range r.col.models {
		if r.col.models[i].name == name {
			return int32(i)
		}
	}
	p, known := r.cfg.System.Programs[name]
	iso := 0.0
	if p != nil {
		iso = r.cfg.System.Cfg.Seconds(p.Table(r.total).TotalCycles)
	}
	r.col.models = append(r.col.models, model{name: name, known: known, iso: iso})
	return int32(len(r.col.models) - 1)
}

// admit is stage 1: every request, in arrival order, passes its QoS
// level's token bucket (or sheds at the front door) and is admitted at
// an instant. Without admission control every request is admitted at its
// arrival, in arrival order, which scan already recorded, so the loop runs
// only to emit the arrivals to an attached sink. With admission control
// the loop writes the admission order and the admit instant column.
func (r *run) admit() {
	if r.adm == nil && !r.observed {
		return
	}
	col, n := &r.col, len(r.reqs)
	arrivals, order := r.order, []int32(nil)
	if r.adm != nil {
		// The admitted requests are a subsequence of the arrival order, so
		// the admission order can overwrite the arrival permutation in place.
		order = arrivals[:0]
		if arrivals == nil {
			col.ord = grow(col.ord, n)
			order = col.ord
		}
		col.ats = grow(col.ats, n)[:n]
	}
	for k := range n {
		i := k
		if arrivals != nil {
			i = int(arrivals[k])
		}
		t := col.arrs[i]
		at, ok := t, true
		if r.adm != nil {
			at, ok = r.adm.admit(r.reqs[i].Level, t)
		}
		if r.observed {
			r.emit(event{kind: evArrival, time: t, req: int32(i)})
			if ok {
				r.emit(event{kind: evGrant, time: at, req: int32(i)})
			} else {
				r.emit(event{kind: evShed, cause: obs.CauseShedAdmission, time: t, req: int32(i)})
			}
		}
		if !ok {
			r.out.ShedFront++
			continue
		}
		if r.adm != nil {
			col.ats[i] = at
			order = append(order, int32(i))
		}
	}
	if r.adm == nil {
		return
	}
	// Only queueing buckets can reorder admits; the stable re-sort keeps
	// tied admits in admission order.
	ats := col.ats
	before := func(a, b int32) int { return cmp.Compare(ats[a], ats[b]) }
	if !slices.IsSortedFunc(order, before) {
		slices.SortStableFunc(order, before)
	}
	r.order, r.instants = order, ats
}

// walk is stages 2 and 3: one chronological pass over the admission
// order that interleaves autoscale control ticks, batching windows and
// dispatch. Control instants come first: batch windows close up to the
// tick, so the controller sees (and drains reassign) exactly the state a
// real front door would have at that instant.
func (r *run) walk() {
	n := len(r.reqs)
	if r.order != nil {
		n = len(r.order)
	}
	for k := range n {
		i := k
		if r.order != nil {
			i = int(r.order[k])
		}
		at := r.instants[i]
		if r.asc != nil {
			for at >= r.asc.nextTick {
				tk := r.asc.nextTick
				r.asc.nextTick += r.asc.cfg.IntervalS
				r.flush(tk)
				r.tick(tk)
			}
			r.asc.noteWait(at - r.col.arrs[i])
		}
		if !r.batching {
			r.arena = append(r.arena, i)
			r.dispatch(at, len(r.arena)-1, 1, r.col.mids[i])
			continue
		}
		r.flush(at)
		r.join(i, at)
	}
	r.flush(math.Inf(1))
}

// join adds request i, admitted at instant at, to its model's open batch
// window, opening one when none is open, and closes the window at once
// when it reaches MaxBatch. Windows open in admit order, so the FIFO is
// sorted by close time.
func (r *run) join(i int, at float64) {
	w, m := &r.win, r.col.mids[i]
	var b *openBatch
	for _, o := range w.open {
		if o.model == m {
			b = o
			break
		}
	}
	if b == nil {
		if n := len(w.free); n > 0 {
			b, w.free = w.free[n-1], w.free[:n-1]
			b.members = b.members[:0]
		} else {
			//perf:alloc-ok batch-object miss path; steady state recycles via the free list above
			b = &openBatch{members: make([]int, 0, min(r.maxBatch, 8))}
		}
		b.model, b.closeAt, b.closed = m, at+r.cfg.BatchWindow, false
		w.open = append(w.open, b)
		w.queue = append(w.queue, b)
	}
	b.members = append(b.members, i)
	if len(b.members) >= r.maxBatch {
		r.closeWindow(b, at)
	}
}

// flush closes, in FIFO order, every window due by instant until. A
// window closed early at MaxBatch is only recycled here.
func (r *run) flush(until float64) {
	w := &r.win
	for w.head < len(w.queue) {
		b := w.queue[w.head]
		if !b.closed && simtime.After(b.closeAt, until) {
			if w.head > 64 && 2*w.head >= len(w.queue) {
				w.queue = w.queue[:copy(w.queue, w.queue[w.head:])]
				w.head = 0
			}
			return
		}
		w.head++
		if !b.closed {
			r.closeWindow(b, b.closeAt)
		}
		w.free = append(w.free, b)
	}
	w.queue, w.head = w.queue[:0], 0
}

// closeWindow takes window b off the open list and dispatches its
// members at instant tD. The members are copied into the arena so the
// window can be recycled.
func (r *run) closeWindow(b *openBatch, tD float64) {
	w := &r.win
	b.closed = true
	i := slices.Index(w.open, b)
	w.open = slices.Delete(w.open, i, i+1)
	first := len(r.arena)
	r.arena = append(r.arena, b.members...)
	r.dispatch(tD, first, len(b.members), b.model)
}

// dispatch merges one group — arena[first:first+k], all of model — into
// a single chip request at instant tD and routes it: the
// merged request takes the tightest deadline and highest priority of its
// members, and a fused batch of k costs 1 + α·(k−1) single inferences.
// A lone request dispatched at its arrival goes out as its own record.
func (r *run) dispatch(tD float64, first, k int, model int32) {
	col := &r.col
	members := r.arena[first : first+k]
	l := members[0]
	// The merged request exists only as scalars here: layout rebuilds the
	// dispatched Request from the leader plus these values.
	deadline, prio, work := col.dls[l], col.prios[l], col.works[l]
	mw := work
	if mw == 0 {
		mw = 1
	}
	merged := k > 1 || tD != col.arrs[l]
	if merged {
		for _, m := range members[1:] {
			if d := col.dls[m]; d < deadline {
				deadline = d
			}
			prio = max(prio, col.prios[m])
		}
		if k > 1 {
			mw *= 1 + BatchAlpha*float64(k-1)
			work = mw
		}
	}
	c := r.route(tD, model)
	if c < 0 {
		if r.observed {
			r.emit(event{kind: evShed, cause: obs.CauseShedUnroutable, time: tD, first: int32(first), n: int32(k)})
		}
		r.out.ShedFront += k
		return
	}
	pos := r.place(dispatchRec{
		chip: c, first: int32(first), n: int32(k), prio: prio, merged: merged,
		cost: col.models[model].iso * mw, at: tD, deadline: deadline, work: work,
	})
	if r.observed {
		r.emit(event{kind: evDispatch, time: tD, first: int32(first), n: int32(k), chip: int32(c), pos: int32(pos)})
	}
	r.out.Batches++
	r.membersTotal += k
	if k > 1 {
		r.out.BatchedReqs += k
	}
}

// place books a routed group on its chip: the chip's backlog grows by
// the group's cost from its dispatch instant, and the record takes the
// chip's next position, which place returns. On autoscaled runs the
// estimated completion and the slot's pending-group queue let a later
// drain split in-flight from queued work without replaying the walk.
func (r *run) place(d dispatchRec) int {
	c := &r.chips[d.chip]
	c.busyUntil = math.Max(c.busyUntil, d.at) + d.cost
	d.pos = c.groups
	c.groups++
	r.out.Dispatched[d.chip]++
	if r.asc != nil {
		r.ends = append(r.ends, c.busyUntil)
		r.asc.slots[d.chip].pend = append(r.asc.slots[d.chip].pend, int32(len(r.dispatches)))
	}
	r.dispatches = append(r.dispatches, d)
	return d.pos
}

// layout is phase two of dispatch: it lays the routed groups out per
// chip. The backing array escapes into ChipResult.Requests, so it is a
// real allocation — but exactly one, exactly sized. Capacities are capped
// (three-index slices) so a caller appending to one chip's Requests
// reallocates instead of clobbering its neighbour. Each dispatched
// request is its leader's record, with a merged record's fields rewritten
// from the scalars it captured; layout is the one stage that reads whole
// records after start's pass. On autoscaled runs the layout can be
// smaller than the record count: drain tombstones and migrated-away
// originals occupy no slot.
func (r *run) layout() {
	total := 0
	for i := range r.chips {
		total += r.chips[i].groups
	}
	backing := make([]workload.Request, total)
	for i, cr := range r.out.PerChip {
		n := r.chips[i].groups
		cr.Requests, backing = backing[:n:n], backing[n:]
	}
	for i := range r.dispatches {
		d := &r.dispatches[i]
		if d.chip < 0 {
			continue
		}
		m := &r.out.PerChip[d.chip].Requests[d.pos]
		*m = r.reqs[r.arena[d.first]]
		if d.merged {
			m.Arrival, m.Deadline, m.QoS = d.at, d.deadline, d.deadline-d.at
			m.Priority, m.Work = int(d.prio), d.work
		}
	}
}

// runChip is stage 4 for chip i: one independent simulation of the
// chip's dispatch stream. Chips run as parallel shards and each writes
// only its own result and error slot; merge walks the dispatch records
// in virtual-time order, so the aggregate is deterministic no matter how
// the shards interleave.
func (r *run) runChip(i int) {
	cfg, cr := &r.cfg, r.out.PerChip[i]
	if cfg.ChipTraces {
		//perf:alloc-ok per-chip trace sink, built only when chip traces are requested
		cr.Trace = &sim.Trace{}
	}
	if cfg.Observe {
		cr.Timeline = obs.NewTraceBuilder(1e6)
	}
	if cfg.Attrib {
		cr.Attrib = obs.NewLedger(len(cr.Requests))
		cr.Occ = obs.NewOccupancy(int64(r.total))
	}
	if len(cr.Requests) == 0 {
		return
	}
	pol := cfg.System.NewPolicy()
	if ob, ok := pol.(obs.Observable); ok && cr.Timeline != nil {
		ob.SetObserver(cr.Timeline)
	}
	if oa, ok := pol.(obs.OccupancyAware); ok && cr.Occ != nil {
		oa.SetOccupancy(cr.Occ)
	}
	//perf:alloc-ok one simulated node per chip per run
	node := &sim.Node{
		Cfg:       cfg.System.Cfg,
		Policy:    pol,
		Programs:  cfg.System.Programs,
		Params:    cfg.System.Params,
		Trace:     cr.Trace,
		Timeline:  cr.Timeline,
		Attrib:    cr.Attrib,
		Occ:       cr.Occ,
		FaultMode: cfg.FaultMode,
		Shed:      cfg.Shed,
	}
	if cfg.Faults != nil && cfg.Faults[i] != nil {
		if node.Faults, r.errs[i] = fault.NewInjector(cfg.Faults[i]); r.errs[i] != nil {
			return
		}
	}
	cr.Outcome, r.errs[i] = node.Run(cr.Requests)
}

// merge is stage 5: it fans chip completions back out onto the original
// stream and totals the outcome, which it returns. A group's members
// share its model, so a failed group is rejected or shed as a whole.
func (r *run) merge() *Outcome {
	out, col := r.out, &r.col
	lastFinish := math.Inf(-1)
	for i := range r.dispatches {
		d := &r.dispatches[i]
		if d.chip < 0 {
			continue // drain tombstone or migrated-away original
		}
		fin := out.PerChip[d.chip].Outcome.Finishes[d.pos]
		members := r.members(d.first, d.n)
		switch {
		case fin >= 0:
			lastFinish = max(lastFinish, fin)
			for _, m := range members {
				out.Finishes[m] = fin
				out.Latency[m] = fin - col.arrs[m]
			}
			out.Completed += len(members)
		case col.models[col.mids[members[0]]].known:
			out.ShedChips += len(members)
		default:
			out.Rejected += len(members)
		}
	}
	if out.Batches > 0 {
		out.MeanBatchSize = float64(r.membersTotal) / float64(out.Batches)
	}
	if lastFinish > r.firstArrival {
		out.Makespan = lastFinish - r.firstArrival
	}
	for _, cr := range out.PerChip {
		if cr.Outcome == nil {
			continue
		}
		out.EnergyJ += cr.Outcome.EnergyJ
		out.Killed += cr.Outcome.Killed
		out.Retries += cr.Outcome.Retries
		out.FaultEvents += cr.Outcome.FaultEvents
	}
	out.MeetsSLA, out.DeadlineFrac = workload.SLAOutcomeFlat(col.doms, col.domNames, col.dls, out.Finishes)
	return out
}
