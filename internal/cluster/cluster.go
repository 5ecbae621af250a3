// Package cluster is the deterministic multi-chip serving front end: it
// dispatches one Poisson request stream across N independent accelerator
// chips — each chip a sim.Node running either the Planaria spatial
// scheduler or the PREMA baseline — through three stages:
//
//  1. Admission: per-QoS-level token buckets (simulated-time refill) with
//     a bounded wait queue; overflow sheds deterministically and reuses
//     the EvShed trace vocabulary.
//  2. Dynamic batching: per-model batch windows fuse requests that arrive
//     within BatchWindow (capped at MaxBatch) into one chip request that
//     shares a single allocation; completions fan back out to every
//     member. A fused batch of k costs 1 + α·(k−1) single inferences
//     (weight reuse amortizes the re-fetch, compute still scales).
//  3. Load balancing: a pluggable Balancer (round-robin,
//     least-outstanding-work, model-affinity rendezvous hashing) picks a
//     healthy chip per dispatch; per-chip fault schedules mask dead chips
//     out of the routable set, so the balancer routes around failures.
//
// Everything advances on simulated time only and every tie is broken
// explicitly, so a cluster run at a fixed seed is byte-reproducible
// (the package is in planaria-vet's deterministic set). A 1-chip cluster
// with admission and batching disabled is a bit-exact pass-through to
// sim.Node.Run — the conformance tests pin that identity.
package cluster

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"planaria/internal/fault"
	"planaria/internal/metrics"
	"planaria/internal/obs"
	"planaria/internal/par"
	"planaria/internal/sim"
	"planaria/internal/simtime"
	"planaria/internal/workload"
)

// DefaultBatchAlpha is the marginal cost of each extra fused inference:
// batch k costs 1 + α·(k−1) single runs.
const DefaultBatchAlpha = 0.35

// Config describes one cluster serving run.
type Config struct {
	// System is the chip template (architecture, compiled programs,
	// energy constants, and the per-chip scheduling policy constructor).
	System metrics.System
	// Chips is the cluster size (>= 1).
	Chips int
	// Policy names the load-balancing policy (see NewBalancer); empty
	// means "least-work".
	Policy string

	// BatchWindow is the per-model batching window in simulated seconds.
	// <= 0 disables the batching stage entirely (every request dispatches
	// at its admit instant, untouched).
	BatchWindow float64
	// MaxBatch caps a batch's size; reaching it closes the window early.
	// <= 0 means unbounded.
	MaxBatch int
	// BatchAlpha is the marginal batched-inference cost; 0 means
	// DefaultBatchAlpha, negative means free batching (cost 1).
	BatchAlpha float64

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

	// Obs, when non-nil, receives the front-door metrics and timeline
	// (dispatch counters, batch-size histogram, cluster latency
	// histograms, batch spans).
	Obs *obs.Observer
	// Trace, when non-nil, records the front-door timeline: arrivals,
	// admission sheds, batch closes, dispatches.
	Trace *sim.Trace
	// Observe attaches a fresh obs.Observer to every chip node (exposed
	// on ChipResult.Obs for artifact comparison).
	Observe bool
	// ChipTraces attaches a sim.Trace to every chip node (exposed on
	// ChipResult.Trace).
	ChipTraces bool
	// Attrib enables SLA root-cause attribution (DESIGN.md §14): a
	// front-door phase ledger over the input stream, a per-chip ledger
	// and occupancy accountant on every node, and the chip/position
	// links joining them, exposed on Outcome.Attrib. Off by default;
	// the stamp sites cost only untaken branches when disabled.
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
	// Obs is the chip's private observer (nil unless Config.Observe).
	Obs *obs.Observer
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

// workOf returns a request's work multiplier (0 means 1).
func workOf(r workload.Request) float64 {
	if r.Work > 0 {
		return r.Work
	}
	return 1
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

// dispatchRec is one routed dispatch group: the chip it went to, its
// position within the chip's request slice, and the input indices whose
// completions fan out from it. The merged request's adjusted fields are
// captured as scalars at routing time so the layout phase can rebuild
// it straight into the escaping backing array — a leader copy plus five
// scalar writes — with no intermediate merged-request buffer to pool,
// copy out of, and GC-scan.
// On autoscaled runs chip can also be a tombstone: -1 marks a group shed
// during a drain (ShedDrain), -2 a group migrated away (a later record
// serves its members); both are skipped by the layout and merge phases.
type dispatchRec struct {
	chip     int
	pos      int     // position within the chip's request slice
	cost     float64 // estimated service seconds added to the chip's backlog
	members  []int
	at       float64 // merged Arrival (dispatch time)
	deadline float64 // merged Deadline (tightest member)
	qos      float64 // deadline - at
	prio     int     // merged Priority (highest member)
	work     float64 // merged Work (fused batch cost multiplier)
}

// openBatch is one in-flight batching window.
type openBatch struct {
	model   int // interned model ID (see admitted.model)
	closeAt float64
	members []int
	closed  bool
}

// admitted is one stage-1 grant: the input index and its admit instant.
// admitted is one admitted request: its input position, admission
// instant, and interned model ID (position in the run's first-seen model
// list, captured while the request's cache line is hot so the batching
// stage never re-gathers through the 96-byte-stride request array).
// int32 positions keep the record at 16 pointer-free bytes — the admits
// buffer is the largest piece of pooled scratch, and at serving scale
// its footprint is pure memory traffic.
type admitted struct {
	at    float64
	idx   int32
	model int32
}

// runScratch holds Run's large working buffers that never escape the
// call, recycled through a sync.Pool so back-to-back runs (sweeps,
// benchmarks) stop paying a large-allocation zeroing tax per run. Every
// buffer is append-from-empty or fully rewritten before reads, so stale
// contents can never influence a run; retained memory is bounded by the
// largest run's high-water mark (and dropped wholesale at GC, as for
// any sync.Pool).
type runScratch struct {
	admits      []admitted
	works       []float64
	arrs        []float64
	dls         []float64
	prios       []int32
	doms        []int32
	dispatches  []dispatchRec
	ends        []float64 // autoscaled runs: estimated completion per dispatch record
	memberArena []int
	frontA      []sim.Event
	frontB      []sim.Event
	batchPool   []*openBatch // free list of recycled batch windows
	queue       []*openBatch // FIFO of open windows, reused run to run
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

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
	if err := workload.Validate(reqs); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	policy := cfg.Policy
	if policy == "" {
		policy = "least-work"
	}
	balancer, err := NewBalancer(policy)
	if err != nil {
		return nil, err
	}
	admission, err := newAdmissionState(cfg.Admission)
	if err != nil {
		return nil, err
	}
	// Per-chip health timelines for routing.
	health := make([]*healthSteps, cfg.Chips)
	for i := range health {
		if cfg.Faults != nil {
			if health[i], err = healthStepsOf(cfg.Faults[i]); err != nil {
				return nil, err
			}
		}
	}
	totalSub := cfg.System.Cfg.NumSubarrays()

	// Isolated full-chip execution time per model, the balancer's
	// backlog estimate unit (same estimate metrics.MinNodes uses).
	iso := make(map[string]float64, len(cfg.System.Programs))
	//det:mapiter-ok independent per-key writes into another map
	for name, p := range cfg.System.Programs {
		iso[name] = cfg.System.Cfg.Seconds(p.Table(totalSub).TotalCycles)
	}

	// Observability handles (nil-safe no-ops when off).
	reg := cfg.Obs.Registry()
	tracer := cfg.Obs.Tracer()
	cRequests := reg.Counter("cluster_requests_total")
	cAdmShed := reg.Counter("cluster_admission_shed_total")
	cUnroutable := reg.Counter("cluster_unroutable_shed_total")
	cBatches := reg.Counter("cluster_batches_total")
	//perf:alloc-ok once-per-run metric registration, off the per-request path
	hBatch := reg.Histogram("cluster_batch_size", []float64{1, 2, 4, 8, 16, 32})
	cDispatch := make([]*obs.Counter, cfg.Chips)
	for i := range cDispatch {
		//perf:alloc-ok per-chip handle interning at run start, not per dispatch
		cDispatch[i] = reg.Counter("cluster_dispatch_total", obs.L("chip", fmt.Sprintf("%02d", i)))
	}
	// Per-chip backlog counter track names, rendered once instead of per
	// dispatch.
	var chipNames []string
	if tracer != nil {
		chipNames = make([]string, cfg.Chips)
		for i := range chipNames {
			chipNames[i] = fmt.Sprintf("chip %02d", i)
		}
	}

	// Autoscaled fleet state (nil on static runs: every asc-guarded site
	// below then costs one untaken branch, keeping the static path's
	// per-request allocation profile unchanged).
	var asc *autoscaler
	if cfg.Scale != nil {
		asc = newAutoscaler(cfg.Scale, cfg.Chips, reg)
	}

	// Front-door events accumulate in two runs, each appended in
	// non-decreasing time order: frontA holds the stage-1 arrival/shed
	// events, frontB the dispatch-time events. Export merges them stably
	// (A first on ties) — byte-identical to stable-sorting one combined
	// buffer, without the O(n log n) re-sort (see exportFront).
	// Large non-escaping buffers come from the run-scratch pool; see
	// runScratch for the reuse contract.
	batching := cfg.BatchWindow > 0
	sc := scratchPool.Get().(*runScratch)
	admits := grow(sc.admits, len(reqs))
	works := grow(sc.works, len(reqs))[:len(reqs)]
	arrs := grow(sc.arrs, len(reqs))[:len(reqs)]
	dls := grow(sc.dls, len(reqs))[:len(reqs)]
	prios := grow(sc.prios, len(reqs))[:len(reqs)]
	doms := grow(sc.doms, len(reqs))[:len(reqs)]
	dispCap := 0
	if !batching {
		dispCap = len(reqs)
	}
	dispatches := grow(sc.dispatches, dispCap)
	memberArena := grow(sc.memberArena, len(reqs))
	ends := sc.ends[:0]
	if asc != nil {
		ends = grow(sc.ends, dispCap)
	}
	// frontC collects the future-dated EvScaleDown retire events an
	// autoscaled traced run emits out of order; export sorts and merges it.
	var frontC []sim.Event
	frontA, frontB := sc.frontA[:0], sc.frontB[:0]
	if cfg.Trace != nil {
		frontA = grow(sc.frontA, 2*len(reqs))
		frontB = grow(sc.frontB, 2*len(reqs))
	}
	batchPool := sc.batchPool
	queue := sc.queue[:0]
	defer func() {
		sc.admits, sc.works, sc.dispatches = admits[:0], works[:0], dispatches[:0]
		sc.arrs, sc.dls, sc.prios, sc.doms = arrs[:0], dls[:0], prios[:0], doms[:0]
		sc.memberArena, sc.ends = memberArena[:0], ends[:0]
		sc.frontA, sc.frontB = frontA[:0], frontB[:0]
		sc.batchPool, sc.queue = batchPool, queue[:0]
		scratchPool.Put(sc)
	}()
	// Call sites guard on tracing before building an event: constructing
	// the sim.Event argument costs real time per request even when the
	// closure would just drop it.
	tracing := cfg.Trace != nil
	record := func(e sim.Event) {
		if tracing {
			frontA = append(frontA, e)
		}
	}
	recordB := func(e sim.Event) {
		if tracing {
			frontB = append(frontB, e)
		}
	}

	//perf:alloc-ok single result object per run
	out := &Outcome{
		Finishes:   make([]float64, len(reqs)),
		Latency:    make([]float64, len(reqs)),
		Dispatched: make([]int, cfg.Chips),
		PerChip:    make([]*ChipResult, cfg.Chips),
	}
	if asc != nil {
		out.Fleet = asc.fleet
	}
	// Attribution wiring (DESIGN.md §14): a front-door ledger indexed
	// like the input plus the chip/position links resolved at dispatch.
	// All stamp sites below guard on the obs-typed frontLed, so the
	// default (Attrib off) path pays only untaken branches.
	var frontLed *obs.Ledger
	var linkChip, linkPos []int32
	if cfg.Attrib {
		frontLed = obs.NewLedger(len(reqs))
		linkChip = make([]int32, len(reqs))
		linkPos = make([]int32, len(reqs))
		for i := range linkChip {
			linkChip[i] = -1
			linkPos[i] = -1
		}
	}
	// One pass over the input stream extracts everything the later stages
	// need from it: arrival monotonicity, the memoized work multipliers, a
	// flat copy of the arrival times (the completion merge then touches 8
	// bytes per request instead of the whole record), the earliest
	// arrival, and the not-yet-completed marker fill.
	arrivalsSorted := true
	firstArrival := math.Inf(1)
	prevArr := math.Inf(-1)
	// Domains intern in first-sight order into the ID column the flat SLA
	// pass tallies at the end. A serving mix has a handful of domains, so
	// a small preallocation absorbs the interning appends.
	domNames := make([]string, 0, 8)
	for i := range reqs {
		r := &reqs[i]
		if r.Arrival < prevArr {
			arrivalsSorted = false
		}
		prevArr = r.Arrival
		arrs[i] = r.Arrival
		if r.Arrival < firstArrival {
			firstArrival = r.Arrival
		}
		if r.Work > 0 {
			works[i] = r.Work
		} else {
			works[i] = 1
		}
		dls[i] = r.Deadline
		prios[i] = int32(r.Priority)
		domID := slices.Index(domNames, r.Domain)
		if domID < 0 {
			domID = len(domNames)
			domNames = append(domNames, r.Domain)
		}
		doms[i] = int32(domID)
		out.Finishes[i] = -1
	}

	// Stage 1: admission, in arrival order (ties by input index). A
	// pre-sorted stream — the generator's natural order — needs no index
	// permutation: the stable sort would be the identity.
	var order []int
	if !arrivalsSorted {
		order = make([]int, len(reqs))
		for i := range order {
			order[i] = i
		}
		//perf:alloc-ok unsorted-arrival fallback; sorted streams never enter
		sort.SliceStable(order, func(a, b int) bool {
			return reqs[order[a]].Arrival < reqs[order[b]].Arrival
		})
	}
	// Model IDs intern on first sight; the handful of models makes a
	// linear scan with string equality's pointer fast path cheaper than
	// hashing, exactly like the open-window list below. Each interned ID
	// also caches the model's isolated-seconds estimate so the dispatch
	// loop indexes a flat slice instead of hashing the model name.
	var modelNames []string
	var isoByID []float64
	internModel := func(name string) int {
		for i, m := range modelNames {
			if m == name {
				return i
			}
		}
		modelNames = append(modelNames, name)
		isoByID = append(isoByID, iso[name])
		return len(modelNames) - 1
	}
	admitOne := func(idx int) {
		r := &reqs[idx]
		if tracing {
			record(sim.Event{Time: r.Arrival, Kind: sim.EvArrival, Task: r.ID, Model: r.Model})
		}
		cRequests.Inc()
		if frontLed != nil {
			frontLed.Open(idx, r.Arrival, obs.PhaseAdmitWait)
		}
		// With no admission control configured (admission == nil) the
		// answer is always (arrival, true); hoisting the nil check here
		// saves a non-inlined method call per request.
		at, ok := r.Arrival, true
		if admission != nil {
			at, ok = admission.admit(r.Level, r.Arrival)
		}
		if !ok {
			if tracing {
				record(sim.Event{Time: r.Arrival, Kind: sim.EvShed, Task: r.ID, Model: r.Model})
			}
			cAdmShed.Inc()
			out.ShedFront++
			if frontLed != nil {
				frontLed.Close(idx, r.Arrival, obs.CauseShedAdmission)
			}
			return
		}
		if frontLed != nil {
			// Admission grant: [arrival, at] was admit-wait, [at, dispatch]
			// is batch-wait (zero-length when batching is off).
			frontLed.Mark(idx, at, obs.PhaseBatchWait)
		}
		admits = append(admits, admitted{at: at, idx: int32(idx), model: int32(internModel(r.Model))})
	}
	if arrivalsSorted {
		for idx := range reqs {
			admitOne(idx)
		}
	} else {
		for _, idx := range order {
			admitOne(idx)
		}
	}
	// Admission delays can reorder admits only when buckets queue; the
	// common no-queue run is already sorted and skips the re-sort too.
	admitsSorted := true
	for i := 1; i < len(admits); i++ {
		if admits[i].at < admits[i-1].at {
			admitsSorted = false
			break
		}
	}
	if !admitsSorted {
		//perf:alloc-ok resort runs only when admission queueing reordered admits
		sort.SliceStable(admits, func(a, b int) bool { return admits[a].at < admits[b].at })
	}

	// Stage 2+3: batching windows and balanced dispatch, one
	// chronological walk. Windows open in admit order, so the open-batch
	// queue is already sorted by close time.
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = int(math.MaxInt32)
	}
	alpha := cfg.BatchAlpha
	switch {
	case alpha == 0:
		alpha = DefaultBatchAlpha
	case alpha < 0:
		alpha = 0
	}

	// Dispatch groups accumulate as routing records in dispatches; the
	// escaping per-chip request slices are carved out of one exactly-sized
	// backing array after the dispatch loop — two phases instead of
	// ragged per-chip append growth.
	chipCounts := make([]int, cfg.Chips)
	busyUntil := make([]float64, cfg.Chips)
	membersTotal := 0
	// One reusable balancer-view buffer: every field of every entry is
	// rewritten per dispatch and no built-in balancer retains the slice.
	views := make([]ChipView, cfg.Chips)
	// least-work consults only health and the clamped backlog, both of
	// which the dispatch loop already has in hand — picking directly
	// skips materializing a ChipView per chip per dispatch. The pick is
	// the same argmin with the same lowest-index tie-break.
	_, lwFast := balancer.(leastWork)

	dispatch := func(tD float64, members []int, model int) {
		m0 := members[0]
		leader := &reqs[m0]
		k := len(members)
		mw := works[m0]
		// The merged request exists only as scalars here: phase two
		// rebuilds the dispatched Request from the leader plus these
		// values, so materializing a 96-byte Request per dispatch would
		// be pure copy traffic. Only the pluggable-balancer path below
		// still builds one (Pick takes a Request by value).
		at, deadline, qos := leader.Arrival, leader.Deadline, leader.QoS
		prio, work := leader.Priority, leader.Work
		if k > 1 || tD != leader.Arrival {
			at = tD
			for _, m := range members[1:] {
				if d := dls[m]; d < deadline {
					deadline = d
				}
				if p := int(prios[m]); p > prio {
					prio = p
				}
			}
			qos = deadline - tD
			if k > 1 {
				mw *= 1 + alpha*float64(k-1)
				work = mw
			}
		}
		if batching {
			if tracing {
				recordB(sim.Event{Time: tD, Kind: sim.EvBatch, Task: leader.ID, Model: leader.Model, Alloc: k})
			}
			cBatches.Inc()
			hBatch.Observe(float64(k))
			if tracer != nil && k > 1 {
				tracer.Span("cluster/batches", fmt.Sprintf("%s x%d", leader.Model, k),
					reqs[members[0]].Arrival, tD,
					obs.Str("model", leader.Model), obs.Num("size", float64(k)))
			}
		}
		var chip int
		if lwFast {
			chip = -1
			var bestOut float64
			for i := range busyUntil {
				if health[i].aliveAt(tD, totalSub) <= 0 {
					continue
				}
				if asc != nil && !asc.routable(i, tD) {
					continue
				}
				outst := busyUntil[i] - tD
				if outst < 0 {
					outst = 0
				}
				if chip < 0 || outst < bestOut {
					chip, bestOut = i, outst
				}
			}
		} else {
			for i := range views {
				outst := busyUntil[i] - tD
				if outst < 0 {
					outst = 0
				}
				healthy := health[i].aliveAt(tD, totalSub) > 0
				if asc != nil && !asc.routable(i, tD) {
					healthy = false
				}
				views[i] = ChipView{
					Index:       i,
					Healthy:     healthy,
					Outstanding: outst,
					Dispatched:  out.Dispatched[i],
				}
			}
			merged := *leader
			merged.Arrival, merged.Deadline, merged.QoS = at, deadline, qos
			merged.Priority, merged.Work = prio, work
			chip = balancer.Pick(merged, tD, views)
		}
		if chip < 0 {
			for _, m := range members {
				if tracing {
					recordB(sim.Event{Time: tD, Kind: sim.EvShed, Task: reqs[m].ID, Model: reqs[m].Model})
				}
				cUnroutable.Inc()
				out.ShedFront++
				if frontLed != nil {
					frontLed.Close(m, tD, obs.CauseShedUnroutable)
				}
			}
			return
		}
		if tracing {
			recordB(sim.Event{Time: tD, Kind: sim.EvDispatch, Task: leader.ID, Model: leader.Model, Unit: chip})
		}
		cDispatch[chip].Inc()
		cost := isoByID[model] * mw
		busyUntil[chip] = math.Max(busyUntil[chip], tD) + cost
		if tracer != nil {
			tracer.Counter("cluster/backlog", chipNames[chip], tD, busyUntil[chip]-tD)
		}
		out.Dispatched[chip]++
		out.Batches++
		membersTotal += k
		if k > 1 {
			out.BatchedReqs += k
		}
		if frontLed != nil {
			// Hand-off: each member's front record closes at the merged
			// arrival `at` (== the chip record's Open instant, bit-exact),
			// and the links remember which chip record continues it.
			for _, m := range members {
				frontLed.Close(m, at, obs.CauseDispatched)
				linkChip[m] = int32(chip)
				linkPos[m] = int32(chipCounts[chip])
			}
		}
		if asc != nil {
			// Drain bookkeeping: the estimated completion instant and the
			// slot's pending-group queue let a later drain split in-flight
			// from queued work without replaying the dispatch walk.
			//perf:alloc-ok autoscaled-run bookkeeping, amortized appends off the static path
			ends = append(ends, busyUntil[chip])
			//perf:alloc-ok autoscaled-run bookkeeping, amortized appends off the static path
			asc.slots[chip].pend = append(asc.slots[chip].pend, int32(len(dispatches)))
		}
		dispatches = append(dispatches, dispatchRec{
			chip: chip, pos: chipCounts[chip], cost: cost, members: members,
			at: at, deadline: deadline, qos: qos,
			prio: prio, work: work,
		})
		chipCounts[chip]++
	}

	// Every dispatch group's member list is carved out of one arena (each
	// admit joins at most one group, so len(admits) bounds the total);
	// batch windows copy their members in at close time so the window
	// records themselves recycle through the scratch free list.
	takeMembers := func(members []int) []int {
		start := len(memberArena)
		memberArena = append(memberArena, members...)
		return memberArena[start:len(memberArena):len(memberArena)]
	}
	memberCap := maxBatch
	if memberCap > 8 {
		memberCap = 8
	}
	newBatch := func(model int, closeAt float64) *openBatch {
		if n := len(batchPool); n > 0 {
			b := batchPool[n-1]
			batchPool = batchPool[:n-1]
			b.model, b.closeAt, b.closed = model, closeAt, false
			b.members = b.members[:0]
			return b
		}
		//perf:alloc-ok batch-object miss path; steady state recycles via batchPool above
		return &openBatch{model: model, closeAt: closeAt, members: make([]int, 0, memberCap)}
	}
	// The handful of concurrently open windows (one per model) lives in a
	// small list: a linear scan beats per-admit string hashing, and there
	// is no map to keep planaria-vet's iteration checker away from.
	openList := make([]*openBatch, 0, 8)
	findOpen := func(model int) *openBatch {
		for _, b := range openList {
			if b.model == model {
				return b
			}
		}
		return nil
	}
	removeOpen := func(b *openBatch) {
		for i, x := range openList {
			if x == b {
				openList = append(openList[:i], openList[i+1:]...)
				return
			}
		}
	}
	// The window FIFO advances by head index, not by re-slicing: a
	// queue[1:] walk marches the append head off the backing array and
	// allocates a fresh tiny slice per window (one per batch — the
	// dominant allocation at scale). Draining rewinds to the front, and
	// in-place compaction bounds the backing at the open-window
	// high-water mark; both preserve FIFO order exactly.
	qHead := 0
	flush := func(until float64) {
		for qHead < len(queue) {
			b := queue[qHead]
			if b.closed {
				qHead++
				batchPool = append(batchPool, b)
				continue
			}
			if simtime.After(b.closeAt, until) {
				if qHead > 64 && 2*qHead >= len(queue) {
					n := copy(queue, queue[qHead:])
					queue = queue[:n]
					qHead = 0
				}
				return
			}
			qHead++
			removeOpen(b)
			dispatch(b.closeAt, takeMembers(b.members), b.model)
			batchPool = append(batchPool, b)
		}
		queue, qHead = queue[:0], 0
	}

	// Autoscaler control plane: drainChip retires one slot gracefully —
	// in-flight groups (estimated started before the drain instant) stay
	// and finish; queued groups migrate to the least-loaded routable chip
	// or shed as ShedDrain when none remains — and controlTick runs the
	// controller at each control instant. Both live inside the same
	// single-goroutine walk as dispatch, so a fault landing on a draining
	// chip, a flash crowd mid-drain, or a drain racing permanent chip death
	// all resolve in one deterministic time order.
	var controlTick func(T float64)
	if asc != nil {
		drainChip := func(c int, T float64) {
			s := &asc.slots[c]
			s.state = slotDraining
			asc.cDrains.Inc()
			asc.fleet.Note(T, c, obs.FleetDrain)
			if tracing {
				recordB(sim.Event{Time: T, Kind: sim.EvDrain, Unit: c})
			}
			pend := s.pend
			// Skip groups already estimated finished, then keep the
			// in-flight prefix: groups whose estimated start precedes the
			// drain instant run to completion on this chip, and the slot
			// retires when the last of them is estimated done.
			i := 0
			for i < len(pend) && ends[pend[i]] <= T {
				i++
			}
			retire := T
			for i < len(pend) {
				di := pend[i]
				if ends[di]-dispatches[di].cost >= T {
					break
				}
				retire = ends[di]
				i++
			}
			// Everything behind the in-flight prefix is queued work the
			// drained slot abandons: migrate each group, or shed it when no
			// routable chip remains. The abandoned groups are the trailing
			// positions of the slot's request slice, so decrementing the
			// count keeps per-chip positions dense.
			for _, di := range pend[i:] {
				d := dispatches[di]
				target := -1
				var bestOut float64
				for j := range busyUntil {
					if j == c || health[j].aliveAt(T, totalSub) <= 0 || !asc.routable(j, T) {
						continue
					}
					outst := busyUntil[j] - T
					if outst < 0 {
						outst = 0
					}
					if target < 0 || outst < bestOut {
						target, bestOut = j, outst
					}
				}
				out.Dispatched[c]--
				chipCounts[c]--
				if target < 0 {
					dispatches[di].chip = -1 // tombstone: shed during drain
					out.Batches--
					membersTotal -= len(d.members)
					out.ShedDrain += len(d.members)
					for _, m := range d.members {
						asc.cDrainShed.Inc()
						if tracing {
							recordB(sim.Event{Time: T, Kind: sim.EvShed, Task: reqs[m].ID, Model: reqs[m].Model})
						}
						if frontLed != nil {
							frontLed.Reopen(m, obs.PhaseDrainMigrate)
							frontLed.Close(m, T, obs.CauseShedDrain)
							linkChip[m], linkPos[m] = -1, -1
						}
					}
					continue
				}
				busyUntil[target] = math.Max(busyUntil[target], T) + d.cost
				newPos := chipCounts[target]
				chipCounts[target]++
				out.Dispatched[target]++
				out.Migrated += len(d.members)
				asc.cMigrated.Inc()
				if tracing {
					leader := &reqs[d.members[0]]
					recordB(sim.Event{Time: T, Kind: sim.EvMigrate, Task: leader.ID, Model: leader.Model, Unit: target, Depth: c})
				}
				if frontLed != nil {
					for _, m := range d.members {
						frontLed.Reopen(m, obs.PhaseDrainMigrate)
						frontLed.Close(m, T, obs.CauseDispatched)
						linkChip[m], linkPos[m] = int32(target), int32(newPos)
					}
				}
				//perf:alloc-ok drain-time migration, off the static and steady-state paths
				ends = append(ends, busyUntil[target])
				//perf:alloc-ok drain-time migration, off the static and steady-state paths
				asc.slots[target].pend = append(asc.slots[target].pend, int32(len(dispatches)))
				nd := d
				nd.chip, nd.pos, nd.at = target, newPos, T
				nd.qos = nd.deadline - T
				//perf:alloc-ok drain-time migration, off the static and steady-state paths
				dispatches = append(dispatches, nd)
				dispatches[di].chip = -2 // migrated away: the appended copy serves its members
			}
			s.pend = pend[:0]
			s.retireAt = retire
			busyUntil[c] = retire
			asc.fleet.Note(retire, c, obs.FleetRetire)
			asc.cDown.Inc()
			if tracing {
				//perf:alloc-ok future-dated retire event on a traced scaled run
				frontC = append(frontC, sim.Event{Time: retire, Kind: sim.EvScaleDown, Unit: c})
			}
		}
		controlTick = func(T float64) {
			active, booting, draining := asc.counts(T)
			backlog := 0.0
			for i := range busyUntil {
				if asc.slots[i].state != slotReady {
					continue
				}
				if w := busyUntil[i] - T; w > 0 {
					backlog += w
				}
			}
			want := asc.cfg.Controller.Desired(ScaleSignal{
				Time: T, Active: active, Booting: booting, Draining: draining,
				BacklogS: backlog, MaxWaitS: asc.debtMax, Arrivals: asc.arrivals,
			})
			if want < asc.cfg.Min {
				want = asc.cfg.Min
			}
			if want > asc.chips {
				want = asc.chips
			}
			eff := active + booting
			for eff < want {
				c := asc.bootOne(T)
				if c < 0 {
					break
				}
				if tracing {
					recordB(sim.Event{Time: T, Kind: sim.EvScaleUp, Unit: c})
				}
				eff++
			}
			// Scale-down drains ready slots only — boots in flight are never
			// cancelled — and stops at the Min floor.
			for eff > want && active > asc.cfg.Min {
				c := asc.drainCandidate(T, busyUntil)
				if c < 0 {
					break
				}
				drainChip(c, T)
				eff--
				active--
			}
			asc.debtMax, asc.arrivals = 0, 0
		}
	}
	for _, a := range admits {
		if asc != nil {
			// Control instants interleave with the admit walk in simulated
			// time order: close out batch windows up to the tick first, so
			// the controller sees (and drains reassign) exactly the state a
			// real front door would have at that instant.
			for a.at >= asc.nextTick {
				tk := asc.nextTick
				asc.nextTick += asc.cfg.IntervalS
				flush(tk)
				controlTick(tk)
			}
			asc.noteWait(a.at - arrs[a.idx])
		}
		if !batching {
			// Single-request group: a one-element capped sub-slice of the
			// arena, no per-request allocation.
			memberArena = append(memberArena, int(a.idx))
			dispatch(a.at, memberArena[len(memberArena)-1:len(memberArena):len(memberArena)], int(a.model))
			continue
		}
		model := int(a.model)
		flush(a.at)
		b := findOpen(model)
		if b == nil {
			b = newBatch(model, a.at+cfg.BatchWindow)
			openList = append(openList, b)
			queue = append(queue, b)
		}
		b.members = append(b.members, int(a.idx))
		if len(b.members) >= maxBatch {
			b.closed = true
			removeOpen(b)
			dispatch(a.at, takeMembers(b.members), b.model)
		}
	}
	flush(math.Inf(1))

	if out.Batches > 0 {
		out.MeanBatchSize = float64(membersTotal) / float64(out.Batches)
	}

	// Phase two of dispatch: lay the routed groups out per chip. The
	// backing array escapes into ChipResult.Requests, so it is a real
	// allocation — but exactly one, exactly sized. Capacities are capped
	// (three-index slices) so a caller appending to one chip's Requests
	// reallocates instead of clobbering its neighbour. Each merged
	// request is rebuilt in place from its leader plus the scalars the
	// dispatchRec captured; dispatch order within a chip matches d.pos
	// by construction.
	perChip := make([][]workload.Request, cfg.Chips)
	offs := make([]int, cfg.Chips)
	off := 0
	for i, n := range chipCounts {
		offs[i] = off
		off += n
	}
	// On autoscaled runs the final layout can be smaller than the record
	// count: drain tombstones (shed groups) and migrated-away originals
	// occupy no slot.
	backing := make([]workload.Request, off)
	for i, n := range chipCounts {
		perChip[i] = backing[offs[i] : offs[i]+n : offs[i]+n]
	}
	for i := range dispatches {
		d := &dispatches[i]
		if d.chip < 0 {
			continue
		}
		m := &backing[offs[d.chip]+d.pos]
		*m = reqs[d.members[0]]
		m.Arrival, m.Deadline, m.QoS = d.at, d.deadline, d.qos
		m.Priority, m.Work = d.prio, d.work
	}

	// Stage 4: run the chips — one shard (goroutine) per chip, since each
	// chip is one long independent simulation and the chip count is small.
	// Writes stay confined to index i; the merge below walks dispatch
	// records in virtual-time order, so the aggregate is deterministic no
	// matter how the shards interleave.
	results := make([]*ChipResult, cfg.Chips)
	errs := make([]error, cfg.Chips)
	par.PerItem(cfg.Chips, func(i int) {
		//perf:alloc-ok one result object per chip per run
		cr := &ChipResult{Requests: perChip[i]}
		results[i] = cr
		if cfg.ChipTraces {
			//perf:alloc-ok per-chip trace sink, built only when chip traces are requested
			cr.Trace = &sim.Trace{}
		}
		if cfg.Observe {
			cr.Obs = obs.New()
		}
		if cfg.Attrib {
			cr.Attrib = obs.NewLedger(len(perChip[i]))
			cr.Occ = obs.NewOccupancy(int64(totalSub))
		}
		if len(perChip[i]) == 0 {
			return
		}
		pol := cfg.System.NewPolicy()
		if ob, ok := pol.(obs.Observable); ok && cr.Obs != nil {
			ob.SetObserver(cr.Obs)
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
			Obs:       cr.Obs,
			Attrib:    cr.Attrib,
			Occ:       cr.Occ,
			FaultMode: cfg.FaultMode,
			Shed:      cfg.Shed,
		}
		if cfg.Faults != nil && cfg.Faults[i] != nil {
			node.Faults, errs[i] = fault.NewInjector(cfg.Faults[i])
			if errs[i] != nil {
				return
			}
		}
		cr.Outcome, errs[i] = node.Run(perChip[i])
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	out.PerChip = results
	if frontLed != nil {
		//perf:alloc-ok one attribution bundle per run, only when Attrib is on
		out.Attrib = &Attribution{Front: frontLed, Chip: linkChip, Pos: linkPos}
	}

	// Stage 5: merge chip outcomes back onto the original stream. The
	// latency histogram handles are interned per model up front —
	// registry lookups and bucket-bound slices are off the per-request
	// path.
	var latHists map[string]*obs.Histogram
	var durBounds []float64
	if reg != nil {
		latHists = make(map[string]*obs.Histogram, len(cfg.System.Programs))
		durBounds = obs.DurationBuckets()
	}
	for _, d := range dispatches {
		if d.chip < 0 {
			continue // drain tombstone or migrated-away original
		}
		chipOut := results[d.chip].Outcome
		fin := chipOut.Finishes[d.pos]
		for _, m := range d.members {
			if fin >= 0 {
				out.Finishes[m] = fin
				out.Latency[m] = fin - arrs[m]
				out.Completed++
				if reg != nil {
					h := latHists[reqs[m].Model]
					if h == nil {
						h = reg.Histogram("cluster_latency_seconds", durBounds,
							obs.L("model", reqs[m].Model))
						latHists[reqs[m].Model] = h
					}
					h.Observe(out.Latency[m])
				}
			} else if _, ok := cfg.System.Programs[reqs[m].Model]; !ok {
				out.Rejected++
			} else {
				out.ShedChips++
			}
		}
	}
	lastFinish := math.Inf(-1)
	for i := range out.Finishes {
		if out.Finishes[i] > lastFinish {
			lastFinish = out.Finishes[i]
		}
	}
	if lastFinish > firstArrival {
		out.Makespan = lastFinish - firstArrival
	}
	for _, cr := range results {
		if cr.Outcome == nil {
			continue
		}
		out.EnergyJ += cr.Outcome.EnergyJ
		out.Killed += cr.Outcome.Killed
		out.Retries += cr.Outcome.Retries
		out.FaultEvents += cr.Outcome.FaultEvents
	}
	out.MeetsSLA, out.DeadlineFrac = workload.SLAOutcomeFlat(doms, domNames, dls, out.Finishes)

	if cfg.Trace != nil {
		if len(frontC) > 0 {
			// Retire events were recorded at drain-decision time with
			// future instants; order them and fold into the dispatch run so
			// exportFront sees two monotone runs again.
			sort.SliceStable(frontC, func(i, j int) bool { return frontC[i].Time < frontC[j].Time })
			merged := make([]sim.Event, 0, len(frontB)+len(frontC))
			i, j := 0, 0
			for i < len(frontB) && j < len(frontC) {
				if frontB[i].Time <= frontC[j].Time {
					merged = append(merged, frontB[i])
					i++
				} else {
					merged = append(merged, frontC[j])
					j++
				}
			}
			merged = append(merged, frontB[i:]...)
			merged = append(merged, frontC[j:]...)
			frontB = merged
		}
		exportFront(cfg.Trace, frontA, frontB)
	}
	return out, nil
}

// exportFront appends the two front-door event runs to the trace in
// stable time order. Both runs are built in non-decreasing time order
// (stage 1 walks arrivals in order; dispatch instants never move
// backwards), so a two-pointer merge that prefers run A on ties
// reproduces exactly what sort.SliceStable over the concatenation —
// the pre-sharded encoding — produced. Should either ordering
// invariant ever break, the stable sort runs as the fallback.
func exportFront(tr *sim.Trace, a, b []sim.Event) {
	if !eventsOrdered(a) || !eventsOrdered(b) {
		all := make([]sim.Event, 0, len(a)+len(b))
		all = append(all, a...)
		all = append(all, b...)
		sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
		tr.Events = append(tr.Events, all...)
		return
	}
	tr.Reserve(len(a) + len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Time <= b[j].Time {
			tr.Events = append(tr.Events, a[i])
			i++
		} else {
			tr.Events = append(tr.Events, b[j])
			j++
		}
	}
	tr.Events = append(tr.Events, a[i:]...)
	tr.Events = append(tr.Events, b[j:]...)
}

// eventsOrdered reports whether the run's times never decrease.
func eventsOrdered(evs []sim.Event) bool {
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			return false
		}
	}
	return true
}
