package cluster

import (
	"fmt"

	"planaria/internal/obs"
)

// The stage methods emit every front-door decision once, as one event,
// and emit folds it online, in emit order, into each view the run
// attached: the registry, the Perfetto timeline, the front ledger with
// its chip/position links, and the fleet log. Besides the stream, the
// folds read only the requests, their arrival column and the member
// arena. Per-request events are built only behind the run's observed
// guard. Lifecycle events, a handful per control tick, are emitted on
// every autoscaled run, whose Outcome always carries the fleet log.

// eventKind classifies front-door events.
type eventKind uint8

const (
	// evArrival: request req arrived at time.
	evArrival eventKind = iota
	// evGrant: admission control admitted request req at time.
	evGrant
	// evShed: the front door declined request req (cause
	// CauseShedAdmission) or the members of a group (CauseShedUnroutable,
	// CauseShedDrain) at time.
	evShed
	// evBatch: a batching window closed on a group at time.
	evBatch
	// evDispatch: a group went to position pos of chip at time, which is
	// also its merged arrival, the instant the chip takes it over; backlog
	// is the chip's new estimated backlog.
	evDispatch
	// evMigrate: a drain moved a group to position pos of chip, handing
	// off at time.
	evMigrate
	// evDone: request req completed at time.
	evDone
	// evBoot: slot chip began booting at time; initial marks the slots
	// ready at t = 0.
	evBoot
	// evReady: slot chip becomes routable at time.
	evReady
	// evDrain: slot chip stopped admitting new work at time.
	evDrain
	// evRetire: slot chip powers off at time, once its in-flight work is
	// estimated done.
	evRetire
)

// event is one front-door decision. The struct is fixed size and holds
// no reference; a group's members are arena[first : first+n].
type event struct {
	time, backlog float64
	kind          eventKind
	cause         obs.Cause
	initial       bool
	req           int32
	first, n      int32
	chip, pos     int32
}

// chipSeries are one chip's registry and timeline series.
type chipSeries struct {
	dispatched *obs.Counter
	backlog    string
}

// views holds a run's front-door sinks and their fold state. emit skips
// nil sinks.
type views struct {
	tracer *obs.TraceBuilder
	reg    *obs.Registry
	led    *obs.Ledger
	fleet  *obs.Fleet
	// The series that fold from the stream; finish writes the rest.
	admShed, unroutable, batches *obs.Counter
	scaleUp, drains, migrate     *obs.Counter
	batchSize                    *obs.Histogram
	perChip                      []chipSeries
	latHists                     []*obs.Histogram // by model ID, registered on first completion; pooled
}

// attach binds the configuration's sinks to the run: the registry
// handles, the per-chip series, the front ledger and its links, and the
// fleet log of an autoscaled run with its initial slots.
//
//perf:cold per-run setup: runs once before the admit walk
func (r *run) attach() {
	cfg, n := &r.cfg, len(r.reqs)
	r.observed = cfg.Obs != nil || cfg.Attrib
	r.tracer, r.reg = cfg.Obs.Tracer(), cfg.Obs.Registry()
	reg := r.reg
	r.admShed = reg.Counter("cluster_admission_shed_total")
	r.unroutable = reg.Counter("cluster_unroutable_shed_total")
	r.batches = reg.Counter("cluster_batches_total")
	r.batchSize = reg.Histogram("cluster_batch_size", []float64{1, 2, 4, 8, 16, 32})
	if reg != nil {
		r.latHists = grow(r.latHists, len(r.col.models))[:len(r.col.models)]
		clear(r.latHists)
	}
	r.perChip = grow(r.perChip, cfg.Chips)[:cfg.Chips]
	for i := range r.perChip {
		if reg != nil {
			r.perChip[i].dispatched = reg.Counter("cluster_dispatch_total", obs.L("chip", fmt.Sprintf("%02d", i)))
		}
		if r.tracer != nil {
			r.perChip[i].backlog = fmt.Sprintf("chip %02d", i)
		}
	}
	// Attribution (DESIGN.md §14): a front-door ledger indexed like the
	// input plus the chip/position links resolved at dispatch.
	if cfg.Attrib {
		a := &Attribution{Front: obs.NewLedger(n), Chip: make([]int32, n), Pos: make([]int32, n)}
		for i := range a.Chip {
			a.Chip[i], a.Pos[i] = -1, -1
		}
		r.out.Attrib, r.led = a, a.Front
	}
	if r.asc == nil {
		return
	}
	r.scaleUp = reg.Counter("cluster_scale_up_total")
	r.drains = reg.Counter("cluster_drains_total")
	r.migrate = reg.Counter("cluster_migrated_total")
	r.fleet = obs.NewFleet(cfg.Chips)
	r.out.Fleet = r.fleet
	for i := range int32(r.asc.cfg.Initial) {
		r.emit(event{kind: evBoot, initial: true, chip: i})
		r.emit(event{kind: evReady, chip: i})
	}
}

// emit folds one front-door event into every attached view.
func (r *run) emit(e event) {
	if r.reg != nil {
		r.count(&e)
	}
	if r.tracer != nil {
		r.timeline(&e)
	}
	if r.led != nil {
		r.attribute(&e)
	}
	if r.fleet != nil {
		r.log(&e)
	}
}

// members returns the input indices of a group.
func (r *run) members(first, n int32) []int { return r.arena[first : first+n] }

// count is the metrics fold.
func (r *run) count(e *event) {
	switch e.kind {
	case evShed:
		switch e.cause {
		case obs.CauseShedAdmission:
			r.admShed.Inc()
		case obs.CauseShedUnroutable:
			r.unroutable.Add(float64(e.n))
		}
	case evBatch:
		r.batches.Inc()
		r.batchSize.Observe(float64(e.n))
	case evDispatch:
		r.perChip[e.chip].dispatched.Inc()
	case evMigrate:
		r.migrate.Inc()
	case evDone:
		mid := r.col.mids[e.req]
		h := r.latHists[mid]
		if h == nil {
			h = r.reg.Histogram("cluster_latency_seconds", obs.DurationBuckets(), obs.L("model", r.reqs[e.req].Model))
			r.latHists[mid] = h
		}
		h.Observe(e.time - r.col.arrs[e.req])
	case evBoot:
		if !e.initial {
			r.scaleUp.Inc()
		}
	case evDrain:
		r.drains.Inc()
	}
}

// finish writes the registry counters that equal an Outcome tally, once,
// when the run finishes.
func (r *run) finish(out *Outcome) {
	if r.reg == nil {
		return
	}
	r.reg.Counter("cluster_requests_total").Add(float64(len(r.reqs)))
	if r.asc != nil {
		r.reg.Counter("cluster_drain_shed_total").Add(float64(out.ShedDrain))
	}
}

// timeline is the Perfetto fold: one span per fused batch and a backlog
// sample per dispatch on the chip's series.
func (r *run) timeline(e *event) {
	switch e.kind {
	case evBatch:
		if e.n > 1 {
			q := &r.reqs[r.arena[e.first]]
			r.tracer.Span("cluster/batches", obs.Fmt("%s x%d").Str(q.Model).Int(int(e.n)),
				q.Arrival, e.time, obs.Str("model", q.Model), obs.Num("size", float64(e.n)))
		}
	case evDispatch:
		r.tracer.Counter("cluster/backlog", r.perChip[e.chip].backlog, e.time, e.backlog)
	}
}

// attribute is the ledger fold. An arrival opens the request's record in
// admit-wait and an admission grant marks batch-wait (zero-length when
// batching is off). A hand-off closes each member's record at the
// group's merged arrival, the chip record's Open instant bit for bit,
// and links it to the chip record that continues it; a shed closes it
// with its cause. A drain first reopens the record in drain-migrate, so
// the time the group waited to move is attributed too.
func (r *run) attribute(e *event) {
	switch e.kind {
	case evArrival:
		r.led.Mark(int(e.req), e.time, obs.PhaseAdmitWait)
	case evGrant:
		r.led.Mark(int(e.req), e.time, obs.PhaseBatchWait)
	case evShed:
		if e.cause == obs.CauseShedAdmission {
			r.led.Close(int(e.req), e.time, e.cause)
			return
		}
		for _, m := range r.members(e.first, e.n) {
			if e.cause == obs.CauseShedDrain {
				r.led.Reopen(m, obs.PhaseDrainMigrate)
				r.link(m, -1, -1)
			}
			r.led.Close(m, e.time, e.cause)
		}
	case evDispatch, evMigrate:
		for _, m := range r.members(e.first, e.n) {
			if e.kind == evMigrate {
				r.led.Reopen(m, obs.PhaseDrainMigrate)
			}
			r.led.Close(m, e.time, obs.CauseDispatched)
			r.link(m, int(e.chip), int(e.pos))
		}
	}
}

// link records that request m continues as record pos of chip c's
// ledger; (-1, -1) marks a request that left the chips.
func (r *run) link(m, c, pos int) {
	a := r.out.Attrib
	a.Chip[m], a.Pos[m] = int32(c), int32(pos)
}

// log is the fleet fold. A boot's ready and a drain's retire are logged
// when decided, at their future instants.
func (r *run) log(e *event) {
	switch e.kind {
	case evBoot:
		r.fleet.Note(e.time, int(e.chip), obs.FleetBoot)
	case evReady:
		r.fleet.Note(e.time, int(e.chip), obs.FleetReady)
	case evDrain:
		r.fleet.Note(e.time, int(e.chip), obs.FleetDrain)
	case evRetire:
		r.fleet.Note(e.time, int(e.chip), obs.FleetRetire)
	}
}
