package cluster

import "planaria/internal/obs"

// The stage methods emit every front-door decision once, as one event,
// and emit folds it online, in emit order, into each view the run
// attached: the front ledger with its chip/position links, and the
// fleet log. Besides the stream, the folds read only the member arena.
// Per-request events are built only behind the run's observed guard
// (Attrib is on). Lifecycle events, a handful per control tick, are
// emitted on every autoscaled run, whose Outcome always carries the
// fleet log.

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
	// evDispatch: a group went to position pos of chip at time, which is
	// also its merged arrival, the instant the chip takes it over.
	evDispatch
	// evMigrate: a drain moved a group to position pos of chip, handing
	// off at time.
	evMigrate
	// evBoot: slot chip began booting at time.
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
	time      float64
	kind      eventKind
	cause     obs.Cause
	req       int32
	first, n  int32
	chip, pos int32
}

// views holds a run's front-door sinks. emit skips nil sinks.
type views struct {
	led   *obs.Ledger
	fleet *obs.Fleet
}

// attach binds the configuration's sinks to the run: the front ledger
// and its links, and the fleet log of an autoscaled run with its initial
// slots.
//
//perf:cold per-run setup: runs once before the admit walk
func (r *run) attach() {
	cfg, n := &r.cfg, len(r.reqs)
	// Attribution (DESIGN.md §14): a front-door ledger indexed like the
	// input plus the chip/position links resolved at dispatch.
	if cfg.Attrib {
		a := &Attribution{Front: obs.NewLedger(n), Chip: make([]int32, n), Pos: make([]int32, n)}
		for i := range a.Chip {
			a.Chip[i], a.Pos[i] = -1, -1
		}
		r.out.Attrib, r.led = a, a.Front
	}
	r.observed = r.led != nil
	if r.asc == nil {
		return
	}
	r.fleet = obs.NewFleet(cfg.Chips)
	r.out.Fleet = r.fleet
	for i := range int32(r.asc.cfg.Initial) {
		r.emit(event{kind: evBoot, chip: i})
		r.emit(event{kind: evReady, chip: i})
	}
}

// emit folds one front-door event into every attached view.
func (r *run) emit(e event) {
	if r.led != nil {
		r.attribute(&e)
	}
	if r.fleet != nil {
		r.log(&e)
	}
}

// members returns the input indices of a group.
func (r *run) members(first, n int32) []int { return r.arena[first : first+n] }

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
