package cluster

import (
	"fmt"
	"math"
	"sort"

	"planaria/internal/obs"
)

// Autoscaling (DESIGN.md §15): with Config.Scale set, the cluster's chip
// slots stop being a fixed fleet. Slots join with a simulated boot
// latency and leave via *graceful drain* — a draining slot stops
// admitting new work, its not-yet-started dispatch groups migrate to the
// least-loaded routable chip (or shed, as ShedDrain, when none remains),
// and the slot retires once its in-flight work is estimated done. A
// pluggable ScaleController reads the admission-queue pressure signal at
// a fixed control period and decides the desired fleet size; the default
// controller grows proportionally to backlog (flash crowds get multi-chip
// jumps in one tick) and shrinks one chip at a time after a hold-down.
//
// Everything runs on the same simulated clock as dispatch itself —
// control ticks interleave deterministically with the admit walk — so an
// autoscaled run at a fixed seed stays byte-reproducible, and the
// conservation invariant extends by exactly one term:
// Completed + ShedFront + ShedChips + Rejected + ShedDrain == arrivals.

// Autoscale configures the cluster autoscaler. Config.Chips becomes the
// fleet ceiling (the number of chip slots that exist); the controller
// moves the *active* count within [Min, Chips].
type Autoscale struct {
	// Min is the floor on active chips (default 1).
	Min int
	// Initial is the number of slots ready at t = 0 (default Min).
	Initial int
	// BootS is the boot latency in simulated seconds: a slot booted at t
	// becomes routable at t + BootS.
	BootS float64
	// IntervalS is the control period in simulated seconds (required).
	IntervalS float64
	// Controller decides the desired fleet size each tick; nil means a
	// default-tuned Hysteresis controller.
	Controller ScaleController
}

// withDefaults resolves the zero-value conveniences.
//
//perf:cold per-run configuration resolution, before the serving loop
func (a *Autoscale) withDefaults() Autoscale {
	out := *a
	if out.Min == 0 {
		out.Min = 1
	}
	if out.Initial == 0 {
		out.Initial = out.Min
	}
	if out.Controller == nil {
		out.Controller = &Hysteresis{}
	}
	return out
}

// validate checks the autoscale knobs against the fleet ceiling.
func (a *Autoscale) validate(chips int) error {
	r := a.withDefaults()
	if r.Min < 1 || r.Min > chips {
		return fmt.Errorf("cluster: autoscale Min %d outside [1, %d]", r.Min, chips)
	}
	if r.Initial < r.Min || r.Initial > chips {
		return fmt.Errorf("cluster: autoscale Initial %d outside [Min %d, %d]", r.Initial, r.Min, chips)
	}
	if math.IsNaN(a.BootS) || math.IsInf(a.BootS, 0) || a.BootS < 0 {
		return fmt.Errorf("cluster: autoscale BootS %v", a.BootS)
	}
	if !(a.IntervalS > 0) || math.IsInf(a.IntervalS, 0) {
		return fmt.Errorf("cluster: autoscale needs a positive control interval, got %v", a.IntervalS)
	}
	return nil
}

// ScaleSignal is the pressure snapshot a controller reads each tick.
type ScaleSignal struct {
	// Time is the tick instant (simulated seconds).
	Time float64
	// Active counts routable slots (ready, not draining); Booting counts
	// slots still paying their boot latency; Draining counts slots
	// finishing in-flight work.
	Active, Booting, Draining int
	// BacklogS sums the routable chips' outstanding estimated work in
	// seconds — the same estimate the least-work balancer routes on.
	BacklogS float64
	// MaxWaitS is the worst token-bucket admission delay (admit instant −
	// arrival) observed since the previous tick: the front door's debt.
	MaxWaitS float64
	// Arrivals counts admits processed since the previous tick.
	Arrivals int
}

// ScaleController decides the desired fleet size from the pressure
// signal. Desired is called exactly once per control tick, in simulated
// time order, so stateful controllers (hold-down counters, scripted
// schedules) stay deterministic.
type ScaleController interface {
	Name() string
	// Desired returns the wanted slot count; the autoscaler clamps it to
	// [Min, Chips] and to what boot/drain mechanics allow.
	Desired(s ScaleSignal) int
}

// Hysteresis is the default controller: scale up fast, scale down slow.
// Upward it is proportional — desired = ceil(backlog / TargetS) — so a
// flash crowd that multiplies the backlog books several chips in a
// single tick rather than one per tick; an admission-debt trip wire
// (MaxWaitS > debtS) forces at least one extra chip even while backlog
// estimates lag. Downward it waits HoldTicks consecutive calm ticks and
// then releases one chip, so a transient lull inside a crowd cannot
// trigger a drain that the next spike regrets.
type Hysteresis struct {
	// TargetS is the per-fleet backlog the controller sizes for, in
	// seconds of estimated work per chip (default 0.25).
	TargetS float64
	// HoldTicks is the calm-tick count before shrinking by one
	// (default 3).
	HoldTicks int

	calm int
}

// debtS is Hysteresis's admission-wait trip wire in seconds.
const debtS = 0.05

// Name names the controller in artifacts.
func (h *Hysteresis) Name() string { return "hysteresis" }

// Desired implements ScaleController.
func (h *Hysteresis) Desired(s ScaleSignal) int {
	target := h.TargetS
	if target <= 0 {
		target = 0.25
	}
	hold := h.HoldTicks
	if hold <= 0 {
		hold = 3
	}
	want := int(math.Ceil(s.BacklogS / target))
	if want < 1 {
		want = 1
	}
	effective := s.Active + s.Booting
	if s.MaxWaitS > debtS && want <= effective {
		want = effective + 1
	}
	if want >= effective {
		if want > effective {
			h.calm = 0
		}
		return want
	}
	h.calm++
	if h.calm >= hold {
		h.calm = 0
		return effective - 1
	}
	return effective
}

// ScaleStep is one step of a scripted fleet-size schedule.
type ScaleStep struct {
	AtS   float64
	Chips int
}

// Script is a deterministic controller that replays an explicit desired
// fleet-size schedule — the race-hardening tests use it to force drains
// at exact instants (against faults, flash crowds, and chip death), and
// it doubles as a way to replay a recorded scaling plan.
type Script struct {
	// Steps must be sorted by AtS; the desired size at time t is the last
	// step with AtS <= t (Initial applies before the first step).
	Steps []ScaleStep
}

// Name names the controller in artifacts.
func (s *Script) Name() string { return "script" }

// Desired implements ScaleController.
func (s *Script) Desired(sig ScaleSignal) int {
	idx := sort.Search(len(s.Steps), func(i int) bool { return s.Steps[i].AtS > sig.Time })
	if idx == 0 {
		return sig.Active + sig.Booting
	}
	return s.Steps[idx-1].Chips
}

// slotState is a chip slot's lifecycle position.
type slotState uint8

const (
	slotOff slotState = iota
	slotBooting
	slotReady
	slotDraining
)

// chipSlot is one slot's autoscaler-side record.
type chipSlot struct {
	state   slotState
	readyAt float64 // boot completion instant (valid in slotBooting/slotReady)
	// retireAt is the estimated in-flight completion of the last drain;
	// the slot can be re-booted only at t >= retireAt.
	retireAt float64
	// pend holds indices into the run's dispatch-record slice for groups
	// routed here and not yet estimated finished, in dispatch order
	// (estimated start and end both monotone). Pruned from the front.
	pend []int32
}

// autoscaler is the per-run fleet state machine. It lives entirely
// inside cluster.Run's single-goroutine front-end walk; Run consults
// routable() on every dispatch and calls tick() at each control instant.
type autoscaler struct {
	cfg   Autoscale
	chips int
	slots []chipSlot

	nextTick float64
	debtMax  float64 // worst admission wait since the previous tick
	arrivals int     // admits since the previous tick
}

// newAutoscaler builds the run's fleet state: slots 0..Initial-1 ready
// at t = 0, the rest off.
//
//perf:cold per-run setup, before the serving loop
func newAutoscaler(cfg *Autoscale, chips int) *autoscaler {
	r := cfg.withDefaults()
	a := &autoscaler{cfg: r, chips: chips, slots: make([]chipSlot, chips), nextTick: r.IntervalS}
	for i := 0; i < r.Initial; i++ {
		a.slots[i].state = slotReady
	}
	return a
}

// routable reports whether slot i may receive new work at instant t.
// Health masking stays the balancer's separate concern.
func (a *autoscaler) routable(i int, t float64) bool {
	s := &a.slots[i]
	switch s.state {
	case slotReady:
		return true
	case slotBooting:
		if t >= s.readyAt {
			s.state = slotReady
			return true
		}
	}
	return false
}

// counts tallies the fleet states at instant t (promoting finished
// boots, so Active reflects instant t exactly).
func (a *autoscaler) counts(t float64) (active, booting, draining int) {
	for i := range a.slots {
		s := &a.slots[i]
		switch s.state {
		case slotBooting:
			if t >= s.readyAt {
				s.state = slotReady
				active++
			} else {
				booting++
			}
		case slotReady:
			active++
		case slotDraining:
			if t >= s.retireAt {
				s.state = slotOff
			} else {
				draining++
			}
		}
	}
	return
}

// noteWait feeds one admission wait into the debt signal.
func (a *autoscaler) noteWait(w float64) {
	if w > a.debtMax {
		a.debtMax = w
	}
	a.arrivals++
}

// bootOne powers on the lowest-index available slot at instant t,
// returning the slot index or -1 when every slot is active, booting,
// draining, or still finishing a previous drain.
func (a *autoscaler) bootOne(t float64) int {
	for i := range a.slots {
		s := &a.slots[i]
		if s.state == slotOff && t >= s.retireAt {
			s.state = slotBooting
			s.readyAt = t + a.cfg.BootS
			return i
		}
	}
	return -1
}

// drainCandidate picks the active slot with the least outstanding
// estimated work at instant t (ties to the highest index, so the newest
// spare retires first), or -1 when none is active.
func (a *autoscaler) drainCandidate(t float64, chips []chip) int {
	best, bestOut := -1, 0.0
	for i := range a.slots {
		if a.slots[i].state != slotReady {
			continue
		}
		if out := chips[i].backlog(t); best < 0 || out <= bestOut {
			best, bestOut = i, out
		}
	}
	return best
}

// tick runs the controller at control instant T: it boots slots up to
// the desired fleet size, or drains ready slots down to it, never below
// Min. Ticks run inside the same single-goroutine walk as dispatch, so a
// fault landing on a draining chip, a flash crowd mid-drain, or a drain
// racing permanent chip death all resolve in one deterministic time
// order.
func (r *run) tick(T float64) {
	a := r.asc
	active, booting, draining := a.counts(T)
	backlog := 0.0
	for i := range r.chips {
		if a.slots[i].state == slotReady {
			backlog += r.chips[i].backlog(T)
		}
	}
	want := a.cfg.Controller.Desired(ScaleSignal{
		Time: T, Active: active, Booting: booting, Draining: draining,
		BacklogS: backlog, MaxWaitS: a.debtMax, Arrivals: a.arrivals,
	})
	want = min(max(want, a.cfg.Min), a.chips)
	eff := active + booting
	for eff < want {
		c := a.bootOne(T)
		if c < 0 {
			break
		}
		if r.fleet != nil { // always, on an autoscaled run
			r.emit(event{kind: evBoot, time: T, chip: int32(c)})
			r.emit(event{kind: evReady, time: a.slots[c].readyAt, chip: int32(c)})
		}
		eff++
	}
	// Scale-down drains ready slots only — boots in flight are never
	// cancelled — and stops at the Min floor.
	for eff > want && active > a.cfg.Min {
		c := a.drainCandidate(T, r.chips)
		if c < 0 {
			break
		}
		r.drain(c, T)
		eff--
		active--
	}
	a.debtMax, a.arrivals = 0, 0
}

// drain retires slot c gracefully at instant T: groups estimated to have
// started before T stay and finish, and the slot retires when the last
// of them is estimated done; queued groups migrate to the least-loaded
// routable chip, or shed as ShedDrain when none remains.
func (r *run) drain(c int, T float64) {
	s := &r.asc.slots[c]
	s.state = slotDraining
	if r.fleet != nil {
		r.emit(event{kind: evDrain, time: T, chip: int32(c)})
	}
	// Skip groups already estimated finished, then keep the in-flight
	// prefix: estimated start and end are both monotone along pend.
	pend := s.pend
	i := 0
	for i < len(pend) && r.ends[pend[i]] <= T {
		i++
	}
	retire := T
	for ; i < len(pend); i++ {
		di := pend[i]
		if r.ends[di]-r.dispatches[di].cost >= T {
			break
		}
		retire = r.ends[di]
	}
	// The queued groups are the trailing positions of the slot's request
	// slice, so taking them off keeps per-chip positions dense.
	for _, di := range pend[i:] {
		d := r.dispatches[di]
		r.out.Dispatched[c]--
		r.chips[c].groups--
		target := r.leastWork(T, c)
		if target < 0 {
			r.dispatches[di].chip = -1 // tombstone: shed during drain
			r.out.Batches--
			r.membersTotal -= int(d.n)
			r.out.ShedDrain += int(d.n)
			if r.observed {
				r.emit(event{kind: evShed, cause: obs.CauseShedDrain, time: T, first: d.first, n: d.n})
			}
			continue
		}
		nd := d
		nd.chip, nd.at, nd.merged = target, T, true
		pos := r.place(nd)
		r.dispatches[di].chip = -2 // migrated away: the new record serves its members
		r.out.Migrated += int(d.n)
		if r.observed {
			r.emit(event{kind: evMigrate, time: T, first: d.first, n: d.n, chip: int32(target), pos: int32(pos)})
		}
	}
	s.pend = pend[:0]
	s.retireAt = retire
	r.chips[c].busyUntil = retire
	if r.fleet != nil {
		r.emit(event{kind: evRetire, time: retire, chip: int32(c)})
	}
}
