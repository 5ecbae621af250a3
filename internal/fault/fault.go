// Package fault is the deterministic fault-injection layer: a seeded,
// sim-time-only fault-schedule model for the Planaria chip and the
// runtime health state the degradation machinery consumes. Faults land
// at declared simulated instants — never wall-clock time — so a chaos
// run at a fixed seed is byte-reproducible (the package is part of
// planaria-vet's deterministic set, DESIGN.md §8/§10).
//
// The fault taxonomy follows the hardware organization (§III–IV of the
// paper):
//
//   - KindPE: one dead processing element. The fission granularity is
//     the subarray, so a dead PE masks its whole subarray out of the
//     schedulable pool (a systolic column cannot be bypassed without
//     re-timing the wavefront).
//   - KindSubarray: a whole dead subarray (clock/power domain failure).
//   - KindLink: a Fission Pod's crossbar or ring-bus segment failure.
//     The Pod Memory can no longer feed the pod's subarrays, so the
//     entire pod drops out of the pool.
//
// Every fault is either permanent (Duration 0) or transient (repairs at
// Time+Duration). Health aggregates active faults into an
// arch.HealthMask; Injector replays a Schedule against simulated time
// for the serving simulator.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"planaria/internal/arch"
	"planaria/internal/simtime"
)

// Kind classifies a fault event.
type Kind int

const (
	// KindPE is a single dead processing element inside a subarray.
	KindPE Kind = iota
	// KindSubarray is a whole dead subarray.
	KindSubarray
	// KindLink is a failed pod crossbar / ring-bus link; it takes the
	// whole Fission Pod offline.
	KindLink
)

// String renders the kind in the schedule-file vocabulary.
func (k Kind) String() string {
	switch k {
	case KindPE:
		return "pe"
	case KindSubarray:
		return "subarray"
	case KindLink:
		return "link"
	default:
		//perf:alloc-ok schedules with an unknown kind fail validation, so a run never names one
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// Time is the simulated instant (seconds) the fault lands.
	Time float64
	Kind Kind
	// Unit is the subarray index for KindPE/KindSubarray, or the pod
	// index for KindLink.
	Unit int
	// Row, Col locate the dead PE within its subarray (KindPE only;
	// informational — the degradation granularity is the subarray).
	Row, Col int
	// Duration > 0 makes the fault transient: it repairs at
	// Time+Duration. Zero means permanent.
	Duration float64
}

// Schedule is a validated fault schedule against a chip of Units
// subarrays distributed over Pods pods.
type Schedule struct {
	Units int
	Pods  int
	// Events, sorted by (Time, Kind, Unit, Row, Col) so replay order is
	// deterministic even for simultaneous faults.
	Events []Event
}

// sortEvents orders events deterministically.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Unit != b.Unit {
			return a.Unit < b.Unit
		}
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		return a.Col < b.Col
	})
}

// Validate checks every event against the chip dimensions.
func (s *Schedule) Validate() error {
	if s.Units <= 0 {
		return fmt.Errorf("fault: schedule has %d units", s.Units)
	}
	if s.Pods <= 0 || s.Units%s.Pods != 0 {
		return fmt.Errorf("fault: %d units not divisible into %d pods", s.Units, s.Pods)
	}
	for i, e := range s.Events {
		if e.Time < 0 || math.IsNaN(e.Time) || math.IsInf(e.Time, 0) {
			return fmt.Errorf("fault: event %d at non-finite or negative time %v", i, e.Time)
		}
		if e.Duration < 0 || math.IsNaN(e.Duration) || math.IsInf(e.Duration, 0) {
			return fmt.Errorf("fault: event %d has bad duration %v", i, e.Duration)
		}
		switch e.Kind {
		case KindPE, KindSubarray:
			if e.Unit < 0 || e.Unit >= s.Units {
				return fmt.Errorf("fault: event %d targets subarray %d of %d", i, e.Unit, s.Units)
			}
		case KindLink:
			if e.Unit < 0 || e.Unit >= s.Pods {
				return fmt.Errorf("fault: event %d targets pod %d of %d", i, e.Unit, s.Pods)
			}
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// Generate draws a seeded fault schedule: fault arrivals are Poisson at
// rate faults/second over [0, horizon), targets uniform, kinds weighted
// toward subarray faults (50% subarray, 30% PE, 20% link), and each
// fault transient with probability 2/3 with exponentially distributed
// outage time of mean meanOutage. Identical arguments produce an
// identical schedule — the generator is the only randomness source and
// it is seed-parameterized (planaria-vet's noclock contract).
func Generate(units, pods int, rate, horizon, meanOutage float64, seed int64) (*Schedule, error) {
	s := &Schedule{Units: units, Pods: pods}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("fault: bad rate %v", rate)
	}
	if rate == 0 || horizon <= 0 {
		return s, nil
	}
	rng := rand.New(rand.NewSource(seed))
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= horizon {
			break
		}
		e := Event{Time: t}
		switch p := rng.Float64(); {
		case p < 0.5:
			e.Kind = KindSubarray
			e.Unit = rng.Intn(units)
		case p < 0.8:
			e.Kind = KindPE
			e.Unit = rng.Intn(units)
			e.Row = rng.Intn(32)
			e.Col = rng.Intn(32)
		default:
			e.Kind = KindLink
			e.Unit = rng.Intn(pods)
		}
		if rng.Float64() < 2.0/3.0 {
			e.Duration = rng.ExpFloat64() * meanOutage
		}
		s.Events = append(s.Events, e)
	}
	sortEvents(s.Events)
	return s, nil
}

// Health is the chip's live fault state: per-subarray and per-pod
// reference counts of active faults (transient faults of the same unit
// may overlap, so plain booleans would mis-repair).
type Health struct {
	units, pods int
	deadSub     []int // active subarray-level faults (KindSubarray)
	deadPE      []int // active dead-PE faults per subarray
	deadLink    []int // active link faults per pod
	alive       int   // usable subarrays, kept current by apply
}

// NewHealth returns an all-alive health state.
//
//perf:cold once-per-run constructor; the per-event paths are UsableSub/apply
func NewHealth(units, pods int) *Health {
	return &Health{
		units: units, pods: pods,
		deadSub:  make([]int, units),
		deadPE:   make([]int, units),
		deadLink: make([]int, pods),
		alive:    units,
	}
}

// Units returns the tracked subarray count.
func (h *Health) Units() int { return h.units }

// subPerPod returns subarrays per pod.
func (h *Health) subPerPod() int { return h.units / h.pods }

// UsableSub reports whether subarray i can host work: no subarray
// fault, no dead PE, and its pod's link alive.
func (h *Health) UsableSub(i int) bool {
	return h.deadSub[i] == 0 && h.deadPE[i] == 0 && h.deadLink[i/h.subPerPod()] == 0
}

// Alive returns the number of usable subarrays.
func (h *Health) Alive() int { return h.alive }

// Fraction returns the usable share of the subarray pool.
func (h *Health) Fraction() float64 {
	return float64(h.Alive()) / float64(h.units)
}

// Mask exports the health state as an arch.HealthMask over the fission
// configuration space.
func (h *Health) Mask() arch.HealthMask {
	u := make([]bool, h.units)
	for i := range u {
		u[i] = h.UsableSub(i)
	}
	return arch.HealthMask{Usable: u}
}

// apply registers a fault landing (up=false) or repairing (up=true) and
// moves the usable count by the subarrays whose usability it flipped.
func (h *Health) apply(e Event, up bool) {
	d := 1
	if up {
		d = -1
	}
	first, last := e.Unit, e.Unit+1 // the subarrays the event can flip
	if e.Kind == KindLink {
		first, last = e.Unit*h.subPerPod(), (e.Unit+1)*h.subPerPod()
	}
	for i := first; i < last; i++ {
		if h.UsableSub(i) {
			h.alive--
		}
	}
	switch e.Kind {
	case KindSubarray:
		h.deadSub[e.Unit] += d
	case KindPE:
		h.deadPE[e.Unit] += d
	case KindLink:
		h.deadLink[e.Unit] += d
	}
	for i := first; i < last; i++ {
		if h.UsableSub(i) {
			h.alive++
		}
	}
}

// Change is one health transition replayed by the Injector.
type Change struct {
	Event Event
	// Up is true for a transient fault's repair, false for a fault
	// landing.
	Up bool
	// Time is the transition instant (Event.Time for a landing,
	// Event.Time+Event.Duration for a repair).
	Time float64
}

// Injector replays a Schedule against advancing simulated time and
// maintains the chip's Health. It is single-use and stateful: construct
// one per simulation run.
type Injector struct {
	sched  *Schedule
	trans  []Change
	next   int
	health *Health
}

// NewInjector validates the schedule and expands every transient fault
// into its landing and repair transitions, sorted by time (ties broken
// by landing-before-repair, then the schedule's deterministic event
// order).
//
//perf:cold once-per-run constructor; the per-event paths are AdvanceTo/NextChange
func NewInjector(s *Schedule) (*Injector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	trans := make([]Change, 0, 2*len(s.Events))
	for _, e := range s.Events {
		trans = append(trans, Change{Event: e, Time: e.Time})
		if e.Duration > 0 {
			trans = append(trans, Change{Event: e, Up: true, Time: e.Time + e.Duration})
		}
	}
	sort.SliceStable(trans, func(i, j int) bool {
		if trans[i].Time != trans[j].Time {
			return trans[i].Time < trans[j].Time
		}
		return !trans[i].Up && trans[j].Up
	})
	return &Injector{sched: s, trans: trans, health: NewHealth(s.Units, s.Pods)}, nil
}

// Health returns the injector's live health state.
func (in *Injector) Health() *Health { return in.health }

// NextChange returns the instant of the first pending transition after
// `after`, or +Inf when the schedule is exhausted. The serving
// simulator folds this into its next-event computation so fault instants
// are scheduling events.
func (in *Injector) NextChange(after float64) float64 {
	for i := in.next; i < len(in.trans); i++ {
		if in.trans[i].Time > after {
			return in.trans[i].Time
		}
	}
	return math.Inf(1)
}

// Due reports whether a transition is due at t: whether AdvanceTo(t)
// would apply any.
func (in *Injector) Due(t float64) bool {
	return in.next < len(in.trans) && simtime.Due(in.trans[in.next].Time, t)
}

// AdvanceTo applies every transition with Time ≤ t and returns them in
// replay order. The returned slice is valid until the next call.
func (in *Injector) AdvanceTo(t float64) []Change {
	start := in.next
	for in.next < len(in.trans) && simtime.Due(in.trans[in.next].Time, t) {
		in.health.apply(in.trans[in.next].Event, in.trans[in.next].Up)
		in.next++
	}
	return in.trans[start:in.next]
}

// Pending reports whether transitions remain.
func (in *Injector) Pending() bool { return in.next < len(in.trans) }
