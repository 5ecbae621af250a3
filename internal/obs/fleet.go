package obs

import (
	"fmt"
	"math"
	"sort"
)

// Fleet accounting for an autoscaled cluster: each chip slot moves
// through boot → ready → drain → retire cycles on simulated time, and
// the cost question the autoscale sweep asks — how many chip-hours did
// this fleet burn? — is the integral of "slots powered on" over the run.
// The Fleet below records the lifecycle instants as they are decided and
// answers that integral exactly; it is the fleet-level sibling of the
// per-chip Occupancy accountant (DESIGN.md §14), which meters cycles
// *within* a powered-on chip.
//
// Like the other obs sinks, a nil *Fleet is a safe no-op receiver and
// recording is deterministic: events carry simulated instants chosen by
// the cluster front end, never wall clock.

// FleetEventKind classifies a chip-slot lifecycle transition.
type FleetEventKind uint8

const (
	// FleetBoot: the slot starts powering on (chip-hours begin accruing).
	FleetBoot FleetEventKind = iota
	// FleetReady: boot finished; the slot is routable.
	FleetReady
	// FleetDrain: the slot stops admitting new work (still powered,
	// finishing in-flight work).
	FleetDrain
	// FleetRetire: the slot powers off (chip-hours stop accruing).
	FleetRetire
)

// String names the kind as it appears in artifacts.
func (k FleetEventKind) String() string {
	switch k {
	case FleetBoot:
		return "boot"
	case FleetReady:
		return "ready"
	case FleetDrain:
		return "drain"
	case FleetRetire:
		return "retire"
	default:
		return "fleet(?)"
	}
}

// FleetEvent is one recorded lifecycle transition.
type FleetEvent struct {
	Time float64
	Chip int
	Kind FleetEventKind
}

// Fleet is the append-only lifecycle log of an autoscaled run. Events
// for one chip must be recorded with non-decreasing times (the cluster's
// control ticks guarantee it); across chips they may interleave freely,
// since drains record their future retire instant at decision time.
type Fleet struct {
	chips  int
	events []FleetEvent
}

// NewFleet returns an empty log for a fleet of the given slot count.
//
//perf:cold once-per-run constructor
func NewFleet(chips int) *Fleet {
	return &Fleet{chips: chips}
}

// Note records one transition. Nil-safe no-op.
func (f *Fleet) Note(t float64, chip int, k FleetEventKind) {
	if f == nil || chip < 0 || chip >= f.chips {
		return
	}
	f.events = append(f.events, FleetEvent{Time: t, Chip: chip, Kind: k})
}

// Events returns the recorded log in append order.
func (f *Fleet) Events() []FleetEvent {
	if f == nil {
		return nil
	}
	return f.events
}

// perChip splits the log into per-chip event sequences, each in its
// recorded (per-chip chronological) order.
func (f *Fleet) perChip() [][]FleetEvent {
	per := make([][]FleetEvent, f.chips)
	for _, e := range f.events {
		per[e.Chip] = append(per[e.Chip], e)
	}
	return per
}

// ChipSeconds integrates powered-on time over [0, horizon]: for every
// boot→retire pair the slot contributes retire−boot (clamped to the
// horizon); a slot still up at the horizon contributes horizon−boot.
// Chips that never booted contribute nothing — a static fleet should
// simply be costed as chips × horizon by the caller.
func (f *Fleet) ChipSeconds(horizon float64) float64 {
	if f == nil {
		return 0
	}
	total := 0.0
	for _, evs := range f.perChip() {
		up := math.NaN()
		for _, e := range evs {
			switch e.Kind {
			case FleetBoot:
				if math.IsNaN(up) {
					up = e.Time
				}
			case FleetRetire:
				if !math.IsNaN(up) {
					end := math.Min(e.Time, horizon)
					if end > up {
						total += end - up
					}
					up = math.NaN()
				}
			}
		}
		if !math.IsNaN(up) && horizon > up {
			total += horizon - up
		}
	}
	return total
}

// PeakActive returns the maximum number of simultaneously routable
// chips over [0, horizon]: a chip counts from its ready instant until
// its drain (or the horizon). Boundary instants resolve starts before
// ends, so a drain and a ready at the same instant overlap.
func (f *Fleet) PeakActive(horizon float64) int {
	if f == nil {
		return 0
	}
	type edge struct {
		t     float64
		delta int
	}
	var edges []edge
	for _, evs := range f.perChip() {
		active := false
		for _, e := range evs {
			switch e.Kind {
			case FleetReady:
				if !active && e.Time <= horizon {
					edges = append(edges, edge{t: e.Time, delta: +1})
					active = true
				}
			case FleetDrain, FleetRetire:
				if active {
					edges = append(edges, edge{t: math.Min(e.Time, horizon), delta: -1})
					active = false
				}
			}
		}
		if active {
			edges = append(edges, edge{t: horizon, delta: -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta > edges[j].delta // +1 before -1 on ties
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// Validate checks the log's lifecycle discipline: per chip, times never
// decrease and transitions follow boot → ready → drain → retire (drain
// optional only when the cycle is still open at the end of the log).
func (f *Fleet) Validate() error {
	if f == nil {
		return nil
	}
	for chip, evs := range f.perChip() {
		prev := math.Inf(-1)
		// state: 0 = off, 1 = booting, 2 = ready, 3 = draining
		state := 0
		for i, e := range evs {
			if e.Time < prev {
				return fmt.Errorf("obs: fleet chip %d time went backwards at event %d (%v < %v)", chip, i, e.Time, prev)
			}
			prev = e.Time
			switch e.Kind {
			case FleetBoot:
				if state != 0 {
					return fmt.Errorf("obs: fleet chip %d boot in state %d", chip, state)
				}
				state = 1
			case FleetReady:
				if state != 1 {
					return fmt.Errorf("obs: fleet chip %d ready in state %d", chip, state)
				}
				state = 2
			case FleetDrain:
				if state != 2 {
					return fmt.Errorf("obs: fleet chip %d drain in state %d", chip, state)
				}
				state = 3
			case FleetRetire:
				if state != 3 {
					return fmt.Errorf("obs: fleet chip %d retire in state %d", chip, state)
				}
				state = 0
			}
		}
	}
	return nil
}
