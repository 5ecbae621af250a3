package obs

// Occupancy is the subarray/pod occupancy accountant (DESIGN.md §14).
// It partitions every wall-cycle of every compute unit (a subarray of a
// chip) into exactly one of four states — busy, idle, faulted,
// reconfig — in integer unit-cycles, so the conservation identity
//
//	Busy + Idle + Faulted + Reconfig == Units × Horizon
//
// holds exactly, with no float accumulation anywhere. Feeds:
//
//   - the sim engine accounts each event interval via Interval, with
//     busy = allocated-and-computing units, reconfig = allocated units
//     still paying a re-allocation penalty, faulted = fault-masked
//     units (zero under derate mode, where degradation shows up as
//     stretched wall-cycles instead of masked units);
//   - sched.Spatial reports fission decisions via NoteDecision, giving
//     a demand-pressure signal next to the supply-side split.
//
// All methods are nil-safe no-ops so probes can be carried
// unconditionally; a non-nil Occupancy is single-goroutine like the
// engine that feeds it. Fleet rollups pad per-chip accountants to a
// common horizon (PadTo) before summing, so the fleet identity is
// ΣUnits × maxHorizon.
type Occupancy struct {
	// Units is the number of compute units being accounted.
	Units int64
	// Horizon is the accounted wall-cycle span.
	Horizon int64
	// Busy/Idle/Faulted/Reconfig are unit-cycle totals partitioning
	// Units × Horizon.
	Busy, Idle, Faulted, Reconfig int64

	// Decisions/FitDecisions count fission allocation decisions and how
	// many fit every co-resident task (fed by sched.Spatial).
	Decisions, FitDecisions int64
	// DemandUnits/SupplyUnits accumulate, per decision, the units
	// demanded by ideal (unscaled) allocations and the units actually
	// available; their ratio is the demand pressure on the fission
	// policy.
	DemandUnits, SupplyUnits int64
}

// NewOccupancy returns an accountant for the given unit count.
//
//perf:cold once-per-run constructor
func NewOccupancy(units int64) *Occupancy {
	o := &Occupancy{}
	o.SetUnits(units)
	return o
}

// SetUnits sets the unit count being accounted.
func (o *Occupancy) SetUnits(units int64) {
	if o == nil {
		return
	}
	o.Units = units
}

// Reset clears all accounting, keeping the unit count.
func (o *Occupancy) Reset() {
	if o == nil {
		return
	}
	*o = Occupancy{Units: o.Units}
}

// Interval accounts one event interval of cyc wall-cycles: busy units
// computing, reconfig units paying re-allocation penalties, faulted
// units masked out, and the remainder idle. Intervals with cyc <= 0 are
// ignored.
func (o *Occupancy) Interval(cyc, busy, reconfig, faulted int64) {
	if o == nil || cyc <= 0 {
		return
	}
	o.Busy += busy * cyc
	o.Reconfig += reconfig * cyc
	o.Faulted += faulted * cyc
	o.Idle += (o.Units - busy - reconfig - faulted) * cyc
	o.Horizon += cyc
}

// PadTo extends the horizon to h wall-cycles, accounting the extension
// as all-idle. Used to bring per-chip accountants to a common fleet
// horizon before summing.
func (o *Occupancy) PadTo(h int64) {
	if o == nil || h <= o.Horizon {
		return
	}
	o.Idle += o.Units * (h - o.Horizon)
	o.Horizon = h
}

// Merge adds other's accounting into o (fleet rollup). Callers should
// PadTo a common horizon first; Merge itself just sums fields, with the
// merged Horizon being the max of the two.
func (o *Occupancy) Merge(other *Occupancy) {
	if o == nil || other == nil {
		return
	}
	o.Units += other.Units
	o.Busy += other.Busy
	o.Idle += other.Idle
	o.Faulted += other.Faulted
	o.Reconfig += other.Reconfig
	if other.Horizon > o.Horizon {
		o.Horizon = other.Horizon
	}
	o.Decisions += other.Decisions
	o.FitDecisions += other.FitDecisions
	o.DemandUnits += other.DemandUnits
	o.SupplyUnits += other.SupplyUnits
}

// NoteDecision records one fission allocation decision: whether every
// co-resident task fit at its ideal allocation, how many units the
// ideal allocations demanded, and how many were available. Integer-only
// and nil-safe, so it is callable unguarded from //perf:hot allocator
// code.
func (o *Occupancy) NoteDecision(fit bool, demand, supply int64) {
	if o == nil {
		return
	}
	o.Decisions++
	if fit {
		o.FitDecisions++
	}
	o.DemandUnits += demand
	o.SupplyUnits += supply
}

// Utilization returns Busy / (Units × Horizon), or 0 before any
// accounting.
func (o *Occupancy) Utilization() float64 {
	if o == nil || o.Units <= 0 || o.Horizon <= 0 {
		return 0
	}
	return float64(o.Busy) / (float64(o.Units) * float64(o.Horizon))
}

// Pressure returns DemandUnits / SupplyUnits — how oversubscribed the
// fission policy's decisions were — or 0 before any decisions.
func (o *Occupancy) Pressure() float64 {
	if o == nil || o.SupplyUnits <= 0 {
		return 0
	}
	return float64(o.DemandUnits) / float64(o.SupplyUnits)
}

// OccupancyAware is implemented by the schedulers that can feed an
// occupancy accountant (sched.Spatial).
type OccupancyAware interface {
	SetOccupancy(*Occupancy)
}
