package sched

import (
	"math"

	"planaria/internal/arch"
	"planaria/internal/obs"
	"planaria/internal/refission"
	"planaria/internal/sim"
)

// Elastic wraps the spatial scheduler with runtime re-fission
// (DESIGN.md §16): between the ordinary scheduling events it measures
// every in-flight task's QoS headroom — projected finish versus
// deadline at the current allocation — and re-splits the chip at the
// next tile boundary, shrinking tasks that are beating their SLA to
// absorb an arrival and growing starved tasks into freed subarrays,
// instead of queueing, shedding, or fully preempting. Plain Spatial is
// the elastic-off policy.
type Elastic struct {
	// MinIntervalS floors the spacing between re-fission wakeups so a
	// persistently starved queue cannot thrash the chip with
	// reconfigurations (NewElastic sets 200 µs).
	MinIntervalS float64

	sp      *Spatial
	planner refission.Planner
	cands   []refission.Candidate
}

// headroomFrac is the comfort deadband as a fraction of the QoS window:
// a task donates eagerly (in the planner's rebalance pass and ahead of
// tighter donors) only while its projected finish beats the deadline by
// at least headroomFrac × (deadline − arrival). Hard QoS levels leave
// nobody clearing a wide band, so the band is a thin 0.1% — enough to
// absorb the shrink's own drain/checkpoint penalty without freezing
// every spare in place.
const headroomFrac = 0.001

// NewElastic returns the elastic policy for a hardware configuration.
func NewElastic(cfg arch.Config) *Elastic {
	return &Elastic{sp: NewSpatial(cfg), MinIntervalS: 200e-6}
}

// Name implements sim.Policy.
func (e *Elastic) Name() string { return "Planaria-Elastic" }

// Quantum implements sim.Policy: like Spatial the policy is
// event-driven; its extra invocations come from NextRefission wakeups,
// not a fixed quantum.
func (e *Elastic) Quantum() float64 { return 0 }

// SetObserver implements obs.Observable by delegating to the wrapped
// spatial scheduler: elastic decisions land on the same "sched" track.
func (e *Elastic) SetObserver(tb *obs.TraceBuilder) { e.sp.SetObserver(tb) }

// SetOccupancy implements obs.OccupancyAware by delegation: elastic
// decisions count as fission decisions in the same accountant, keeping
// the fit/unfit split comparable across the ablation.
func (e *Elastic) SetOccupancy(o *obs.Occupancy) { e.sp.SetOccupancy(o) }

// SetHealth implements sim.HealthAware by delegation: the planner's
// capacity and chain caps follow the live fault mask.
func (e *Elastic) SetHealth(mask arch.HealthMask) { e.sp.SetHealth(mask) }

// RefissionActive implements sim.Refissioner: re-fission is always on.
func (e *Elastic) RefissionActive() bool { return true }

// Allocate implements sim.Policy as the map form of AllocateInto.
func (e *Elastic) Allocate(now float64, tasks []*sim.Task, total int) map[int]int {
	return sim.AllocMap(e, now, tasks, total)
}

// AllocateInto implements sim.SliceAllocator. It derives each task's
// minimum (ESTIMATERESOURCES), headroom, and urgency score and hands
// the whole set to the re-fission planner — which keeps current
// allocations wherever feasible, so steady state re-issues the same
// plan and the engine applies no reallocation. A task is priced only
// at the allocations the decision reads: the minimum's scan, its
// current allocation and, when doomed, the full chain.
//
//perf:hot per-event scheduling decision on the engine's zero-alloc fast path
func (e *Elastic) AllocateInto(now float64, tasks []*sim.Task, total int, dst []int) {
	if len(tasks) == 0 {
		return
	}
	s := e.sp
	cps := s.cps
	maxA := s.chainCap(total)
	if cap(e.cands) < len(tasks) {
		e.cands = make([]refission.Candidate, 0, len(tasks))
	}
	cands := e.cands[:0]
	demand := 0
	for _, t := range tasks {
		slack := t.Slack(now)
		// rem is the task's remaining cycles at eff subarrays, eff being
		// the last allocation priced; the program's tables end at
		// MaxAlloc, and Table clamps any larger allocation to that last
		// table, so allocations are compared clamped.
		lastTab := t.Prog.MaxAlloc()
		eff, rem := 0, int64(0)
		// The minimum allocation meeting the deadline: EstimateResources'
		// scan. chainCap(n) never falls as n grows, so once the priced
		// allocation stops growing every later n repeats a price that
		// already missed, and the scan ends. Remaining cycles are never
		// negative, so no allocation meets a deadline already passed.
		mn := 0
		for n := 1; n <= total && slack >= 0; n++ {
			a := min(s.chainCap(n), lastTab)
			if a == eff {
				break
			}
			eff, rem = a, t.RemainingCycles(a)
			if float64(rem)/cps <= slack {
				mn = n
				break
			}
		}
		doomed := mn == 0
		if doomed {
			// No allocation meets the deadline, so the task's floor is a
			// single subarray: any progress reduces tardiness, and a
			// demand of Max would leave it waiting for a fully idle chip
			// while crumbs of capacity go unused.
			mn = 1
		}
		headroom := 0.0
		if t.Alloc > 0 {
			if a := min(s.chainCap(t.Alloc), lastTab); a != eff {
				eff, rem = a, t.RemainingCycles(a)
			}
			headroom = slack - float64(rem)/cps
		}
		scSlack := slack
		if doomed {
			// A task no allocation can save must not outscore meetable
			// work: an expired deadline drives slack toward the floor and
			// the score toward infinity, and the planner would evict a
			// task that can still win for one that has already lost.
			// Score it by the best it can do instead.
			if a := min(maxA, lastTab); a != eff {
				eff, rem = a, t.RemainingCycles(a)
			}
			if best := float64(rem) / cps; scSlack < best {
				scSlack = best
			}
		}
		if scSlack < minSlack {
			scSlack = minSlack
		}
		d := mn
		if doomed {
			// Score against the full-chip demand the spatial estimator
			// would report, not the one-subarray floor — a doomed task
			// keeps its low urgency and never evicts meetable work.
			d = maxA
		}
		if d < 1 {
			d = 1
		}
		cands = append(cands, refission.Candidate{
			ID:       t.ID,
			Cur:      t.Alloc,
			Min:      mn,
			Max:      maxA,
			Score:    float64(t.Req.Priority) / (scSlack * float64(d)),
			Headroom: headroom,
			Margin:   headroomFrac * (t.Req.Deadline - t.Req.Arrival),
		})
		demand += mn
	}
	e.cands = cands
	fit := demand <= total
	s.occ.NoteDecision(fit, int64(demand), int64(total))
	if s.tracer != nil {
		verdict := "fit"
		if !fit {
			verdict = "unfit"
		}
		s.tracer.Instant("sched", obs.Fmt("elastic: %s %d tasks").Str(verdict).Int(len(tasks)), now,
			obs.Num("tasks", float64(len(tasks))),
			obs.Num("demand", float64(demand)),
			obs.Num("subarrays", float64(total)))
	}
	e.planner.Plan(cands, total, dst)
}

// NextRefission implements sim.Refissioner: it returns the next tile
// boundary worth a re-split — the earliest boundary of any running task
// while some live task is fully stalled at zero subarrays — floored at
// MinIntervalS past now so reconfiguration cannot thrash, or +Inf when
// the current fission needs no revisit.
func (e *Elastic) NextRefission(now float64, tasks []*sim.Task, total int) float64 {
	if total <= 0 || len(tasks) == 0 {
		return math.Inf(1)
	}
	s := e.sp
	cps := s.cps
	starved := false
	for _, t := range tasks {
		if t.Done() {
			continue
		}
		// Only a true stall (no subarrays at all) is worth a wakeup:
		// an under-allocated running task re-competes at the next
		// ordinary scheduling event anyway, and growing it mid-flight
		// charges it the reallocation penalty it is trying to outrun.
		if t.Alloc == 0 {
			starved = true
			break
		}
	}
	if !starved {
		return math.Inf(1)
	}
	earliest := math.Inf(1)
	for _, t := range tasks {
		if t.Alloc <= 0 {
			continue
		}
		if b := now + float64(t.TileBoundaryCycles())/cps; b < earliest {
			earliest = b
		}
	}
	if math.IsInf(earliest, 1) {
		return earliest
	}
	if floor := now + e.MinIntervalS; earliest < floor {
		earliest = floor
	}
	return earliest
}

var _ sim.Policy = (*Elastic)(nil)
var _ sim.SliceAllocator = (*Elastic)(nil)
var _ sim.Refissioner = (*Elastic)(nil)
var _ obs.Observable = (*Elastic)(nil)
var _ sim.HealthAware = (*Elastic)(nil)
