// Package sched implements Planaria's spatial task scheduling — a direct
// transcription of Algorithm 1 in the paper (§V). The scheduler is
// invoked whenever a task arrives or finishes; it first estimates the
// minimal subarray count each queued task needs to meet its QoS
// constraint, then either co-locates every task (distributing spare
// subarrays by a priority/remaining-time score) or, when the tasks do not
// all fit, admits them in order of a priority/(slack·demand) score.
package sched

import (
	"cmp"
	"slices"

	"planaria/internal/arch"
	"planaria/internal/obs"
	"planaria/internal/sim"
)

// Spatial is the Planaria scheduling policy.
type Spatial struct {
	// Cfg converts cycles to seconds for PREDICTTIME.
	Cfg arch.Config

	// health is the chip's current fault mask (empty = untracked). The
	// scheduler only considers alive configurations: the engine passes
	// the alive subarray count as total, and predictions for allocations
	// wider than the longest chainable run cap at that run — the
	// conservative assumption that one task's chained cluster must land
	// on contiguous alive subarrays (see DESIGN.md §10).
	health arch.HealthMask

	// tracer receives one instant per fission decision (nil-safe no-op
	// when unset).
	tracer *obs.TraceBuilder
	// occ counts the fission decisions, fit and unfit, with their
	// demand/supply accounting for the fleet utilization report
	// (DESIGN.md §14). Nil-safe, integer-only — the NoteDecision calls
	// below stay on the zero-alloc hot path.
	occ *obs.Occupancy

	// cps caches Cfg.CyclesPerSecond(): predictTime runs for every task
	// at every scheduling event, and calling a value-receiver Config
	// method there copies the whole Config per prediction.
	cps float64

	// Scratch buffers reused across AllocateInto invocations. The engine
	// calls the policy from one goroutine, once per scheduling event;
	// keeping these on the policy makes steady-state scheduling
	// allocation-free. A buffer too small for the queue is replaced by
	// one twice the queue's length, so a queue that deepens one task at
	// a time reallocates O(log n) times, not at every event.
	est      []int
	scores   []float64
	fr       []allocFrac
	order    []scoredTask
	fits     []int
	admitted []int
}

// allocFrac carries one task's fractional share for largest-remainder
// rounding (allocateFitInto).
type allocFrac struct {
	idx   int // position in the tasks slice
	id    int
	ideal float64
}

// byIdealDesc orders rounding fractions by (ideal desc, id asc) — a total
// order (ids are unique), so the permutation is the unique sorted one
// regardless of sorting algorithm.
func byIdealDesc(a, b allocFrac) int {
	if a.ideal != b.ideal {
		if a.ideal > b.ideal {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// scoredTask carries one task's admission score (allocateUnfitInto).
type scoredTask struct {
	idx   int // position in the tasks slice
	id    int
	score float64
}

// admitsBefore reports whether a comes before b in admission order:
// (score desc, id asc), likewise a total order.
func admitsBefore(a, b scoredTask) bool {
	return a.score > b.score || (a.score == b.score && a.id < b.id)
}

// minSlack floors the slack used in the unfit score so expired tasks
// score highest rather than dividing by zero or a negative.
const minSlack = 1e-6

// NewSpatial returns the policy for a hardware configuration.
func NewSpatial(cfg arch.Config) *Spatial {
	return &Spatial{Cfg: cfg, cps: cfg.CyclesPerSecond()}
}

// Name implements sim.Policy.
func (s *Spatial) Name() string { return "Planaria" }

// SetObserver implements obs.Observable: each fission decision lands as
// an instant on the "sched" timeline track with its fit/unfit verdict
// and the demand/capacity pair.
func (s *Spatial) SetObserver(tb *obs.TraceBuilder) { s.tracer = tb }

// SetOccupancy implements obs.OccupancyAware: every fission decision
// reports its fit/unfit outcome and demand-vs-supply unit counts to the
// occupancy accountant, whose Decisions/FitDecisions are the policy's
// decision tallies and the demand-pressure side of the fleet
// utilization report.
func (s *Spatial) SetOccupancy(o *obs.Occupancy) { s.occ = o }

// Quantum implements sim.Policy: the spatial scheduler is purely
// event-driven (invoked on arrivals and completions), per §V.
func (s *Spatial) Quantum() float64 { return 0 }

// SetHealth implements sim.HealthAware: the engine pushes the fault
// injector's mask here whenever a transition changes it.
func (s *Spatial) SetHealth(mask arch.HealthMask) { s.health = mask }

// chainCap bounds a prediction's useful allocation: with a tracked
// health mask, subarrays beyond the longest contiguous alive run buy no
// speedup under the conservative single-run chaining model.
func (s *Spatial) chainCap(alloc int) int {
	if len(s.health.Usable) == 0 {
		return alloc
	}
	if c := s.health.MaxChainable(); c > 0 && c < alloc {
		return c
	}
	return alloc
}

// predictTime is Algorithm 1's PREDICTTIME: a configuration-table lookup
// of the task's remaining cycles at a candidate allocation, converted to
// seconds (the task monitor keeps the progress used by RemainingCycles).
func (s *Spatial) predictTime(t *sim.Task, alloc int) float64 {
	// float64(cycles)/cps is the exact expression Cfg.Seconds evaluates,
	// minus the per-call Config copy.
	return float64(t.RemainingCycles(s.chainCap(alloc))) / s.cps
}

// EstimateResources is Algorithm 1's ESTIMATERESOURCES: the minimum
// number of subarrays whose predicted completion meets the task's slack.
// When no allocation can meet the deadline, the maximum is returned so
// the task finishes as soon as possible.
func (s *Spatial) EstimateResources(t *sim.Task, now float64, total int) int {
	slack := t.Slack(now)
	for n := 1; n <= total; n++ {
		if s.predictTime(t, n) <= slack {
			return n
		}
	}
	// Nothing meets the deadline: finish as soon as possible. Under a
	// tracked fault mask, subarrays beyond the longest chainable run buy
	// nothing, so demand only that much.
	return s.chainCap(total)
}

// Allocate is Algorithm 1's SCHEDULETASKSSPATIALLY as the map the Policy
// interface promises: AllocateInto's decision, with stalled tasks
// omitted.
func (s *Spatial) Allocate(now float64, tasks []*sim.Task, total int) map[int]int {
	return sim.AllocMap(s, now, tasks, total)
}

// AllocateInto implements sim.SliceAllocator: the same Algorithm 1
// decision written into a positional buffer, with every intermediate
// (estimates, scores, rounding fractions, admission order) living in
// scratch reused across events — the engine's steady-state scheduling
// path allocates nothing. The engine reaches it through the
// SliceAllocator interface, so the hot root is declared here rather
// than propagated.
//
//perf:hot per-event scheduling decision on the engine's zero-alloc fast path
func (s *Spatial) AllocateInto(now float64, tasks []*sim.Task, total int, dst []int) {
	if len(tasks) == 0 {
		return
	}
	if len(tasks) == 1 {
		// One task always fits and the proportional-share arithmetic
		// collapses: the whole remainder is one task's ideal share, so it
		// ends up with every subarray whenever its score is positive
		// (priority > 0; the remaining-time clamp keeps scores finite).
		// This is the steady state of a lightly-loaded chip — worth
		// skipping the score/sort machinery for.
		t := tasks[0]
		e := s.EstimateResources(t, now, total)
		s.occ.NoteDecision(true, int64(e), int64(total))
		if s.tracer != nil {
			s.tracer.Instant("sched", obs.Fmt("fission: fit %d tasks").Int(1), now,
				obs.Num("tasks", 1),
				obs.Num("demand", float64(e)),
				obs.Num("subarrays", float64(total)))
		}
		dst[0] = e
		if e < total && t.Req.Priority > 0 {
			dst[0] = total
		}
		return
	}
	if cap(s.est) < len(tasks) {
		s.est = make([]int, len(tasks), 2*len(tasks))
	}
	s.est = s.est[:len(tasks)]
	sum := 0
	for i, t := range tasks {
		e := s.EstimateResources(t, now, total)
		s.est[i] = e
		sum += e
	}
	if sum <= total {
		s.occ.NoteDecision(true, int64(sum), int64(total))
		if s.tracer != nil {
			s.tracer.Instant("sched", obs.Fmt("fission: fit %d tasks").Int(len(tasks)), now,
				obs.Num("tasks", float64(len(tasks))),
				obs.Num("demand", float64(sum)),
				obs.Num("subarrays", float64(total)))
		}
		s.allocateFitInto(tasks, s.est, total, dst)
		return
	}
	s.occ.NoteDecision(false, int64(sum), int64(total))
	if s.tracer != nil {
		s.tracer.Instant("sched", obs.Fmt("fission: unfit %d tasks").Int(len(tasks)), now,
			obs.Num("tasks", float64(len(tasks))),
			obs.Num("demand", float64(sum)),
			obs.Num("subarrays", float64(total)))
	}
	s.allocateUnfitInto(now, tasks, s.est, total, dst)
}

// allocateFitInto gives every task its minimal estimate, then distributes
// the spare subarrays proportionally to score = priority / remaining-time
// — favouring important tasks and those with much work left (fairness via
// equal progress).
func (s *Spatial) allocateFitInto(tasks []*sim.Task, est []int, total int, dst []int) {
	if cap(s.scores) < len(tasks) {
		s.scores = make([]float64, len(tasks), 2*len(tasks))
	}
	scores := s.scores[:len(tasks)]
	var scoreSum float64
	used := 0
	for i, t := range tasks {
		e := est[i]
		dst[i] = e
		used += e
		rem := s.predictTime(t, e)
		if rem < 1e-9 {
			rem = 1e-9
		}
		sc := float64(t.Req.Priority) / rem
		scores[i] = sc
		scoreSum += sc
	}
	remaining := total - used
	if remaining <= 0 || scoreSum <= 0 {
		return
	}
	// Proportional shares with largest-remainder rounding, capped so no
	// task exceeds the total.
	if cap(s.fr) < len(tasks) {
		s.fr = make([]allocFrac, 0, 2*len(tasks))
	}
	fr := s.fr[:0]
	granted := 0
	for i, t := range tasks {
		ideal := float64(remaining) * scores[i] / scoreSum
		whole := int(ideal)
		room := total - dst[i]
		if whole > room {
			whole = room
		}
		dst[i] += whole
		granted += whole
		fr = append(fr, allocFrac{idx: i, id: t.ID, ideal: ideal - float64(whole)})
	}
	s.fr = fr
	slices.SortFunc(fr, byIdealDesc)
	for _, f := range fr {
		if granted >= remaining {
			break
		}
		if dst[f.idx] < total {
			dst[f.idx]++
			granted++
		}
	}
}

// allocateUnfitInto resolves competition when the minimal demands exceed
// the chip: tasks are admitted in order of score = priority / (slack ·
// demand) — favouring high priority, tight slack, and small demand — until
// the chip is full. Leftover subarrays (when the next demands do not fit)
// top up the admitted tasks in score order.
//
// The admission order (admitsBefore) is a total order, so any selection
// that yields the queue in that order admits the same tasks. A full sort
// ranks the whole queue, but admission stops long before the end of a
// deep one: once the chip is full, or once some task is admitted and no
// task left has an estimate that fits what remains, every later task
// would be skipped. The queue is therefore heapified in place and popped
// only until one of those holds; fits counts the unpopped tasks by
// estimate to tell the second case.
func (s *Spatial) allocateUnfitInto(now float64, tasks []*sim.Task, est []int, total int, dst []int) {
	if cap(s.order) < len(tasks) {
		s.order = make([]scoredTask, 0, 2*len(tasks))
	}
	// fits[v] counts the unpopped tasks whose estimate is v, with every
	// estimate above total in fits[total+1]: remaining never exceeds
	// total, so those never fit.
	if cap(s.fits) < total+2 {
		s.fits = make([]int, total+2)
	}
	fits := s.fits[:total+2]
	clear(fits)
	order := s.order[:0]
	for i, t := range tasks {
		slack := t.Slack(now)
		if slack < minSlack {
			slack = minSlack
		}
		e := est[i]
		fits[min(e, total+1)]++
		if e < 1 {
			e = 1
		}
		order = append(order, scoredTask{idx: i, id: t.ID, score: float64(t.Req.Priority) / (slack * float64(e))})
	}
	s.order = order
	heapify(order)

	remaining := total
	admitted := s.admitted[:0]
	// minFit is the smallest estimate among the unpopped tasks (total+1
	// when none fits at all); it only grows as tasks are popped.
	minFit := 0
	for heap := order; len(heap) > 0; {
		if remaining <= 0 {
			break
		}
		for fits[minFit] == 0 {
			minFit++
		}
		if len(admitted) > 0 && minFit > remaining {
			break
		}
		var sc scoredTask
		sc, heap = popHeap(heap)
		e := est[sc.idx]
		fits[min(e, total+1)]--
		if e > remaining {
			// Cannot give the full estimate; admit with what remains only
			// if nothing else was admitted yet (keep the chip busy).
			if len(admitted) == 0 {
				dst[sc.idx] = remaining
				admitted = append(admitted, sc.idx)
				remaining = 0
			}
			continue
		}
		dst[sc.idx] = e
		admitted = append(admitted, sc.idx)
		remaining -= e
	}
	s.admitted = admitted
	// Top up admitted tasks round-robin in score order.
	for remaining > 0 && len(admitted) > 0 {
		progressed := false
		for _, idx := range admitted {
			if remaining == 0 {
				break
			}
			if dst[idx] < total {
				dst[idx]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
}

// heapify arranges h as a binary heap whose root comes first in
// admission order.
func heapify(h []scoredTask) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// popHeap removes the heap's root and returns it with the shrunk heap.
func popHeap(h []scoredTask) (scoredTask, []scoredTask) {
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	if last > 0 {
		siftDown(h, 0)
	}
	return top, h
}

// siftDown restores the heap order below position i, moving children up
// into the hole rather than swapping.
func siftDown(h []scoredTask, i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && admitsBefore(h[r], h[c]) {
			c = r
		}
		if !admitsBefore(h[c], x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

var _ sim.Policy = (*Spatial)(nil)
var _ sim.SliceAllocator = (*Spatial)(nil)
var _ obs.Observable = (*Spatial)(nil)
var _ sim.HealthAware = (*Spatial)(nil)
