package sched

import (
	"sort"

	"planaria/internal/sim"
)

// The policies in this file are scheduling ablations: they run on the
// same fissionable Planaria hardware (same compiled programs) but replace
// Algorithm 1, isolating how much of the end-to-end win comes from the
// scheduler versus the fission-capable microarchitecture.

// FCFS dedicates the whole chip to the oldest dispatched task and runs
// tasks back to back — fission-capable hardware without spatial
// co-location (each task still benefits from per-layer fission shapes).
type FCFS struct{}

// NewFCFS returns the run-to-completion policy.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements sim.Policy.
func (f *FCFS) Name() string { return "FCFS" }

// Quantum implements sim.Policy: no preemption, purely event-driven.
func (f *FCFS) Quantum() float64 { return 0 }

// Allocate implements sim.Policy.
func (f *FCFS) Allocate(now float64, tasks []*sim.Task, total int) map[int]int {
	if len(tasks) == 0 {
		return nil
	}
	return map[int]int{tasks[f.pick(tasks)].ID: total}
}

// AllocateInto implements sim.SliceAllocator (same decision, no map).
func (f *FCFS) AllocateInto(now float64, tasks []*sim.Task, total int, dst []int) {
	if len(tasks) == 0 {
		return
	}
	dst[f.pick(tasks)] = total
}

// pick keeps the currently running task (run to completion); otherwise it
// selects the earliest arrival (ties by ID).
func (f *FCFS) pick(tasks []*sim.Task) int {
	for i, t := range tasks {
		if t.Alloc > 0 {
			return i
		}
	}
	pick := 0
	for i, t := range tasks[1:] {
		if t.Req.Arrival < tasks[pick].Req.Arrival ||
			(t.Req.Arrival == tasks[pick].Req.Arrival && t.ID < tasks[pick].ID) {
			pick = i + 1
		}
	}
	return pick
}

var _ sim.Policy = (*FCFS)(nil)
var _ sim.SliceAllocator = (*FCFS)(nil)

// EqualShare divides the chip evenly among all dispatched tasks,
// ignoring priorities, slack, and demand — spatial co-location without
// Algorithm 1's QoS-aware estimation and scoring.
type EqualShare struct {
	order []int // scratch reused across AllocateInto invocations
	srt   arrivalSorter
}

// arrivalSorter orders task positions by (Arrival, ID) — a total order.
// The tasks reference is cleared after each sort: task records are
// engine-owned and must not be retained across policy calls.
type arrivalSorter struct {
	order []int
	tasks []*sim.Task
}

func (x *arrivalSorter) Len() int      { return len(x.order) }
func (x *arrivalSorter) Swap(i, j int) { x.order[i], x.order[j] = x.order[j], x.order[i] }
func (x *arrivalSorter) Less(i, j int) bool {
	ta, tb := x.tasks[x.order[i]], x.tasks[x.order[j]]
	if ta.Req.Arrival != tb.Req.Arrival {
		return ta.Req.Arrival < tb.Req.Arrival
	}
	return ta.ID < tb.ID
}

// NewEqualShare returns the naive spatial policy.
func NewEqualShare() *EqualShare { return &EqualShare{} }

// Name implements sim.Policy.
func (e *EqualShare) Name() string { return "EqualShare" }

// Quantum implements sim.Policy.
func (e *EqualShare) Quantum() float64 { return 0 }

// Allocate implements sim.Policy: floor(total/n) each, remainder to the
// oldest tasks; when tasks outnumber subarrays the newest wait.
func (e *EqualShare) Allocate(now float64, tasks []*sim.Task, total int) map[int]int {
	return sim.AllocMap(e, now, tasks, total)
}

// AllocateInto implements sim.SliceAllocator: the same even split written
// into a positional buffer with reusable ordering scratch.
func (e *EqualShare) AllocateInto(now float64, tasks []*sim.Task, total int, dst []int) {
	if len(tasks) == 0 {
		return
	}
	if cap(e.order) < len(tasks) {
		e.order = make([]int, 0, len(tasks))
	}
	order := e.order[:0]
	for i := range tasks {
		order = append(order, i)
	}
	e.order = order
	e.srt.order, e.srt.tasks = order, tasks
	sort.Sort(&e.srt)
	e.srt.tasks = nil
	if len(order) > total {
		order = order[:total]
	}
	share := total / len(order)
	rem := total - share*len(order)
	for i, idx := range order {
		a := share
		if i < rem {
			a++
		}
		dst[idx] = a
	}
}

var _ sim.Policy = (*EqualShare)(nil)
var _ sim.SliceAllocator = (*EqualShare)(nil)
