// Package sim is the discrete-event multi-tenant serving simulator: it
// dispatches workload requests to an accelerator node, invokes a
// scheduling policy on every arrival and completion (§V "overall flow"),
// advances running tasks at tile granularity between events, charges
// re-allocation penalties (tile drain + checkpoint + configuration load),
// and collects the paper's evaluation metrics.
package sim

import (
	"fmt"
	"math"
	"slices"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/energy"
	"planaria/internal/obs"
	"planaria/internal/workload"
)

// Task is one in-flight inference request with its execution progress.
type Task struct {
	ID   int
	Req  workload.Request
	Prog *compiler.Program

	// Progress: current layer and the fraction of it completed. Fractions
	// transfer across allocation changes (the tile counts differ between
	// tables, but the fraction of layer work done is invariant).
	Layer int
	Frac  float64

	// Alloc is the current subarray allocation (0 = queued/stalled).
	Alloc int
	// PenaltyCycles is outstanding reconfiguration work (tile drain,
	// checkpoint DMA, config-register load) that must be paid before the
	// task progresses again.
	PenaltyCycles int64

	Finish      float64 // completion time, or -1 while in flight
	EnergyJ     float64
	Preemptions int

	// iso is the model's isolated full-chip run time, interned from the
	// node's program bindings at admit so fairness accounting needs no
	// per-retirement lookup.
	iso float64
	// pos is the request's position in the caller's input slice (the
	// Outcome index), resolved once at admit so retirement writes
	// straight into Finishes/Latency with no ID-index lookup.
	pos int
	// Attempts counts fault-induced restarts: a kill resets the task's
	// progress (EnergyJ keeps accruing — the wasted work was real) and
	// re-enqueues it after a capped exponential backoff.
	Attempts int
	// phase is the task's current attribution phase (DESIGN.md §14).
	// Only read and written under `if led != nil` guards, so it carries
	// no cost — and may hold stale arena garbage — when the node has no
	// attribution ledger.
	phase obs.Phase
}

// Done reports whether the task has completed every layer.
func (t *Task) Done() bool {
	return t.Layer >= len(t.Prog.Table(1).Layers)
}

// workScale returns the request's work multiplier: fused cluster batches
// carry Work > 1 so one allocation retires the whole batch at the
// amortized cost. Zero (every pre-cluster request) means exactly 1, and
// the scale-1 paths below are bit-identical to the unscaled originals.
func (t *Task) workScale() float64 {
	if t.Req.Work > 0 {
		return t.Req.Work
	}
	return 1
}

// RemainingCycles returns the cycles left if the task ran on alloc
// subarrays from its current progress (plus any outstanding penalty).
func (t *Task) RemainingCycles(alloc int) int64 {
	if t.Done() {
		return t.PenaltyCycles
	}
	tab := t.Prog.Table(alloc)
	lp := &tab.Layers[t.Layer]
	tilesDone := int64(t.Frac * float64(lp.Tiles))
	rem := tab.RemainingCycles(t.Layer, tilesDone)
	if s := t.workScale(); s != 1 {
		rem = int64(float64(rem) * s)
	}
	return rem + t.PenaltyCycles
}

// RemainingCyclesByAlloc writes the cycles left at every candidate
// allocation 1..MaxAlloc into out[a-1] (out is extended if too short)
// and returns out. Each entry is bit-identical to RemainingCycles(a) —
// the elastic policy prices all subarray counts in one pass per task.
func (t *Task) RemainingCyclesByAlloc(out []int64) []int64 {
	if t.Done() {
		n := t.Prog.MaxAlloc()
		if cap(out) < n {
			out = make([]int64, n)
		}
		out = out[:n]
		for i := range out {
			out[i] = t.PenaltyCycles
		}
		return out
	}
	out = t.Prog.RemainingByAlloc(t.Layer, t.Frac, out)
	s := t.workScale()
	for i, rem := range out {
		if s != 1 {
			rem = int64(float64(rem) * s)
		}
		out[i] = rem + t.PenaltyCycles
	}
	return out
}

// TileBoundaryCycles returns the cycles until the task next crosses a
// tile boundary at its current allocation — the natural re-fission
// instant (§V: reconfiguration happens between tiles, so only one tile
// of intermediate state ever drains). Outstanding penalty work is paid
// first; a stalled task has no boundary and returns 0.
func (t *Task) TileBoundaryCycles() int64 {
	if t.Alloc <= 0 {
		return 0
	}
	if t.Done() {
		return t.PenaltyCycles
	}
	tab := t.Prog.Table(t.Alloc)
	lp := &tab.Layers[t.Layer]
	if lp.Tiles <= 0 {
		return t.PenaltyCycles + 1
	}
	tiles := float64(lp.Tiles)
	boundary := float64(int64(t.Frac*tiles)+1) / tiles
	if boundary > 1 {
		boundary = 1
	}
	layerCycles := float64(lp.Cycles)
	if s := t.workScale(); s != 1 {
		layerCycles *= s
	}
	rem := int64((boundary - t.Frac) * layerCycles)
	if rem < 1 {
		rem = 1
	}
	return rem + t.PenaltyCycles
}

// Slack returns the time remaining until the task's deadline.
func (t *Task) Slack(now float64) float64 {
	return t.Req.Deadline - now
}

// advance consumes up to dtCycles of work at the task's current
// allocation and returns the cycles actually consumed (less than dtCycles
// only if the task finishes first).
func (t *Task) advance(dtCycles int64, params energy.Params) int64 {
	if t.Alloc <= 0 || dtCycles <= 0 {
		return 0
	}
	consumed := int64(0)
	if t.PenaltyCycles > 0 {
		pay := min(t.PenaltyCycles, dtCycles)
		t.PenaltyCycles -= pay
		consumed += pay
	}
	tab := t.Prog.Table(t.Alloc)
	scale := t.workScale()
	for consumed < dtCycles && !t.Done() {
		lp := &tab.Layers[t.Layer]
		// A scaled layer stretches uniformly: cycles and dynamic energy
		// both multiply by the work factor, tile structure is unchanged.
		layerCycles := float64(lp.Cycles)
		layerJoules := lp.Acct.Joules(params)
		if scale != 1 {
			layerCycles *= scale
			layerJoules *= scale
		}
		remFrac := 1 - t.Frac
		remCycles := int64(remFrac * layerCycles)
		if remCycles <= 0 {
			remCycles = 1
		}
		budget := dtCycles - consumed
		if budget >= remCycles {
			// Finish this layer.
			consumed += remCycles
			t.EnergyJ += remFrac * layerJoules
			t.Layer++
			t.Frac = 0
		} else {
			df := float64(budget) / layerCycles
			t.Frac += df
			if t.Frac > 1 {
				t.Frac = 1
			}
			t.EnergyJ += df * layerJoules
			consumed += budget
		}
	}
	return consumed
}

// applyRealloc switches the task to a new allocation, charging the
// preemption cost when it was actively running: the current tile drains
// (progress rounds up to the tile boundary), one tile of intermediate
// results checkpoints through DRAM (store now, reload when the task
// resumes), and the new configuration and instructions load (§V
// "tile-based scheduling to minimize re-allocation overheads").
func (t *Task) applyRealloc(newAlloc int64, cfg *arch.Config, scale float64) {
	if t.Done() {
		t.Alloc = int(newAlloc)
		return
	}
	old := t.Alloc
	if old == int(newAlloc) {
		return
	}
	if old > 0 {
		tab := t.Prog.Table(old)
		lp := &tab.Layers[t.Layer]
		var penalty int64
		if lp.Tiles > 0 && t.Frac > 0 && t.Frac < 1 {
			// Round progress up to the next tile boundary; the drain time
			// is charged as penalty.
			tiles := float64(lp.Tiles)
			boundary := float64(int64(t.Frac*tiles)+1) / tiles
			if boundary > 1 {
				boundary = 1
			}
			t.Frac = boundary
			penalty += lp.CyclesPerTile
		}
		penalty += t.checkpointCycles(cfg, old) + configLoadCycles
		t.PenaltyCycles += int64(float64(penalty) * scale)
		t.Preemptions++
	}
	t.Alloc = int(newAlloc)
}

// checkpointCycles models storing and reloading one tile of intermediate
// results through DRAM with the old allocation's bandwidth share — the
// paper's observation that tile granularity keeps this to a single tile.
func (t *Task) checkpointCycles(cfg *arch.Config, oldAlloc int) int64 {
	if t.Done() {
		return 0
	}
	tab := t.Prog.Table(oldAlloc)
	lp := &tab.Layers[t.Layer]
	if lp.Tiles <= 0 {
		return 0
	}
	l := &t.Prog.Net.Layers[lp.LayerIdx]
	tileBytes := l.OutputElems() / lp.Tiles
	if tileBytes < 1 {
		tileBytes = 1
	}
	bw := cfg.BytesPerCycle() * float64(oldAlloc) / float64(cfg.NumSubarrays())
	if bw <= 0 {
		bw = 1
	}
	// Store + reload.
	return int64(2 * float64(tileBytes) / bw)
}

// Policy decides subarray allocations. Allocate is invoked at every
// scheduling event (arrival or completion, plus the policy's quantum if
// nonzero) with the tasks currently dispatched and unfinished; it returns
// the new allocation per task ID. Tasks omitted from the map are stalled
// (allocation 0). The sum of allocations must not exceed total.
type Policy interface {
	Name() string
	Allocate(now float64, tasks []*Task, total int) map[int]int
	// Quantum returns the re-scheduling period while tasks are waiting
	// (0 = event-driven only).
	Quantum() float64
}

// Refissioner is an optional extension of Policy for elastic runtime
// re-fission (DESIGN.md §16). When a policy implements it and
// RefissionActive reports true, the engine adds a scheduling wakeup at
// NextRefission's time: the policy is re-invoked there even though no
// arrival, completion, quantum, or fault fires, letting it re-split the
// chip at a running task's tile boundary. NextRefission returns the
// absolute sim time of the next useful re-fission point, or +Inf when
// the current allocation needs no revisit; it must be strictly after
// now, deterministic, and side-effect free. RefissionActive is
// consulted once per Run, so a disabled policy costs nothing on the
// event loop.
type Refissioner interface {
	RefissionActive() bool
	NextRefission(now float64, tasks []*Task, total int) float64
}

// SliceAllocator is an optional extension of Policy for the engine's
// zero-allocation scheduling fast path. AllocateInto writes tasks[i]'s
// new allocation into dst[i] (dst arrives zeroed with len(dst) ==
// len(tasks)); a slot left at zero stalls that task, exactly like a task
// omitted from Allocate's map. Implementations must produce the same
// allocations as their Allocate method and may keep reusable scratch on
// the policy value — the engine invokes the policy from a single
// goroutine.
type SliceAllocator interface {
	AllocateInto(now float64, tasks []*Task, total int, dst []int)
}

// allocFromMap copies a policy's allocation map into the positional
// slice dst (dst[i] is tasks[i]'s allocation; a task missing from the map
// gets 0). A key naming no active task breaks the contract; the smallest
// such ID is reported, so the error is the same run to run.
func allocFromMap(alloc map[int]int, tasks []*Task, dst []int) error {
	found := 0
	for i, t := range tasks {
		a, ok := alloc[t.ID]
		if ok {
			found++
		}
		dst[i] = a
	}
	if found < len(alloc) {
		unknown := math.MaxInt
		for id := range alloc { //det:mapiter-ok min over keys is order-insensitive
			if id < unknown && !slices.ContainsFunc(tasks, func(t *Task) bool { return t.ID == id }) {
				unknown = id
			}
		}
		return fmt.Errorf("sim: policy allocated to unknown task %d", unknown)
	}
	return nil
}

// validateAllocation enforces the policy contract on a positional
// allocation without allocating: every entry within [0, total] and their
// sum within total. The first violation is reported in task-position
// order, which is deterministic run to run.
func validateAllocation(alloc []int, tasks []*Task, total int) error {
	sum, over := 0, -1
	for i, a := range alloc {
		if a < 0 || a > total {
			return fmt.Errorf("sim: allocation %d for task %d outside [0,%d]", a, tasks[i].ID, total)
		}
		sum += a
		if sum > total && over < 0 {
			over = i
		}
	}
	if over >= 0 {
		return fmt.Errorf("sim: policy over-allocated %d of %d subarrays (task %d exceeds the chip)", sum, total, tasks[over].ID)
	}
	return nil
}
