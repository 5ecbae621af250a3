package sim

import (
	"fmt"
	"slices"
	"sort"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/fault"
	"planaria/internal/simtime"
	"planaria/internal/workload"
)

// FaultMode selects how a node degrades when its fault injector masks
// part of the chip.
type FaultMode int

const (
	// FaultFission is Planaria's graceful degradation: dead subarrays are
	// masked out of the fission configuration space, the scheduler is
	// invoked with the surviving subarray count, and only tasks whose
	// subarrays died are killed (the deterministic contiguous-placement
	// model below decides ownership).
	FaultFission FaultMode = iota
	// FaultDerate is the monolithic baseline's only option: the array
	// cannot be re-fissioned around a dead unit, so throughput derates by
	// the alive fraction and every fault landing kills whichever task is
	// running (the whole array must drain and reconfigure around the
	// fault).
	FaultDerate
)

// String names the fault mode.
func (m FaultMode) String() string {
	if m >= 0 && int(m) < len(faultModeNames) {
		return faultModeNames[m]
	}
	return fmt.Sprintf("faultmode(%d)", int(m))
}

var faultModeNames = [...]string{FaultFission: "fission", FaultDerate: "derate"}

// ShedPolicy selects the admission controller's load-shedding behavior.
type ShedPolicy int

const (
	// ShedNone admits every request (the pre-fault default).
	ShedNone ShedPolicy = iota
	// ShedDoomed sheds a request only when even an isolated run at the
	// chip's current degraded capacity would miss its deadline — the
	// request is doomed, so queueing it can only hurt others.
	ShedDoomed
	// ShedPriority additionally weighs queue load against request
	// priority: the isolated estimate is inflated by the number of
	// in-flight tasks and discounted by the request's priority, so
	// low-priority requests shed first under pressure.
	ShedPriority
)

// shedPolicyNames is the CLI vocabulary of the shed policies.
var shedPolicyNames = [...]string{ShedNone: "none", ShedDoomed: "doomed", ShedPriority: "priority"}

// String names the shed policy.
func (p ShedPolicy) String() string {
	if p >= 0 && int(p) < len(shedPolicyNames) {
		return shedPolicyNames[p]
	}
	return fmt.Sprintf("shed(%d)", int(p))
}

// ParseShedPolicy maps the CLI vocabulary to a ShedPolicy.
func ParseShedPolicy(name string) (ShedPolicy, error) {
	if i := slices.Index(shedPolicyNames[:], name); i >= 0 {
		return ShedPolicy(i), nil
	}
	return 0, fmt.Errorf("sim: unknown shed policy %q (want none, doomed, or priority)", name)
}

// HealthAware policies receive the chip's health mask whenever fault
// transitions change it, so their estimates only consider alive
// configurations.
type HealthAware interface {
	SetHealth(mask arch.HealthMask)
}

// Default retry backoff: first re-enqueue 200 µs after the kill,
// doubling per attempt, capped at 5 ms. All simulated time.
const (
	defaultRetryBase = 200e-6
	defaultRetryCap  = 5e-3
)

// backoff returns the capped exponential delay before a task's attempt-th
// re-enqueue (attempt ≥ 1). Doubling a float is exact, so this is
// deterministic without math.Pow.
func (n *Node) backoff(attempt int) float64 {
	b, lim := n.RetryBase, n.RetryCap
	if !(b > 0) {
		b = defaultRetryBase
	}
	if !(lim > 0) {
		lim = defaultRetryCap
	}
	for i := 1; i < attempt && b < lim; i++ {
		b *= 2
	}
	if b > lim {
		b = lim
	}
	return b
}

// capacity returns the subarray count the scheduler may allocate right
// now: the alive count under fission masking, the static total otherwise.
func (n *Node) capacity(total int) int {
	if n.Faults == nil || n.FaultMode != FaultFission {
		return total
	}
	return n.Faults.Health().Alive()
}

// speed returns the throughput multiplier under derate mode (alive
// fraction of the physical chip), exactly 1 otherwise.
func (n *Node) speed() float64 {
	if n.Faults == nil || n.FaultMode != FaultDerate {
		return 1
	}
	return n.Faults.Health().Fraction()
}

// shouldShed is the admission controller: it estimates the request's
// completion were it admitted now and sheds when the estimate misses the
// deadline. ShedDoomed uses the isolated run time at the chip's current
// degraded capacity (only hopeless requests shed); ShedPriority inflates
// the estimate by the in-flight task count and discounts it by the
// request's priority, shedding low-priority work first under load. With
// zero capacity the estimate is unbounded and any enabled policy sheds.
func (n *Node) shouldShed(now float64, prog *compiler.Program, r *workload.Request, total, active int) bool {
	switch n.Shed {
	case ShedDoomed, ShedPriority:
	default:
		return false
	}
	capNow := n.capacity(total)
	sp := n.speed()
	if capNow == 0 || sp == 0 {
		return true
	}
	iso := n.Cfg.Seconds(prog.Table(capNow).TotalCycles) / sp
	if r.Work > 0 {
		iso *= r.Work // fused batches carry proportionally more work
	}
	est := now + iso
	if n.Shed == ShedPriority {
		est = now + iso*float64(1+active)/float64(r.Priority)
	}
	return simtime.After(est, r.Deadline)
}

// retryEntry is one killed task waiting out its backoff. Entries queue in
// a retryHeap (eventq.go) keyed by (time, task ID) so re-admission order
// is deterministic.
type retryEntry struct {
	t  *Task
	at float64
}

// faultVictims returns the running tasks that lose their subarrays when
// the chip's health drops from prevUsable to h. Under derate the whole
// monolithic array reconfigures, so any landing kills every running
// task. Under fission, ownership follows a deterministic contiguous
// placement: running tasks in ID order occupy consecutive
// previously-alive subarrays, and a task dies iff one of its subarrays
// did. Victims are returned in ID order.
//
//perf:cold fault-transition path: runs per fault event, never on the no-fault steady state
func faultVictims(tasks []*Task, prevUsable []bool, h *fault.Health, mode FaultMode, anyDown bool) []*Task {
	if !anyDown {
		return nil
	}
	running := make([]*Task, 0, len(tasks))
	for _, t := range tasks {
		if t.Alloc > 0 && !t.Done() {
			running = append(running, t)
		}
	}
	sort.Slice(running, func(i, j int) bool { return running[i].ID < running[j].ID })
	if mode == FaultDerate {
		return running
	}
	aliveIdx := make([]int, 0, len(prevUsable))
	for i, u := range prevUsable {
		if u {
			aliveIdx = append(aliveIdx, i)
		}
	}
	var victims []*Task
	offset := 0
	for _, t := range running {
		end := offset + t.Alloc
		if end > len(aliveIdx) {
			end = len(aliveIdx)
		}
		for _, u := range aliveIdx[offset:end] {
			if !h.UsableSub(u) {
				victims = append(victims, t)
				break
			}
		}
		offset = end
	}
	return victims
}
