// Package prema reimplements the PREMA scheduling baseline (Choi & Rhu,
// HPCA 2020) the paper compares against: preemptive *temporal*
// multi-tenancy on a monolithic systolic accelerator. PREMA's published
// policy is token-based: each waiting task accrues tokens proportionally
// to its priority and waiting time; tasks whose token reaches the current
// maximum become candidates, and among candidates the one with the
// shortest estimated remaining time runs next (shortest-estimated-job
// first, for throughput). Preemption checkpoints at tile granularity.
//
// This is a reimplementation from the published description — the paper's
// artifact is not available — preserving the policy semantics the
// comparison needs (see DESIGN.md §3).
package prema

import (
	"planaria/internal/arch"
	"planaria/internal/obs"
	"planaria/internal/sim"
)

// Token is the PREMA scheduling policy. It is stateful: tokens persist
// across invocations and grow while tasks wait. A task keeps its token
// only while every round sees it; one that leaves and later rejoins
// starts over from its priority.
//
// Faults need no policy support: the monolithic array cannot re-fission
// around dead subarrays, so its only degradation is the uniform
// throughput derate the serving engine applies (sim.FaultDerate), and a
// uniform derate leaves the shortest-estimated-job order unchanged.
type Token struct {
	// entries holds each known task's token by value, stamped with the
	// last round that saw the task; round counts decide invocations.
	// index maps a task ID to its entry's position. A task already known
	// costs one index lookup a round and no map write; only a new task,
	// and an entry that moves when a departed one is removed, write the
	// index.
	entries []tokenEntry
	index   map[int]int
	round   uint64
	// tok and slot are scratch reused across invocations: tok[i] is
	// tasks[i]'s token in the current round and slot[i] its entry's
	// position, kept for the dispatched task's reset.
	tok  []float64
	slot []int

	// Decisions counts token-policy rounds, Switches the rounds that
	// dispatched a different task than the round before (temporal
	// context switches), and MaxToken is the highest token any round
	// saw. They are read after the run.
	Decisions, Switches int64
	MaxToken            float64

	// tracer receives an instant per dispatch switch (nil-safe no-op
	// when unset).
	tracer     *obs.TraceBuilder
	dispatched int
	haveDisp   bool
}

// tokenEntry is one task's token state under its ID.
type tokenEntry struct {
	id int
	tokenState
}

// tokenState is one task's token, the time it last accrued, and the
// round that last saw the task.
type tokenState struct {
	token float64
	last  float64
	round uint64
}

// The policy constants used in the evaluation.
const (
	// candidateFraction: tasks with token ≥ candidateFraction × max-token
	// are candidates (1.0 would be the strict maximum only).
	candidateFraction = 0.9
	// schedulingQuantum bounds how long a decision stands before tokens
	// are re-evaluated, in seconds.
	schedulingQuantum = 500e-6
)

// NewToken returns the PREMA policy. It ignores the hardware
// configuration: the policy ranks candidates by remaining cycles, which
// need no conversion to seconds.
func NewToken(arch.Config) *Token {
	return &Token{index: make(map[int]int)}
}

// Name implements sim.Policy.
func (p *Token) Name() string { return "PREMA" }

// SetObserver implements obs.Observable: dispatch switches appear as
// instants on the "prema" timeline track.
func (p *Token) SetObserver(tb *obs.TraceBuilder) { p.tracer = tb }

// Quantum implements sim.Policy.
func (p *Token) Quantum() float64 { return schedulingQuantum }

// SetHealth implements sim.HealthAware. The policy ignores the mask: see
// the Token doc comment.
func (p *Token) SetHealth(arch.HealthMask) {}

// Allocate implements sim.Policy: exactly one task owns the whole
// monolithic accelerator at a time.
func (p *Token) Allocate(now float64, tasks []*sim.Task, total int) map[int]int {
	if len(tasks) == 0 {
		return nil
	}
	return map[int]int{tasks[p.decide(now, tasks, total)].ID: total}
}

// AllocateInto implements sim.SliceAllocator (same decision, no result
// map; the token state persists on the policy either way). The engine
// reaches it through the SliceAllocator interface, so the hot root is
// declared here.
//
//perf:hot per-event PREMA decision on the engine's zero-alloc fast path
func (p *Token) AllocateInto(now float64, tasks []*sim.Task, total int, dst []int) {
	if len(tasks) == 0 {
		return
	}
	dst[p.decide(now, tasks, total)] = total
}

// decide runs one token-policy round — accrual, candidate filtering,
// shortest-estimated-job tie-break, stale-token GC — and returns the
// position of the dispatched task, mutating the token state.
func (p *Token) decide(now float64, tasks []*sim.Task, total int) int {
	p.round++
	tok, slot := p.tok[:0], p.slot[:0]
	// Accrue tokens: priority × waiting time (milliseconds) since the
	// last update; running tasks do not accrue. A task continues its
	// token only if the previous round saw it; an ID repeated within a
	// round continues the entry its first occurrence wrote.
	for _, t := range tasks {
		j, ok := p.index[t.ID]
		if !ok {
			j = len(p.entries)
			p.entries = append(p.entries, tokenEntry{id: t.ID})
			p.index[t.ID] = j
		}
		st := &p.entries[j].tokenState
		if !ok || st.round+1 < p.round {
			// Initial token equals the priority, as in PREMA.
			st.token = float64(t.Req.Priority)
		} else if t.Alloc == 0 {
			st.token += float64(t.Req.Priority) * (now - st.last) * 1e3
		}
		st.last, st.round = now, p.round
		tok = append(tok, st.token)
		slot = append(slot, j)
	}
	p.tok, p.slot = tok, slot

	// Candidate set: tokens within candidateFraction of the maximum.
	maxTok := 0.0
	for _, v := range tok {
		if v > maxTok {
			maxTok = v
		}
	}
	best := -1
	bestRem := int64(0)
	for i, t := range tasks {
		if tok[i] < candidateFraction*maxTok {
			continue
		}
		rem := t.RemainingCycles(total)
		if best < 0 || rem < bestRem || (rem == bestRem && t.ID < tasks[best].ID) {
			best = i
			bestRem = rem
		}
	}
	if best < 0 {
		best = 0
	}
	bt := tasks[best]
	p.Decisions++
	if maxTok > p.MaxToken {
		p.MaxToken = maxTok
	}
	if !p.haveDisp || p.dispatched != bt.ID {
		if p.haveDisp {
			p.Switches++
			if p.tracer != nil {
				p.tracer.Instant("prema", obs.Fmt("dispatch task %d").Int(bt.ID), now,
					obs.Str("model", bt.Req.Model),
					obs.Num("token", tok[best]),
					obs.Num("max_token", maxTok))
			}
		}
		p.dispatched, p.haveDisp = bt.ID, true
	}
	// The dispatched task's token resets, as in PREMA, so others catch up.
	p.entries[slot[best]].token = float64(bt.Req.Priority)

	// Every task of this round holds an entry, so more entries than tasks
	// means some belong to departed tasks: drop them. The sweep comes
	// last because removal moves entries, and slot must stay valid until
	// the reset above.
	if len(p.entries) > len(tasks) {
		p.sweep()
	}
	return best
}

// sweep removes the entries the current round did not see, moving the
// last entry into each hole.
func (p *Token) sweep() {
	es := p.entries
	for j := 0; j < len(es); {
		if es[j].round == p.round {
			j++
			continue
		}
		delete(p.index, es[j].id)
		last := len(es) - 1
		if j != last {
			es[j] = es[last]
			p.index[es[j].id] = j
		}
		es = es[:last]
	}
	p.entries = es
}

var _ obs.Observable = (*Token)(nil)

var _ sim.Policy = (*Token)(nil)

var _ sim.SliceAllocator = (*Token)(nil)

var _ sim.HealthAware = (*Token)(nil)
