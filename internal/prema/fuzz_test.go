package prema

import (
	"sort"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/sim"
)

// refToken is Token's token accounting as it stood before the stamped
// single map: three maps and a sorted stale-ID sweep per round. Its
// decide is the old one verbatim, with its metric probes written as the
// counts they kept: one decision per round, the highest max token, and a
// dispatch switch whenever a round dispatches another task than the
// round before. FuzzTokenDecide checks Token against it. The candidate
// threshold is written out as the evaluation's 90% rather than read from
// the policy, so the reference checks the policy's constant instead of
// copying it.
type refToken struct {
	tokens map[int]float64
	last   map[int]float64
	live   map[int]bool
	stale  []int

	decisions, switches int64
	maxToken            float64
	dispatched          int
	haveDisp            bool
}

func (p *refToken) decide(now float64, tasks []*sim.Task, total int) int {
	if p.live == nil {
		p.live = make(map[int]bool, len(tasks))
	}
	clear(p.live)
	for _, t := range tasks {
		p.live[t.ID] = true
		lastT, seen := p.last[t.ID]
		if !seen {
			p.tokens[t.ID] = float64(t.Req.Priority)
			p.last[t.ID] = now
			continue
		}
		if t.Alloc == 0 {
			p.tokens[t.ID] += float64(t.Req.Priority) * (now - lastT) * 1e3
		}
		p.last[t.ID] = now
	}
	stale := p.stale[:0]
	for id := range p.tokens {
		stale = append(stale, id)
	}
	p.stale = stale
	sort.Ints(stale)
	for _, id := range stale {
		if !p.live[id] {
			delete(p.tokens, id)
			delete(p.last, id)
		}
	}

	maxTok := 0.0
	for _, t := range tasks {
		if p.tokens[t.ID] > maxTok {
			maxTok = p.tokens[t.ID]
		}
	}
	best := -1
	bestRem := int64(0)
	for i, t := range tasks {
		if p.tokens[t.ID] < 0.9*maxTok {
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
	p.decisions++
	p.maxToken = max(p.maxToken, maxTok)
	if p.haveDisp && p.dispatched != tasks[best].ID {
		p.switches++
	}
	p.dispatched, p.haveDisp = tasks[best].ID, true
	p.tokens[tasks[best].ID] = float64(tasks[best].Req.Priority)
	return best
}

// FuzzTokenDecide replays fuzz-chosen round sequences through Token and
// the reference and requires the same dispatched position, the same
// token for every task, current entries for exactly the round's tasks
// and the same decision, switch and max-token counts, round after round. Each round takes 1+2k bytes:
// a time step and slot count, then per slot an (ID, state) pair. Slots
// draw from six IDs in any order, so tasks arrive, depart and rejoin; a
// repeated ID shares one record, which the engine never passes but the
// token state must survive. The state byte picks a priority of 1-3, a
// running or waiting allocation, and one of a few progress points of a
// shared program, so priorities, tokens and remaining cycles tie often.
func FuzzTokenDecide(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 2, 2, 3, 0, 0, 0x08, 1, 0x1d, 5, 0, 1, 0, 5, 0x22})
	f.Add([]byte{1, 4, 3, 2, 3, 2, 4, 0, 4, 3, 9, 1, 0x40, 3, 1, 2, 0x80, 1, 0, 3, 3})
	f.Add([]byte{2, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 0, 0, 0, 0, 5, 0, 2, 1})
	// The second round dispatches a candidate below the maximum token, so
	// MaxToken must follow the maximum, not the dispatched task's token.
	f.Add([]byte{0x30, 0x31, 0x32, 0x37, 0x30, 0x32, 0x31, 0x30})
	cfg := arch.Monolithic()
	prog := toyProg(f, cfg)
	layers := len(prog.Table(1).Layers)
	f.Fuzz(func(t *testing.T, data []byte) {
		const ids = 6
		pool := make([]*sim.Task, ids)
		for id := range pool {
			pool[id] = mkTask(id, 1, prog)
		}
		got := NewToken(cfg)
		want := &refToken{tokens: make(map[int]float64), last: make(map[int]float64)}
		now := 0.0
		for round := 0; len(data) > 0 && round < 64; round++ {
			// Steps of 0 to 0.3 ms: zero steps give equal waits.
			now += float64(data[0]%4) * 1e-4
			k := 1 + int(data[0]>>2)%ids
			data = data[1:]
			var tasks []*sim.Task
			for ; k > 0 && len(data) >= 2; k-- {
				id, st := int(data[0])%ids, data[1]
				data = data[2:]
				task := pool[id]
				task.Req.Priority = 1 + int(st%3)
				task.Alloc = int(st>>2) & 1
				task.Layer = int(st>>3) % (layers + 1)
				task.Frac = float64(st>>5) / 8
				tasks = append(tasks, task)
			}
			if len(tasks) == 0 {
				return
			}
			wantPos := want.decide(now, tasks, 1)
			dst := make([]int, len(tasks))
			got.AllocateInto(now, tasks, 1, dst)
			if dst[wantPos] != 1 {
				t.Fatalf("round %d: dispatched %v, reference picked position %d", round, dst, wantPos)
			}
			checkEntries(t, got, tasks)
			for _, task := range tasks {
				if g, w := got.entries[got.index[task.ID]].token, want.tokens[task.ID]; g != w {
					t.Fatalf("round %d: task %d token %v, reference %v", round, task.ID, g, w)
				}
			}
			if got.Decisions != want.decisions || got.Switches != want.switches || got.MaxToken != want.maxToken {
				t.Fatalf("round %d: decisions/switches/max token %d/%d/%v, reference %d/%d/%v",
					round, got.Decisions, got.Switches, got.MaxToken, want.decisions, want.switches, want.maxToken)
			}
		}
	})
}
