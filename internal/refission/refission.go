// Package refission implements the elastic re-fission planner
// (DESIGN.md §16): given each in-flight task's current allocation, the
// minimum allocation that still meets its deadline, and its QoS
// headroom, the planner produces a new allocation vector that grows
// starved tasks into freed subarrays and shrinks tasks beating their
// SLA — instead of queueing, shedding, or fully preempting. The planner
// is pure and deterministic: the same candidates and capacity always
// yield the same plan, with every tie broken by task ID. Simulated-time
// inputs only; the package holds no clocks and no global randomness.
package refission

import (
	"cmp"
	"slices"
)

// Candidate describes one in-flight task to the planner.
type Candidate struct {
	// ID is the task's unique request ID, the deterministic tie-break.
	ID int
	// Cur is the task's current subarray allocation (0 = stalled).
	Cur int
	// Min is the smallest allocation whose projected completion meets
	// the task's deadline (Algorithm 1's ESTIMATERESOURCES); treated as
	// at least 1 and at most Max.
	Min int
	// Max is the largest useful allocation (the chain-capped maximum
	// under the current fault mask); treated as at least 1.
	Max int
	// Score is the admission urgency (higher is served first), the same
	// priority/(slack·demand) score the spatial scheduler's unfit path
	// competes on. Must be finite.
	Score float64
	// Headroom is the projected finish margin at Cur: slack minus the
	// predicted remaining time on Cur subarrays. Tasks with Headroom at
	// or above Margin donate first (most comfortable first); tasks below
	// the margin donate only as a last resort, and never below Min.
	Headroom float64
	// Margin is the comfort deadband: donors at or above it absorb the
	// shrink's own reconfiguration penalty without risk, so they fund
	// grants before anyone tighter has to move.
	Margin float64
}

// Planner computes re-fission plans. The zero value is ready to use;
// scratch buffers are reused across Plan calls, so a single goroutine
// should own each Planner (the engine invokes policies from one
// goroutine, matching this contract).
type Planner struct {
	order   []ranked
	topup   []ranked
	holders []int
	spares  []int
	donors  []int
	victims []ranked
}

// ranked is one candidate's sort key: its index in the candidate slice
// plus the fields the planner's orders compare, copied so a sort reads
// no candidate through an index.
type ranked struct {
	score float64
	id    int
	cur   int
	idx   int
}

// Plan writes the new allocation for cands[i] into out[i] (len(out)
// must equal len(cands)). The plan obeys, in priority order:
//
//  1. Feasibility: every out[i] is in [0, capacity] and Σ out ≤
//     capacity — no subarray is ever assigned to two tasks.
//  2. Stability: a task keeps Cur unless capacity fell below the
//     current total or a donation/grant changes it. Voluntary shrinks
//     never go below Min; the only ways under it are a capacity
//     deficit (fault masking) and a full eviction (to exactly 0) that
//     funds a strictly higher-scored starved task.
//  3. Demand: starved tasks (below Min) are granted up to Min in score
//     order, funded first from free capacity, then by shrinking donors
//     toward Min — comfortable donors (Headroom ≥ Margin, largest
//     headroom first) before reluctant ones — and as a last resort by
//     evicting strictly lower-scored running tasks outright, lowest
//     score first. The three sources pool: a grant is refused only when
//     free capacity, every donation, and every eviction together cannot
//     cover it. Donation serves every grant that co-locates
//     (Σ Min ≤ capacity) exactly as the spatial fit path would;
//     eviction reproduces the spatial unfit path's admission order, so
//     an urgent arrival never loses the chip to a task it outscores.
//     A fully starved task whose grant cannot reach Min still takes
//     whatever free capacity and donations exist (never an eviction):
//     crawling below Min preserves a late chance at the deadline and
//     minimizes tardiness past it, where idling at zero does neither.
//  4. Work conservation: leftover capacity tops tasks up toward Max,
//     most urgent first, and at least one task runs whenever capacity
//     is positive.
//  5. Urgency: spares held above a comfortable donor's minimum flow to
//     strictly higher-scored tasks below Max, so an urgent task never
//     runs at exactly Min while a relaxed one hoards slack.
//
// Donations and evictions only ever take from holders, the tasks that
// hold subarrays when the grant pass starts. The planner keeps their
// indices in a list — at most capacity of them — so each starved task
// costs a walk over the chip's tenants, not over the whole queue.
// Grantees never join the list: a grant ends at or below Min, so a
// grantee has nothing to donate, and every later grantee ranks behind
// it, so none may evict it. An evictee stays, holding nothing.
//
//perf:hot re-fission decision inside the engine's per-event loop; scratch buffers reused across plans
func (p *Planner) Plan(cands []Candidate, capacity int, out []int) {
	if len(cands) == 0 {
		return
	}
	if capacity <= 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}

	// Base: keep current allocations, clamped to what exists.
	sum := 0
	holders := p.holders[:0]
	for i, c := range cands {
		a := c.Cur
		if a < 0 {
			a = 0
		}
		if a > capacity {
			a = capacity
		}
		out[i] = a
		sum += a
		if a > 0 {
			holders = append(holders, i)
		}
	}
	p.holders = holders
	// Capacity deficit (the chip shrank under the running set): peel
	// subarrays off the largest holder, breaking ties toward the lowest
	// score and then the highest ID, until the plan fits.
	for sum > capacity {
		v := -1
		for _, i := range holders {
			if out[i] == 0 {
				continue
			}
			if v < 0 || out[i] > out[v] ||
				(out[i] == out[v] && (cands[i].Score < cands[v].Score ||
					(cands[i].Score == cands[v].Score && cands[i].ID > cands[v].ID))) {
				v = i
			}
		}
		out[v]--
		sum--
	}
	free := capacity - sum

	// Grant pass: starved tasks reach Min in score order, shrinking
	// donors on demand. A grant that cannot reach Min leaves running
	// tasks untouched, except that a fully starved grantee still takes
	// the free-plus-donation pool as a partial grant — the chip never
	// idles capacity while work is queued.
	order := p.order[:0]
	for i := range cands {
		c := &cands[i]
		order = append(order, ranked{score: c.Score, id: c.ID, cur: c.Cur, idx: i})
	}
	p.order = order
	slices.SortFunc(order, byAdmission)
	for _, r := range order {
		i := r.idx
		m := clampMin(&cands[i], capacity)
		need := m - out[i]
		if need <= 0 {
			continue
		}
		if need > free {
			// Joint feasibility: the donation pool and the evictable pool
			// must cover the shortfall together before either is touched —
			// judging each tier alone would refuse a grant the pair can
			// fund (donors a little short, an outscored task covering the
			// rest), leaving an admissible arrival with nothing.
			short := need - free
			dp := p.donorPotential(cands, out, capacity)
			ep := p.evictPotential(cands, out, i)
			if free == 0 && dp == 0 && ep == 0 {
				// Nothing can fund this grantee, and nothing can fund any
				// later one: no grant frees capacity or creates spares,
				// and a later grantee outscores only tasks this one
				// outscores too.
				break
			}
			if dp+ep >= short {
				if dp > 0 {
					w := short
					if w > dp {
						w = dp
					}
					free += p.shrinkDonors(cands, out, capacity, w)
				}
				if need > free {
					free += p.evictOutscored(cands, out, i, need-free)
				}
			}
		}
		if need <= free {
			out[i] = m
			free -= need
			continue
		}
		// Partial grant: a fully starved task takes whatever free
		// capacity and donations exist rather than idling at zero — the
		// spatial scheduler keeps such a task churning at a small
		// allocation, and crawling below Min both preserves a late
		// chance at the deadline and minimizes tardiness past it.
		// Eviction is excluded: a whole running task is never destroyed
		// to fund a crawl. Donors end at Min, so re-planning the result
		// finds an empty pool and the plan stays a fixed point.
		if out[i] == 0 {
			avail := free + p.donorPotential(cands, out, capacity)
			if avail > need {
				avail = need
			}
			if avail > 0 {
				if avail > free {
					free += p.shrinkDonors(cands, out, capacity, avail-free)
				}
				out[i] = avail
				free -= avail
			}
		}
	}

	// Top-up pass: leftover capacity flows toward Max, most urgent task
	// first. Its order differs from the admission order only where equal
	// scores hold different Cur; then it sorts a copy, so order stays in
	// admission order for the rebalance pass.
	if free > 0 {
		topup := order
		for k := 1; k < len(order); k++ {
			if order[k].score == order[k-1].score && order[k].cur != order[k-1].cur {
				topup = append(p.topup[:0], order...)
				p.topup = topup
				slices.SortFunc(topup, byTopup)
				break
			}
		}
		for _, r := range topup {
			if free == 0 {
				break
			}
			i := r.idx
			mx := clampMax(&cands[i], capacity)
			grow := mx - out[i]
			if grow <= 0 {
				continue
			}
			if grow > free {
				grow = free
			}
			out[i] += grow
			free -= grow
		}
	}

	// Rebalance pass: spare subarrays held above a comfortable donor's
	// minimum flow to strictly higher-scored tasks still below Max —
	// the spatial scheduler re-earns every spare by score at each
	// event, and without this step an urgent arrival would run at
	// exactly Min (finishing exactly at its deadline, where any penalty
	// tips it over) while a relaxed incumbent hoards the slack. The
	// Margin deadband keeps tight donors out of the pool, so steady
	// state still re-issues the same plan: after a rebalance every
	// lower-scored comfortable donor is at Min or every receiver is at
	// Max, and re-planning moves nothing.
	//
	// The donors are the comfortable tasks with spares, in reverse
	// admission order: the least urgent comfortable task parts with its
	// spares first. A task receives only on its own turn and gives only
	// to tasks ahead of it, so no task gains a spare after the list is
	// built.
	spares := p.spares[:0]
	for k := len(order) - 1; k >= 0; k-- {
		y := order[k].idx
		if c := &cands[y]; c.Headroom >= c.Margin && out[y] > clampMin(c, capacity) {
			spares = append(spares, y)
		}
	}
	p.spares = spares
	if len(spares) == 0 {
		return
	}
	for _, r := range order {
		x := r.idx
		if !outscores(&cands[x], &cands[spares[0]]) {
			// This task, and every one after it, ranks behind every donor.
			break
		}
		room := clampMax(&cands[x], capacity) - out[x]
		for _, y := range spares {
			if room <= 0 {
				break
			}
			if !outscores(&cands[x], &cands[y]) {
				// Every later donor ranks ahead of this one.
				break
			}
			give := out[y] - clampMin(&cands[y], capacity)
			if give <= 0 {
				continue
			}
			if give > room {
				give = room
			}
			out[y] -= give
			out[x] += give
			room -= give
		}
	}
}

// outscores reports whether a ranks strictly ahead of b in the
// admission order (score desc, ID asc).
func outscores(a, b *Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// donorPotential sums what shrinkDonors could free: every subarray held
// above a task's effective minimum.
func (p *Planner) donorPotential(cands []Candidate, out []int, capacity int) int {
	potential := 0
	for _, i := range p.holders {
		if spare := out[i] - clampMin(&cands[i], capacity); spare > 0 {
			potential += spare
		}
	}
	return potential
}

// evictPotential sums what evictOutscored could free for the grantee at
// index g: the whole allocation of every running task it strictly
// outscores (never itself).
func (p *Planner) evictPotential(cands []Candidate, out []int, g int) int {
	potential := 0
	gc := &cands[g]
	for _, i := range p.holders {
		if outscores(gc, &cands[i]) {
			potential += out[i]
		}
	}
	return potential
}

// shrinkDonors frees exactly want subarrays by shrinking tasks above
// their minimum toward Min: comfortable donors (Headroom ≥ Margin)
// give first, largest headroom first, and reluctant ones follow only
// when the comfortable pool runs out — Min still meets every donor's
// deadline by construction, so a feasible grant is never refused
// (matching the spatial scheduler's fit path, which squeezes everyone
// to their estimate). The shrink is all-or-nothing: if the whole pool
// cannot cover want, nothing is shrunk and 0 is returned — a doomed
// grant must not perturb the running set, or re-planning the same
// state would churn allocations instead of reaching a fixed point.
func (p *Planner) shrinkDonors(cands []Candidate, out []int, capacity, want int) int {
	donors := p.donors[:0]
	potential := 0
	for _, i := range p.holders {
		if spare := out[i] - clampMin(&cands[i], capacity); spare > 0 {
			donors = append(donors, i)
			potential += spare
		}
	}
	p.donors = donors
	if potential < want {
		return 0
	}
	slices.SortFunc(donors, func(a, b int) int { return byComfort(&cands[a], &cands[b]) })
	freed := 0
	for _, i := range donors {
		if freed >= want {
			break
		}
		give := out[i] - clampMin(&cands[i], capacity)
		if give > want-freed {
			give = want - freed
		}
		out[i] -= give
		freed += give
	}
	return freed
}

// evictOutscored frees at least want subarrays for the grantee at
// index g by evicting running tasks the grantee strictly outscores
// (score tie broken toward the lower ID, the admission order), lowest
// score first — the spatial scheduler's unfit path, where tasks below
// the admission cut get nothing. Whole allocations are reclaimed, so
// the freed total may exceed want; the surplus stays in the free pool
// for later grants and the top-up pass. Like the donor shrink, the
// eviction is all-or-nothing: if even the whole outscored pool cannot
// cover want, nobody is evicted and 0 is returned.
func (p *Planner) evictOutscored(cands []Candidate, out []int, g, want int) int {
	victims := p.victims[:0]
	potential := 0
	gc := &cands[g]
	for _, i := range p.holders {
		if c := &cands[i]; out[i] > 0 && outscores(gc, c) {
			victims = append(victims, ranked{score: c.Score, id: c.ID, idx: i})
			potential += out[i]
		}
	}
	p.victims = victims
	if potential < want {
		return 0
	}
	slices.SortFunc(victims, byEviction)
	freed := 0
	for _, r := range victims {
		if freed >= want {
			break
		}
		freed += out[r.idx]
		out[r.idx] = 0
	}
	return freed
}

// clampMin returns the candidate's effective minimum: at least 1, at
// most its useful maximum and the chip capacity.
func clampMin(c *Candidate, capacity int) int {
	m := c.Min
	if m < 1 {
		m = 1
	}
	if mx := clampMax(c, capacity); m > mx {
		m = mx
	}
	return m
}

// clampMax returns the candidate's effective maximum: at least 1, at
// most the chip capacity.
func clampMax(c *Candidate, capacity int) int {
	mx := c.Max
	if mx < 1 {
		mx = 1
	}
	if mx > capacity {
		mx = capacity
	}
	return mx
}

// byAdmission orders keys by (score desc, ID asc), the admission
// order — a total order when IDs are unique, so the permutation is
// stable across runs regardless of sorting algorithm.
func byAdmission(a, b ranked) int {
	if a.score != b.score {
		if a.score > b.score {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// byEviction orders keys by (score asc, ID desc): the least urgent task
// loses the chip first, and on a score tie the later arrival (higher
// ID) loses before the earlier one — the mirror image of the admission
// order.
func byEviction(a, b ranked) int { return byAdmission(b, a) }

// byTopup orders keys by (score desc, current allocation desc, ID
// asc): spare capacity flows to the most urgent task first — a task
// granted exactly Min would otherwise finish exactly at its deadline,
// where any penalty tips it over — then to whoever already holds the
// most. Steady state still re-issues the same plan: after a plan
// applies, either no capacity is free or every task is at Max, so the
// top-up order never perturbs a fixed point.
func byTopup(a, b ranked) int {
	if a.score != b.score || a.cur == b.cur {
		return byAdmission(a, b)
	}
	return cmp.Compare(b.cur, a.cur)
}

// byComfort orders donors by (comfortable first, headroom desc, ID
// asc): tasks whose headroom clears their margin donate before anyone
// tighter has to, and within a tier the most comfortable task donates
// first.
func byComfort(a, b *Candidate) int {
	ac, bc := a.Headroom >= a.Margin, b.Headroom >= b.Margin
	if ac != bc {
		if ac {
			return -1
		}
		return 1
	}
	if a.Headroom != b.Headroom {
		if a.Headroom > b.Headroom {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}
