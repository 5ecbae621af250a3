package refission

import "sort"

// refPlanner is the planner as it stood before its scans were narrowed
// to the subarray holders and its sorts were typed: every pass walks
// the whole candidate list and every sort goes through sort.Interface.
// The code below is that planner verbatim apart from the names; the
// clamps and outscores, which did not change, are shared.
// FuzzElasticDecision checks Planner.Plan against refPlanner.Plan.
type refPlanner struct {
	order      []int
	donors     []int
	victims    []int
	scoreSort  refScoreSorter
	headerSort refHeadroomSorter
	victimSort refVictimSorter
	topupSort  refTopupSorter
}

// Plan is Planner.Plan's contract, met the old way.
func (p *refPlanner) Plan(cands []Candidate, capacity int, out []int) {
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
	}
	// Capacity deficit (the chip shrank under the running set): peel
	// subarrays off the largest holder, breaking ties toward the lowest
	// score and then the highest ID, until the plan fits.
	for sum > capacity {
		v := -1
		for i := range cands {
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
	if cap(p.order) < len(cands) {
		p.order = make([]int, 0, len(cands))
	}
	order := p.order[:0]
	for i := range cands {
		order = append(order, i)
	}
	p.order = order
	p.scoreSort.idx, p.scoreSort.cands = order, cands
	sort.Sort(&p.scoreSort)
	for _, i := range order {
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
			dp := refDonorPotential(cands, out, capacity)
			ep := refEvictPotential(cands, out, i)
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
			avail := free + refDonorPotential(cands, out, capacity)
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
	// first.
	if free > 0 {
		p.topupSort.idx, p.topupSort.cands, p.topupSort.out = order, cands, out
		sort.Sort(&p.topupSort)
		for _, i := range order {
			if free == 0 {
				break
			}
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
	p.scoreSort.idx, p.scoreSort.cands = order, cands
	sort.Sort(&p.scoreSort)
	for _, x := range order {
		room := clampMax(&cands[x], capacity) - out[x]
		if room <= 0 {
			continue
		}
		// Donors give in reverse admission order: the least urgent
		// comfortable task parts with its spares first.
		for k := len(order) - 1; k >= 0 && room > 0; k-- {
			y := order[k]
			if y == x || cands[y].Headroom < cands[y].Margin {
				continue
			}
			if !outscores(&cands[x], &cands[y]) {
				continue
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

// refDonorPotential sums what shrinkDonors could free: every subarray held
// above a task's effective minimum.
func refDonorPotential(cands []Candidate, out []int, capacity int) int {
	potential := 0
	for i := range cands {
		if spare := out[i] - clampMin(&cands[i], capacity); spare > 0 {
			potential += spare
		}
	}
	return potential
}

// refEvictPotential sums what evictOutscored could free for the grantee at
// index g: the whole allocation of every running task it strictly
// outscores.
func refEvictPotential(cands []Candidate, out []int, g int) int {
	potential := 0
	gc := &cands[g]
	for i := range cands {
		if i == g || out[i] == 0 {
			continue
		}
		if cands[i].Score < gc.Score ||
			(cands[i].Score == gc.Score && cands[i].ID > gc.ID) {
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
func (p *refPlanner) shrinkDonors(cands []Candidate, out []int, capacity, want int) int {
	if cap(p.donors) < len(cands) {
		p.donors = make([]int, 0, len(cands))
	}
	donors := p.donors[:0]
	potential := 0
	for i := range cands {
		if spare := out[i] - clampMin(&cands[i], capacity); spare > 0 {
			donors = append(donors, i)
			potential += spare
		}
	}
	p.donors = donors
	if potential < want {
		return 0
	}
	p.headerSort.idx, p.headerSort.cands = donors, cands
	sort.Sort(&p.headerSort)
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
func (p *refPlanner) evictOutscored(cands []Candidate, out []int, g, want int) int {
	if cap(p.victims) < len(cands) {
		p.victims = make([]int, 0, len(cands))
	}
	victims := p.victims[:0]
	potential := 0
	gc := &cands[g]
	for i := range cands {
		if i == g || out[i] == 0 {
			continue
		}
		if cands[i].Score < gc.Score ||
			(cands[i].Score == gc.Score && cands[i].ID > gc.ID) {
			victims = append(victims, i)
			potential += out[i]
		}
	}
	p.victims = victims
	if potential < want {
		return 0
	}
	p.victimSort.idx, p.victimSort.cands = victims, cands
	sort.Sort(&p.victimSort)
	freed := 0
	for _, i := range victims {
		if freed >= want {
			break
		}
		freed += out[i]
		out[i] = 0
	}
	return freed
}

// refScoreSorter orders candidate indices by (score desc, ID asc) — a
// total order when IDs are unique, so the permutation is stable across
// runs regardless of sorting algorithm.
type refScoreSorter struct {
	idx   []int
	cands []Candidate
}

func (x *refScoreSorter) Len() int      { return len(x.idx) }
func (x *refScoreSorter) Swap(i, j int) { x.idx[i], x.idx[j] = x.idx[j], x.idx[i] }
func (x *refScoreSorter) Less(i, j int) bool {
	a, b := &x.cands[x.idx[i]], &x.cands[x.idx[j]]
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// refHeadroomSorter orders donor indices by (comfortable first, headroom
// desc, ID asc): tasks whose headroom clears their margin donate before
// anyone tighter has to, and within a tier the most comfortable task
// donates first.
type refHeadroomSorter struct {
	idx   []int
	cands []Candidate
}

func (x *refHeadroomSorter) Len() int      { return len(x.idx) }
func (x *refHeadroomSorter) Swap(i, j int) { x.idx[i], x.idx[j] = x.idx[j], x.idx[i] }
func (x *refHeadroomSorter) Less(i, j int) bool {
	a, b := &x.cands[x.idx[i]], &x.cands[x.idx[j]]
	ac, bc := a.Headroom >= a.Margin, b.Headroom >= b.Margin
	if ac != bc {
		return ac
	}
	if a.Headroom != b.Headroom {
		return a.Headroom > b.Headroom
	}
	return a.ID < b.ID
}

// refVictimSorter orders eviction candidates by (score asc, ID desc): the
// least urgent task loses the chip first, and on a score tie the later
// arrival (higher ID) loses before the earlier one — the mirror image
// of the admission order.
type refVictimSorter struct {
	idx   []int
	cands []Candidate
}

func (x *refVictimSorter) Len() int      { return len(x.idx) }
func (x *refVictimSorter) Swap(i, j int) { x.idx[i], x.idx[j] = x.idx[j], x.idx[i] }
func (x *refVictimSorter) Less(i, j int) bool {
	a, b := &x.cands[x.idx[i]], &x.cands[x.idx[j]]
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// refTopupSorter orders indices by (score desc, current allocation desc,
// ID asc): spare capacity flows to the most urgent task first — a task
// granted exactly Min would otherwise finish exactly at its deadline,
// where any penalty tips it over — then to whoever already holds the
// most. Steady state still re-issues the same plan: after a plan
// applies, either no capacity is free or every task is at Max, so the
// top-up order never perturbs a fixed point.
type refTopupSorter struct {
	idx   []int
	cands []Candidate
	out   []int
}

func (x *refTopupSorter) Len() int      { return len(x.idx) }
func (x *refTopupSorter) Swap(i, j int) { x.idx[i], x.idx[j] = x.idx[j], x.idx[i] }
func (x *refTopupSorter) Less(i, j int) bool {
	a, b := x.idx[i], x.idx[j]
	if x.cands[a].Score != x.cands[b].Score {
		return x.cands[a].Score > x.cands[b].Score
	}
	if x.cands[a].Cur != x.cands[b].Cur {
		return x.cands[a].Cur > x.cands[b].Cur
	}
	return x.cands[a].ID < x.cands[b].ID
}
