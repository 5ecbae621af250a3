package refission

import (
	"math/rand"
	"slices"
	"testing"
)

// planInvariants asserts the planner contract on one (cands, capacity,
// out) triple: allocations stay in range, no subarray is assigned
// twice, voluntary shrinks never go below the effective minimum, the
// chip never idles with work present, and leftover capacity only
// remains when every task is at its useful maximum.
func planInvariants(t *testing.T, cands []Candidate, capacity int, out []int) {
	t.Helper()
	sum := 0
	baseSum := 0
	for i, c := range cands {
		if out[i] < 0 || out[i] > capacity {
			t.Fatalf("cand %d: allocation %d outside [0,%d]", i, out[i], capacity)
		}
		sum += out[i]
		b := c.Cur
		if b < 0 {
			b = 0
		}
		if b > capacity {
			b = capacity
		}
		baseSum += b
	}
	if sum > capacity {
		t.Fatalf("over-allocated: Σ=%d > capacity %d (one subarray on two tasks)", sum, capacity)
	}
	if baseSum <= capacity {
		// No capacity deficit: nothing may be shrunk below min(Cur, Min'),
		// except a full eviction (to exactly 0) funding a strictly
		// higher-scored task that was starved on input.
		for i, c := range cands {
			b := c.Cur
			if b > capacity {
				b = capacity
			}
			floor := clampMin(&cands[i], capacity)
			if b < floor {
				floor = b
			}
			if out[i] >= floor {
				continue
			}
			// Below the floor: legal only as an eviction (the top-up pass
			// may hand a victim part of the surplus back, so any value
			// under the floor is possible, not just 0).
			justified := false
			for j, d := range cands {
				if j == i {
					continue
				}
				base := d.Cur
				if base < 0 {
					base = 0
				}
				starved := base < clampMin(&cands[j], capacity)
				outscores := d.Score > c.Score || (d.Score == c.Score && d.ID < c.ID)
				if starved && outscores {
					justified = true
					break
				}
			}
			if !justified {
				t.Fatalf("cand %d (cur %d, min %d, score %g): at %d below floor %d with no outscoring starved task",
					i, c.Cur, c.Min, c.Score, out[i], floor)
			}
		}
	}
	if capacity > 0 && len(cands) > 0 && sum == 0 {
		t.Fatalf("chip idles with %d tasks and capacity %d", len(cands), capacity)
	}
	// Work conservation: leftover free implies everyone is at Max'.
	if sum < capacity {
		for i := range cands {
			if out[i] < clampMax(&cands[i], capacity) {
				t.Fatalf("cand %d at %d below max %d with %d subarrays free",
					i, out[i], clampMax(&cands[i], capacity), capacity-sum)
			}
		}
	}
}

func plan(t *testing.T, p *Planner, cands []Candidate, capacity int) []int {
	t.Helper()
	out := make([]int, len(cands))
	p.Plan(cands, capacity, out)
	planInvariants(t, cands, capacity, out)
	return out
}

func TestPlanTable(t *testing.T) {
	var p Planner
	cases := []struct {
		name     string
		cands    []Candidate
		capacity int
		want     []int
	}{
		{
			name:     "empty-capacity",
			cands:    []Candidate{{ID: 1, Cur: 4, Min: 2, Max: 16, Score: 1}},
			capacity: 0,
			want:     []int{0},
		},
		{
			name:     "single-arrival-takes-chip",
			cands:    []Candidate{{ID: 1, Cur: 0, Min: 3, Max: 16, Score: 1}},
			capacity: 16,
			want:     []int{16}, // Min granted, then topped up to Max
		},
		{
			name: "steady-state-no-change",
			cands: []Candidate{
				{ID: 1, Cur: 10, Min: 4, Max: 16, Score: 2, Headroom: 0.001, Margin: 0.01},
				{ID: 2, Cur: 6, Min: 6, Max: 16, Score: 1, Headroom: 0.0, Margin: 0.01},
			},
			capacity: 16,
			want:     []int{10, 6}, // nobody starved: the plan re-issues Cur exactly
		},
		{
			name: "arrival-absorbed-by-donor",
			cands: []Candidate{
				{ID: 1, Cur: 12, Min: 4, Max: 16, Score: 1, Headroom: 0.05, Margin: 0.01},
				{ID: 2, Cur: 0, Min: 8, Max: 16, Score: 3},
			},
			capacity: 16,
			// Arrival needs 8 with nothing free, and it outscores the
			// comfortable donor: the donor funds the grant and the
			// rebalance pass hands its remaining spares over too, leaving
			// it at its (still deadline-meeting) minimum.
			want: []int{4, 12},
		},
		{
			name: "reluctant-donor-still-funds-feasible-grant",
			cands: []Candidate{
				{ID: 1, Cur: 16, Min: 4, Max: 16, Score: 1, Headroom: 0.001, Margin: 0.01},
				{ID: 2, Cur: 0, Min: 8, Max: 16, Score: 3},
			},
			capacity: 16,
			// The incumbent's headroom is under its margin, but its Min
			// still meets its deadline: both minima fit, so the arrival is
			// served rather than stalled — the spatial fit path's decision.
			want: []int{8, 8},
		},
		{
			name: "comfortable-donor-gives-before-tight-one",
			cands: []Candidate{
				{ID: 1, Cur: 8, Min: 2, Max: 16, Score: 1, Headroom: 0.001, Margin: 0.01},
				{ID: 2, Cur: 8, Min: 2, Max: 16, Score: 1, Headroom: 0.05, Margin: 0.01},
				{ID: 3, Cur: 0, Min: 4, Max: 16, Score: 3},
			},
			capacity: 16,
			// Task 2 clears its margin and covers the whole grant alone —
			// the tight task 1 never moves — and the rebalance then hands
			// task 2's last spares to the outscoring arrival as well.
			want: []int{8, 2, 6},
		},
		{
			name: "urgent-grant-evicts-outscored-then-refunds",
			cands: []Candidate{
				{ID: 1, Cur: 10, Min: 6, Max: 16, Score: 0.5, Headroom: 0.001, Margin: 0.01},
				{ID: 2, Cur: 6, Min: 4, Max: 16, Score: 5, Headroom: 0.05, Margin: 0.01},
				{ID: 3, Cur: 0, Min: 12, Max: 16, Score: 10},
			},
			capacity: 16,
			// Donation tops out at 6 of the 12 the urgent arrival needs, so
			// both outscored incumbents are evicted (lowest score first);
			// the 4-subarray surplus immediately re-admits task 2 at its
			// minimum, while the least urgent task waits.
			want: []int{0, 4, 12},
		},
		{
			name: "capacity-deficit-peels-largest",
			cands: []Candidate{
				{ID: 1, Cur: 10, Min: 2, Max: 16, Score: 1, Headroom: -1, Margin: 0},
				{ID: 2, Cur: 6, Min: 2, Max: 16, Score: 2, Headroom: -1, Margin: 0},
			},
			capacity: 8,
			// 16 held, 8 alive: the largest (lowest-score ties) sheds
			// first. No donors (negative headroom), mins still fit.
			want: []int{4, 4},
		},
		{
			name: "nothing-running-grants-remaining",
			cands: []Candidate{
				{ID: 1, Cur: 0, Min: 10, Max: 10, Score: 2},
				{ID: 2, Cur: 0, Min: 10, Max: 10, Score: 1},
			},
			capacity: 12,
			// Top score reaches Min; the second cannot (needs 10, 2
			// left) but top-up keeps the chip fully busy.
			want: []int{10, 2},
		},
		{
			name: "min-clamped-to-capacity",
			cands: []Candidate{
				{ID: 1, Cur: 0, Min: 32, Max: 32, Score: 1},
			},
			capacity: 4,
			want:     []int{4},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := plan(t, &p, tc.cands, tc.capacity)
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("plan %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// randCands draws a random but reproducible candidate set, rapid-style:
// schedules of up to 12 tasks over a 16-subarray chip with arbitrary
// current allocations, minima, headrooms, and scores.
func randCands(rng *rand.Rand) ([]Candidate, int) {
	n := 1 + rng.Intn(12)
	capacity := rng.Intn(17)
	cands := make([]Candidate, n)
	for i := range cands {
		mx := 1 + rng.Intn(16)
		mn := 1 + rng.Intn(mx)
		cands[i] = Candidate{
			ID:       i*7 + rng.Intn(3), // occasionally colliding IDs must stay deterministic
			Cur:      rng.Intn(20) - 2,  // includes negatives and over-capacity
			Min:      mn,
			Max:      mx,
			Score:    float64(rng.Intn(10)) / (1e-3 + rng.Float64()),
			Headroom: rng.NormFloat64() * 0.01,
			Margin:   rng.Float64() * 0.01,
		}
	}
	return cands, capacity
}

// TestPlanRandomizedProperties drives the planner through seeded random
// schedules and checks every invariant plus run-to-run determinism.
func TestPlanRandomizedProperties(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cands, capacity := randCands(rng)
		var p1, p2 Planner
		out1 := plan(t, &p1, cands, capacity)
		out2 := plan(t, &p2, cands, capacity)
		for i := range out1 {
			if out1[i] != out2[i] {
				t.Fatalf("seed %d: nondeterministic plan %v vs %v", seed, out1, out2)
			}
		}
		// A warm planner (scratch already grown) must agree too.
		out3 := plan(t, &p1, cands, capacity)
		for i := range out1 {
			if out1[i] != out3[i] {
				t.Fatalf("seed %d: warm planner diverged %v vs %v", seed, out1, out3)
			}
		}
	}
}

// TestPlanStability pins the churn-suppression property the engine's
// reallocation penalty rewards: re-planning an already-feasible plan
// changes nothing.
func TestPlanStability(t *testing.T) {
	var p Planner
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cands, capacity := randCands(rng)
		out := plan(t, &p, cands, capacity)
		// Feed the plan back as the current state.
		next := make([]Candidate, len(cands))
		copy(next, cands)
		for i := range next {
			next[i].Cur = out[i]
		}
		out2 := plan(t, &p, next, capacity)
		for i := range out {
			if out[i] != out2[i] {
				t.Fatalf("seed %d: fixed point violated: %v re-plans to %v", seed, out, out2)
			}
		}
	}
}

// FuzzElasticDecision fuzzes the planner over (headroom, capacity,
// fault-mask) tuples: the mask's population count is the alive
// capacity, and the seeded candidate set varies with the structure
// bytes — n sets the queue length (1 to 256), shape%4 how the queue
// holds the chip:
//
//	0: arbitrary current allocations, often over capacity
//	1: a deep starved queue behind holders that fit the chip
//	2: the same with scores drawn from three values, so ties go to IDs
//	3: every task holding, so the chip starts in deficit
//
// Every accepted input must satisfy the full invariant set, plan
// identically twice, and plan exactly as refPlanner, the planner
// before its scans were narrowed to holders. The warm planner then
// plans the queue's first half, so stale scratch from a longer queue
// must not leak into a shorter one.
func FuzzElasticDecision(f *testing.F) {
	f.Add(int64(1), uint16(0xFFFF), 0.01, 0.001, uint8(3), uint8(0))
	f.Add(int64(7), uint16(0x00FF), -0.02, 0.0, uint8(1), uint8(0))
	f.Add(int64(42), uint16(0x0001), 0.5, 0.25, uint8(9), uint8(0))
	// Deep starved queues on a full and a half-dead chip.
	f.Add(int64(3), uint16(0xFFFF), 0.01, 0.001, uint8(200), uint8(1))
	f.Add(int64(11), uint16(0x0F0F), -0.01, 0.002, uint8(63), uint8(1))
	// Score ties across a long queue.
	f.Add(int64(5), uint16(0xFFFF), 0.02, 0.01, uint8(127), uint8(2))
	// Capacity deficits: 64 holders on a full chip, 32 on four alive.
	f.Add(int64(9), uint16(0xFFFF), 0.01, 0.0, uint8(63), uint8(3))
	f.Add(int64(13), uint16(0x1111), 0.03, 0.01, uint8(31), uint8(3))
	// Evictions whose surplus re-grants evictees: few holders, many
	// urgent starved tasks, comfortable donors absent.
	f.Add(int64(17), uint16(0xFFFF), -0.05, 0.01, uint8(80), uint8(1))
	f.Add(int64(23), uint16(0x7FFF), -0.05, 0.01, uint8(24), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, mask uint16, headroom, margin float64, n, shape uint8) {
		// The fault mask determines alive capacity, exactly as the
		// engine passes the injector's alive count to the policy.
		capacity := 0
		for m := mask; m != 0; m &= m - 1 {
			capacity++
		}
		if headroom != headroom || margin != margin { // NaN: planner requires finite inputs
			t.Skip()
		}
		cands := fuzzCands(rand.New(rand.NewSource(seed)), 1+int(n), capacity, headroom, margin, shape%4)
		var p Planner
		var ref refPlanner
		for _, q := range [][]Candidate{cands, cands[:(len(cands)+1)/2]} {
			out := make([]int, len(q))
			p.Plan(q, capacity, out)
			planInvariants(t, q, capacity, out)
			want := make([]int, len(q))
			ref.Plan(q, capacity, want)
			if !slices.Equal(out, want) {
				t.Fatalf("%d candidates on %d subarrays: plan %v, reference %v", len(q), capacity, out, want)
			}
			out2 := make([]int, len(q))
			p.Plan(q, capacity, out2)
			if !slices.Equal(out, out2) {
				t.Fatalf("nondeterministic plan: %v vs %v", out, out2)
			}
		}
	})
}

// fuzzCands draws FuzzElasticDecision's candidate set; see its comment
// for the shapes. Shape 0 is the original draw, with IDs in index
// order; the others permute the IDs so a tie's ID order is unrelated
// to the candidate order.
func fuzzCands(rng *rand.Rand, tasks, capacity int, headroom, margin float64, shape uint8) []Candidate {
	cands := make([]Candidate, tasks)
	if shape == 0 {
		for i := range cands {
			mx := 1 + rng.Intn(16)
			cands[i] = Candidate{
				ID:       i,
				Cur:      rng.Intn(18) - 1,
				Min:      1 + rng.Intn(mx),
				Max:      mx,
				Score:    float64(rng.Intn(8)) * (0.1 + rng.Float64()),
				Headroom: headroom * float64(1+i%3),
				Margin:   margin,
			}
		}
		return cands
	}
	ids := rng.Perm(tasks)
	budget := rng.Intn(capacity + 1)
	for i := range cands {
		mx := 1 + rng.Intn(16)
		c := Candidate{
			ID:       ids[i],
			Min:      1 + rng.Intn(mx),
			Max:      mx,
			Score:    rng.Float64() * 8,
			Headroom: headroom * float64(1+rng.Intn(3)),
			Margin:   margin,
		}
		if rng.Intn(2) == 0 {
			c.Headroom = -c.Headroom
		}
		switch shape {
		case 2:
			c.Score = float64(rng.Intn(3))
			fallthrough
		case 1:
			if budget > 0 && rng.Intn(3) == 0 {
				c.Cur = 1 + rng.Intn(budget)
				budget -= c.Cur
			}
		case 3:
			c.Cur = 1 + rng.Intn(16)
		}
		cands[i] = c
	}
	return cands
}
