package sched

import (
	"cmp"
	"slices"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/refission"
	"planaria/internal/sim"
)

// refSpatial is Spatial's AllocateInto as it stood before unfit admission
// became a heap selection: a full sort of the queue by byScoreDesc, then
// an admission walk over the whole order. Its methods are the old ones
// verbatim, minus the occupancy and timeline probes; predictions come
// from the embedded Spatial, whose own scratch the reference never
// touches. FuzzSpatialAllocateInto checks Spatial against it.
type refSpatial struct {
	*Spatial
	est      []int
	scores   []float64
	fr       []allocFrac
	order    []scoredTask
	admitted []int
}

func (s *refSpatial) AllocateInto(now float64, tasks []*sim.Task, total int, dst []int) {
	if len(tasks) == 0 {
		return
	}
	if len(tasks) == 1 {
		t := tasks[0]
		e := s.EstimateResources(t, now, total)
		dst[0] = e
		if e < total && t.Req.Priority > 0 {
			dst[0] = total
		}
		return
	}
	if cap(s.est) < len(tasks) {
		s.est = make([]int, len(tasks))
	}
	s.est = s.est[:len(tasks)]
	sum := 0
	for i, t := range tasks {
		e := s.EstimateResources(t, now, total)
		s.est[i] = e
		sum += e
	}
	if sum <= total {
		s.allocateFitInto(tasks, s.est, total, dst)
		return
	}
	s.allocateUnfitInto(now, tasks, s.est, total, dst)
}

func (s *refSpatial) allocateFitInto(tasks []*sim.Task, est []int, total int, dst []int) {
	if cap(s.scores) < len(tasks) {
		s.scores = make([]float64, len(tasks))
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
	if cap(s.fr) < len(tasks) {
		s.fr = make([]allocFrac, 0, len(tasks))
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

func (s *refSpatial) allocateUnfitInto(now float64, tasks []*sim.Task, est []int, total int, dst []int) {
	if cap(s.order) < len(tasks) {
		s.order = make([]scoredTask, 0, len(tasks))
	}
	order := s.order[:0]
	for i, t := range tasks {
		slack := t.Slack(now)
		if slack < minSlack {
			slack = minSlack
		}
		e := est[i]
		if e < 1 {
			e = 1
		}
		order = append(order, scoredTask{idx: i, id: t.ID, score: float64(t.Req.Priority) / (slack * float64(e))})
	}
	s.order = order
	slices.SortFunc(order, func(a, b scoredTask) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})

	remaining := total
	admitted := s.admitted[:0]
	for _, sc := range order {
		if remaining <= 0 {
			break
		}
		e := est[sc.idx]
		if e > remaining {
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

// deadlineScale lists the deadlines a fuzzed task can have, as multiples
// of the toy program's isolated full-chip time: below 1 no allocation
// meets the deadline (the estimate is the whole usable chip), a negative
// one has already passed (the unfit score's slack floor), and the rest
// spread the estimates over the chip.
var deadlineScale = [16]float64{-1, 1e-9, 0.5, 1, 1.1, 1.3, 1.6, 2, 2.5, 3, 4, 5, 6, 8, 12, 16}

// FuzzSpatialAllocateInto replays fuzz-chosen queues through Spatial and
// the full-sort reference and requires the same allocation at every
// position. The first byte sets the queue length (1 to 256), the next two
// a 16-subarray health mask (zero: untracked; otherwise a set bit marks a
// dead subarray; the engine passes the alive count as the total, and the
// longest alive run caps the estimates), the fourth the clock. The rest
// are 2-byte task specs, reused in turn when the queue is longer than the
// specs: a priority and deadline, then a progress point of a shared
// program.
// Repeated specs tie on score, so the ID tie-break decides. Each queue
// is decided twice, whole and then as its first half, on the same
// policies, so stale scratch from a longer queue must not leak into a
// shorter one.
func FuzzSpatialAllocateInto(f *testing.F) {
	// 200 tasks, untracked mask, a dozen specs mixing impossible,
	// passed and loose deadlines.
	f.Add([]byte{199, 0, 0, 3, 0x01, 0, 0x1a, 3, 0x25, 7, 0x37, 1, 0x4b, 0x10, 0x56, 2, 0xf3, 0, 0x89, 0x22, 0xa4, 5, 0x11, 0x31, 0xc2, 4})
	// 100 tasks of one spec: every score ties.
	f.Add([]byte{99, 0, 0, 0, 0x35, 2})
	// Every deadline impossible: each estimate is the whole chip, larger
	// than what remains after the first admission.
	f.Add([]byte{70, 0, 0, 1, 0x13, 0, 0x14, 1, 0x19, 2, 0x1a, 0x0a})
	// A mask with alive runs of 5, 3 and 2 (MaxChainable 5 of 10 alive).
	f.Add([]byte{80, 0xe6, 0x20, 2, 0x13, 0, 0x64, 1, 0x2a, 3, 0x3b, 0x40, 0x87, 8})
	// A fully masked chip (total 0), and a short fitting queue.
	f.Add([]byte{5, 0xff, 0xff, 0, 0x17, 1})
	f.Add([]byte{2, 0, 0, 0, 0xf5, 0, 0xe1, 0})
	cfg := arch.Planaria()
	prog := toyProg(f, cfg)
	iso := cfg.Seconds(prog.Table(cfg.NumSubarrays()).TotalCycles)
	layers := len(prog.Table(1).Layers)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 1 + int(data[0])
		bits := int(data[1])<<8 | int(data[2])
		now := float64(data[3]%8) * iso / 4
		specs := data[4:]
		got := NewSpatial(cfg)
		want := &refSpatial{Spatial: NewSpatial(cfg)}
		total := cfg.NumSubarrays()
		if bits != 0 {
			usable := make([]bool, total)
			alive := 0
			for i := range usable {
				usable[i] = bits>>i&1 == 0
				if usable[i] {
					alive++
				}
			}
			got.SetHealth(arch.HealthMask{Usable: usable})
			want.SetHealth(arch.HealthMask{Usable: usable})
			total = alive
		}
		tasks := make([]*sim.Task, n)
		for i := range tasks {
			a, b := byte(0x35), byte(0)
			if len(specs) >= 2 {
				k := 2 * (i % (len(specs) / 2))
				a, b = specs[k], specs[k+1]
			}
			// IDs fall along the queue, so a tie's ID order is the
			// reverse of its queue order.
			task := mkTask(t, n-i, prog, iso*deadlineScale[a>>4], 1+int(a&0x0f)%11)
			task.Layer = int(b) % (layers + 1)
			task.Frac = float64(b>>4%8) / 8
			tasks[i] = task
		}
		for _, q := range [][]*sim.Task{tasks, tasks[:len(tasks)/2]} {
			gotDst := make([]int, len(q))
			wantDst := make([]int, len(q))
			got.AllocateInto(now, q, total, gotDst)
			want.AllocateInto(now, q, total, wantDst)
			if !slices.Equal(gotDst, wantDst) {
				t.Fatalf("%d tasks on %d subarrays: allocation %v, reference %v", len(q), total, gotDst, wantDst)
			}
		}
	})
}

// refElastic is Elastic's AllocateInto as it stood before pricing went
// lazy: every task's remaining cycles at every allocation 1..MaxAlloc in
// one row, then the minimum, headroom and doomed score read from that
// row. Its code is the old code minus its comments and its occupancy
// and timeline probes; chain caps come from the embedded Spatial.
// FuzzElasticAllocateInto checks Elastic against it.
type refElastic struct {
	*Spatial
	planner refission.Planner
	cands   []refission.Candidate
	rem     []int64
}

// refRemainingRow is the deleted Task.RemainingCyclesByAlloc over the
// deleted Program.RemainingByAlloc: the cycles left at every allocation
// a in 1..MaxAlloc, written to out[a-1].
func refRemainingRow(t *sim.Task, out []int64) []int64 {
	n := t.Prog.MaxAlloc()
	if cap(out) < n {
		out = make([]int64, n)
	}
	out = out[:n]
	if t.Done() {
		for i := range out {
			out[i] = t.PenaltyCycles
		}
		return out
	}
	for i := range out {
		tab := t.Prog.Table(i + 1)
		var tilesDone int64
		if t.Layer >= 0 && t.Layer < len(tab.Layers) {
			tilesDone = int64(t.Frac * float64(tab.Layers[t.Layer].Tiles))
		}
		out[i] = tab.RemainingCycles(t.Layer, tilesDone)
	}
	s := 1.0
	if t.Req.Work > 0 {
		s = t.Req.Work
	}
	for i, rem := range out {
		if s != 1 {
			rem = int64(float64(rem) * s)
		}
		out[i] = rem + t.PenaltyCycles
	}
	return out
}

func (e *refElastic) AllocateInto(now float64, tasks []*sim.Task, total int, dst []int) {
	if len(tasks) == 0 {
		return
	}
	s := e.Spatial
	cps := s.cps
	maxA := s.chainCap(total)
	if cap(e.cands) < len(tasks) {
		e.cands = make([]refission.Candidate, 0, len(tasks))
	}
	cands := e.cands[:0]
	for _, t := range tasks {
		e.rem = refRemainingRow(t, e.rem)
		rem := e.rem
		slack := t.Slack(now)
		mn := 0
		for n := 1; n <= total; n++ {
			eff := s.chainCap(n)
			if eff > len(rem) {
				eff = len(rem)
			}
			if float64(rem[eff-1])/cps <= slack {
				mn = n
				break
			}
		}
		doomed := mn == 0
		if doomed {
			mn = 1
		}
		headroom := 0.0
		if t.Alloc > 0 {
			eff := s.chainCap(t.Alloc)
			if eff > len(rem) {
				eff = len(rem)
			}
			headroom = slack - float64(rem[eff-1])/cps
		}
		scSlack := slack
		if doomed {
			eff := maxA
			if eff > len(rem) {
				eff = len(rem)
			}
			if best := float64(rem[eff-1]) / cps; scSlack < best {
				scSlack = best
			}
		}
		if scSlack < minSlack {
			scSlack = minSlack
		}
		d := mn
		if doomed {
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
	}
	e.cands = cands
	e.planner.Plan(cands, total, dst)
}

// FuzzElasticAllocateInto replays fuzz-chosen queues through Elastic and
// the full-row reference and requires the same planner candidates and
// the same allocation at every position. The byte layout is
// FuzzSpatialAllocateInto's with 3-byte task specs: a priority and
// deadline, a progress point (any layer, done included, at eighths of
// the layer), and a current allocation (0 to 31, so some exceed the
// chip) with penalty debt and batch work from its top bits. Health
// masks whose longest alive run is shorter than the alive count cap the
// chain below the total, so the minimum's scan prices chainCap(n), not
// n. A fully masked chip is skipped: the engine drains a dead chip
// instead of scheduling it.
func FuzzElasticAllocateInto(f *testing.F) {
	// 60 tasks on a healthy chip: doomed, passed, loose and mid-layer.
	f.Add([]byte{59, 0, 0, 2, 0x01, 0x00, 0x00, 0x1a, 0x13, 0x24, 0x25, 0x37, 0x48, 0x37, 0x51, 0x0f, 0x4b, 0x10, 0x90,
		0xf3, 0x02, 0xc3, 0x89, 0x22, 0x10, 0xa4, 0x45, 0x06, 0x11, 0x31, 0x7f})
	// Alive runs of 5, 3 and 2: the chain caps at 5 of 10 alive.
	f.Add([]byte{40, 0xe6, 0x20, 1, 0x13, 0x00, 0x08, 0x64, 0x21, 0x05, 0x2a, 0x03, 0x0a, 0x3b, 0x40, 0x10, 0x87, 0x18, 0x03})
	// Alive runs of 3, 2, 3 and 2: a deadline that more than three
	// chained subarrays would meet, so only the chain cap makes it doomed.
	f.Add([]byte{0x30, 0x31, 0x31, 0x30, 0x30, 0x39, 0x30})
	// Every other subarray dead: chain length 1 under 8 alive.
	f.Add([]byte{30, 0xaa, 0xaa, 3, 0x55, 0x12, 0x01, 0x66, 0x33, 0x04, 0x2a, 0x07, 0x08})
	// Every deadline impossible, allocations held over the chip.
	f.Add([]byte{20, 0, 0, 4, 0x13, 0x00, 0x1f, 0x14, 0x31, 0x10, 0x19, 0x02, 0x0c})
	// Tasks done but for penalty debt, beside batched ones.
	f.Add([]byte{8, 0, 0x0f, 0, 0x35, 0x05, 0xe4, 0x86, 0x05, 0x68, 0xa2, 0x14, 0xa3})
	cfg := arch.Planaria()
	prog := toyProg(f, cfg)
	iso := cfg.Seconds(prog.Table(cfg.NumSubarrays()).TotalCycles)
	layers := len(prog.Table(1).Layers)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 1 + int(data[0])
		bits := int(data[1])<<8 | int(data[2])
		now := float64(data[3]%8) * iso / 4
		specs := data[4:]
		got := NewElastic(cfg)
		want := &refElastic{Spatial: NewSpatial(cfg)}
		total := cfg.NumSubarrays()
		if bits != 0 {
			usable := make([]bool, total)
			alive := 0
			for i := range usable {
				usable[i] = bits>>i&1 == 0
				if usable[i] {
					alive++
				}
			}
			got.SetHealth(arch.HealthMask{Usable: usable})
			want.SetHealth(arch.HealthMask{Usable: usable})
			total = alive
		}
		if total == 0 {
			return
		}
		tasks := make([]*sim.Task, n)
		for i := range tasks {
			a, b, c := byte(0x35), byte(0), byte(0)
			if len(specs) >= 3 {
				k := 3 * (i % (len(specs) / 3))
				a, b, c = specs[k], specs[k+1], specs[k+2]
			}
			task := mkTask(t, n-i, prog, iso*deadlineScale[a>>4], 1+int(a&0x0f)%11)
			task.Layer = int(b) % (layers + 1)
			task.Frac = float64(b>>4%8) / 8
			task.Alloc = int(c & 0x1f)
			if c&0x20 != 0 {
				task.PenaltyCycles = 1000
			}
			if c&0x40 != 0 {
				task.Req.Work = 2.5
			}
			if c&0x80 != 0 {
				task.Req.Arrival = -iso
			}
			tasks[i] = task
		}
		for _, q := range [][]*sim.Task{tasks, tasks[:len(tasks)/2]} {
			gotDst := make([]int, len(q))
			wantDst := make([]int, len(q))
			got.AllocateInto(now, q, total, gotDst)
			want.AllocateInto(now, q, total, wantDst)
			if !slices.Equal(got.cands, want.cands) {
				t.Fatalf("%d tasks on %d subarrays: candidates\n%+v\nreference\n%+v", len(q), total, got.cands, want.cands)
			}
			if !slices.Equal(gotDst, wantDst) {
				t.Fatalf("%d tasks on %d subarrays: allocation %v, reference %v", len(q), total, gotDst, wantDst)
			}
		}
	})
}
