package sched

import (
	"cmp"
	"slices"
	"testing"

	"planaria/internal/arch"
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
