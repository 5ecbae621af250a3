package cluster

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"planaria/internal/fault"
	"planaria/internal/metrics"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// fuzzValue maps one fuzz byte to a field value: a small multiple of unit
// (ties are common), or NaN, ±Inf or -1.
func fuzzValue(b byte, unit float64) float64 {
	switch b % 16 {
	case 12:
		return math.NaN()
	case 13:
		return math.Inf(1)
	case 14:
		return math.Inf(-1)
	case 15:
		return -1
	}
	return float64(b/16) * unit
}

// fuzzStream decodes up to 16 requests, five bytes each (ID, arrival,
// deadline, work, and model, level and priority), after one header byte
// that picks the ID scheme. A last byte of 255 gives a priority past
// the int32 range. iso is the toy models' isolated run time.
func fuzzStream(data []byte, iso float64) []workload.Request {
	if len(data) == 0 {
		return nil
	}
	positional := data[0]&1 == 0
	data = data[1:]
	var reqs []workload.Request
	for i := 0; len(data) >= 5 && i < 16; i, data = i+1, data[5:] {
		r := workload.Request{
			ID: int(data[0] % 32), Domain: "classification",
			Arrival: fuzzValue(data[1], iso/2), Priority: 1 + int(data[4]%11),
			Model: toyModels[data[4]/8%2], Level: "QoS-M",
		}
		if positional {
			r.ID = i
		}
		r.Deadline = r.Arrival + fuzzValue(data[2], iso)
		r.QoS = r.Deadline - r.Arrival
		r.Work = fuzzValue(data[3], 0.25)
		if data[4]%8 == 0 {
			r.Model = "no-such-model"
		}
		if data[4]&16 != 0 {
			r.Level = "QoS-H"
		}
		if data[4] == 255 {
			r.Priority = int(int64(math.MaxInt32) + 1)
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// fuzzConfig decodes a cluster configuration from the setup word: 1–3
// chips, the balancing policy, the batch window and max batch, and
// optionally a token bucket on one QoS level, a transient outage of
// every pod of chip 0, a Script autoscale that drains down to one chip
// and books the fleet back out, and attribution. One bit before
// attribution and one after it select nothing; they are still consumed
// so the committed seeds decode to the configurations their comments
// name.
func fuzzConfig(sys metrics.System, setup uint32, iso float64) Config {
	bits := func(n uint32) uint32 {
		v := setup % n
		setup /= n
		return v
	}
	cfg := Config{System: sys, Chips: 1 + int(bits(3)), Policy: Policies()[bits(3)]}
	if w := bits(4); w > 0 {
		cfg.BatchWindow = float64(w) * iso / 4
		cfg.MaxBatch = int(bits(4))
	}
	if bits(2) == 1 {
		cfg.Admission = map[string]TokenBucket{"QoS-H": {Rate: 1 / iso, Burst: 1 + float64(bits(3)), MaxQueue: int(bits(3))}}
	}
	if bits(2) == 1 {
		cfg.Faults = make([]*fault.Schedule, cfg.Chips)
		s := &fault.Schedule{Units: 16, Pods: 4}
		at, outage := float64(bits(4))*iso/2, float64(1+bits(4))*iso
		for pod := 0; pod < s.Pods; pod++ {
			s.Events = append(s.Events, fault.Event{Time: at, Kind: fault.KindLink, Unit: pod, Duration: outage})
		}
		cfg.Faults[0] = s
		cfg.FaultMode = sim.FaultFission
	}
	if bits(2) == 1 {
		cfg.Scale = &Autoscale{
			Min: 1, Initial: cfg.Chips, IntervalS: iso / 2,
			Controller: &Script{Steps: []ScaleStep{{AtS: iso / 2, Chips: 1}, {AtS: 2 * iso, Chips: cfg.Chips}}},
		}
	}
	_ = bits(2)
	cfg.Attrib = bits(2) == 1
	_ = bits(2)
	return cfg
}

// checkDispatch rebuilds every dispatched request from the records of
// the input requests the attribution links to it, and checks what Run
// laid out: the leader's ID, model, domain and level (the earliest
// arrival when no bucket reorders admits), the tightest member deadline,
// the highest member priority, an arrival no earlier than any member's,
// QoS measured from that arrival and the fused work of a merged group,
// and, for a lone request handed over at its own arrival, its record
// unchanged.
func checkDispatch(t *testing.T, cfg Config, reqs []workload.Request, out *Outcome) {
	t.Helper()
	type slot struct{ chip, pos int32 }
	groups := map[slot][]int{}
	for i := range reqs {
		if c := out.Attrib.Chip[i]; c >= 0 {
			s := slot{c, out.Attrib.Pos[i]}
			groups[s] = append(groups[s], i)
		}
	}
	byID := map[int]int{}
	for i := range reqs {
		byID[reqs[i].ID] = i
	}
	for c, cr := range out.PerChip {
		for p, got := range cr.Requests {
			members := groups[slot{int32(c), int32(p)}]
			if len(members) == 0 {
				t.Fatalf("chip %d request %d: no input request links to it", c, p)
			}
			leader, ok := byID[got.ID]
			if !ok || !slices.Contains(members, leader) {
				t.Fatalf("chip %d request %d: ID %d is not a member of %v", c, p, got.ID, members)
			}
			lr := reqs[leader]
			if cfg.Admission == nil {
				first := slices.MinFunc(members, func(a, b int) int {
					return cmp.Or(cmp.Compare(reqs[a].Arrival, reqs[b].Arrival), cmp.Compare(a, b))
				})
				if leader != first {
					t.Fatalf("chip %d request %d: leader %d, want the first arrival %d of %v", c, p, leader, first, members)
				}
			}
			if got.Model != lr.Model || got.Domain != lr.Domain || got.Level != lr.Level {
				t.Fatalf("chip %d request %d: model/domain/level %q/%q/%q, leader has %q/%q/%q",
					c, p, got.Model, got.Domain, got.Level, lr.Model, lr.Domain, lr.Level)
			}
			deadline, prio := lr.Deadline, lr.Priority
			for _, m := range members {
				deadline, prio = min(deadline, reqs[m].Deadline), max(prio, reqs[m].Priority)
				if got.Model != reqs[m].Model {
					t.Fatalf("chip %d request %d: member %d serves %q, group %q", c, p, m, reqs[m].Model, got.Model)
				}
				if got.Arrival < reqs[m].Arrival {
					t.Fatalf("chip %d request %d: arrival %g before member %d's %g", c, p, got.Arrival, m, reqs[m].Arrival)
				}
			}
			if got.Deadline != deadline || got.Priority != prio {
				t.Fatalf("chip %d request %d: deadline %g priority %d, members' tightest %g and highest %d",
					c, p, got.Deadline, got.Priority, deadline, prio)
			}
			k := len(members)
			if k == 1 && got.Arrival == lr.Arrival {
				if got != lr {
					t.Fatalf("chip %d request %d: lone request dispatched at its arrival is %+v, its record %+v", c, p, got, lr)
				}
				continue
			}
			if got.QoS != got.Deadline-got.Arrival {
				t.Fatalf("chip %d request %d: QoS %g, want deadline %g - arrival %g", c, p, got.QoS, got.Deadline, got.Arrival)
			}
			work := lr.Work
			if k > 1 {
				work = cmp.Or(lr.Work, 1) * (1 + BatchAlpha*float64(k-1))
			}
			if got.Work != work {
				t.Fatalf("chip %d request %d: work %g for %d members led by work %g, want %g", c, p, got.Work, k, lr.Work, work)
			}
		}
	}
}

// FuzzClusterRun drives cluster.Run with small arbitrary streams —
// unsorted and tied arrivals, duplicate and non-positional IDs, an
// unknown model, and NaN, ±Inf and negative fields — under fuzz-chosen
// cluster shapes, policies, batching, admission, faults and autoscaling.
// Run must not panic, must fail exactly when workload.Validate rejects
// the stream and with its error, and on success must account for every
// request exactly once, finish none before its arrival, close every
// front-door attribution record, lay out dispatched requests that match
// their members' records (checkDispatch), and keep a valid fleet log.
func FuzzClusterRun(f *testing.F) {
	sys := spatialSystem(f)
	iso := sys.Cfg.Seconds(sys.Programs["toy-a"].Table(16).TotalCycles)
	f.Add(uint32(0), []byte{0, 0, 0, 16, 0, 1, 1, 16, 32, 16, 2})
	f.Add(uint32(12345), []byte{1, 3, 48, 32, 16, 21, 3, 16, 32, 0, 6, 7, 16, 16, 0, 9})
	f.Add(uint32(987654), []byte{0, 1, 12, 16, 0, 1, 2, 13, 16, 15, 1})
	f.Add(uint32(1<<20-1), []byte{0, 0, 0, 64, 16, 17, 1, 0, 64, 16, 9, 2, 16, 64, 16, 25, 3, 32, 64, 16, 1})
	// Three chips drained to one, migrating queued work, and booted back
	// out, with attribution.
	f.Add(uint32(2165), []byte{0, 0, 0, 240, 64, 1, 1, 0, 240, 64, 1, 2, 0, 240, 64, 1, 3, 0, 240, 64, 1,
		4, 0, 240, 64, 1, 5, 0, 240, 64, 1, 6, 64, 240, 16, 1, 7, 96, 240, 16, 1})
	// One chip behind a QoS-H token bucket, dead at first: admission and
	// unroutable sheds, with attribution.
	f.Add(uint32(306540), []byte{0, 0, 0, 64, 16, 17, 1, 0, 64, 16, 17, 2, 0, 64, 16, 17, 3, 0, 64, 16, 17,
		4, 32, 64, 16, 1, 5, 112, 64, 16, 1})
	// A lone Work = 0 request batched on one chip, with attribution: its
	// window closes after its arrival, so it is rewritten, and keeps Work 0.
	f.Add(uint32(2313), []byte{0, 0, 0, 64, 0, 1, 1, 16, 64, 16, 9})
	// Two requests, the second with a priority past the int32 range: Run
	// rejects the stream with Validate's error, which names the field.
	f.Add(uint32(5), []byte{0, 0, 0, 64, 16, 1, 1, 0, 64, 16, 255})
	f.Fuzz(func(t *testing.T, setup uint32, data []byte) {
		reqs := fuzzStream(data, iso)
		if len(reqs) == 0 {
			return
		}
		cfg := fuzzConfig(sys, setup, iso)
		out, err := Run(cfg, reqs)
		verr := workload.Validate(reqs)
		if (err != nil) != (verr != nil) || err != nil && err.Error() != "cluster: "+verr.Error() {
			t.Fatalf("Run error %v, Validate error %v", err, verr)
		}
		if err != nil {
			return
		}
		if total := out.Completed + out.ShedFront + out.ShedChips + out.Rejected + out.ShedDrain; total != len(reqs) {
			t.Fatalf("completed %d + shedFront %d + shedChips %d + rejected %d + shedDrain %d = %d, want %d",
				out.Completed, out.ShedFront, out.ShedChips, out.Rejected, out.ShedDrain, total, len(reqs))
		}
		for i, fin := range out.Finishes {
			if fin >= 0 && fin < reqs[i].Arrival {
				t.Fatalf("request %d finishes at %g before arriving at %g", i, fin, reqs[i].Arrival)
			}
		}
		if cfg.Attrib {
			for i := range reqs {
				if !out.Attrib.Front.Closed(i) {
					t.Fatalf("request %d: front-door attribution record left open", i)
				}
			}
			checkDispatch(t, cfg, reqs, out)
		}
		if err := out.Fleet.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
