package cluster

import (
	"math"
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
// that picks the ID scheme. iso is the toy models' isolated run time.
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
		reqs = append(reqs, r)
	}
	return reqs
}

// fuzzConfig decodes a cluster configuration from the setup word: 1–3
// chips, the balancing policy, the batch window and max batch, and
// optionally a token bucket on one QoS level, a transient outage of
// every pod of chip 0, a Script autoscale that drains down to one chip
// and books the fleet back out, the front-door trace and attribution.
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
	if bits(2) == 1 {
		cfg.Trace = &sim.Trace{}
	}
	cfg.Attrib = bits(2) == 1
	return cfg
}

// FuzzClusterRun drives cluster.Run with small arbitrary streams —
// unsorted and tied arrivals, duplicate and non-positional IDs, an
// unknown model, and NaN, ±Inf and negative fields — under fuzz-chosen
// cluster shapes, policies, batching, admission, faults and autoscaling.
// Run must not panic, must fail exactly when workload.Validate rejects
// the stream, and on success must account for every request exactly
// once, finish none before its arrival, and close every front-door
// attribution record.
func FuzzClusterRun(f *testing.F) {
	sys := spatialSystem(f)
	iso := sys.Cfg.Seconds(sys.Programs["toy-a"].Table(16).TotalCycles)
	f.Add(uint32(0), []byte{0, 0, 0, 16, 0, 1, 1, 16, 32, 16, 2})
	f.Add(uint32(12345), []byte{1, 3, 48, 32, 16, 21, 3, 16, 32, 0, 6, 7, 16, 16, 0, 9})
	f.Add(uint32(987654), []byte{0, 1, 12, 16, 0, 1, 2, 13, 16, 15, 1})
	f.Add(uint32(1<<20-1), []byte{0, 0, 0, 64, 16, 17, 1, 0, 64, 16, 9, 2, 16, 64, 16, 25, 3, 32, 64, 16, 1})
	f.Fuzz(func(t *testing.T, setup uint32, data []byte) {
		reqs := fuzzStream(data, iso)
		if len(reqs) == 0 {
			return
		}
		cfg := fuzzConfig(sys, setup, iso)
		out, err := Run(cfg, reqs)
		verr := workload.Validate(reqs)
		if (err != nil) != (verr != nil) {
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
		}
	})
}
