package sim

import (
	"math"
	"math/rand"
	"testing"

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
// deadline, work, model and priority), after one header byte that picks
// the ID scheme. iso is the toy model's isolated run time.
func fuzzStream(data []byte, iso float64) []workload.Request {
	if len(data) == 0 {
		return nil
	}
	positional := data[0]&1 == 0
	data = data[1:]
	var reqs []workload.Request
	for i := 0; len(data) >= 5 && i < 16; i, data = i+1, data[5:] {
		r := req(int(data[0]%32), fuzzValue(data[1], iso/2), 0, 1+int(data[4]%11))
		if positional {
			r.ID = i
		}
		r.Deadline = r.Arrival + fuzzValue(data[2], iso)
		r.QoS = r.Deadline - r.Arrival
		r.Work = fuzzValue(data[3], 0.25)
		if data[4]%8 == 0 {
			r.Model = "no-such-model"
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// FuzzNodeRun drives Node.Run with small arbitrary streams: unsorted and
// tied arrivals, duplicate and non-positional IDs, an unknown model, and
// NaN, ±Inf and negative fields, under the map-path, slice-path and
// elastic test policies and every shed policy. Run must not panic, must
// fail exactly when workload.Validate rejects the stream, and on success
// must account for every request (completed + shed + rejected = n) with
// no finish before its arrival. A stream with distinct arrivals, shuffled
// with IDs kept, must give every request the same finish bit for bit.
func FuzzNodeRun(f *testing.F) {
	f.Add(byte(0), []byte{0, 0, 0, 16, 0, 1, 1, 16, 32, 16, 2})
	f.Add(byte(4), []byte{1, 3, 48, 32, 16, 5, 3, 16, 32, 0, 6, 7, 16, 16, 0, 9})
	f.Add(byte(7), []byte{0, 1, 12, 16, 0, 1, 2, 13, 16, 15, 1})
	f.Fuzz(func(t *testing.T, setup byte, data []byte) {
		node, prog := testNode(t, nil)
		iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
		reqs := fuzzStream(data, iso)
		if len(reqs) == 0 {
			return
		}
		policies := []func() Policy{
			func() Policy { return fullPolicy{} },
			func() Policy { return &splitPolicy{at: iso} },
			func() Policy { return &stubRefission{splitPolicy{at: iso}, true} },
		}
		newPolicy := policies[int(setup)%len(policies)]
		node.Shed = ShedPolicy(setup / 4 % 3)
		node.Policy = newPolicy()
		out, err := node.Run(reqs)
		verr := workload.Validate(reqs)
		if (err != nil) != (verr != nil) {
			t.Fatalf("Run error %v, Validate error %v", err, verr)
		}
		if err != nil {
			return
		}
		completed := 0
		for i, fin := range out.Finishes {
			if fin < 0 {
				continue
			}
			completed++
			if fin < reqs[i].Arrival {
				t.Fatalf("request %d finishes at %g before arriving at %g", i, fin, reqs[i].Arrival)
			}
		}
		if completed+out.Shed+out.Rejected != len(reqs) {
			t.Fatalf("completed %d + shed %d + rejected %d != %d requests", completed, out.Shed, out.Rejected, len(reqs))
		}

		seen := map[float64]bool{}
		for _, r := range reqs {
			if seen[r.Arrival] {
				return
			}
			seen[r.Arrival] = true
		}
		shuffled := append([]workload.Request(nil), reqs...)
		rand.New(rand.NewSource(int64(len(data)))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		node.Policy = newPolicy()
		out2, err := node.Run(shuffled)
		if err != nil {
			t.Fatalf("shuffled stream failed: %v", err)
		}
		byID := map[int]float64{}
		for i, r := range reqs {
			byID[r.ID] = out.Finishes[i]
		}
		for i, r := range shuffled {
			if math.Float64bits(out2.Finishes[i]) != math.Float64bits(byID[r.ID]) {
				t.Fatalf("request ID %d finishes at %v shuffled, %v in order", r.ID, out2.Finishes[i], byID[r.ID])
			}
		}
	})
}
