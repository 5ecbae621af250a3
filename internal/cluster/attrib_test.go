package cluster

import (
	"math/big"
	"testing"

	"planaria/internal/fault"
	"planaria/internal/obs"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// attribConfigs builds runs that exercise every attribution phase and
// terminal cause: batching (batch-wait), admission buckets (admit-wait,
// shed-admission), faults with shedding (fault-stall, retry-backoff,
// shed-chip, shed-retries), dead chips (shed-unroutable, shed-dead-chip),
// and an unknown model (rejected).
func attribConfigs(t *testing.T) []struct {
	name string
	cfg  Config
	reqs []workload.Request
} {
	t.Helper()
	spatial := spatialSystem(t)
	monolithic := premaSystem(t)
	faultsFor := func(chips int, seed int64) []*fault.Schedule {
		out := make([]*fault.Schedule, chips)
		for i := range out {
			s, err := fault.Generate(16, 4, 40, 0.5, 0.05, seed+int64(i))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = s
		}
		return out
	}
	dead := &fault.Schedule{Units: 16, Pods: 4}
	for u := 0; u < 16; u++ {
		dead.Events = append(dead.Events, fault.Event{Time: 1e-4, Kind: fault.KindSubarray, Unit: u})
	}
	return []struct {
		name string
		cfg  Config
		reqs []workload.Request
	}{
		{
			name: "plain",
			cfg:  Config{System: spatial, Chips: 2, Policy: "least-work", Attrib: true},
			reqs: genReqs(60, 400, 1, 3),
		},
		{
			name: "batched-admitted",
			cfg: Config{System: spatial, Chips: 2, Policy: "round-robin",
				BatchWindow: 1e-3, MaxBatch: 4,
				Admission: map[string]TokenBucket{"": {Rate: 150, Burst: 2, MaxQueue: 2}},
				Attrib:    true},
			reqs: genReqs(80, 900, 0.1, 4),
		},
		{
			name: "faulted-fission-shedding",
			cfg: Config{System: spatial, Chips: 3, Policy: "least-work",
				Faults: faultsFor(3, 7), FaultMode: sim.FaultFission,
				Shed: sim.ShedDoomed, Attrib: true},
			reqs: genReqs(100, 600, 0.02, 5),
		},
		{
			name: "prema-derate-batched",
			cfg: Config{System: monolithic, Chips: 2, Policy: "round-robin",
				BatchWindow: 1e-3,
				Faults:      faultsFor(2, 11), FaultMode: sim.FaultDerate,
				Attrib: true},
			reqs: genReqs(80, 500, 1, 6),
		},
		{
			name: "dead-chip-and-rejection",
			cfg: Config{System: spatial, Chips: 2, Policy: "least-work",
				Faults: []*fault.Schedule{dead, nil}, FaultMode: sim.FaultFission,
				Attrib: true},
			reqs: append(genReqs(40, 400, 1, 8),
				workload.Request{ID: 900, Model: "no-such-model", Domain: "classification",
					Arrival: 0.01, Priority: 5, QoS: 1, Deadline: 1.01}),
		},
	}
}

// bigSum telescopes a span list with 200-bit arithmetic; because spans
// share instants, the result must equal last.To − first.From with zero
// rounding error (DESIGN.md §14).
func bigSum(spans []obs.PhaseSpan) *big.Float {
	sum := new(big.Float).SetPrec(200)
	for _, s := range spans {
		d := new(big.Float).SetPrec(200).Sub(big.NewFloat(s.To), big.NewFloat(s.From))
		sum.Add(sum, d)
	}
	return sum
}

// TestAttributionConservation is the subsystem's load-bearing invariant
// check: for every request, the attributed phase spans (front half plus
// the linked chip half) telescope bit-exactly to its end-to-end latency;
// terminal causes partition the stream exactly like the Outcome tallies;
// and every chip's occupancy cycles partition Units × Horizon.
func TestAttributionConservation(t *testing.T) {
	for _, tc := range attribConfigs(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, err := Run(tc.cfg, tc.reqs)
			if err != nil {
				t.Fatal(err)
			}
			a := out.Attrib
			if a == nil {
				t.Fatal("Config.Attrib set but Outcome.Attrib is nil")
			}

			causeTally := map[obs.Cause]int{}
			var spanBuf []obs.PhaseSpan
			for i, r := range tc.reqs {
				spans := a.Front.Spans(i, spanBuf[:0])
				if len(spans) == 0 {
					t.Fatalf("request %d has no front spans", i)
				}
				if spans[0].From != r.Arrival {
					t.Fatalf("request %d: first span starts at %x, arrival %x",
						i, spans[0].From, r.Arrival)
				}
				cause := a.Front.Cause(i)
				if cause == obs.CauseDispatched {
					led, pos, ok := a.ChipLedger(out, i)
					if !ok {
						t.Fatalf("request %d dispatched but has no chip ledger", i)
					}
					chipSpans := led.Spans(pos, nil)
					if len(chipSpans) == 0 {
						t.Fatalf("request %d: dispatched with no chip spans", i)
					}
					// The handoff boundary must be bit-identical: the front
					// half closes at the exact instant the chip half opens.
					if spans[len(spans)-1].To != chipSpans[0].From {
						t.Fatalf("request %d: front closes at %x, chip opens at %x",
							i, spans[len(spans)-1].To, chipSpans[0].From)
					}
					spans = append(spans, chipSpans...)
					cause = led.Cause(pos)
				}
				spanBuf = spans

				// Exact conservation: Σ spans == end − start in big.Float.
				endStart := new(big.Float).SetPrec(200).Sub(
					big.NewFloat(spans[len(spans)-1].To), big.NewFloat(spans[0].From))
				if s := bigSum(spans); s.Cmp(endStart) != 0 {
					t.Fatalf("request %d: Σ spans %s != end−start %s",
						i, s.Text('g', 25), endStart.Text('g', 25))
				}
				// Completed requests end exactly at their recorded finish.
				if fin := out.Finishes[i]; fin >= 0 {
					if cause != obs.CauseDone {
						t.Fatalf("request %d finished at %g but cause is %v", i, fin, cause)
					}
					if got := spans[len(spans)-1].To; got != fin {
						t.Fatalf("request %d: ledger ends at %x, Finishes says %x", i, got, fin)
					}
				} else if cause == obs.CauseDone {
					t.Fatalf("request %d: cause done but never finished", i)
				}

				// Durations agree with the span sum to float accumulation
				// error and never go negative.
				var dur [obs.NumPhases]float64
				c2, ok := a.Durations(out, i, &dur)
				if !ok || c2 != cause {
					t.Fatalf("request %d: Durations cause %v, Spans cause %v", i, c2, cause)
				}
				for p, d := range dur {
					if d < 0 {
						t.Fatalf("request %d: negative %v duration %g", i, obs.Phase(p), d)
					}
				}
				causeTally[cause]++
			}

			// Terminal causes partition exactly like the Outcome tallies.
			if causeTally[obs.CauseDone] != out.Completed {
				t.Errorf("done causes %d != Completed %d", causeTally[obs.CauseDone], out.Completed)
			}
			if got := causeTally[obs.CauseShedAdmission] + causeTally[obs.CauseShedUnroutable]; got != out.ShedFront {
				t.Errorf("front-shed causes %d != ShedFront %d", got, out.ShedFront)
			}
			if got := causeTally[obs.CauseShedChip] + causeTally[obs.CauseShedRetries] +
				causeTally[obs.CauseShedDeadChip]; got != out.ShedChips {
				t.Errorf("chip-shed causes %d != ShedChips %d", got, out.ShedChips)
			}
			if causeTally[obs.CauseRejected] != out.Rejected {
				t.Errorf("rejected causes %d != Rejected %d", causeTally[obs.CauseRejected], out.Rejected)
			}
			if causeTally[obs.CauseOpen] != 0 || causeTally[obs.CauseDispatched] != 0 {
				t.Errorf("non-terminal causes leaked: %v", causeTally)
			}

			// Integer occupancy conservation per chip and for the fleet.
			for c, cr := range out.PerChip {
				if cr == nil || cr.Occ == nil {
					t.Fatalf("chip %d has no occupancy accountant", c)
				}
				o := cr.Occ
				if got := o.Busy + o.Idle + o.Faulted + o.Reconfig; got != o.Units*o.Horizon {
					t.Errorf("chip %d occupancy partition: %d != %d (%+v)",
						c, got, o.Units*o.Horizon, o)
				}
			}
			rep, err := out.AttribReport(tc.reqs)
			if err != nil {
				t.Fatal(err)
			}
			var reqTotal int64
			for _, g := range rep.Groups {
				reqTotal += g.Requests
			}
			if reqTotal != int64(len(tc.reqs)) {
				t.Errorf("report covers %d requests, want %d", reqTotal, len(tc.reqs))
			}
			if rep.Fleet == nil {
				t.Fatal("report has no fleet row")
			}
			f := rep.Fleet
			if f.Busy+f.Idle+f.Faulted+f.Reconfig != f.Units*f.Horizon {
				t.Errorf("fleet occupancy partition: %+v", f)
			}
		})
	}
}

// TestAttributionDisabledByDefault pins the zero-cost default: without
// Config.Attrib the outcome carries no attribution state and AttribReport
// refuses to fabricate one.
func TestAttributionDisabledByDefault(t *testing.T) {
	reqs := genReqs(20, 400, 1, 3)
	out, err := Run(Config{System: spatialSystem(t), Chips: 1}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Attrib != nil {
		t.Fatal("attribution populated without Config.Attrib")
	}
	for _, cr := range out.PerChip {
		if cr.Attrib != nil || cr.Occ != nil {
			t.Fatal("chip attribution populated without Config.Attrib")
		}
	}
	if _, err := out.AttribReport(reqs); err == nil {
		t.Fatal("AttribReport accepted an attribution-free run")
	}
	// Length mismatch is rejected too.
	out2, err := Run(Config{System: spatialSystem(t), Chips: 1, Attrib: true}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out2.AttribReport(reqs[:5]); err == nil {
		t.Fatal("AttribReport accepted a mismatched request slice")
	}
}

// TestAttributionDeterministic pins byte-identical report JSON across two
// identical runs — the property the CI artifact gate enforces.
func TestAttributionDeterministic(t *testing.T) {
	sys := spatialSystem(t)
	reqs := genReqs(60, 900, 0.05, 14)
	run := func() string {
		rs := make([]workload.Request, len(reqs))
		copy(rs, reqs)
		out, err := Run(Config{
			System: sys, Chips: 2, Policy: "least-work",
			BatchWindow: 5e-4, MaxBatch: 4,
			Admission: map[string]TokenBucket{"": {Rate: 400, Burst: 8, MaxQueue: 4}},
			Shed:      sim.ShedDoomed, Attrib: true,
		}, rs)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := out.AttribReport(rs)
		if err != nil {
			t.Fatal(err)
		}
		j, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(j)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("attribution report not deterministic:\n%s\n---\n%s", a, b)
	}
}
