package cluster

import (
	"testing"

	"planaria/internal/obs"
)

// warmAllocs returns the fewest allocations seen over 20 single calls
// of f. A warm call's count is deterministic, but a call whose pooled
// state was dropped allocates more; the race detector makes sync.Pool
// drop a random share of Puts, so an average over many calls is noisy
// there while the minimum is not.
func warmAllocs(f func()) float64 {
	best := testing.AllocsPerRun(1, f)
	for i := 1; i < 20; i++ {
		best = min(best, testing.AllocsPerRun(1, f))
	}
	return best
}

// TestClusterRunAllocs pins the allocations of one warm, batched 3-chip
// Run on a 400-request stream: without sinks, and with a fresh observer
// per call plus attribution. The front end's working buffers come from
// pooled state; what remains is the Outcome, the per-chip request layout
// and results, and the three chip simulations. With every sink attached
// the count adds the observer, its series and timeline, the ledgers, and
// each chip's occupancy accountant; that case formats names through
// fmt's pooled printers, so it is pinned only without the race detector.
func TestClusterRunAllocs(t *testing.T) {
	sys := spatialSystem(t)
	reqs := genReqs(400, 1500, 1, 21)
	for _, c := range []struct {
		sinks bool
		want  float64
	}{{false, 33}, {true, 168}} {
		if c.sinks && raceEnabled {
			continue
		}
		cfg := Config{System: sys, Chips: 3, BatchWindow: 5e-4, MaxBatch: 4, Attrib: c.sinks}
		run := func() {
			if c.sinks {
				cfg.Obs = obs.New()
			}
			if _, err := Run(cfg, reqs); err != nil {
				t.Fatal(err)
			}
		}
		if got := warmAllocs(run); got > c.want {
			t.Errorf("warm cluster.Run (all sinks=%v): %.0f allocs/op, want at most %.0f", c.sinks, got, c.want)
		}
	}
}
