package cluster

import (
	"testing"
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
// Run on a 400-request stream: without sinks, with attribution, and with
// Observe. The front end's working buffers come from pooled state; what
// remains is the Outcome, the per-chip request layout and results, and
// the three chip simulations. Attribution adds the front ledger and its
// links, each chip's ledger and its occupancy accountant; Observe adds
// each chip's timeline, its string table, track table and event chunks.
func TestClusterRunAllocs(t *testing.T) {
	sys := spatialSystem(t)
	reqs := genReqs(400, 1500, 1, 21)
	for _, c := range []struct {
		attrib, observe bool
		want            float64
	}{{false, false, 33}, {true, false, 71}, {false, true, 78}} {
		cfg := Config{System: sys, Chips: 3, BatchWindow: 5e-4, MaxBatch: 4, Attrib: c.attrib, Observe: c.observe}
		run := func() {
			if _, err := Run(cfg, reqs); err != nil {
				t.Fatal(err)
			}
		}
		if got := warmAllocs(run); got > c.want {
			t.Errorf("warm cluster.Run (attrib=%v, observe=%v): %.0f allocs/op, want at most %.0f", c.attrib, c.observe, got, c.want)
		}
	}
}
