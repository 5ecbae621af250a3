package refission

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkPlan times one plan over a 16-subarray chip for queues of 2
// to 1024 candidates: a few tenants hold the chip and the rest of the
// queue is starved, with scores, minima and headrooms drawn from a fixed
// seed. The two-candidate queue fits the chip; the longer ones leave a
// deep starved tail behind the tenants, the overload case the holder
// scans and the grant pass's early stop serve.
func BenchmarkPlan(b *testing.B) {
	const capacity = 16
	for _, n := range []int{2, 9, 32, 1024} {
		b.Run(fmt.Sprintf("cands=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cands := make([]Candidate, n)
			held := 0
			for i := range cands {
				mx := 1 + rng.Intn(capacity)
				c := Candidate{
					ID:       i,
					Min:      1 + rng.Intn(mx),
					Max:      mx,
					Score:    rng.Float64(),
					Headroom: rng.NormFloat64() * 1e-3,
					Margin:   1e-4,
				}
				if held+c.Min <= capacity {
					c.Cur = c.Min
					held += c.Min
				}
				cands[i] = c
			}
			var p Planner
			out := make([]int, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Plan(cands, capacity, out)
			}
		})
	}
}
