package prema

import (
	"fmt"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/sim"
)

// BenchmarkTokenAllocateInto times one PREMA decision on queues of 2, 9
// and 32 tasks, a third of them running, with the clock advancing 100 µs
// per round so waiting tokens accrue. The steady cases pass the same
// tasks every round. The churn cases slide the queue along a ring of one
// task more: each round the oldest task leaves and the one that sat out
// the last round joins at the tail under a new ID, so every round adds
// one token entry and sweeps one away.
func BenchmarkTokenAllocateInto(b *testing.B) {
	cfg := arch.Monolithic()
	prog := toyProg(b, cfg)
	for _, churn := range []bool{false, true} {
		for _, n := range []int{2, 9, 32} {
			name := fmt.Sprintf("tasks=%d", n)
			if churn {
				name = "churn/" + name
			}
			b.Run(name, func(b *testing.B) {
				pool := make([]*sim.Task, n+1)
				for i := range pool {
					pool[i] = mkTask(i, 1+i%11, prog)
					if i%3 == 0 {
						pool[i].Alloc = 1
					}
				}
				// ring holds the pool twice, so every window of n is one
				// slice.
				ring := append(pool[:n+1:n+1], pool...)
				pol := NewToken(cfg)
				dst := make([]int, n)
				nextID := len(pool)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tasks := pool[:n]
					if churn {
						tasks = ring[i%(n+1):][:n]
						joined := tasks[n-1]
						joined.ID, joined.Req.ID = nextID, nextID
						nextID++
					}
					clear(dst)
					pol.AllocateInto(float64(i)*1e-4, tasks, 1, dst)
				}
			})
		}
	}
}
