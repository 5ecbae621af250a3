package prema

import (
	"fmt"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/sim"
)

// BenchmarkTokenAllocateInto times one PREMA decision on fixed queues of
// 2, 9 and 32 tasks: the same tasks every round, a third of them
// running, with the clock advancing 100 µs per round so waiting tokens
// accrue.
func BenchmarkTokenAllocateInto(b *testing.B) {
	cfg := arch.Monolithic()
	prog := toyProg(b, cfg)
	for _, n := range []int{2, 9, 32} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			tasks := make([]*sim.Task, n)
			for i := range tasks {
				tasks[i] = mkTask(i, 1+i%11, prog)
				if i%3 == 0 {
					tasks[i].Alloc = 1
				}
			}
			pol := NewToken(cfg)
			dst := make([]int, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(dst)
				pol.AllocateInto(float64(i)*1e-4, tasks, 1, dst)
			}
		})
	}
}
