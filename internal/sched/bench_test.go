package sched

import (
	"fmt"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/sim"
)

// BenchmarkSpatialAllocateInto times one Algorithm 1 decision on fixed
// queues of 2 to 1024 tasks with mixed priorities and deadlines: the
// two-task queue co-locates (the fit path with proportional rounding),
// the longer ones over-subscribe the chip (the unfit admission
// selection, which stops once the chip is full however deep the queue).
func BenchmarkSpatialAllocateInto(b *testing.B) {
	cfg := arch.Planaria()
	prog := toyProg(b, cfg)
	iso := cfg.Seconds(prog.Table(cfg.NumSubarrays()).TotalCycles)
	for _, n := range []int{2, 9, 32, 256, 1024} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			tasks := make([]*sim.Task, n)
			for i := range tasks {
				tasks[i] = mkTask(b, i, prog, iso*float64(2+i%5), 1+i%11)
			}
			pol := NewSpatial(cfg)
			dst := make([]int, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(dst)
				pol.AllocateInto(0, tasks, cfg.NumSubarrays(), dst)
			}
		})
	}
}

// BenchmarkElasticAllocateInto times one elastic re-fission decision on
// the same queues as BenchmarkSpatialAllocateInto, in steady state: each
// queue first takes the allocation the policy gives it from empty, so
// the timed decisions price holders and starved tasks alike and re-plan
// a chip that is already split.
func BenchmarkElasticAllocateInto(b *testing.B) {
	cfg := arch.Planaria()
	prog := toyProg(b, cfg)
	iso := cfg.Seconds(prog.Table(cfg.NumSubarrays()).TotalCycles)
	for _, n := range []int{2, 9, 32, 256, 1024} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			tasks := make([]*sim.Task, n)
			for i := range tasks {
				tasks[i] = mkTask(b, i, prog, iso*float64(2+i%5), 1+i%11)
			}
			pol := NewElastic(cfg)
			dst := make([]int, n)
			pol.AllocateInto(0, tasks, cfg.NumSubarrays(), dst)
			for i, t := range tasks {
				t.Alloc = dst[i]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(dst)
				pol.AllocateInto(0, tasks, cfg.NumSubarrays(), dst)
			}
		})
	}
}
