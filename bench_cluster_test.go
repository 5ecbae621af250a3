package planaria

// BenchmarkClusterRun is the serving-scale benchmark: one million
// requests through the full cluster front end (admission-free Poisson
// stream, dynamic batching, least-work balancing) onto 8 simulated
// chips. It is the headline number for the event-engine overhaul
// (DESIGN.md §12). Run it with
//
//	go test -run '^$' -bench ClusterRun -benchmem -count 5
//
// and compare medians; the repository benchmark (bash bench/run.sh) times
// the same front end with repeated runs and reports their spread.

import (
	"math/rand"
	"sync"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/cluster"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
	"planaria/internal/energy"
	"planaria/internal/metrics"
	"planaria/internal/sched"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// benchClusterModels are the two toy models the cluster benchmark
// serves; small networks keep program compilation out of the measured
// path while exercising the same table-lookup serving machinery.
var benchClusterModels = []string{"bench-a", "bench-b"}

var (
	benchClusterOnce sync.Once
	benchClusterSys  metrics.System
	benchClusterErr  error
)

func benchClusterSystem(b *testing.B) metrics.System {
	b.Helper()
	benchClusterOnce.Do(func() {
		cfg := arch.Planaria()
		progs := map[string]*compiler.Program{}
		for i, name := range benchClusterModels {
			bld := dnn.NewBuilder(name, "classification", 32, 32, 8)
			bld.Conv("c1", 32+16*i, 3, 1)
			bld.Conv("c2", 32+16*i, 3, 1)
			bld.GlobalPool("gp")
			bld.FC("fc", 10)
			net, err := bld.Build()
			if err != nil {
				benchClusterErr = err
				return
			}
			p, err := compiler.CompileProgram(net, cfg, true)
			if err != nil {
				benchClusterErr = err
				return
			}
			progs[name] = p
		}
		benchClusterSys = metrics.System{
			Name: "Planaria", Cfg: cfg, Programs: progs,
			Params:    energy.Default(),
			NewPolicy: func() sim.Policy { return sched.NewSpatial(cfg) },
		}
	})
	if benchClusterErr != nil {
		b.Fatal(benchClusterErr)
	}
	return benchClusterSys
}

// benchClusterReqs draws a seeded Poisson stream over the toy models
// with generous deadlines (throughput-bound, not shed-bound).
func benchClusterReqs(n int, qps float64, seed int64) []workload.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]workload.Request, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / qps
		reqs = append(reqs, workload.Request{
			ID:     i,
			Model:  benchClusterModels[rng.Intn(len(benchClusterModels))],
			Domain: "classification", Arrival: t,
			Priority: rng.Intn(11) + 1,
			QoS:      1, Deadline: t + 1,
		})
	}
	return reqs
}

// benchClusterN is the trace length; resolvable down for -short runs.
func benchClusterN(b *testing.B) int {
	if testing.Short() {
		return 50_000
	}
	return 1_000_000
}

func BenchmarkClusterRun(b *testing.B) {
	sys := benchClusterSystem(b)
	// Arrival rate ≈ 60% of the 8-chip batched service capacity, so the
	// cluster stays busy without unbounded queue growth.
	iso := sys.Cfg.Seconds(sys.Programs[benchClusterModels[0]].Table(sys.Cfg.NumSubarrays()).TotalCycles)
	const chips = 8
	qps := 0.6 * float64(chips) * 2.3 / iso // 2.3 ≈ batch-8 fusion gain
	reqs := benchClusterReqs(benchClusterN(b), qps, 42)
	b.ResetTimer()
	b.ReportAllocs()
	var completed int
	for i := 0; i < b.N; i++ {
		out, err := cluster.Run(cluster.Config{
			System: sys, Chips: chips, Policy: "least-work",
			BatchWindow: 2e-4, MaxBatch: 8,
		}, reqs)
		if err != nil {
			b.Fatal(err)
		}
		completed = out.Completed
	}
	b.StopTimer()
	b.ReportMetric(float64(completed), "completed")
}
