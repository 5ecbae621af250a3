package planaria

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§VI) from Fig 16 on. Each benchmark regenerates
// its artifact and reports the headline quantities via b.ReportMetric:
//
//	go test -bench=. -benchmem
//
// The Fig 12–15 serving rows are pinned by the serving.txt golden
// (internal/experiments) and timed by the repository benchmark's
// paper-sweep workload (bench/). Benchmarks use reduced instance sizes
// (150 requests × 2 seeds) to keep the sweep quick; `cmd/planaria`
// regenerates the same artifacts at full fidelity.

import (
	"fmt"
	"sync"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
	"planaria/internal/experiments"
	"planaria/internal/metrics"
	"planaria/internal/model"
	"planaria/internal/systolic"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	suiteErr  error
)

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = experiments.NewSuite()
		if suiteErr == nil {
			suite.Opt = metrics.Options{Requests: 150, Instances: 2, Seed: 1}
		}
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

// BenchmarkFig16ScaleOut regenerates Fig 16: minimum node count for SLA
// at a constant 100 QPS.
func BenchmarkFig16ScaleOut(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig16ScaleOut(100)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "Workload-A" && r.QoS == "QoS-H" {
				b.ReportMetric(float64(r.Nodes), "nodesA-H")
			}
			if r.Workload == "Workload-C" && r.QoS == "QoS-H" {
				b.ReportMetric(float64(r.Nodes), "nodesC-H")
			}
		}
	}
}

// BenchmarkFig17Isolated regenerates Fig 17: isolated single-DNN speedup
// and energy reduction vs the conventional systolic accelerator.
func BenchmarkFig17Isolated(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig17Isolated()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Model {
			case "geomean":
				b.ReportMetric(r.Speedup, "speedup-geomean")
				b.ReportMetric(r.EnergyReduction, "energy-geomean")
			case "MobileNet-v1":
				b.ReportMetric(r.Speedup, "speedup-mobilenet")
			}
		}
	}
}

// BenchmarkFig18Granularity regenerates Fig 18: the fission-granularity
// design-space exploration (relative EDP of 16/32/64 subarrays).
func BenchmarkFig18Granularity(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig18Granularity()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Granularity {
			case 16:
				b.ReportMetric(r.RelativeEDP, "edp16")
			case 64:
				b.ReportMetric(r.RelativeEDP, "edp64")
			}
		}
	}
}

// BenchmarkFig19Breakdown regenerates Fig 19: the area/power breakdown
// and the fission-support overhead fractions.
func BenchmarkFig19Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, a, p := experiments.Fig19Breakdown()
		b.ReportMetric(a*100, "area-ovh-%")
		b.ReportMetric(p*100, "power-ovh-%")
	}
}

// BenchmarkTable2Sensitivity regenerates Table II: the per-DNN
// distribution of compiled fission configurations.
func BenchmarkTable2Sensitivity(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		cells, err := s.Table2Sensitivity()
		if err != nil {
			b.Fatal(err)
		}
		od := 0.0
		for _, c := range cells {
			if c.OD {
				od++
			}
		}
		b.ReportMetric(od, "od-cells")
	}
}

// --- Microbenchmarks of the core machinery -------------------------------

// BenchmarkCompileResNet50 measures compiling one network across all 16
// allocations (the INFaaS deployment cost per model).
func BenchmarkCompileResNet50(b *testing.B) {
	net := dnn.MustByName("ResNet-50")
	cfg := arch.Planaria()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.CompileProgram(net, cfg, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticalLayer measures one layer evaluation of the
// analytical model (the scheduler's inner loop cost).
func BenchmarkAnalyticalLayer(b *testing.B) {
	cfg := arch.Planaria()
	l := &dnn.Layer{Kind: dnn.Conv, InH: 28, InW: 28, InC: 256, OutC: 512,
		OutH: 28, OutW: 28, KH: 3, KW: 3, Stride: 1, Pad: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = model.BestShape(l, cfg, 16)
	}
}

// BenchmarkSystolicGrid measures the functional simulator streaming a
// 32×32 tile (cycle-level token movement).
func BenchmarkSystolicGrid(b *testing.B) {
	wts := make([][]int8, 32)
	for i := range wts {
		wts[i] = make([]int8, 32)
		for j := range wts[i] {
			wts[i][j] = int8((i + j) % 7)
		}
	}
	a := make([][]int8, 64)
	for i := range a {
		a[i] = make([]int8, 32)
		for j := range a[i] {
			a[i][j] = int8((i * j) % 5)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := systolic.New(32, 32, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.AddCluster(systolic.ClusterSpec{H: 1, W: 1}, wts, a); err != nil {
			b.Fatal(err)
		}
		if _, err := g.Run(4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeInstance measures one 150-request multi-tenant serving
// simulation under the spatial scheduler.
func BenchmarkServeInstance(b *testing.B) {
	reqs, err := GenerateWorkload(Scenarios()[2], QoSMedium, 100, 150, 42)
	if err != nil {
		b.Fatal(err)
	}
	acc, err := NewAccelerator(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range ModelNames() {
		if err := acc.Deploy(MustModel(m)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := acc.Serve(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeElastic measures the same 150-request serving
// simulation with the runtime re-fission loop enabled, so the elastic
// policy's scheduling overhead is tracked next to the spatial baseline.
func BenchmarkServeElastic(b *testing.B) {
	reqs, err := GenerateWorkload(Scenarios()[2], QoSMedium, 100, 150, 42)
	if err != nil {
		b.Fatal(err)
	}
	acc, err := NewElasticAccelerator(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range ModelNames() {
		if err := acc.Deploy(MustModel(m)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := acc.Serve(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeOverload serves Workload-B at QoS-H and 2000 QPS on one
// chip, well past what the chip sustains, with the spatial scheduler and
// with elastic re-fission, at 10k and 20k requests. The queue grows with
// the run, so the time per request at 20k over that at 10k shows how a
// policy's per-event cost scales with queue depth: Spatial's unfit
// admission stops once the chip is full, while Elastic prices and plans
// every queued task at every event.
func BenchmarkServeOverload(b *testing.B) {
	for _, elastic := range []bool{false, true} {
		newAcc, name := NewAccelerator, "spatial"
		if elastic {
			newAcc, name = NewElasticAccelerator, "elastic"
		}
		acc, err := newAcc(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		sc := Scenarios()[1]
		for _, m := range sc.Models {
			if err := acc.Deploy(MustModel(m)); err != nil {
				b.Fatal(err)
			}
		}
		for _, n := range []int{10000, 20000} {
			reqs, err := GenerateWorkload(sc, QoSHard, 2000, n, 42)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("policy=%s/requests=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := acc.Serve(reqs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Ablation benchmarks (design-choice studies from DESIGN.md) ----------

// BenchmarkAblationSchedulers compares Algorithm 1 against equal-share
// spatial co-location and FCFS on identical fission hardware (Workload-C).
func BenchmarkAblationSchedulers(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.SchedulerAblation(Scenarios()[2])
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.QoS == "QoS-M" {
				switch r.Policy {
				case "spatial (Alg. 1)":
					b.ReportMetric(r.QPS, "spatial-qps")
				case "equal-share":
					b.ReportMetric(r.QPS, "equal-qps")
				case "fcfs":
					b.ReportMetric(r.QPS, "fcfs-qps")
				}
			}
		}
	}
}

// BenchmarkAblationOmni measures the compiled-latency cost of removing
// the omni-directional configurations from the shape space.
func BenchmarkAblationOmni(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.OmniAblation()
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range rows {
			if r.SlowdownPct > worst {
				worst = r.SlowdownPct
			}
		}
		b.ReportMetric(worst, "worst-slowdown-%")
	}
}

// BenchmarkAblationGranularityExtended sweeps fission granularity over
// 8/16/32/64 subarray sizes.
func BenchmarkAblationGranularityExtended(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.ExtendedGranularity()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Granularity == 8 {
				b.ReportMetric(r.RelativeEDP, "edp8")
			}
		}
	}
}

// BenchmarkAblationPenalty sweeps the re-allocation penalty multiplier
// and reports the throughput retained at the modeled (1×) cost relative
// to free preemption.
func BenchmarkAblationPenalty(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.PenaltySensitivity(Scenarios()[2], QoSMedium)
		if err != nil {
			b.Fatal(err)
		}
		var free, modeled float64
		for _, r := range rows {
			if r.Scale < 0.01 {
				free = r.QPS
			}
			if r.Scale == 1 {
				modeled = r.QPS
			}
		}
		if free > 0 {
			b.ReportMetric(100*modeled/free, "retained-%")
		}
	}
}
