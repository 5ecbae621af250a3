package trace_test

import (
	"testing"

	"planaria/internal/experiments"
	"planaria/internal/workload"
	"planaria/internal/workload/trace"
)

// BenchmarkGenerate times the trace layer on its own, over the two
// benchmark workloads that generate a trace: planet-day (24 h, 1.6M
// requests, ~1% of candidates kept, so thinning dominates) and
// elastic-crowd (60 s at 2900 QPS with a 1.2x crowd, ~85% kept).
//
//	go test -run='^$' -bench=BenchmarkGenerate -benchtime=5x ./internal/workload/trace
func BenchmarkGenerate(b *testing.B) {
	elastic := &trace.Spec{
		Version:  trace.FormatVersion,
		Name:     "elastic-crowd",
		Models:   workload.ScenarioB().Models,
		QoS:      workload.QoSHard.Name,
		Seed:     1,
		HorizonS: 60,
		BaseQPS:  2900,
		Crowds:   []trace.Crowd{{AtS: 30, Mult: 1.2, RampS: 1, DecayS: 2}},
	}
	for _, s := range []*trace.Spec{experiments.DefaultAutoscaleTrace(), elastic} {
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				reqs, err := s.Generate()
				if err != nil {
					b.Fatal(err)
				}
				n = len(reqs)
			}
			b.ReportMetric(float64(n), "requests")
		})
	}
}
