package cluster

import "testing"

// BenchmarkFrontDoor times the front door alone — start's validating
// pass, admission, the walk and the layout, on a pooled run, with no
// chip simulation — on a 100k-request stream shaped like the repository
// benchmark's cluster-steady workload: about 60% of 8 chips' batched
// capacity, least-work balancing, a 200 µs batch window capped at 8.
//
//	go test ./internal/cluster -run '^$' -bench FrontDoor -cpu 1 -count 10
func BenchmarkFrontDoor(b *testing.B) {
	sys := spatialSystem(b)
	iso := sys.Cfg.Seconds(sys.Programs[toyModels[0]].Table(sys.Cfg.NumSubarrays()).TotalCycles)
	const chips = 8
	reqs := genReqs(100_000, 0.6*chips*2.3/iso, 1, 42) // 2.3 ≈ batch-8 fusion gain
	cfg := Config{System: sys, Chips: chips, Policy: "least-work", BatchWindow: 2e-4, MaxBatch: 8}
	if err := cfg.validate(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := runPool.Get().(*run)
		if err := r.frontDoor(cfg, reqs); err != nil {
			b.Fatal(err)
		}
		r.release()
		runPool.Put(r)
	}
}
