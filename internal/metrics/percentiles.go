package metrics

import (
	"fmt"
	"math"
	"sort"

	"planaria/internal/obs"
	"planaria/internal/simtime"
	"planaria/internal/workload"
)

// LatencyStats summarizes one group's latency distribution.
type LatencyStats struct {
	Count         int
	P50, P90, P99 float64
	Mean          float64
	Max           float64
	// DeadlineMissRate is the fraction of the group's requests that
	// missed their QoS bound.
	DeadlineMissRate float64
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted data using
// nearest-rank. An empty input has no quantiles: the result is NaN, so
// a missing group renders as NaN in a latency table instead of posing
// as a genuine 0ms measurement.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// GroupLatencies computes per-model latency statistics from a completed
// instance (requests plus their latencies and finish times).
func GroupLatencies(reqs []workload.Request, latencies, finishes []float64) (map[string]LatencyStats, error) {
	if len(reqs) != len(latencies) || len(reqs) != len(finishes) {
		return nil, fmt.Errorf("metrics: %d requests vs %d latencies / %d finishes",
			len(reqs), len(latencies), len(finishes))
	}
	byModel := map[string][]float64{}
	misses := map[string]int{}
	for i, r := range reqs {
		byModel[r.Model] = append(byModel[r.Model], latencies[i])
		if finishes[i] < 0 || simtime.After(finishes[i], r.Deadline) {
			misses[r.Model]++
		}
	}
	out := make(map[string]LatencyStats, len(byModel))
	for model, ls := range byModel {
		sort.Float64s(ls)
		var sum float64
		for _, l := range ls {
			sum += l
		}
		out[model] = LatencyStats{
			Count:            len(ls),
			P50:              Percentile(ls, 0.50),
			P90:              Percentile(ls, 0.90),
			P99:              Percentile(ls, 0.99),
			Mean:             sum / float64(len(ls)),
			Max:              ls[len(ls)-1],
			DeadlineMissRate: float64(misses[model]) / float64(len(ls)),
		}
	}
	return out, nil
}

// FormatLatencyTable renders per-model latency statistics in
// milliseconds, sorted by model name — through the same aligned-table
// renderer the observability snapshots use (obs.Table).
func FormatLatencyTable(stats map[string]LatencyStats) string {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	t := obs.NewTable("model", "n", "p50(ms)", "p90(ms)", "p99(ms)", "max(ms)", "miss")
	ms := func(v float64) string { return fmt.Sprintf("%.2f", v*1e3) }
	for _, n := range names {
		st := stats[n]
		t.Row(n, fmt.Sprintf("%d", st.Count),
			ms(st.P50), ms(st.P90), ms(st.P99), ms(st.Max),
			fmt.Sprintf("%.1f%%", st.DeadlineMissRate*100))
	}
	return t.String()
}
