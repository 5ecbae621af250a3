package experiments

import (
	"fmt"
	"sort"

	"planaria/internal/metrics"
	"planaria/internal/obs"
	"planaria/internal/prema"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// TracedResult bundles the observability artifacts of one instrumented
// co-location run: the deterministic metrics snapshot (JSON and text) and
// the Chrome trace-event timeline, both covering the Planaria and PREMA
// systems side by side in one document.
type TracedResult struct {
	// MetricsJSON is the metrics snapshot, sorted by series id: each
	// system's Outcome tallies and per-model latency histograms, plus
	// the policies' decision counts (tracedSystem).
	MetricsJSON []byte
	// MetricsText is the aligned-table rendering of the same snapshot.
	MetricsText string
	// TraceJSON is the Perfetto-loadable timeline: per-request lifecycle
	// spans, allocation counters, queue occupancy, and scheduler decision
	// instants on "planaria/..." and "prema/..." tracks.
	TraceJSON []byte
	// Planaria and PREMA are the two simulated outcomes.
	Planaria, PREMA *sim.Outcome
}

// tracedSystem runs one system with tl attached to its node and policy,
// and appends the run's series, labeled system=name, to snap: one
// counter per Outcome count, the policy's decision counts, and each
// completed request's latency in its model's sim_latency_seconds
// histogram. Planaria's decisions are counted by an occupancy accountant
// attached to its policy only (the node gets none); PREMA's are
// Token's own counts. The latencies are observed in completion order,
// the order the engine retires requests in, so each histogram's
// floating-point sum is added up the same way.
func tracedSystem(sys metrics.System, name string, tl *obs.TraceBuilder, reqs []workload.Request, snap *obs.Snapshot) (*sim.Outcome, error) {
	pol := sys.NewPolicy()
	if ob, ok := pol.(obs.Observable); ok {
		ob.SetObserver(tl)
	}
	var occ *obs.Occupancy
	if oa, ok := pol.(obs.OccupancyAware); ok {
		occ = &obs.Occupancy{}
		oa.SetOccupancy(occ)
	}
	node := &sim.Node{
		Cfg:      sys.Cfg,
		Policy:   pol,
		Programs: sys.Programs,
		Params:   sys.Params,
		Timeline: tl,
	}
	out, err := node.Run(reqs)
	if err != nil {
		return nil, fmt.Errorf("traced %s run: %w", sys.Name, err)
	}

	system := obs.Label{Key: "system", Value: name}
	value := func(kind, series string, v float64) {
		snap.Series = append(snap.Series, obs.SeriesSnapshot{Name: series, Labels: []obs.Label{system}, Kind: kind, Value: v})
	}
	counter := func(series string, v int64) { value("counter", series, float64(v)) }
	var done []int
	for i, fin := range out.Finishes {
		if fin >= 0 {
			done = append(done, i)
		}
	}
	counter("sim_requests_total", int64(len(reqs)))
	counter("sim_completions_total", int64(len(done)))
	counter("sim_preemptions_total", int64(out.Preemptions))
	counter("sim_kills_total", int64(out.Killed))
	counter("sim_retries_total", int64(out.Retries))
	counter("sim_sheds_total", int64(out.Shed))
	counter("sim_rejects_total", int64(out.Rejected))
	counter("fault_events_total", int64(out.FaultEvents))
	if occ != nil {
		counter("sched_decisions_total", occ.Decisions)
		counter("sched_fit_total", occ.FitDecisions)
		counter("sched_unfit_total", occ.Decisions-occ.FitDecisions)
	}
	if tok, ok := pol.(*prema.Token); ok {
		counter("prema_decisions_total", tok.Decisions)
		counter("prema_dispatch_switches_total", tok.Switches)
		value("gauge", "prema_max_token", tok.MaxToken)
	}
	sort.SliceStable(done, func(a, b int) bool { return out.Finishes[done[a]] < out.Finishes[done[b]] })
	hist := map[string]int{} // model → its histogram's index in snap.Series
	for _, i := range done {
		model := reqs[i].Model
		h, ok := hist[model]
		if !ok {
			h, hist[model] = len(snap.Series), len(snap.Series)
			bounds := obs.DurationBuckets()
			snap.Series = append(snap.Series, obs.SeriesSnapshot{
				Name: "sim_latency_seconds", Labels: []obs.Label{{Key: "model", Value: model}, system},
				Kind: "histogram", Bounds: bounds, Buckets: make([]uint64, len(bounds)+1),
			})
		}
		snap.Series[h].Observe(out.Latency[i])
	}
	return out, nil
}

// TracedRun simulates one workload instance on both systems with full
// observability attached: one metrics snapshot (series labeled
// system=planaria / system=prema) and a shared timeline whose tracks are
// prefixed per system. The run is deterministic — two identical
// invocations produce byte-identical MetricsJSON and TraceJSON.
func (s *Suite) TracedRun(sc workload.Scenario, lvl workload.QoSLevel, qps float64, requests int, seed int64) (*TracedResult, error) {
	if requests <= 0 {
		requests = 60
	}
	reqs, err := workload.Generate(sc, lvl, qps, requests, seed)
	if err != nil {
		return nil, err
	}
	tl := obs.NewTraceBuilder(1e6)
	var snap obs.Snapshot
	res := &TracedResult{}
	// The two systems run sequentially on prefixed timeline views, so the
	// shared artifact interleaves nothing and stays byte-stable.
	if res.Planaria, err = tracedSystem(s.Planaria, "planaria", tl.WithPrefix("planaria/"), reqs, &snap); err != nil {
		return nil, err
	}
	if res.PREMA, err = tracedSystem(s.PREMA, "prema", tl.WithPrefix("prema/"), reqs, &snap); err != nil {
		return nil, err
	}
	snap.Sort()
	if res.MetricsJSON, err = snap.JSON(); err != nil {
		return nil, err
	}
	res.MetricsText = snap.Text()
	res.TraceJSON = tl.JSON()
	return res, nil
}
