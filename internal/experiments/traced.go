package experiments

import (
	"fmt"
	"sort"

	"planaria/internal/metrics"
	"planaria/internal/obs"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// TracedResult bundles the observability artifacts of one instrumented
// co-location run: the deterministic metrics snapshot (JSON and text) and
// the Chrome trace-event timeline, both covering the Planaria and PREMA
// systems side by side in one document.
type TracedResult struct {
	// MetricsJSON is the registry snapshot, sorted by series id: the
	// policies' own probes plus each system's Outcome tallies and
	// per-model latency histograms (countOutcome).
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

// tracedSystem runs one system under the named observer view, writes
// its outcome into the view's registry and returns it.
func tracedSystem(sys metrics.System, o *obs.Observer, reqs []workload.Request) (*sim.Outcome, error) {
	pol := sys.NewPolicy()
	if ob, ok := pol.(obs.Observable); ok {
		ob.SetObserver(o)
	}
	node := &sim.Node{
		Cfg:      sys.Cfg,
		Policy:   pol,
		Programs: sys.Programs,
		Params:   sys.Params,
		Obs:      o,
	}
	out, err := node.Run(reqs)
	if err != nil {
		return nil, fmt.Errorf("traced %s run: %w", sys.Name, err)
	}
	countOutcome(o.Registry(), reqs, out)
	return out, nil
}

// countOutcome writes one run's tallies into reg: one counter per
// Outcome count, and each completed request's latency into its model's
// sim_latency_seconds histogram. The latencies are observed in
// completion order, the order the engine retires requests in, so each
// histogram's floating-point sum is added up the same way.
func countOutcome(reg *obs.Registry, reqs []workload.Request, out *sim.Outcome) {
	var done []int
	for i, fin := range out.Finishes {
		if fin >= 0 {
			done = append(done, i)
		}
	}
	add := func(name string, v int) { reg.Counter(name).Add(float64(v)) }
	add("sim_requests_total", len(reqs))
	add("sim_completions_total", len(done))
	add("sim_preemptions_total", out.Preemptions)
	add("sim_kills_total", out.Killed)
	add("sim_retries_total", out.Retries)
	add("sim_sheds_total", out.Shed)
	add("sim_rejects_total", out.Rejected)
	add("fault_events_total", out.FaultEvents)
	sort.SliceStable(done, func(a, b int) bool { return out.Finishes[done[a]] < out.Finishes[done[b]] })
	for _, i := range done {
		reg.Histogram("sim_latency_seconds", obs.DurationBuckets(), obs.L("model", reqs[i].Model)).Observe(out.Latency[i])
	}
}

// TracedRun simulates one workload instance on both systems with full
// observability attached: a shared metrics registry (series labeled
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
	root := obs.New()
	res := &TracedResult{}
	// The two systems run sequentially on derived observer views, so the
	// shared artifact interleaves nothing and stays byte-stable.
	if res.Planaria, err = tracedSystem(s.Planaria, root.Named("planaria"), reqs); err != nil {
		return nil, err
	}
	if res.PREMA, err = tracedSystem(s.PREMA, root.Named("prema"), reqs); err != nil {
		return nil, err
	}
	snap := root.Metrics.Snapshot()
	if res.MetricsJSON, err = snap.JSON(); err != nil {
		return nil, err
	}
	res.MetricsText = snap.Text()
	res.TraceJSON = root.Trace.JSON()
	return res, nil
}
