// Package obs is the deterministic observability layer threaded through
// the simulators: a metrics registry of counters, gauges, and histograms
// keyed by sorted label sets, which the scheduling policies probe and
// experiments.TracedRun fills from each run's outcome (the serving engine
// writes no metrics), and a Chrome trace-event (Perfetto-loadable)
// timeline builder. Both are bound by the determinism contract
// (DESIGN.md §8–§9): every probe advances on *simulated* cycles or
// seconds supplied by the caller — never the wall clock — and both
// snapshot encoders are byte-identical run-to-run. planaria-vet's noclock
// analyzer covers this package, so a wall-clock read inside the registry
// fails the build.
//
// Every entry point is nil-safe: a nil *Registry, *TraceBuilder,
// *Observer, or metric handle turns the whole instrumentation path into
// cheap no-ops, so the simulators carry their probes unconditionally and
// pay only an untaken branch when observability is off.
//
// The Registry is append-only by contract: series are never removed or
// reset in place, handles stay valid for the registry's lifetime, and
// each Snapshot's series set only grows — see the Registry doc comment.
//
// The package also hosts the SLA root-cause attribution layer
// (DESIGN.md §14): the per-request phase Ledger and the Occupancy
// accountant (attrib.go, occupancy.go), with AttribBuilder/AttribReport
// (attribreport.go) folding both into deterministic per-model × per-QoS
// violation breakdowns and fleet utilization tables.
package obs

// Observer bundles the two observability sinks an instrumented component
// receives: the metrics registry and the timeline builder. Either field
// (or the Observer itself) may be nil.
type Observer struct {
	Metrics *Registry
	Trace   *TraceBuilder
}

// New returns an Observer with a fresh registry and trace builder whose
// timestamps are interpreted as simulated seconds (rendered as
// microseconds in the exported timeline).
//
//perf:cold once-per-run constructor: observability wiring, not a probe
func New() *Observer {
	return &Observer{Metrics: NewRegistry(), Trace: NewTraceBuilder(1e6)}
}

// Registry returns the metrics registry, nil when the observer is nil or
// metrics are disabled.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Tracer returns the timeline builder, nil when the observer is nil or
// tracing is disabled.
func (o *Observer) Tracer() *TraceBuilder {
	if o == nil {
		return nil
	}
	return o.Trace
}

// Named returns a derived Observer for one subsystem or system-under-test:
// its metrics carry a system=<name> label and its timeline tracks are
// prefixed "<name>/", while both views share the parent's storage. Used by
// the traced co-location runs to keep Planaria and PREMA distinguishable
// in one artifact.
func (o *Observer) Named(name string) *Observer {
	if o == nil {
		return nil
	}
	return &Observer{
		Metrics: o.Metrics.With(Label{Key: "system", Value: name}),
		Trace:   o.Trace.WithPrefix(name + "/"),
	}
}

// Observable is implemented by scheduling policies (and other components)
// that accept an observer after construction.
type Observable interface {
	SetObserver(*Observer)
}
