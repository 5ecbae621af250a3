// Package obs is the deterministic observability layer threaded through
// the simulators: a Chrome trace-event (Perfetto-loadable) timeline
// builder the engine and the scheduling policies write on simulated
// time, and the metrics Snapshot encoders experiments.TracedRun publishes
// each run's tallies through (the tallies themselves live in sim.Outcome,
// the Occupancy accountant and prema.Token's counts). Both are bound by
// the determinism contract (DESIGN.md §8–§9): every timestamp is
// *simulated* time supplied by the caller — never the wall clock — and
// both encoders are byte-identical run-to-run. planaria-vet's noclock
// analyzer covers this package, so a wall-clock read here fails the
// build.
//
// Every probe is nil-safe: a nil *TraceBuilder, *Ledger or *Occupancy
// turns the whole instrumentation path into cheap no-ops, so the
// simulators carry their probes unconditionally and pay only an untaken
// branch when observability is off.
//
// The package also hosts the SLA root-cause attribution layer
// (DESIGN.md §14): the per-request phase Ledger and the Occupancy
// accountant (attrib.go, occupancy.go), with AttribBuilder/AttribReport
// (attribreport.go) folding both into deterministic per-model × per-QoS
// violation breakdowns and fleet utilization tables.
package obs

// Observable is implemented by scheduling policies (and other components)
// that accept a timeline after construction and mark their decisions on
// it as instants.
type Observable interface {
	SetObserver(*TraceBuilder)
}
