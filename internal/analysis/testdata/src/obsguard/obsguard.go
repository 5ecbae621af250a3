// Package obsguard exercises the obsguard analyzer against the event
// stream of sim.Node.Run: every emit in hot code needs an enablement
// guard — the run's observed flag, a nil check of a sink, or a bool
// hoisted from one — while nil-safe probes and guarded or error-path
// emits pass. The unguarded case mirrors exactly what deleting one of
// the engine's `if r.observed { ... }` wrappers would look like.
package obsguard

import "errors"

type Event struct {
	kind string
	at   float64
}

// Trace mirrors sim.Trace, a sink: comparing it with nil is an
// enablement check.
type Trace struct{ events []Event }

// Observer mirrors the nil-safe obs handles (Counter.Inc and friends):
// cheap no-ops when disabled, allowed inline in hot code.
type Observer struct{ count int }

func (o *Observer) bump() {
	if o == nil {
		return
	}
	o.count++
}

// run mirrors sim's run state: emit materializes its Event argument and
// folds it into every sink, so call sites must guard.
type run struct {
	trace *Trace
	obs   *Observer
	// observed is the engine's single guard, set once per run.
	observed bool
	// draining is a bool field that is no enablement check.
	draining bool
}

//perf:cold fixture per-run setup: sets the guard field
func (r *run) start(tr *Trace, o *Observer, draining bool) {
	r.trace, r.obs = tr, o
	r.observed = tr != nil || o != nil
	r.draining = draining
}

func (r *run) emit(e Event) {
	if r.trace != nil {
		r.trace.events = append(r.trace.events, e)
	}
}

var errBad = errors.New("bad event")

//perf:hot fixture steady state: unguarded emits are findings
func (r *run) unguarded(at float64) {
	r.emit(Event{kind: "arrive", at: at}) // want `unguarded run\.emit probe in hot function unguarded`
}

//perf:hot fixture steady state: the engine's guard field passes
func (r *run) guarded(at float64) {
	if r.observed {
		r.emit(Event{kind: "arrive", at: at})
	}
}

//perf:hot fixture steady state: a bool field that is no enablement check guards nothing
func (r *run) wrongFlag(at float64) {
	if r.draining {
		r.emit(Event{kind: "drain", at: at}) // want `unguarded run\.emit probe in hot function wrongFlag`
	}
}

//perf:hot fixture steady state: a sink nil check passes
func (r *run) nilCheck(at float64) {
	if r.trace != nil {
		r.emit(Event{kind: "arrive", at: at})
	}
}

//perf:hot fixture steady state: hoisted guard bools pass
func (r *run) hoisted(events []float64) {
	tracing := r.trace != nil
	for _, at := range events {
		if tracing {
			r.emit(Event{kind: "tick", at: at})
		}
	}
}

//perf:hot fixture steady state: failure paths may probe freely
func (r *run) errExit(at float64) error {
	if at < 0 {
		r.emit(Event{kind: "reject", at: at})
		return errBad
	}
	return nil
}

//perf:hot fixture steady state: nil-safe probes may run inline
func (r *run) nilsafe() {
	r.obs.bump()
}

//perf:hot fixture steady state: explicit exemptions silence the analyzer
func (r *run) exempt(at float64) {
	//perf:obsguard-ok fixture: once-per-run summary probe, cost accepted
	r.emit(Event{kind: "summary", at: at})
}
