// Package hotalloc exercises the hotalloc analyzer: allocation
// constructs inside //perf:hot functions are findings; cold regions
// (tracer-guard bodies, error-exit blocks), reuse evidence, and
// //perf:alloc-ok exemptions are not. Formatting is a finding in
// tracer-guard bodies too, and only error exits may format.
package hotalloc

import (
	"fmt"
	"strconv"
)

type event struct {
	seq  int
	name string
}

func (e event) key() int { return e.seq }

type keyed interface{ key() int }

func lastKey(k keyed) int { return k.key() }

// Trace mirrors sim.Trace: a nil-guarded event sink whose guard bodies
// are cold regions.
type Trace struct{ events []event }

func (t *Trace) record(e event) { t.events = append(t.events, e) }

type node struct {
	trace *Trace
}

//perf:hot fixture steady state: escaping composites are findings
func escapes(n int) int {
	e := &event{seq: n} // want `composite literal escapes to the heap in hot function escapes`
	return e.seq
}

//perf:hot fixture steady state: slice and map literals allocate
func literals() int {
	xs := []int{1, 2, 3}        // want `slice literal allocates in hot function literals`
	m := map[string]int{"a": 1} // want `map literal allocates in hot function literals`
	return len(xs) + len(m)
}

//perf:hot fixture steady state: make in a loop allocates per event
func makeInLoop(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		scratch := make([]int, 4) // want `make inside a loop allocates per iteration in hot function makeInLoop`
		total += len(scratch)
	}
	return total
}

//perf:hot fixture steady state: growing a bare local in a loop reallocates
func appendNoReuse(evts []event) int {
	var ids []int
	for _, e := range evts {
		ids = append(ids, e.seq) // want `append grows ids in a hot loop with no reuse evidence`
	}
	return len(ids)
}

//perf:hot fixture steady state: preallocated and caller-owned buffers may grow
func appendReuse(evts []event, out []int) []int {
	ids := make([]int, 0, len(evts))
	for _, e := range evts {
		ids = append(ids, e.seq)
		out = append(out, e.seq)
	}
	return out[:len(out)-len(ids)]
}

//perf:hot fixture steady state: string building allocates
func concat(a, b string) string {
	s := a + b                          // want `string concatenation allocates in hot function concat`
	s += a                              // want `string \+= allocates in hot function concat`
	s = a + " x" + strconv.Itoa(len(b)) // want `string concatenation allocates in hot function concat` `strconv\.Itoa formats \(and allocates\) in hot function concat`
	return s
}

//perf:hot fixture steady state: formatting is never free
func format(e event) string {
	return fmt.Sprintf("ev-%d", e.seq) // want `fmt\.Sprintf formats \(and allocates\) in hot function format`
}

//perf:hot fixture steady state: a concrete arg at an interface parameter boxes
func boxes(e event) int {
	return lastKey(e) // want `passing event as interface keyed boxes \(allocates\) in hot function boxes`
}

//perf:hot fixture steady state: pointer-shaped args fit the interface word
func noBox(e *event) int {
	return lastKey(e)
}

//perf:hot fixture steady state: string-valued strconv calls format
func itoa(e event, buf []byte) ([]byte, string) {
	return strconv.AppendInt(buf, int64(e.seq), 10), strconv.Itoa(e.seq) // want `strconv\.Itoa formats \(and allocates\) in hot function itoa`
}

//perf:hot fixture steady state: guard bodies may allocate but not format; error exits are cold
func guarded(n *node, e event) error {
	if n.trace != nil {
		names := []string{"ev"}
		n.trace.record(event{seq: e.seq, name: names[0]})
		n.trace.record(event{seq: e.seq, name: fmt.Sprintf("ev-%d", e.seq)}) // want `fmt\.Sprintf formats \(and allocates\) on the recording path in guarded: record an obs\.Name`
		n.trace.record(event{seq: e.seq, name: "ev-" + strconv.Itoa(e.seq)}) // want `string concatenation allocates on the recording path in guarded` `strconv\.Itoa formats \(and allocates\) on the recording path in guarded`
	}
	if e.seq < 0 {
		return fmt.Errorf("bad seq %d", e.seq)
	}
	return nil
}

//perf:hot fixture steady state: explicit exemptions silence the analyzer
func exempt() []int {
	//perf:alloc-ok fixture: bounds table built once per run
	bounds := []int{1, 2, 4}
	return bounds
}

//perf:cold fixture: constructors run off the steady state
func newNode() *node {
	return &node{trace: &Trace{}}
}
