// Package hotprop exercises //perf:hot propagation through the
// module-local call graph: hotness flows from an annotated root into
// unannotated callees (transitively), //perf:cold stops it, and call
// sites inside observability guards contribute no hot edges; their
// callees are recording functions, which may allocate but not format.
package hotprop

import "strconv"

type item struct{ weight int }

// Trace mirrors the engine's nil-guarded sink.
type Trace struct{ notes []string }

func (t *Trace) note(s string) { t.notes = append(t.notes, s) }

type state struct {
	trace *Trace
	table []int
}

//perf:hot fixture root: the per-item loop and its helpers must not allocate
func (s *state) run(items []item) int {
	total := 0
	for _, it := range items {
		total += stepOne(it)
	}
	if s.trace != nil {
		describe(s.trace, total)
	}
	s.table = setup()
	return total
}

// stepOne is unannotated: it inherits hotness from the root.
func stepOne(it item) int {
	box := &item{weight: it.weight} // want `composite literal escapes to the heap in hot function stepOne \(hot via .*\.run\)`
	return box.weight + len(weigh(it))
}

// weigh is two edges from the root: hotness is transitive and the
// diagnostic names the root, not the immediate caller.
func weigh(it item) string {
	return "w" + strconv.Itoa(it.weight) // want `string concatenation allocates in hot function weigh \(hot via .*\.run\)` `strconv\.Itoa formats \(and allocates\) in hot function weigh`
}

// describe is reached only inside the trace guard: no hot edge, so it
// may allocate, but it records, so it must not format.
func describe(t *Trace, total int) {
	t.notes = append(t.notes, make([]string, total)...)
	t.note(label(total))
}

// label is reached from a recording function: it records too.
func label(total int) string {
	if total < 0 {
		panic("total=" + strconv.Itoa(total)) // error exits may format
	}
	return "total=" + strconv.Itoa(total) // want `string concatenation allocates on the recording path in label: record an obs\.Name and let the export render it \(recording via .*\.run\)` `strconv\.Itoa formats`
}

//perf:cold fixture: per-run setup runs once before the loop
func setup() []int {
	return []int{1, 2, 3}
}
