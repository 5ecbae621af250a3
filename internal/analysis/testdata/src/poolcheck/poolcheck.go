// Package poolcheck exercises the poolcheck analyzer against the
// run-state pool discipline of sim.runPool: every Get needs a deferred
// Put, pooled values must not escape through returns, and
// pointer-holding slice fields must be reset before the object goes
// back. The bad cases mirror exactly what deleting the deferred Put or
// the reset lines of sim.run.release would look like.
package poolcheck

import "sync"

type task struct{ id int }

// scratch mirrors sim.run: tasks pins heap objects across reuses unless
// reset, ids is pointer-free and needs no reset.
type scratch struct {
	tasks []*task
	ids   []int
}

var pool = sync.Pool{New: func() any { return new(scratch) }}

// good mirrors sim.Node.Run: a deferred Put that resets the
// pointer-holding field first.
func good(n int) int {
	sc := pool.Get().(*scratch)
	defer func() {
		sc.tasks = sc.tasks[:0]
		pool.Put(sc)
	}()
	sc.ids = append(sc.ids[:0], n)
	return len(sc.ids)
}

// missingPut mirrors deleting the Put call outright.
func missingPut(n int) int {
	sc := pool.Get().(*scratch) // want `sync\.Pool Get without a deferred Put`
	sc.ids = append(sc.ids[:0], n)
	return len(sc.ids)
}

// inlinePut puts without defer: an early return or panic between Get
// and Put leaks the object.
func inlinePut(n int) int {
	sc := pool.Get().(*scratch) // want `sync\.Pool Get without a deferred Put`
	sc.ids = append(sc.ids[:0], n)
	sc.tasks = sc.tasks[:0]
	pool.Put(sc)
	return n
}

// escapes hands the pooled object to the caller, who would alias
// memory recycled by the deferred Put. The tasks field is also never
// reset.
func escapes() *scratch {
	sc := pool.Get().(*scratch) // want `pooled field sc\.tasks holds pointers and is not reset before Put`
	defer pool.Put(sc)
	return sc // want `pooled sc escapes through return`
}

// noReset mirrors deleting only the reset lines from the defer: the
// stale []*task backing array leaks old tasks to the next user.
func noReset(n int) int {
	sc := pool.Get().(*scratch) // want `pooled field sc\.tasks holds pointers and is not reset before Put`
	defer pool.Put(sc)
	sc.ids = append(sc.ids[:0], n)
	return len(sc.ids)
}

// exempt documents a site where the round-trip is managed elsewhere.
func exempt() *scratch {
	//perf:pool-ok fixture: the caller Puts after its checkpoint completes
	sc := pool.Get().(*scratch)
	return sc
}
