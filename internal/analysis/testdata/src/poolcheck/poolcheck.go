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

// slab mirrors sim.run's task slab: records are kept across reuses, so
// only clearing them drops what they reference.
type slab struct {
	chunks [][]task
	tasks  []*task
	ids    []int
}

var slabPool = sync.Pool{New: func() any { return new(slab) }}

// release mirrors sim.run.release: it zeroes every kept record and
// overwrites the value, carrying the buffers over.
func (s *slab) release() {
	for _, c := range s.chunks {
		clear(c)
	}
	*s = slab{chunks: s.chunks, tasks: s.tasks[:0], ids: s.ids}
}

// leakyRelease carries the records over without clearing them.
func (s *slab) leakyRelease() {
	*s = slab{chunks: s.chunks, tasks: s.tasks[:0]}
}

// deferredRelease resets through the deferred method.
func deferredRelease(n int) int {
	s := slabPool.Get().(*slab)
	defer slabPool.Put(s)
	defer s.release()
	s.ids = append(s.ids, n)
	return len(s.ids)
}

// deferredLeak defers a method that keeps the records' references.
func deferredLeak(n int) int {
	s := slabPool.Get().(*slab) // want `pooled field s\.chunks holds pointers and is not reset before Put`
	defer slabPool.Put(s)
	defer s.leakyRelease()
	s.ids = append(s.ids, n)
	return len(s.ids)
}

// releaseAfterPut defers the reset above the Put, so it runs after the
// value is back in the pool, where another goroutine may hold it.
func releaseAfterPut(n int) int {
	s := slabPool.Get().(*slab) // want `pooled field s\.chunks holds pointers and is not reset before Put` `pooled field s\.tasks holds pointers and is not reset before Put`
	defer s.release()
	defer slabPool.Put(s)
	s.ids = append(s.ids, n)
	return len(s.ids)
}

// releaseBeforeClosurePut defers the reset below a deferred closure that
// puts the value back, so it runs first.
func releaseBeforeClosurePut(n int) int {
	s := slabPool.Get().(*slab)
	defer func() {
		slabPool.Put(s)
	}()
	defer s.release()
	s.ids = append(s.ids, n)
	return len(s.ids)
}
