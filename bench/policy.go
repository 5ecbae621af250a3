package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"planaria/internal/metrics"
	"planaria/internal/obs"
	"planaria/internal/prema"
	"planaria/internal/sched"
	"planaria/internal/sim"
)

// The traced run wraps each system's policies to count and time their
// calls. The engine and cluster.Run type-assert five optional interfaces
// on a policy, so a wrapper must implement exactly the ones the wrapped
// policy does: claiming one it lacks, or hiding one it has, changes the
// simulated path. Each supported interface set therefore has its own
// wrapper type, and a policy with any other set is refused.

// policyLayer is the layer a policy's time is charged to.
type policyLayer int

const (
	layerSched     policyLayer = iota // sched.Spatial
	layerRefission                    // sched.Elastic, which wraps Spatial
	layerPrema                        // prema.Token
)

// callStats counts one kind of policy call. busy sums only the calls no
// goroutine switch interrupted (see timedPolicy.stop); ok counts them.
type callStats struct {
	calls, ok, tasks int64
	busy             time.Duration
}

func (c *callStats) add(o callStats) {
	c.calls += o.calls
	c.ok += o.ok
	c.tasks += o.tasks
	c.busy += o.busy
}

// busyS estimates the time of all calls from the uninterrupted ones:
// each interrupted call is charged their mean duration.
func (c callStats) busyS() float64 {
	if c.ok == 0 {
		return 0
	}
	return c.busy.Seconds() * float64(c.calls) / float64(c.ok)
}

// timedPolicy times the calls into one policy. Calls never nest (no
// policy calls another wrapped policy), so when seq moved on between a
// call's start and its end, another policy call ran in between: the
// goroutine was switched out, and the measured interval includes other
// goroutines' work. Such a call is counted but not timed.
type timedPolicy struct {
	inner sim.Policy
	layer policyLayer
	alloc callStats // Allocate and AllocateInto
	next  callStats // NextRefission
	seq   *atomic.Int64
}

type clockIn struct {
	t   time.Time
	seq int64
}

func (p *timedPolicy) start() clockIn { return clockIn{time.Now(), p.seq.Add(1)} }

func (p *timedPolicy) stop(c clockIn, s *callStats, tasks int) {
	d := time.Since(c.t)
	s.calls++
	s.tasks += int64(tasks)
	if p.seq.Load() == c.seq {
		s.ok++
		s.busy += d
	}
}

func (p *timedPolicy) Name() string     { return p.inner.Name() }
func (p *timedPolicy) Quantum() float64 { return p.inner.Quantum() }

func (p *timedPolicy) Allocate(now float64, tasks []*sim.Task, total int) map[int]int {
	c := p.start()
	m := p.inner.Allocate(now, tasks, total)
	p.stop(c, &p.alloc, len(tasks))
	return m
}

// allocInto times sim.SliceAllocator.
type allocInto struct {
	p  *timedPolicy
	sa sim.SliceAllocator
}

func (a allocInto) AllocateInto(now float64, tasks []*sim.Task, total int, dst []int) {
	c := a.p.start()
	a.sa.AllocateInto(now, tasks, total, dst)
	a.p.stop(c, &a.p.alloc, len(tasks))
}

// refissioner times sim.Refissioner.
type refissioner struct {
	p *timedPolicy
	r sim.Refissioner
}

func (r refissioner) RefissionActive() bool { return r.r.RefissionActive() }

func (r refissioner) NextRefission(now float64, tasks []*sim.Task, total int) float64 {
	c := r.p.start()
	t := r.r.NextRefission(now, tasks, total)
	r.p.stop(c, &r.p.next, len(tasks))
	return t
}

// The three interface sets the simulator's policies have.
type (
	spatialPolicy struct {
		*timedPolicy
		allocInto
		sim.HealthAware
		obs.Observable
		obs.OccupancyAware
	}
	elasticPolicy struct {
		*timedPolicy
		allocInto
		refissioner
		sim.HealthAware
		obs.Observable
		obs.OccupancyAware
	}
	premaPolicy struct {
		*timedPolicy
		allocInto
		sim.HealthAware
		obs.Observable
	}
)

// recorder wraps policies and sums their statistics. NewPolicy runs on
// the simulation goroutines, so registration takes a lock; the counters
// of one policy are written only by the goroutine running it and read
// after the call that ran them has returned.
type recorder struct {
	seq  atomic.Int64
	mu   sync.Mutex
	pols []*timedPolicy
	err  error
}

// wrap returns the timing wrapper of p.
func (r *recorder) wrap(p sim.Policy) (sim.Policy, *timedPolicy, error) {
	t := &timedPolicy{inner: p, seq: &r.seq}
	switch p.(type) {
	case *sched.Spatial:
		t.layer = layerSched
	case *sched.Elastic:
		t.layer = layerRefission
	case *prema.Token:
		t.layer = layerPrema
	default:
		return nil, nil, fmt.Errorf("no timing wrapper for policy %T", p)
	}
	sa, isSA := p.(sim.SliceAllocator)
	rf, isRef := p.(sim.Refissioner)
	ha, isHA := p.(sim.HealthAware)
	ob, isOb := p.(obs.Observable)
	oc, isOc := p.(obs.OccupancyAware)
	ai := allocInto{t, sa}
	switch {
	case isSA && !isRef && isHA && isOb && isOc:
		return spatialPolicy{t, ai, ha, ob, oc}, t, nil
	case isSA && isRef && isHA && isOb && isOc:
		return elasticPolicy{t, ai, refissioner{t, rf}, ha, ob, oc}, t, nil
	case isSA && !isRef && isHA && isOb && !isOc:
		return premaPolicy{t, ai, ha, ob}, t, nil
	}
	return nil, nil, fmt.Errorf("no timing wrapper for the interface set of policy %T", p)
}

// wrapSystem returns sys with every policy it constructs wrapped. A
// policy that cannot be wrapped runs unwrapped and the error is kept
// for takeTotals to report.
func (r *recorder) wrapSystem(sys metrics.System) metrics.System {
	inner := sys.NewPolicy
	sys.NewPolicy = func() sim.Policy {
		p := inner()
		w, t, err := r.wrap(p)
		r.mu.Lock()
		defer r.mu.Unlock()
		if err != nil {
			if r.err == nil {
				r.err = err
			}
			return p
		}
		r.pols = append(r.pols, t)
		return w
	}
	return sys
}

// layerTotals sums the policies constructed since the last takeTotals.
type layerTotals struct {
	policies int64
	// sched is the allocation calls of the Planaria scheduler, plain or
	// elastic; refAlloc is the elastic policy's share of them and refNext
	// its NextRefission calls; prema is the PREMA token scheduler.
	sched, refAlloc, refNext, prema callStats
}

func (r *recorder) takeTotals() (layerTotals, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t layerTotals
	for _, p := range r.pols {
		t.policies++
		switch p.layer {
		case layerSched:
			t.sched.add(p.alloc)
		case layerRefission:
			t.sched.add(p.alloc)
			t.refAlloc.add(p.alloc)
			t.refNext.add(p.next)
		case layerPrema:
			t.prema.add(p.alloc)
		}
	}
	r.pols = r.pols[:0]
	err := r.err
	r.err = nil
	return t, err
}

func (t *layerTotals) add(o layerTotals) {
	t.policies += o.policies
	t.sched.add(o.sched)
	t.refAlloc.add(o.refAlloc)
	t.refNext.add(o.refNext)
	t.prema.add(o.prema)
}

// interrupted counts the calls a goroutine switch interrupted.
func (t layerTotals) interrupted() int64 {
	n := int64(0)
	for _, c := range []callStats{t.sched, t.refNext, t.prema} {
		n += c.calls - c.ok
	}
	return n
}

// refissionS is the elastic policy's whole time, including the spatial
// scheduling it wraps.
func (t layerTotals) refissionS() float64 { return t.refAlloc.busyS() + t.refNext.busyS() }

// policyS is the time of every wrapped policy call.
func (t layerTotals) policyS() float64 { return t.sched.busyS() + t.prema.busyS() + t.refNext.busyS() }
