package sim

import (
	"math"

	"planaria/internal/simtime"
	"planaria/internal/workload"
)

// A verdict-only run (Node.MeetsSLA) stops at the first certain SLA
// failure. A request is a certain miss once it is shed or rejected, or
// once the clock passes its Deadline+simtime.Eps while it is in flight
// (queued, running or backing off), or it retires past that instant: a
// finish is stamped at the clock, and the clock never goes back. A
// domain's final within-deadline count is therefore at most its total
// minus its certain misses, and workload.DomainMeets is monotone in
// that count, so once the bound fails for one domain the full run's
// MeetsSLA is false whatever happens later.

// domTally counts one domain's requests and its certain misses so far.
type domTally struct {
	dom           string
	total, misses int
}

// startTally counts each domain's requests. Domains are interned by
// first-sight linear scan, as workload.MeetsSLA does.
func (r *run) startTally() {
	r.lateAt = math.Inf(1)
	for i := range r.reqs {
		d := r.tally(r.reqs[i].Domain)
		if d == nil {
			r.doms = append(r.doms, domTally{dom: r.reqs[i].Domain})
			d = &r.doms[len(r.doms)-1]
		}
		d.total++
	}
}

// tally returns dom's slot, or nil before startTally has seen it.
func (r *run) tally(dom string) *domTally {
	for i := range r.doms {
		if r.doms[i].dom == dom {
			return &r.doms[i]
		}
	}
	return nil
}

// miss counts the request at input position pos as a certain miss, once
// per request, and dooms the run when its domain can no longer meet the
// SLA.
func (r *run) miss(pos int) {
	d := r.tally(r.reqs[pos].Domain)
	d.misses++
	if !workload.DomainMeets(d.dom, d.total-d.misses, d.total) {
		r.doomed = true
	}
}

// failed reports whether the verdict is already false. When the clock has
// passed lateAt it first counts every in-flight task whose deadline the
// clock has passed and recomputes lateAt over the rest.
func (r *run) failed() bool {
	if r.now > r.lateAt {
		next := math.Inf(1)
		for _, t := range r.tasks {
			next = r.markLate(t, next)
		}
		for _, e := range r.retryQ.entries {
			next = r.markLate(e.t, next)
		}
		r.lateAt = next
	}
	return r.doomed
}

// markLate counts task t as a certain miss if the clock has passed its
// deadline, and otherwise folds its deadline into next, which it returns.
func (r *run) markLate(t *Task, next float64) float64 {
	if t.late {
		return next
	}
	d := t.Req.Deadline + simtime.Eps
	if r.now > d {
		t.late = true
		r.miss(t.pos)
		return next
	}
	return min(next, d)
}
