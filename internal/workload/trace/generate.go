package trace

import (
	"fmt"
	"math"
	"math/rand"

	"planaria/internal/workload"
)

// userZipfS is the fixed Zipf exponent for the per-user request-volume
// distribution: heavy enough that a handful of users dominates, which is
// what makes UserBias produce visible per-user model-mix skew.
const userZipfS = 1.2

// zipfCDF precomputes the cumulative weights of a finite Zipf(s)
// distribution over n ranks so sampling is one uniform draw + one binary
// search. s == 0 degenerates to uniform.
type zipfCDF struct {
	cum []float64 // cum[i] = P(rank <= i); cum[n-1] == 1 exactly
}

func newZipfCDF(n int, s float64) zipfCDF {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[n-1] = 1 // close the last bucket against rounding
	return zipfCDF{cum: cum}
}

// sample draws a rank in [0, n) from one uniform variate.
func (z zipfCDF) sample(u float64) int {
	// Binary search for the first cum[i] > u.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// favoriteOf maps a user rank to that user's favorite model index — a
// deterministic hash (splitmix-style mix) so the assignment is stable
// across runs and roughly uniform across models, independent of the
// user's popularity rank.
func favoriteOf(user, nModels int) int {
	x := uint64(user) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(nModels))
}

// envBuckets is the number of equal-width time buckets the thinning
// envelope splits the horizon into. It is fixed, so the grid follows
// from the spec alone; at 4096, planet-day's 24 h buckets are 21 s wide,
// fine against its 120 s crowd ramp.
const envBuckets = 4096

// envMargin is the relative slack the envelope adds for the rounding of
// the crowd factors (computed apart from rateAt's own product) and of
// math.Exp, which is not guaranteed monotone to the last bit. The crowd
// factors are all >= 1, so a relative margin covers their few ulps.
const envMargin = 1e-9

// envelope is a bucketed upper bound on the thinning ratio:
// bound[bucket(t)] >= rateAt(t)/lambdaMax, as Generate computes the
// ratio, for every t in [0, HorizonS). A candidate whose uniform draw is
// at or above the bound is one the exact test would reject too.
type envelope struct {
	inv   float64   // buckets per second: bucket(t) = int(t*inv)
	bound []float64 // covers the bucket and both neighbours' spans
	// expect upper-bounds the expected arrival count ∫λ over the
	// horizon: the sum of each bucket's own bound × lambdaMax × width.
	expect float64
}

// at returns the bound for the bucket containing t >= 0.
func (e *envelope) at(t float64) float64 {
	b := int(t * e.inv)
	if b >= len(e.bound) {
		b = len(e.bound) - 1
	}
	return e.bound[b]
}

// edge is the start of bucket b (and the end of bucket b-1). With the
// single unbounded bucket of a vanishing horizon (inv == 0) it is 0, +Inf.
func (e *envelope) edge(b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(b) / e.inv
}

// envelope builds the thinning bound for the spec once per Generate.
//
// Each bucket [lo, hi] is bounded term by term. The diurnal curve is
// piecewise linear and diurnalAt is monotone in floating point on each
// segment (every step — subtract, divide, scale, add — rounds
// monotonically), so its maximum over the bucket is exactly the largest
// of its values at lo, at hi, and at each knot inside, where both the
// segment's end value and the knot's own Mult count. Each crowd factor
// ramps up to its peak at AtS+RampS and decays after it, so its maximum
// is Mult when the peak lies in the bucket and otherwise its value at the
// edge nearer the peak. The product goes through the same operations as
// rateAt/lambdaMax, which round monotonically, and gets envMargin on top.
//
// int(t*inv) can round t one bucket off at an edge, so the bound a
// bucket is looked up by is the largest of its own and its two
// neighbours' — wider than any rounding the index can suffer.
func (s *Spec) envelope(lambdaMax float64) envelope {
	n := envBuckets
	inv := float64(n) / s.HorizonS
	if math.IsInf(inv, 0) {
		n, inv = 1, 0 // a horizon under ~1e-305 s: one bucket holds it all
	}
	e := envelope{inv: inv, bound: make([]float64, n)}
	raw := make([]float64, n) // the bound over each bucket's own span
	sum := 0.0
	pts := s.Diurnal
	k := 0 // first knot at or after the current bucket's start
	lo := e.edge(0)
	dLo := s.diurnalAt(lo)
	for b := range raw {
		hi := e.edge(b + 1)
		dHi := s.diurnalAt(hi)
		d := math.Max(dLo, dHi)
		for k < len(pts) && pts[k].AtS < lo {
			k++
		}
		for j := k; j < len(pts) && pts[j].AtS <= hi; j++ {
			d = math.Max(d, math.Max(pts[j].Mult, s.diurnalAt(pts[j].AtS)))
		}
		c := 1.0
		for i := range s.Crowds {
			c *= crowdBound(&s.Crowds[i], lo, hi)
		}
		raw[b] = s.BaseQPS * d * c / lambdaMax * (1 + envMargin)
		sum += raw[b]
		lo, dLo = hi, dHi
	}
	for b := range e.bound {
		m := raw[b]
		if b > 0 {
			m = math.Max(m, raw[b-1])
		}
		if b+1 < n {
			m = math.Max(m, raw[b+1])
		}
		e.bound[b] = m
	}
	e.expect = sum * lambdaMax * (s.HorizonS / float64(n))
	return e
}

// crowdBound upper-bounds crowd c's factor over [lo, hi], up to rounding.
func crowdBound(c *Crowd, lo, hi float64) float64 {
	if hi < c.AtS {
		return 1 // not started anywhere in the bucket
	}
	if peak := c.AtS + c.RampS; peak < lo {
		return crowdFactor(c, lo) // decaying across the bucket
	} else if peak > hi {
		return crowdFactor(c, hi) // still ramping at the bucket's end
	}
	return c.Mult
}

// maxPresize caps the request slice Generate allocates up front, so an
// absurd spec grows its slice as it goes instead of reserving it all.
const maxPresize = 1 << 22

// presize is the capacity Generate reserves for a stream whose expected
// length is at most expect: four Poisson standard deviations over it, so
// a typical stream never regrows the slice, within the request cap.
func presize(expect float64, maxRequests int) int {
	n := expect + 4*math.Sqrt(expect) + 16
	if maxRequests > 0 && n > float64(maxRequests) {
		n = float64(maxRequests)
	}
	switch {
	case math.IsNaN(n):
		return 16 // the bound overflowed to Inf·0: size nothing in advance
	case n > maxPresize:
		return maxPresize
	}
	return int(n)
}

// Generate materializes the spec's request stream deterministically from
// its seed. Arrivals follow the non-stationary Poisson process λ(t) via
// Lewis–Shedler thinning against the dominating rate peakRate(); each
// accepted arrival then draws its model (Zipf popularity, optionally
// overridden by the requesting user's favorite) and priority, and is
// emitted through workload.NewRequest — the same path the stationary
// generator uses, so deadline/QoS semantics are identical.
//
// Most candidates of a spiky spec are rejected, so the thinning test
// first compares its uniform draw against a bucketed envelope of the
// rate (see envelope): a draw at or above the bucket's bound is
// rejected without evaluating rateAt, and every other draw goes through
// the exact test u < rateAt(t)/lambdaMax. The variates drawn and their
// order are the same as without the envelope, and it skips only
// rejections the exact test would also make, so the stream is
// bit-identical to plain thinning.
func (s *Spec) Generate() ([]workload.Request, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	level, _ := qosByName(s.QoS)
	rng := rand.New(rand.NewSource(s.Seed))
	models := newZipfCDF(len(s.Models), s.ZipfS)
	var users zipfCDF
	if s.Users > 0 {
		users = newZipfCDF(s.Users, userZipfS)
	}
	lambdaMax := s.peakRate()
	env := s.envelope(lambdaMax)
	reqs := make([]workload.Request, 0, presize(env.expect, s.MaxRequests))
	t := 0.0
	for {
		// Candidate from the homogeneous dominating process...
		t += rng.ExpFloat64() / lambdaMax
		if t >= s.HorizonS {
			break
		}
		// ...thinned by the instantaneous rate ratio. The uniform draw
		// happens unconditionally so the consumed-variate count per
		// candidate is fixed — editing a crowd perturbs acceptance, not
		// the stream's alignment.
		u := rng.Float64()
		if u >= env.at(t) {
			continue // above the envelope: the exact test rejects too
		}
		keep := u < s.rateAt(t)/lambdaMax
		if !keep {
			continue
		}
		model := s.Models[models.sample(rng.Float64())]
		if s.Users > 0 {
			user := users.sample(rng.Float64())
			if s.UserBias > 0 && rng.Float64() < s.UserBias {
				model = s.Models[favoriteOf(user, len(s.Models))]
			}
		}
		r, err := workload.NewRequest(len(reqs), t, model, rng.Intn(11)+1, level)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, r)
		if s.MaxRequests > 0 && len(reqs) >= s.MaxRequests {
			break
		}
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("trace: spec %q generated an empty stream (horizon %.3gs at %.3g qps)", s.Name, s.HorizonS, s.BaseQPS)
	}
	return reqs, nil
}
