package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"planaria/internal/workload"
)

// generateReference is plain Lewis–Shedler thinning, the generator as it
// was before the envelope: every candidate pays for rateAt. Generate must
// agree with it Request for Request on every spec.
func generateReference(s *Spec) ([]workload.Request, error) {
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
	// Pre-size from the expected count: horizon × a coarse mean rate.
	expect := int(s.HorizonS * s.BaseQPS)
	if s.MaxRequests > 0 && expect > s.MaxRequests {
		expect = s.MaxRequests
	}
	reqs := make([]workload.Request, 0, expect+expect/8+16)
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
		keep := rng.Float64() < s.rateAt(t)/lambdaMax
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

// compressedDay is the planet-day shape squeezed 48× into 30 minutes: the
// same curve and crowds as the default autoscale trace, with crowd ramps
// of 2.5 s and 3.75 s against the envelope's 0.44 s buckets.
func compressedDay() *Spec {
	const k = 48.0
	return &Spec{
		Version:  FormatVersion,
		Name:     "compressed-day",
		Models:   []string{"GNMT", "SSD-R", "YOLOv3"},
		QoS:      "QoS-M",
		Seed:     1,
		HorizonS: 86400 / k,
		BaseQPS:  13,
		Diurnal: []RatePoint{
			{AtS: 0, Mult: 0.35},
			{AtS: 5 * 3600 / k, Mult: 0.25},
			{AtS: 9 * 3600 / k, Mult: 1.2},
			{AtS: 12 * 3600 / k, Mult: 1.5},
			{AtS: 15 * 3600 / k, Mult: 1.35},
			{AtS: 18 * 3600 / k, Mult: 1.6},
			{AtS: 21 * 3600 / k, Mult: 0.9},
			{AtS: 24 * 3600 / k, Mult: 0.35},
		},
		Crowds: []Crowd{
			{AtS: 12.5 * 3600 / k, Mult: 12, RampS: 120 / k, DecayS: 1800 / k},
			{AtS: 19 * 3600 / k, Mult: 8, RampS: 180 / k, DecayS: 1200 / k},
		},
		ZipfS:    0.9,
		Users:    10000,
		UserBias: 0.3,
	}
}

// edgeCases are specs aimed at the envelope's corners: a curve that
// falls to and rises from a zero multiplier between bucket edges, knots
// exactly on bucket edges, overlapping crowds whose ramps are a fraction
// of one bucket, a crowd whose peak sits past the horizon, a horizon too
// short for the bucket grid, and a zero plateau that starts where the
// bucket index rounds.
func edgeCases() []*Spec {
	base := func(name string) *Spec {
		return &Spec{
			Version: FormatVersion, Name: name, Models: []string{"ResNet-50", "GoogLeNet"},
			QoS: "QoS-S", Seed: 9, HorizonS: 100, BaseQPS: 400, ZipfS: 1,
		}
	}
	w := 100.0 / envBuckets // bucket width
	zero := base("zero-knots")
	zero.Diurnal = []RatePoint{{AtS: 10.0001, Mult: 1}, {AtS: 33.3333, Mult: 0}, {AtS: 41.7, Mult: 0}, {AtS: 41.70001, Mult: 2}, {AtS: 77.77, Mult: 0}}
	onEdge := base("edge-knots")
	onEdge.Diurnal = []RatePoint{{AtS: 0, Mult: 0}, {AtS: 1000 * w, Mult: 3}, {AtS: 1001 * w, Mult: 0}, {AtS: 2048 * w, Mult: 0.5}}
	crowds := base("sub-bucket-crowds")
	crowds.Diurnal = []RatePoint{{AtS: 5, Mult: 0.2}, {AtS: 95, Mult: 1}}
	crowds.Crowds = []Crowd{
		{AtS: 20.00001, Mult: 30, RampS: w / 7, DecayS: w / 3},
		{AtS: 20.00002, Mult: 5, RampS: w / 11, DecayS: 4},
		{AtS: 50 * w, Mult: 9, RampS: w, DecayS: w},
		{AtS: 60, Mult: 2, RampS: 1e-9, DecayS: 1e-9},
		{AtS: 99.9999, Mult: 50, RampS: 3, DecayS: 1},
	}
	capped := compressedDay()
	capped.Name, capped.MaxRequests = "capped-day", 5000
	// A horizon so short that envBuckets/HorizonS overflows.
	vanishing := base("vanishing-horizon")
	vanishing.HorizonS = 1e-310
	specs := []*Spec{zero, onEdge, crowds, capped, vanishing}
	// A curve that falls onto a zero plateau at a bucket edge the index
	// rounds across: one ulp before the edge the rate is still positive,
	// but int(t*inv) already names the plateau's first bucket.
	rounded := base("rounded-edge")
	rounded.HorizonS = 600
	inv := envBuckets / rounded.HorizonS
	for b := 1; b < envBuckets-20; b++ {
		e := float64(b) / inv
		if int(math.Nextafter(e, math.Inf(-1))*inv) == b {
			rounded.Diurnal = []RatePoint{{AtS: 0, Mult: 1}, {AtS: e, Mult: 0}, {AtS: float64(b+10) / inv, Mult: 0}, {AtS: 600, Mult: 1}}
			specs = append(specs, rounded)
			break
		}
	}
	return specs
}

// sameStream fails unless Generate and generateReference agree on s:
// the same error, or the same requests bit for bit.
func sameStream(t *testing.T, s *Spec) {
	t.Helper()
	ref, refErr := generateReference(s)
	got, err := s.Generate()
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("%s: Generate error %v, reference error %v", s.Name, err, refErr)
	}
	if len(got) != len(ref) {
		t.Fatalf("%s: Generate made %d requests, reference %d", s.Name, len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("%s: request %d differs: %+v vs reference %+v", s.Name, i, got[i], ref[i])
		}
	}
}

func TestGenerateMatchesReference(t *testing.T) {
	specs := append([]*Spec{testSpec(), compressedDay()}, edgeCases()...)
	for _, s := range specs {
		sameStream(t, s)
	}
}

// TestEnvelopeBounds checks the envelope against rateAt/lambdaMax, as
// Generate computes it, at every bucket edge, knot and crowd onset and
// peak, one ulp either side of each, and at random instants.
func TestEnvelopeBounds(t *testing.T) {
	specs := append([]*Spec{testSpec(), compressedDay()}, edgeCases()...)
	for _, s := range specs {
		lambdaMax := s.peakRate()
		env := s.envelope(lambdaMax)
		var at []float64
		for b := 0; b <= len(env.bound); b++ {
			at = append(at, env.edge(b))
		}
		for _, p := range s.Diurnal {
			at = append(at, p.AtS)
		}
		for _, c := range s.Crowds {
			at = append(at, c.AtS, c.AtS+c.RampS)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 10000; i++ {
			at = append(at, rng.Float64()*s.HorizonS)
		}
		for _, x := range at {
			for _, t0 := range []float64{math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1))} {
				if t0 < 0 || t0 >= s.HorizonS {
					continue
				}
				if r := s.rateAt(t0) / lambdaMax; r > env.at(t0) {
					t.Fatalf("%s: rateAt(%v)/lambdaMax = %v above the envelope %v", s.Name, t0, r, env.at(t0))
				}
			}
		}
	}
}

// The envelope is there to skip work: on a spiky day most buckets must
// sit far below the dominating rate, and the expected count it gives
// must cover the stream it sizes for.
func TestEnvelopeTight(t *testing.T) {
	s := compressedDay()
	lambdaMax := s.peakRate()
	env := s.envelope(lambdaMax)
	mean := 0.0
	for _, b := range env.bound {
		mean += b
	}
	mean /= float64(len(env.bound))
	if mean > 0.02 {
		t.Fatalf("mean envelope %v of the dominating rate: too loose to skip rateAt", mean)
	}
	reqs, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if n := presize(env.expect, 0); n < len(reqs) || n > len(reqs)*11/10 {
		t.Fatalf("presized %d for a %d-request stream", n, len(reqs))
	}
}

func TestPresize(t *testing.T) {
	for _, c := range []struct {
		expect float64
		cap    int
		want   int
	}{
		{0, 0, 16},
		{100, 0, 156},
		{1e6, 500, 500},
		{1e12, 0, maxPresize},
		{math.Inf(1), 0, maxPresize},
		{math.NaN(), 0, 16},
	} {
		if got := presize(c.expect, c.cap); got != c.want {
			t.Errorf("presize(%v, %d) = %d, want %d", c.expect, c.cap, got, c.want)
		}
	}
}

// fuzzCandidates caps the dominating process's expected candidate count
// per fuzz input, so each input runs both generators in milliseconds.
const fuzzCandidates = 20_000

// fuzzSpec builds a spec from fuzz input. The shape bytes pick the
// diurnal knots (zero multipliers included, on or off bucket edges), the
// crowds (overlapping, with ramps down to a sliver of a bucket), the
// user model and the request cap. The base rate is scaled down so the
// dominating process proposes at most fuzzCandidates arrivals.
func fuzzSpec(seed int64, horizon, qps float64, shape []byte) *Spec {
	next := func() int {
		if len(shape) == 0 {
			return 0
		}
		b := int(shape[0])
		shape = shape[1:]
		return b
	}
	s := &Spec{
		Version: FormatVersion, Name: "fuzz", Models: []string{"ResNet-50", "GoogLeNet", "Tiny YOLO"},
		QoS: "QoS-H", Seed: seed, HorizonS: horizon, BaseQPS: qps,
	}
	w := horizon / envBuckets
	at := 0.0
	for n := next() % 8; n > 0; n-- {
		g := next()
		at += float64(g%64+1) / 64 * horizon / 4
		if g >= 128 {
			at = math.Ceil(at/w) * w // on a bucket edge
		}
		s.Diurnal = append(s.Diurnal, RatePoint{AtS: at, Mult: float64(next()%8) / 2})
	}
	for n := next() % 5; n > 0; n-- {
		s.Crowds = append(s.Crowds, Crowd{
			AtS:    float64(next()) / 256 * horizon,
			Mult:   1 + float64(next())/8,
			RampS:  w * math.Ldexp(1, next()%16-6),
			DecayS: w * math.Ldexp(1, next()%16-4),
		})
	}
	sort.SliceStable(s.Crowds, func(i, j int) bool { return s.Crowds[i].AtS < s.Crowds[j].AtS })
	if u := next(); u%2 == 1 {
		s.Users, s.UserBias, s.ZipfS = 50, float64(u)/256, 1.1
	}
	s.MaxRequests = next() * 3
	// The reference pre-sizes its slice from BaseQPS×HorizonS, which a
	// curve peaking below 1× puts above the candidate count.
	if c := math.Max(s.peakRate(), s.BaseQPS) * horizon; c > fuzzCandidates {
		s.BaseQPS *= fuzzCandidates / c
	}
	return s
}

// FuzzGenerate runs Generate against plain thinning on fuzz-chosen
// specs: they must agree, error for error and Request for Request.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(1), 600.0, 40.0, []byte{3, 10, 2, 140, 6, 5, 1, 0, 2, 200, 30, 0, 3, 60, 9, 1, 8, 7, 0})
	f.Add(int64(7), 100.0, 400.0, []byte{7, 1, 0, 130, 4, 3, 0, 255, 7, 2, 6, 64, 1, 4, 15, 3, 0, 66, 80, 0, 1, 5, 0})
	f.Add(int64(-3), 1e-3, 1e5, []byte{0, 4, 10, 255, 0, 0, 11, 250, 1, 15, 15, 12, 3, 3, 3, 3, 1, 1})
	f.Add(int64(42), 86400.0, 13.0, []byte{5, 20, 1, 20, 3, 30, 6, 10, 5, 40, 1, 2, 150, 88, 8, 5, 200, 56, 9, 4, 5, 2})
	f.Add(int64(0), 0.0, 1.0, []byte{})
	f.Add(int64(5), 10.0, math.NaN(), []byte{1})
	f.Fuzz(func(t *testing.T, seed int64, horizon, qps float64, shape []byte) {
		sameStream(t, fuzzSpec(seed, horizon, qps, shape))
	})
}
