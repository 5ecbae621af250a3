package trace

import (
	"bytes"
	"math"
	"testing"

	"planaria/internal/workload"
)

// testSpec is a small but fully-featured spec: diurnal curve, one flash
// crowd, Zipf skew, and a heavy-tailed user population.
func testSpec() *Spec {
	return &Spec{
		Version:  FormatVersion,
		Name:     "test-diurnal",
		Models:   []string{"ResNet-50", "GoogLeNet", "Tiny YOLO"},
		QoS:      "QoS-M",
		Seed:     42,
		HorizonS: 600,
		BaseQPS:  40,
		Diurnal: []RatePoint{
			{AtS: 0, Mult: 0.4},
			{AtS: 200, Mult: 1.0},
			{AtS: 400, Mult: 0.6},
		},
		Crowds:   []Crowd{{AtS: 250, Mult: 3, RampS: 20, DecayS: 40}},
		ZipfS:    0.9,
		Users:    500,
		UserBias: 0.5,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := testSpec().Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testSpec().Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) < 1000 {
		t.Fatalf("suspiciously short stream: %d requests", len(a))
	}
}

func TestGenerateStreamInvariants(t *testing.T) {
	s := testSpec()
	reqs, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i := range reqs {
		r := &reqs[i]
		if r.ID != i {
			t.Fatalf("request %d has ID %d (IDs must be dense)", i, r.ID)
		}
		if r.Arrival < prev {
			t.Fatalf("request %d arrives at %v before predecessor %v", i, r.Arrival, prev)
		}
		if r.Arrival >= s.HorizonS {
			t.Fatalf("request %d arrives at %v past horizon %v", i, r.Arrival, s.HorizonS)
		}
		if r.Priority < 1 || r.Priority > 11 {
			t.Fatalf("request %d priority %d outside 1..11", i, r.Priority)
		}
		base := workload.BaseQoSSeconds[r.Model]
		if base == 0 {
			t.Fatalf("request %d has unknown model %q", i, r.Model)
		}
		want := base * workload.QoSMedium.Scale
		if r.QoS != want || r.Deadline != r.Arrival+want {
			t.Fatalf("request %d deadline math off: qos %v want %v", i, r.QoS, want)
		}
		prev = r.Arrival
	}
}

// The non-stationary machinery must actually shape the stream: the flash
// crowd window should see a clearly higher arrival rate than the diurnal
// valley, and Zipf skew should make rank-0 strictly more popular than the
// last rank.
func TestGenerateShapesRate(t *testing.T) {
	reqs, err := testSpec().Generate()
	if err != nil {
		t.Fatal(err)
	}
	inWindow := func(lo, hi float64) int {
		n := 0
		for i := range reqs {
			if reqs[i].Arrival >= lo && reqs[i].Arrival < hi {
				n++
			}
		}
		return n
	}
	valley := inWindow(0, 100)  // diurnal 0.4–0.7×, no crowd
	crowd := inWindow(260, 300) // diurnal ≈1×, crowd ≈3× → ~40/s vs ~20/s
	valleyRate := float64(valley) / 100
	crowdRate := float64(crowd) / 40
	if crowdRate < 2*valleyRate {
		t.Fatalf("flash crowd not visible: valley %.1f qps, crowd %.1f qps", valleyRate, crowdRate)
	}
	counts := map[string]int{}
	for i := range reqs {
		counts[reqs[i].Model]++
	}
	if counts["ResNet-50"] <= counts["Tiny YOLO"] {
		t.Fatalf("Zipf skew not visible: rank0 %d, rank2 %d", counts["ResNet-50"], counts["Tiny YOLO"])
	}
}

func TestJSONRoundTripCanonical(t *testing.T) {
	enc1, err := testSpec().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseJSON(enc1)
	if err != nil {
		t.Fatalf("canonical encoding rejected: %v\n%s", err, enc1)
	}
	enc2, err := s2.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("encode not a fixed point:\n%s\nvs\n%s", enc1, enc2)
	}
	a, err := testSpec().Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s2.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || a[0] != b[0] || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("round-tripped spec generates a different stream")
	}
}

func TestParseJSONRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":  `{"version":1,"name":"x","models":["ResNet-50"],"qos":"QoS-S","horizon_s":1,"base_qps":1,"zipf":2}`,
		"bad version":    `{"version":9,"name":"x","models":["ResNet-50"],"qos":"QoS-S","horizon_s":1,"base_qps":1}`,
		"no models":      `{"version":1,"name":"x","models":[],"qos":"QoS-S","horizon_s":1,"base_qps":1}`,
		"unknown model":  `{"version":1,"name":"x","models":["NoSuchNet"],"qos":"QoS-S","horizon_s":1,"base_qps":1}`,
		"dup model":      `{"version":1,"name":"x","models":["ResNet-50","ResNet-50"],"qos":"QoS-S","horizon_s":1,"base_qps":1}`,
		"bad qos":        `{"version":1,"name":"x","models":["ResNet-50"],"qos":"QoS-X","horizon_s":1,"base_qps":1}`,
		"zero horizon":   `{"version":1,"name":"x","models":["ResNet-50"],"qos":"QoS-S","horizon_s":0,"base_qps":1}`,
		"zero qps":       `{"version":1,"name":"x","models":["ResNet-50"],"qos":"QoS-S","horizon_s":1,"base_qps":0}`,
		"diurnal order":  `{"version":1,"name":"x","models":["ResNet-50"],"qos":"QoS-S","horizon_s":1,"base_qps":1,"diurnal":[{"at_s":5,"mult":1},{"at_s":2,"mult":1}]}`,
		"crowd sub-1":    `{"version":1,"name":"x","models":["ResNet-50"],"qos":"QoS-S","horizon_s":1,"base_qps":1,"crowds":[{"at_s":0,"mult":0.5,"ramp_s":1,"decay_s":1}]}`,
		"crowd no ramp":  `{"version":1,"name":"x","models":["ResNet-50"],"qos":"QoS-S","horizon_s":1,"base_qps":1,"crowds":[{"at_s":0,"mult":2,"ramp_s":0,"decay_s":1}]}`,
		"bias no users":  `{"version":1,"name":"x","models":["ResNet-50"],"qos":"QoS-S","horizon_s":1,"base_qps":1,"user_bias":0.5}`,
		"trailing data":  `{"version":1,"name":"x","models":["ResNet-50"],"qos":"QoS-S","horizon_s":1,"base_qps":1}{}`,
		"negative zipf":  `{"version":1,"name":"x","models":["ResNet-50"],"qos":"QoS-S","horizon_s":1,"base_qps":1,"zipf_s":-1}`,
		"negative users": `{"version":1,"name":"x","models":["ResNet-50"],"qos":"QoS-S","horizon_s":1,"base_qps":1,"users":-3}`,
		"rate overflow":  `{"version":1,"name":"x","models":["ResNet-50"],"qos":"QoS-S","horizon_s":1,"base_qps":1e300,"crowds":[{"at_s":0.5,"mult":1e300,"ramp_s":1,"decay_s":1}]}`,
	}
	for name, in := range cases {
		if _, err := ParseJSON([]byte(in)); err == nil {
			t.Errorf("%s: accepted %s", name, in)
		}
	}
}

func TestStationarySpec(t *testing.T) {
	// A spec with no rate curve or crowds is a flat Poisson stream.
	s := &Spec{
		Version: FormatVersion, Name: "B-stationary",
		Models: workload.ScenarioB().Models, QoS: workload.QoSSoft.Name, Seed: 7,
		HorizonS: 81, BaseQPS: 100, MaxRequests: 2000,
	}
	reqs, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2000 {
		t.Fatalf("MaxRequests cap missed: got %d", len(reqs))
	}
	// Mean interarrival should be near 1/qps for a flat spec.
	mean := reqs[len(reqs)-1].Arrival / float64(len(reqs)-1)
	if mean < 0.008 || mean > 0.012 {
		t.Fatalf("stationary mean interarrival %v, want ≈0.01", mean)
	}
}

func TestRateAt(t *testing.T) {
	s := testSpec()
	if got := s.diurnalAt(-5); got != 0.4 {
		t.Fatalf("before first point: %v", got)
	}
	if got := s.diurnalAt(100); got != 0.7 {
		t.Fatalf("midpoint interpolation: %v", got)
	}
	if got := s.diurnalAt(1000); got != 0.6 {
		t.Fatalf("after last point: %v", got)
	}
	if got := s.crowdsAt(100); got != 1 {
		t.Fatalf("crowd before onset: %v", got)
	}
	if got := s.crowdsAt(270); got != 3 {
		t.Fatalf("crowd at peak: %v", got)
	}
	after := s.crowdsAt(310) // 40s into decay, one time constant
	want := 1 + 2*math.Exp(-1)
	if math.Abs(after-want) > 1e-12 {
		t.Fatalf("crowd decay: %v want %v", after, want)
	}
	// Dominating rate must bound the evaluated rate everywhere.
	peak := s.peakRate()
	for _, at := range []float64{0, 100, 250, 265, 270, 280, 400, 599} {
		if r := s.rateAt(at); r > peak {
			t.Fatalf("rateAt(%v)=%v exceeds peakRate %v", at, r, peak)
		}
	}
}

func TestZipfCDF(t *testing.T) {
	z := newZipfCDF(4, 0)
	for i, want := range []float64{0.25, 0.5, 0.75, 1} {
		if math.Abs(z.cum[i]-want) > 1e-12 {
			t.Fatalf("uniform cdf[%d]=%v", i, z.cum[i])
		}
	}
	if z.sample(0) != 0 || z.sample(0.99) != 3 {
		t.Fatal("sample edges wrong")
	}
	zs := newZipfCDF(3, 1)
	// Weights 1, 1/2, 1/3 → cum 6/11, 9/11, 1.
	if math.Abs(zs.cum[0]-6.0/11) > 1e-12 || math.Abs(zs.cum[1]-9.0/11) > 1e-12 || zs.cum[2] != 1 {
		t.Fatalf("zipf cdf %v", zs.cum)
	}
}
