package workload

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"planaria/internal/dnn"
)

func TestScenarioModelsExist(t *testing.T) {
	for _, sc := range Scenarios() {
		for _, m := range sc.Models {
			if _, err := dnn.ByName(m); err != nil {
				t.Errorf("%s references unknown model %s", sc.Name, m)
			}
			if _, ok := BaseQoSSeconds[m]; !ok {
				t.Errorf("%s model %s has no QoS bound", sc.Name, m)
			}
		}
	}
}

func TestScenarioComposition(t *testing.T) {
	a, b, c := ScenarioA(), ScenarioB(), ScenarioC()
	if len(a.Models) != 5 || len(b.Models) != 4 || len(c.Models) != 9 {
		t.Fatalf("scenario sizes %d/%d/%d, want 5/4/9 (Table I)", len(a.Models), len(b.Models), len(c.Models))
	}
	for _, m := range b.Models {
		net := dnn.MustByName(m)
		if m != "Tiny YOLO" && !net.HasDepthwise() {
			t.Errorf("Workload-B model %s lacks depthwise convolutions", m)
		}
	}
	for _, m := range a.Models {
		if dnn.MustByName(m).HasDepthwise() {
			t.Errorf("Workload-A model %s has depthwise convolutions (paper excludes them)", m)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	r1, err := Generate(ScenarioC(), QoSMedium, 100, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Generate(ScenarioC(), QoSMedium, 100, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("request %d differs across same-seed generations", i)
		}
	}
}

func TestGenerateProperties(t *testing.T) {
	reqs, err := Generate(ScenarioA(), QoSHard, 200, 300, 99)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, r := range reqs {
		if r.Arrival < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = r.Arrival
		if r.Priority < 1 || r.Priority > 11 {
			t.Fatalf("priority %d outside 1..11", r.Priority)
		}
		base := BaseQoSSeconds[r.Model]
		if math.Abs(r.QoS-base/16) > 1e-12 {
			t.Fatalf("QoS-H bound %g, want %g", r.QoS, base/16)
		}
		if math.Abs(r.Deadline-(r.Arrival+r.QoS)) > 1e-12 {
			t.Fatal("deadline != arrival + QoS")
		}
	}
	// Mean interarrival ≈ 1/qps.
	mean := reqs[len(reqs)-1].Arrival / float64(len(reqs))
	if mean < 0.5/200 || mean > 2.0/200 {
		t.Errorf("mean interarrival %g far from %g", mean, 1.0/200)
	}
}

func TestGenerateRejectsBadArgs(t *testing.T) {
	if _, err := Generate(Scenario{Name: "empty"}, QoSSoft, 10, 10, 1); err == nil {
		t.Error("empty scenario accepted")
	}
	if _, err := Generate(ScenarioA(), QoSSoft, 0, 10, 1); err == nil {
		t.Error("zero qps accepted")
	}
	if _, err := Generate(ScenarioA(), QoSSoft, 10, 0, 1); err == nil {
		t.Error("zero count accepted")
	}
	bad := Scenario{Name: "x", Models: []string{"NoSuchModel"}}
	if _, err := Generate(bad, QoSSoft, 10, 10, 1); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestMeetsSLA(t *testing.T) {
	mk := func(dom string, n int) []Request {
		rs := make([]Request, n)
		for i := range rs {
			rs[i] = Request{ID: i, Domain: dom, Deadline: 1}
		}
		return rs
	}
	// 100 vision requests: 99 on-time passes, 98 fails.
	reqs := mk("classification", 100)
	fin := make([]float64, 100)
	for i := range fin {
		fin[i] = 0.5
	}
	fin[0] = 2.0
	if !MeetsSLA(reqs, fin) {
		t.Error("99/100 classification should meet the 99% SLA")
	}
	fin[1] = 2.0
	if MeetsSLA(reqs, fin) {
		t.Error("98/100 classification should fail the 99% SLA")
	}
	// Translation tolerates 97%.
	reqs = mk("translation", 100)
	fin = make([]float64, 100)
	for i := range fin {
		fin[i] = 0.5
	}
	fin[0], fin[1], fin[2] = 2, 2, 2
	if !MeetsSLA(reqs, fin) {
		t.Error("97/100 translation should meet the 97% SLA")
	}
	fin[3] = 2
	if MeetsSLA(reqs, fin) {
		t.Error("96/100 translation should fail")
	}
	// Unfinished requests never comply.
	fin[3] = -1
	if MeetsSLA(reqs, fin) {
		t.Error("unfinished request counted as compliant")
	}
}

func TestTailLatencySlack(t *testing.T) {
	reqs := []Request{
		{ID: 0, Domain: "classification", Deadline: 1},
		{ID: 1, Domain: "classification", Deadline: 1},
	}
	s := TailLatencySlack(reqs, []float64{0.5, 0.5})
	if math.Abs(s-0.01) > 1e-9 {
		t.Errorf("slack = %g, want 0.01", s)
	}
	s = TailLatencySlack(reqs, []float64{0.5, 2.0})
	if s >= 0 {
		t.Errorf("violating instance slack = %g, want negative", s)
	}
}

func TestQoSLevels(t *testing.T) {
	if QoSSoft.Scale != 1 || QoSMedium.Scale != 0.25 || QoSHard.Scale != 1.0/16 {
		t.Fatalf("QoS scales %v %v %v", QoSSoft.Scale, QoSMedium.Scale, QoSHard.Scale)
	}
	if len(Levels) != 3 {
		t.Fatal("want 3 QoS levels")
	}
}

// TestValidate checks one malformed case per field and that Validate
// names the request's index, ID and field; cluster-dispatched shapes
// (negative merged QoS, Work 0, unbounded deadline, non-positional IDs)
// pass.
func TestValidate(t *testing.T) {
	ok := func() []Request {
		return []Request{
			{ID: 10, Arrival: 0, QoS: 1, Deadline: 1},
			{ID: 12, Arrival: 0.5, QoS: -0.1, Deadline: 0.4, Work: 2.5},
			{ID: 11, Arrival: 0.25, QoS: 1, Deadline: math.Inf(1)},
		}
	}
	if err := Validate(ok()); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	cases := []struct {
		name  string
		edit  func(r *Request)
		field string
	}{
		{"NaN arrival", func(r *Request) { r.Arrival = math.NaN() }, "Arrival"},
		{"+Inf arrival", func(r *Request) { r.Arrival = math.Inf(1) }, "Arrival"},
		{"negative arrival", func(r *Request) { r.Arrival = -1 }, "Arrival"},
		{"NaN deadline", func(r *Request) { r.Deadline = math.NaN() }, "Deadline"},
		{"NaN work", func(r *Request) { r.Work = math.NaN() }, "Work"},
		{"+Inf work", func(r *Request) { r.Work = math.Inf(1) }, "Work"},
		{"negative work", func(r *Request) { r.Work = -1 }, "Work"},
		{"duplicate ID", func(r *Request) { r.ID = 10 }, "ID"},
	}
	for _, c := range cases {
		reqs := ok()
		c.edit(&reqs[2])
		err := Validate(reqs)
		var re *RequestError
		if !errors.As(err, &re) || re.Index != 2 || re.ID != reqs[2].ID || re.Field != c.field {
			t.Errorf("%s: err = %v, want a RequestError for index 2, ID %d, field %s", c.name, err, reqs[2].ID, c.field)
		}
	}
}

// TestSLAOutcomeFlatMatchesRecords checks the columnar SLA tally against
// MeetsSLA and DeadlineFraction over the records, on seeded random
// streams with mixed domains and unfinished requests.
func TestSLAOutcomeFlatMatchesRecords(t *testing.T) {
	domains := []string{"classification", "detection", "translation"}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		reqs := make([]Request, n)
		finishes := make([]float64, n)
		doms := make([]int32, n)
		var names []string
		for i := range reqs {
			d := domains[rng.Intn(1+rng.Intn(len(domains)))]
			reqs[i] = Request{ID: i, Domain: d, Deadline: rng.Float64()}
			switch x := rng.Float64(); {
			case x < 0.01:
				finishes[i] = -1
			case x < 0.03:
				finishes[i] = reqs[i].Deadline + 0.01 + rng.Float64()
			default:
				finishes[i] = reqs[i].Deadline * rng.Float64()
			}
			id := slices.Index(names, d)
			if id < 0 {
				id = len(names)
				names = append(names, d)
			}
			doms[i] = int32(id)
		}
		deadlines := make([]float64, n)
		for i := range reqs {
			deadlines[i] = reqs[i].Deadline
		}
		meets, frac := SLAOutcomeFlat(doms, names, deadlines, finishes)
		if want := MeetsSLA(reqs, finishes); meets != want {
			t.Errorf("seed %d: SLAOutcomeFlat meets = %v, MeetsSLA = %v", seed, meets, want)
		}
		if want := DeadlineFraction(reqs, finishes); frac != want {
			t.Errorf("seed %d: SLAOutcomeFlat fraction = %v, DeadlineFraction = %v", seed, frac, want)
		}
	}
}
