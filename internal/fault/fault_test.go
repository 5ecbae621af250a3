package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(16, 4, 20, 0.5, 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(16, 4, 20, 0.5, 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different schedules")
	}
	if len(a.Events) == 0 {
		t.Fatal("rate 20 over 0.5 s generated no faults")
	}
	c, err := Generate(16, 4, 20, 0.5, 0.02, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical schedules")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
}

func TestGenerateZeroRateEmpty(t *testing.T) {
	s, err := Generate(16, 4, 0, 10, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Empty() {
		t.Fatalf("zero-rate schedule has %d events", len(s.Events))
	}
}

func TestValidateRejectsBadEvents(t *testing.T) {
	cases := []Schedule{
		{Units: 0, Pods: 1},
		{Units: 16, Pods: 3}, // not divisible
		{Units: 16, Pods: 4, Events: []Event{{Time: -1, Kind: KindSubarray}}},
		{Units: 16, Pods: 4, Events: []Event{{Time: math.NaN(), Kind: KindSubarray}}},
		{Units: 16, Pods: 4, Events: []Event{{Kind: KindSubarray, Unit: 16}}},
		{Units: 16, Pods: 4, Events: []Event{{Kind: KindLink, Unit: 4}}},
		{Units: 16, Pods: 4, Events: []Event{{Kind: Kind(9), Unit: 0}}},
		{Units: 16, Pods: 4, Events: []Event{{Kind: KindPE, Unit: 1, Duration: math.Inf(1)}}},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid schedule accepted: %+v", i, s)
		}
	}
}

func TestHealthMaskDegradation(t *testing.T) {
	h := NewHealth(16, 4)
	if h.Alive() != 16 || h.Fraction() != 1 {
		t.Fatalf("fresh health: alive=%d frac=%g", h.Alive(), h.Fraction())
	}
	// One dead subarray.
	h.apply(Event{Kind: KindSubarray, Unit: 5}, false)
	if h.Alive() != 15 || h.UsableSub(5) {
		t.Fatalf("after subarray fault: alive=%d usable(5)=%v", h.Alive(), h.UsableSub(5))
	}
	// A dead PE masks its whole subarray.
	h.apply(Event{Kind: KindPE, Unit: 0, Row: 3, Col: 7}, false)
	if h.Alive() != 14 || h.UsableSub(0) {
		t.Fatalf("after PE fault: alive=%d usable(0)=%v", h.Alive(), h.UsableSub(0))
	}
	// A link fault takes its whole pod (subarrays 8..11) offline.
	h.apply(Event{Kind: KindLink, Unit: 2}, false)
	if h.Alive() != 10 {
		t.Fatalf("after link fault: alive=%d, want 10", h.Alive())
	}
	for i := 8; i < 12; i++ {
		if h.UsableSub(i) {
			t.Errorf("subarray %d usable despite pod-2 link fault", i)
		}
	}
	mask := h.Mask()
	if mask.Alive() != 10 || mask.MaxChainable() != 4 {
		t.Fatalf("mask alive=%d maxchain=%d, want 10/4 (%s)", mask.Alive(), mask.MaxChainable(), mask)
	}
	// Repairs restore exactly.
	h.apply(Event{Kind: KindLink, Unit: 2}, true)
	h.apply(Event{Kind: KindPE, Unit: 0, Row: 3, Col: 7}, true)
	h.apply(Event{Kind: KindSubarray, Unit: 5}, true)
	if h.Alive() != 16 {
		t.Fatalf("after repairs: alive=%d", h.Alive())
	}
}

func TestInjectorReplay(t *testing.T) {
	s := &Schedule{Units: 16, Pods: 4, Events: []Event{
		{Time: 0.010, Kind: KindSubarray, Unit: 2, Duration: 0.005}, // transient
		{Time: 0.012, Kind: KindSubarray, Unit: 7},                  // permanent
	}}
	in, err := NewInjector(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.NextChange(0); got != 0.010 {
		t.Fatalf("NextChange(0) = %v", got)
	}
	ch := in.AdvanceTo(0.011)
	if len(ch) != 1 || ch[0].Up || ch[0].Event.Unit != 2 {
		t.Fatalf("AdvanceTo(0.011) = %+v", ch)
	}
	if in.Health().Alive() != 15 {
		t.Fatalf("alive = %d after first fault", in.Health().Alive())
	}
	// Next transition: the permanent fault at 12 ms, then the repair at 15 ms.
	if got := in.NextChange(0.011); got != 0.012 {
		t.Fatalf("NextChange(0.011) = %v", got)
	}
	ch = in.AdvanceTo(0.016)
	if len(ch) != 2 {
		t.Fatalf("AdvanceTo(0.016) applied %d transitions", len(ch))
	}
	if !ch[1].Up || ch[1].Event.Unit != 2 {
		t.Fatalf("second transition not the repair: %+v", ch[1])
	}
	if in.Health().Alive() != 15 || in.Health().UsableSub(2) != true || in.Health().UsableSub(7) {
		t.Fatalf("final health wrong: alive=%d", in.Health().Alive())
	}
	if in.Pending() {
		t.Fatal("transitions still pending")
	}
	if !math.IsInf(in.NextChange(1), 1) {
		t.Fatal("exhausted injector reports a next change")
	}
}

// TestAliveCountAndDue replays dense seeded schedules, whose transient
// faults overlap on the same units and pods, in steps: the usable count
// apply keeps must equal a recount over UsableSub after every step, and
// Due must say exactly whether AdvanceTo applies anything.
func TestAliveCountAndDue(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s, err := Generate(16, 4, 400, 0.1, 0.02, seed)
		if err != nil {
			t.Fatal(err)
		}
		in, err := NewInjector(s)
		if err != nil {
			t.Fatal(err)
		}
		h := in.Health()
		for now := 0.0; in.Pending(); now += 0.0007 {
			due := in.Due(now)
			if applied := len(in.AdvanceTo(now)); due != (applied > 0) {
				t.Fatalf("seed %d t=%g: Due = %v, AdvanceTo applied %d", seed, now, due, applied)
			}
			n := 0
			for i := 0; i < h.Units(); i++ {
				if h.UsableSub(i) {
					n++
				}
			}
			if h.Alive() != n {
				t.Fatalf("seed %d t=%g: Alive = %d, %d subarrays usable", seed, now, h.Alive(), n)
			}
		}
	}
}

func TestParseJSONRoundTrip(t *testing.T) {
	src := `{
	  "units": 16,
	  "pods": 4,
	  "events": [
	    {"at_ms": 5,  "kind": "subarray", "unit": 3},
	    {"at_ms": 8,  "kind": "pe", "unit": 7, "row": 12, "col": 3, "for_ms": 4},
	    {"at_ms": 12, "kind": "link", "unit": 1}
	  ]
	}`
	s, err := ParseJSON([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 3 || s.Units != 16 || s.Pods != 4 {
		t.Fatalf("parsed %+v", s)
	}
	if s.Events[0].Time != 0.005 || s.Events[0].Kind != KindSubarray {
		t.Fatalf("first event %+v", s.Events[0])
	}
	if s.Events[1].Kind != KindPE || s.Events[1].Duration != 0.004 {
		t.Fatalf("pe event %+v", s.Events[1])
	}
	out, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseJSON(out)
	if err != nil {
		t.Fatalf("re-parse marshaled schedule: %v", err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Fatalf("round trip drifted:\n%+v\n%+v", s, s2)
	}
}

func TestParseJSONErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"garbage", `{`, "parse schedule"},
		{"unknown field", `{"units":16,"pods":4,"events":[{"at_ms":1,"kind":"pe","unit":0,"dur_ms":4}]}`, "parse schedule"},
		{"unknown kind", `{"units":16,"pods":4,"events":[{"at_ms":1,"kind":"router","unit":0}]}`, "unknown kind"},
		{"out of range", `{"units":16,"pods":4,"events":[{"at_ms":1,"kind":"subarray","unit":99}]}`, "targets subarray"},
		{"bad chip", `{"units":16,"pods":5,"events":[]}`, "not divisible"},
	}
	for _, c := range cases {
		_, err := ParseJSON([]byte(c.src))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}
