package cluster

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// chipsRun builds the routing state of n idle chips under policy p, with
// the given chips dead from t = 0 on.
func chipsRun(p policy, n int, dead ...int) *run {
	r := &run{pol: p, total: 16, chips: make([]chip, n)}
	for _, d := range dead {
		r.chips[d].health = &healthSteps{times: []float64{0}, alive: []int{0}}
	}
	return r
}

// routeName routes a group of the named model, interning the name as the
// run's scan would.
func (r *run) routeName(t float64, name string) int { return r.route(t, r.intern(name)) }

func TestPolicyNameAliases(t *testing.T) {
	for name, want := range map[string]string{
		"round-robin": "round-robin", "rr": "round-robin",
		"least-work": "least-work", "lw": "least-work", "jsq": "least-work",
		"affinity": "affinity", "hash": "affinity",
	} {
		got, err := PolicyName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("PolicyName(%q) = %q, want %q", name, got, want)
		}
	}
	_, err := PolicyName("bogus")
	if want := `cluster: unknown policy "bogus" (want round-robin, least-work, or affinity)`; err == nil || err.Error() != want {
		t.Errorf("PolicyName(bogus) error = %v, want %s", err, want)
	}
	if len(Policies()) != 3 {
		t.Errorf("Policies() = %v, want the three built-ins", Policies())
	}
	for _, name := range Policies() {
		if got, err := PolicyName(name); err != nil || got != name {
			t.Errorf("PolicyName(%q) = %q, %v: canonical names must map to themselves", name, got, err)
		}
	}
}

func TestRoundRobinCyclesAndSkipsUnhealthy(t *testing.T) {
	r := chipsRun(roundRobin, 3)
	var picks []int
	for i := 0; i < 6; i++ {
		picks = append(picks, r.routeName(0, "m"))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	if fmt.Sprint(picks) != fmt.Sprint(want) {
		t.Errorf("healthy cycle = %v, want %v", picks, want)
	}
	r = chipsRun(roundRobin, 3, 1)
	picks = picks[:0]
	for i := 0; i < 4; i++ {
		picks = append(picks, r.routeName(0, "m"))
	}
	want = []int{0, 2, 0, 2}
	if fmt.Sprint(picks) != fmt.Sprint(want) {
		t.Errorf("cycle with chip 1 dead = %v, want %v", picks, want)
	}
	if got := chipsRun(roundRobin, 3, 0, 1, 2).routeName(0, "m"); got != -1 {
		t.Errorf("all-dead pick = %d, want -1", got)
	}
}

func TestLeastWorkPicksMinAndBreaksTiesByIndex(t *testing.T) {
	r := chipsRun(leastWork, 4)
	for i, busy := range []float64{3, 1, 1, 2} { // chips 1 and 2 tie: lower index wins
		r.chips[i].busyUntil = busy
	}
	if got := r.routeName(0, "m"); got != 1 {
		t.Errorf("pick = %d, want 1 (least outstanding, lowest index on tie)", got)
	}
	// Backlog is clamped at zero: chips whose work finished before t tie
	// with idle chips, so the tie breaks to the lowest index.
	if got := r.routeName(5, "m"); got != 0 {
		t.Errorf("all-idle pick = %d, want 0", got)
	}
	// The minimum being dead must not attract work.
	r.chips[1].health = &healthSteps{times: []float64{0}, alive: []int{0}}
	if got := r.routeName(0, "m"); got != 2 {
		t.Errorf("pick with min dead = %d, want 2", got)
	}
	if got := r.leastWork(0, 2); got != 3 {
		t.Errorf("pick skipping chip 2 = %d, want 3", got)
	}
	if got := chipsRun(leastWork, 2, 0, 1).routeName(0, "m"); got != -1 {
		t.Errorf("all-dead pick = %d, want -1", got)
	}
}

func TestAffinityStableAcrossRunsAndInstances(t *testing.T) {
	r1, r2 := chipsRun(affinity, 5), chipsRun(affinity, 5)
	for i := 0; i < 40; i++ {
		model := fmt.Sprintf("model-%d", i)
		first := r1.routeName(0, model)
		for rep := 0; rep < 3; rep++ {
			if got := r1.routeName(float64(rep), model); got != first {
				t.Fatalf("%s: pick changed from %d to %d on repeat", model, first, got)
			}
			if got := r2.routeName(0, model); got != first {
				t.Fatalf("%s: fresh run picked %d, want %d", model, got, first)
			}
		}
	}
}

func TestAffinitySpreadsModels(t *testing.T) {
	r := chipsRun(affinity, 4)
	hit := map[int]int{}
	for i := 0; i < 64; i++ {
		hit[r.routeName(0, fmt.Sprintf("model-%d", i))]++
	}
	for chip := 0; chip < 4; chip++ {
		if hit[chip] == 0 {
			t.Errorf("chip %d owns no models out of 64 (distribution %v)", chip, hit)
		}
	}
}

// TestAffinityRedistributesOnlyDeadChipsShare is the consistent-hashing
// property: killing one chip moves only the models that chip owned.
func TestAffinityRedistributesOnlyDeadChipsShare(t *testing.T) {
	const chips, models = 5, 100
	const dead = 2
	live, degraded := chipsRun(affinity, chips), chipsRun(affinity, chips, dead)
	moved := 0
	for i := 0; i < models; i++ {
		model := fmt.Sprintf("model-%d", i)
		before, after := live.routeName(0, model), degraded.routeName(0, model)
		if before != dead {
			if after != before {
				t.Errorf("%s moved %d -> %d though chip %d died", model, before, after, dead)
			}
			continue
		}
		moved++
		if after == dead || after < 0 {
			t.Errorf("%s still routed to dead chip (got %d)", model, after)
		}
	}
	if moved == 0 {
		t.Fatal("dead chip owned no models; test proves nothing")
	}
}

// TestAffinityScoreIsFNV1a pins the in-place hash to the FNV-1a digest
// of the model name, a '|' and the chip index's little-endian bytes.
func TestAffinityScoreIsFNV1a(t *testing.T) {
	for _, model := range []string{"", "ResNet-50", "model-17"} {
		for _, chip := range []int{0, 1, 7, 300, 1 << 20} {
			h := fnv.New64a()
			h.Write([]byte(model))
			h.Write([]byte{'|', byte(chip), byte(chip >> 8), byte(chip >> 16), byte(chip >> 24)})
			if got, want := affinityScore(model, chip), h.Sum64(); got != want {
				t.Errorf("affinityScore(%q, %d) = %#x, want %#x", model, chip, got, want)
			}
		}
	}
}
