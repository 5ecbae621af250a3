package arch

import "testing"

func maskOf(bits ...int) HealthMask {
	u := make([]bool, 16)
	for i := range u {
		u[i] = true
	}
	for _, b := range bits {
		u[b] = false
	}
	return HealthMask{Usable: u}
}

func TestFullHealth(t *testing.T) {
	m := FullHealth(Planaria())
	if m.Alive() != 16 || m.Degraded() || m.Fraction() != 1 {
		t.Fatalf("full health: alive=%d degraded=%v frac=%g", m.Alive(), m.Degraded(), m.Fraction())
	}
	if m.MaxChainable() != 16 {
		t.Fatalf("MaxChainable = %d", m.MaxChainable())
	}
	if err := m.Validate(Planaria()); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyMaskMeansUntracked(t *testing.T) {
	var m HealthMask
	if m.Fraction() != 1 {
		t.Fatalf("empty mask fraction = %g", m.Fraction())
	}
	if !m.Placeable(Shape{Clusters: 1, H: 4, W: 4}) {
		t.Fatal("empty mask rejected a shape")
	}
	cfg := Planaria()
	if got, want := len(m.FeasibleShapes(cfg, 16)), len(EnumerateShapes(cfg, 16)); got != want {
		t.Fatalf("empty mask filtered shapes: %d of %d", got, want)
	}
}

func TestMaxChainableRuns(t *testing.T) {
	m := maskOf(4, 9) // runs: 4, 4, 6
	if m.Alive() != 14 {
		t.Fatalf("alive = %d", m.Alive())
	}
	if m.MaxChainable() != 6 {
		t.Fatalf("MaxChainable = %d, want 6", m.MaxChainable())
	}
	dead := HealthMask{Usable: make([]bool, 16)}
	if dead.MaxChainable() != 0 || dead.Alive() != 0 {
		t.Fatal("all-dead mask reports life")
	}
}

func TestPlaceableRespectsRuns(t *testing.T) {
	m := maskOf(4, 9) // runs of 4, 4, 6 usable subarrays
	cases := []struct {
		sh   Shape
		want bool
	}{
		{Shape{Clusters: 14, H: 1, W: 1}, true}, // singles need no links
		{Shape{Clusters: 1, H: 2, W: 2}, true},  // 4 consecutive fit in any run
		{Shape{Clusters: 3, H: 2, W: 2}, true},  // one 4-cluster per run
		{Shape{Clusters: 1, H: 2, W: 4}, false}, // needs 8 consecutive, max run 6
		{Shape{Clusters: 2, H: 2, W: 2}, true},  // 4+4
		{Shape{Clusters: 1, H: 4, W: 4}, false}, // whole chip no longer chainable
		{Shape{Clusters: 3, H: 1, W: 4}, true},  // 4 + 4 + (6/4 = 1)
		{Shape{Clusters: 4, H: 1, W: 4}, false}, // only three 4-runs available
	}
	for _, c := range cases {
		if got := m.Placeable(c.sh); got != c.want {
			t.Errorf("Placeable(%+v) = %v, want %v (mask %s)", c.sh, got, c.want, m)
		}
	}
}

func TestFeasibleShapesSubsetAndDeterministic(t *testing.T) {
	cfg := Planaria()
	m := maskOf(5, 10) // runs of 5, 4, 5 — an 8-subarray cluster no longer fits
	all := EnumerateShapes(cfg, 8)
	feasible := m.FeasibleShapes(cfg, 8)
	if len(feasible) == 0 || len(feasible) >= len(all) {
		t.Fatalf("feasible %d of %d shapes", len(feasible), len(all))
	}
	// Subset in enumeration order.
	j := 0
	for _, sh := range all {
		if j < len(feasible) && feasible[j] == sh {
			j++
		}
	}
	if j != len(feasible) {
		t.Fatal("feasible shapes are not an ordered subset of the enumeration")
	}
	for _, sh := range feasible {
		if !m.Placeable(sh) {
			t.Errorf("infeasible shape %+v returned", sh)
		}
	}
}

func TestHealthMaskValidate(t *testing.T) {
	bad := HealthMask{Usable: make([]bool, 7)}
	if err := bad.Validate(Planaria()); err == nil {
		t.Fatal("mismatched mask accepted")
	}
}
