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
	m := maskOf()
	if m.Alive() != 16 || m.Fraction() != 1 {
		t.Fatalf("full health: alive=%d frac=%g", m.Alive(), m.Fraction())
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
	if m.Alive() != 0 || m.MaxChainable() != 0 {
		t.Fatalf("empty mask: alive=%d MaxChainable=%d", m.Alive(), m.MaxChainable())
	}
	if err := m.Validate(Planaria()); err != nil {
		t.Fatalf("empty mask rejected: %v", err)
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

func TestHealthMaskValidate(t *testing.T) {
	bad := HealthMask{Usable: make([]bool, 7)}
	if err := bad.Validate(Planaria()); err == nil {
		t.Fatal("mismatched mask accepted")
	}
}
