package obs

import (
	"math"
	"testing"
)

// lifecycle builds the canonical boot→ready→drain→retire log used by the
// accounting tests: chip 0 up for the whole horizon, chip 1 booted at 10
// and retired at 30, chip 2 booted at 15 and still draining at the end.
func lifecycle() *Fleet {
	f := NewFleet(3)
	f.Note(0, 0, FleetBoot)
	f.Note(0, 0, FleetReady)
	f.Note(10, 1, FleetBoot)
	f.Note(12, 1, FleetReady)
	f.Note(25, 1, FleetDrain)
	f.Note(30, 1, FleetRetire)
	f.Note(15, 2, FleetBoot)
	f.Note(16, 2, FleetReady)
	f.Note(38, 2, FleetDrain)
	return f
}

func TestFleetChipSeconds(t *testing.T) {
	f := lifecycle()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// chip 0: 0..40 = 40; chip 1: 10..30 = 20; chip 2: 15..40 = 25.
	if got, want := f.ChipSeconds(40), 85.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ChipSeconds(40) = %g, want %g", got, want)
	}
	// A shorter horizon clamps open intervals and whole retired cycles.
	// chip 0: 20; chip 1: 10..20 = 10; chip 2: 15..20 = 5.
	if got, want := f.ChipSeconds(20), 35.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ChipSeconds(20) = %g, want %g", got, want)
	}
	if got := (*Fleet)(nil).ChipSeconds(40); got != 0 {
		t.Fatalf("nil fleet ChipSeconds = %g", got)
	}
}

func TestFleetRebootCycle(t *testing.T) {
	f := NewFleet(1)
	f.Note(0, 0, FleetBoot)
	f.Note(1, 0, FleetReady)
	f.Note(5, 0, FleetDrain)
	f.Note(6, 0, FleetRetire)
	f.Note(10, 0, FleetBoot)
	f.Note(11, 0, FleetReady)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// First cycle 0..6, second open 10..horizon.
	if got, want := f.ChipSeconds(20), 16.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ChipSeconds(20) = %g, want %g", got, want)
	}
	if got := f.PeakActive(20); got != 1 {
		t.Fatalf("PeakActive = %d, want 1", got)
	}
}

func TestFleetPeakActive(t *testing.T) {
	f := lifecycle()
	// Routable windows: chip 0 [0,40], chip 1 [12,25), chip 2 [16,38).
	// All three overlap in [16,25).
	if got := f.PeakActive(40); got != 3 {
		t.Fatalf("PeakActive(40) = %d, want 3", got)
	}
	if got := f.PeakActive(14); got != 2 {
		t.Fatalf("PeakActive(14) = %d, want 2", got)
	}
	if got := (*Fleet)(nil).PeakActive(40); got != 0 {
		t.Fatalf("nil fleet PeakActive = %d", got)
	}
}

func TestFleetValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		evs  []FleetEvent
	}{
		{"ready before boot", []FleetEvent{{Time: 0, Chip: 0, Kind: FleetReady}}},
		{"double boot", []FleetEvent{
			{Time: 0, Chip: 0, Kind: FleetBoot}, {Time: 1, Chip: 0, Kind: FleetBoot}}},
		{"drain while booting", []FleetEvent{
			{Time: 0, Chip: 0, Kind: FleetBoot}, {Time: 1, Chip: 0, Kind: FleetDrain}}},
		{"retire without drain", []FleetEvent{
			{Time: 0, Chip: 0, Kind: FleetBoot}, {Time: 1, Chip: 0, Kind: FleetReady},
			{Time: 2, Chip: 0, Kind: FleetRetire}}},
		{"time backwards", []FleetEvent{
			{Time: 5, Chip: 0, Kind: FleetBoot}, {Time: 4, Chip: 0, Kind: FleetReady}}},
	}
	for _, tc := range cases {
		f := NewFleet(1)
		for _, e := range tc.evs {
			f.Note(e.Time, e.Chip, e.Kind)
		}
		if err := f.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestFleetNoteBounds(t *testing.T) {
	f := NewFleet(2)
	f.Note(0, -1, FleetBoot)
	f.Note(0, 2, FleetBoot)
	if len(f.Events()) != 0 {
		t.Fatal("out-of-range chips were recorded")
	}
	var nilF *Fleet
	nilF.Note(0, 0, FleetBoot) // must not panic
	if nilF.Events() != nil || nilF.Validate() != nil {
		t.Fatal("nil fleet accessors not inert")
	}
}

func TestFleetKindStrings(t *testing.T) {
	want := []string{"boot", "ready", "drain", "retire"}
	for i, s := range want {
		if got := FleetEventKind(i).String(); got != s {
			t.Errorf("FleetEventKind(%d).String() = %q, want %q", i, got, s)
		}
	}
}
