package obs

import (
	"math/big"
	"strings"
	"testing"
)

// Ledger mechanics: instants, clamping, terminal causes, and the two
// read paths (Durations and Spans) that DESIGN.md §14's conservation
// identity depends on.

func TestLedgerOpenMarkClose(t *testing.T) {
	l := NewLedger(2)
	l.Mark(0, 1.0, PhaseQueueWait)
	l.Mark(0, 1.5, PhaseCompute)
	l.Mark(0, 2.25, PhasePreemptStall)
	l.Close(0, 3.0, CauseDone)

	if !l.Closed(0) || l.Cause(0) != CauseDone {
		t.Fatalf("record 0: closed=%v cause=%v", l.Closed(0), l.Cause(0))
	}
	var dur [NumPhases]float64
	if !l.Durations(0, &dur) {
		t.Fatal("Durations reported not-closed")
	}
	if dur[PhaseQueueWait] != 0.5 || dur[PhaseCompute] != 0.75 || dur[PhasePreemptStall] != 0.75 {
		t.Fatalf("durations = %v", dur)
	}
	spans := l.Spans(0, nil)
	if len(spans) != 3 {
		t.Fatalf("spans = %v", spans)
	}
	// Chronological order with bit-exact shared boundaries.
	for i := 1; i < len(spans); i++ {
		if spans[i].From != spans[i-1].To {
			t.Fatalf("span boundary mismatch: %v", spans)
		}
	}
	if spans[0].From != 1.0 || spans[2].To != 3.0 || spans[1].Phase != PhaseCompute {
		t.Fatalf("spans = %v", spans)
	}

	// Record 1 never opened: Durations and Spans both refuse it.
	if l.Durations(1, &dur) {
		t.Fatal("unopened record reported durations")
	}
	if got := l.Spans(1, nil); len(got) != 0 {
		t.Fatalf("unopened record has spans: %v", got)
	}
}

func TestLedgerClampsBackwardInstants(t *testing.T) {
	l := NewLedger(1)
	l.Mark(0, 5.0, PhaseQueueWait)
	l.Mark(0, 5.0-1e-13, PhaseCompute) // sub-Eps skew from event merge
	l.Close(0, 4.0, CauseDone)         // grossly backwards: clamps to 5.0
	var dur [NumPhases]float64
	l.Durations(0, &dur)
	total := 0.0
	for _, d := range dur {
		if d < 0 {
			t.Fatalf("negative phase duration: %v", dur)
		}
		total += d
	}
	spans := l.Spans(0, nil)
	if start, end := spans[0].From, spans[len(spans)-1].To; total != end-start || end != 5.0 {
		t.Fatalf("conservation broke under clamping: Σ=%g, end-start=%g-%g", total, end, start)
	}
}

// TestLedgerTerminal closes records at their terminal event: one that
// never left its first phase, and one closed at the instant of its last
// mark, whose zero-length span still counts as a phase.
func TestLedgerTerminal(t *testing.T) {
	l := NewLedger(2)
	l.Mark(0, 2.0, PhaseQueueWait)
	l.Close(0, 2.5, CauseShedChip)
	if !l.Closed(0) || l.Cause(0) != CauseShedChip {
		t.Fatal("Close did not close the record")
	}
	var dur [NumPhases]float64
	l.Durations(0, &dur)
	if dur[PhaseQueueWait] != 0.5 {
		t.Fatalf("terminal span = %v", dur)
	}
	l.Mark(1, 1.0, PhaseQueueWait)
	l.Mark(1, 3.0, PhaseRetryBackoff)
	l.Close(1, 3.0, CauseShedRetries)
	dur = [NumPhases]float64{} // Durations accumulates; clear record 0's spans
	l.Durations(1, &dur)
	if dur[PhaseQueueWait] != 2.0 || l.Cause(1) != CauseShedRetries || len(l.Spans(1, nil)) != 2 {
		t.Fatalf("terminal-after-mark: dur=%v cause=%v spans=%v", dur, l.Cause(1), l.Spans(1, nil))
	}
}

func TestLedgerNilAndOutOfRangeAreNoops(t *testing.T) {
	var l *Ledger
	l.Mark(0, 1, PhaseCompute)
	l.Mark(0, 2, PhaseCompute)
	l.Close(0, 3, CauseDone)
	l.Reset(4)
	if l.Len() != 0 || l.Closed(0) || l.Cause(0) != CauseOpen {
		t.Fatal("nil ledger must be inert")
	}
	var dur [NumPhases]float64
	if l.Durations(0, &dur) || len(l.Spans(0, nil)) != 0 {
		t.Fatal("nil ledger produced data")
	}

	real := NewLedger(1)
	real.Mark(-1, 1, PhaseCompute) // out of range: ignored
	real.Mark(7, 1, PhaseCompute)
	real.Close(7, 2, CauseDone)
	if real.Closed(7) {
		t.Fatal("out-of-range position was recorded")
	}
}

func TestLedgerResetReusesArena(t *testing.T) {
	l := NewLedger(3)
	for i := 0; i < 3; i++ {
		l.Mark(i, float64(i), PhaseQueueWait)
		l.Close(i, float64(i)+1, CauseDone)
	}
	l.Reset(2)
	if l.Len() != 2 {
		t.Fatalf("Len after Reset = %d, want 2", l.Len())
	}
	if l.Closed(0) || l.Cause(0) != CauseOpen || len(l.Spans(0, nil)) != 0 {
		t.Fatal("Reset leaked prior state")
	}
	l.Mark(1, 10, PhaseCompute)
	l.Close(1, 11, CauseDone)
	var dur [NumPhases]float64
	if !l.Durations(1, &dur) || dur[PhaseCompute] != 1 {
		t.Fatalf("post-Reset record wrong: %v", dur)
	}
}

func TestPhaseAndCauseStrings(t *testing.T) {
	wantPhases := []string{"admit-wait", "batch-wait", "queue-wait", "compute",
		"preempt-stall", "retry-backoff", "fault-stall", "drain-migrate"}
	for i := 0; i < NumPhases; i++ {
		if Phase(i).String() != wantPhases[i] {
			t.Errorf("Phase(%d) = %q, want %q", i, Phase(i), wantPhases[i])
		}
	}
	wantCauses := []string{"open", "done", "dispatched", "shed-admission",
		"shed-unroutable", "shed-chip", "shed-retries", "shed-dead-chip", "rejected",
		"shed-drain"}
	for i := 0; i < NumCauses; i++ {
		if Cause(i).String() != wantCauses[i] {
			t.Errorf("Cause(%d) = %q, want %q", i, Cause(i), wantCauses[i])
		}
	}
}

// TestLedgerBigFloatConservation checks the exactness claim directly:
// summing a record's spans with big.Float arithmetic reproduces
// end−start with zero rounding error, because spans share instants.
func TestLedgerBigFloatConservation(t *testing.T) {
	l := NewLedger(1)
	l.Mark(0, 0.1, PhaseQueueWait)
	ts := []float64{0.1 + 1.0/3, 0.7, 1.0 / 0.7, 2.718281828, 3.14159}
	phases := []Phase{PhaseCompute, PhasePreemptStall, PhaseCompute, PhaseRetryBackoff}
	for i, p := range phases {
		l.Mark(0, ts[i], p)
	}
	l.Close(0, ts[len(ts)-1], CauseDone)

	sum := new(big.Float).SetPrec(200)
	for _, s := range l.Spans(0, nil) {
		d := new(big.Float).SetPrec(200).Sub(big.NewFloat(s.To), big.NewFloat(s.From))
		sum.Add(sum, d)
	}
	want := new(big.Float).SetPrec(200).Sub(big.NewFloat(ts[len(ts)-1]), big.NewFloat(0.1))
	if sum.Cmp(want) != 0 {
		t.Fatalf("Σ spans = %s, end-start = %s", sum.Text('g', 30), want.Text('g', 30))
	}
}

// Occupancy accounting: integer cycle partition must be exact.

func TestOccupancyIntervalPartition(t *testing.T) {
	o := NewOccupancy(16)
	o.Interval(100, 10, 2, 4) // 100 cycles: 10 busy, 2 reconfig, 4 faulted units
	o.Interval(50, 16, 0, 0)
	o.Interval(0, 5, 5, 5) // zero-width: no-op
	if o.Horizon != 150 {
		t.Fatalf("horizon = %d, want 150", o.Horizon)
	}
	if got := o.Busy + o.Idle + o.Faulted + o.Reconfig; got != o.Units*o.Horizon {
		t.Fatalf("partition broke: %d != %d", got, o.Units*o.Horizon)
	}
	if o.Busy != 10*100+16*50 || o.Reconfig != 200 || o.Faulted != 400 {
		t.Fatalf("occ = %+v", o)
	}
}

func TestOccupancyPadToAndMerge(t *testing.T) {
	a := NewOccupancy(4)
	a.Interval(10, 4, 0, 0)
	b := NewOccupancy(4)
	b.Interval(25, 2, 0, 0)
	a.PadTo(25)
	if a.Horizon != 25 || a.Idle != 4*15 {
		t.Fatalf("PadTo: %+v", a)
	}
	a.PadTo(10) // shrinking is a no-op
	if a.Horizon != 25 {
		t.Fatal("PadTo shrank the horizon")
	}
	f := NewOccupancy(0)
	f.Merge(a)
	f.Merge(b)
	if f.Units != 8 || f.Horizon != 25 {
		t.Fatalf("merge: %+v", f)
	}
	if got := f.Busy + f.Idle + f.Faulted + f.Reconfig; got != f.Units*f.Horizon {
		t.Fatalf("fleet partition broke: %d != %d", got, f.Units*f.Horizon)
	}
}

func TestOccupancyDecisionsAndNil(t *testing.T) {
	o := NewOccupancy(16)
	o.NoteDecision(true, 8, 16)
	o.NoteDecision(false, 40, 16)
	if o.Decisions != 2 || o.FitDecisions != 1 || o.DemandUnits != 48 || o.SupplyUnits != 32 {
		t.Fatalf("decision tallies: %+v", o)
	}
	if p := o.Pressure(); p != 1.5 {
		t.Fatalf("pressure = %g, want 1.5", p)
	}
	o.Interval(10, 8, 0, 0)
	if u := o.Utilization(); u != 0.5 {
		t.Fatalf("utilization = %g, want 0.5", u)
	}

	var nilO *Occupancy
	nilO.Interval(10, 1, 1, 1)
	nilO.PadTo(5)
	nilO.Merge(o)
	nilO.NoteDecision(true, 1, 1)
	nilO.SetUnits(4)
	nilO.Reset()
	if nilO.Utilization() != 0 || nilO.Pressure() != 0 {
		t.Fatal("nil occupancy must be inert")
	}
}

// Builder aggregation: dominant-cause rule, quantiles, group ordering.

func TestAttribBuilderDominantRule(t *testing.T) {
	b := NewAttribBuilder()
	var dur [NumPhases]float64

	// Late completion: dominant phase = argmax, earlier phase wins ties.
	dur[PhaseQueueWait] = 2
	dur[PhaseCompute] = 2
	b.Add("m", "q", &dur, CauseDone, true)
	// Non-completed: dominant = terminal cause regardless of phases.
	dur = [NumPhases]float64{}
	dur[PhaseCompute] = 9
	b.Add("m", "q", &dur, CauseShedChip, false) // violated forced true
	// Met SLA: no dominant entry.
	dur = [NumPhases]float64{}
	dur[PhaseCompute] = 1
	b.Add("m", "q", &dur, CauseDone, false)

	rep := b.Report(nil)
	if len(rep.Groups) != 1 {
		t.Fatalf("groups = %+v", rep.Groups)
	}
	g := rep.Groups[0]
	if g.Requests != 3 || g.Completed != 2 || g.Violations != 2 {
		t.Fatalf("tallies: %+v", g)
	}
	want := map[string]int64{"queue-wait": 1, "shed-chip": 1}
	if len(g.Dominant) != 2 {
		t.Fatalf("dominant = %+v", g.Dominant)
	}
	for _, d := range g.Dominant {
		if want[d.Cause] != d.Count {
			t.Fatalf("dominant = %+v", g.Dominant)
		}
	}
	// Phases appear before causes in the histogram (enum order).
	if g.Dominant[0].Cause != "queue-wait" {
		t.Fatalf("dominant order = %+v", g.Dominant)
	}
}

func TestAttribBuilderQuantilesAndOrdering(t *testing.T) {
	b := NewAttribBuilder()
	var dur [NumPhases]float64
	for i := 1; i <= 100; i++ {
		dur[PhaseCompute] = float64(i)
		b.Add("zeta", "QoS-M", &dur, CauseDone, false)
	}
	dur = [NumPhases]float64{}
	dur[PhaseCompute] = 5
	b.Add("alpha", "QoS-S", &dur, CauseDone, false)

	rep := b.Report(nil)
	if len(rep.Groups) != 2 || rep.Groups[0].Model != "alpha" || rep.Groups[1].Model != "zeta" {
		t.Fatalf("group order: %+v", rep.Groups)
	}
	var compute *PhaseStat
	for i := range rep.Groups[1].Phases {
		if rep.Groups[1].Phases[i].Phase == "compute" {
			compute = &rep.Groups[1].Phases[i]
		}
	}
	if compute == nil || compute.Count != 100 {
		t.Fatalf("compute stat: %+v", compute)
	}
	if compute.P50 != 50 || compute.P99 != 99 {
		t.Fatalf("quantiles: p50=%g p99=%g", compute.P50, compute.P99)
	}
	if compute.Sum != 5050 || compute.Mean != 50.5 {
		t.Fatalf("sum/mean: %g/%g", compute.Sum, compute.Mean)
	}
}

func TestAttribReportFleetRollup(t *testing.T) {
	a := NewOccupancy(16)
	a.Interval(10, 8, 0, 0)
	b := NewOccupancy(16)
	b.Interval(30, 4, 2, 1)
	rep := NewAttribBuilder().Report([]*Occupancy{a, b})
	if len(rep.Chips) != 2 || rep.Fleet == nil {
		t.Fatalf("util rows: %+v", rep)
	}
	// Chips are padded to the common horizon before the fleet merge.
	for _, row := range rep.Chips {
		if row.Horizon != 30 {
			t.Fatalf("chip not padded: %+v", row)
		}
		if row.Busy+row.Idle+row.Faulted+row.Reconfig != row.Units*row.Horizon {
			t.Fatalf("chip partition broke: %+v", row)
		}
	}
	f := rep.Fleet
	if f.Units != 32 || f.Horizon != 30 ||
		f.Busy+f.Idle+f.Faulted+f.Reconfig != f.Units*f.Horizon {
		t.Fatalf("fleet row: %+v", f)
	}
	// Padding must not mutate the caller's accountants.
	if a.Horizon != 10 {
		t.Fatalf("Report mutated input occupancy: %+v", a)
	}
}

func TestAttribReportJSONRoundTripAndText(t *testing.T) {
	b := NewAttribBuilder()
	var dur [NumPhases]float64
	dur[PhaseCompute] = 0.25
	dur[PhaseQueueWait] = 0.5
	b.Add("ResNet-50", "QoS-H", &dur, CauseDone, true)
	b.Add("ResNet-50", "QoS-H", &dur, CauseShedChip, false)
	occ := NewOccupancy(16)
	occ.Interval(100, 10, 1, 1)
	rep := b.Report([]*Occupancy{occ})

	j1, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadAttribReport(j1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("round trip changed bytes:\n%s\n---\n%s", j1, j2)
	}

	text := rep.Text()
	for _, want := range []string{"ResNet-50", "QoS-H", "queue-wait", "compute",
		"dominant causes", "shed-chip", "chip0", "fleet"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Text() missing %q:\n%s", want, text)
		}
	}
}

// Alloc pins (ISSUE 8 satellite): disabled probes and warm stamping must
// never touch the allocator — the ledger sits on the engine's per-event
// path.

func TestNilAttribProbesZeroAllocs(t *testing.T) {
	var l *Ledger
	var o *Occupancy
	var dur [NumPhases]float64
	allocs := testing.AllocsPerRun(1000, func() {
		l.Mark(0, 1, PhaseQueueWait)
		l.Mark(0, 2, PhaseCompute)
		l.Close(0, 3, CauseDone)
		_ = l.Durations(0, &dur)
		o.Interval(10, 1, 0, 0)
		o.NoteDecision(true, 1, 1)
	})
	if allocs != 0 {
		t.Fatalf("nil attribution probes: %.1f allocs/op, want 0", allocs)
	}
}

func TestWarmLedgerStampingZeroAllocs(t *testing.T) {
	l := NewLedger(8)
	// Warm the mark arena past what one iteration appends, then Reset:
	// steady-state stamping must reuse the capacity.
	for i := 0; i < 8; i++ {
		l.Mark(i, 0, PhaseQueueWait)
		l.Mark(i, 1, PhaseCompute)
		l.Close(i, 2, CauseDone)
	}
	occ := NewOccupancy(16)
	allocs := testing.AllocsPerRun(1000, func() {
		l.Reset(8)
		for i := 0; i < 8; i++ {
			l.Mark(i, 0, PhaseQueueWait)
			l.Mark(i, 1, PhaseCompute)
			l.Close(i, 2, CauseDone)
		}
		occ.Interval(10, 4, 1, 1)
		occ.NoteDecision(true, 4, 16)
	})
	if allocs != 0 {
		t.Fatalf("warm ledger stamping: %.1f allocs/op, want 0", allocs)
	}
}

// TestLedgerReopen covers the drain-migration resume path: a record
// closed as dispatched reopens in drain-migrate at its close instant, so
// the [close, re-close] gap is an attributable span and big-float
// telescoping still holds over the full chain.
func TestLedgerReopen(t *testing.T) {
	l := NewLedger(2)
	l.Mark(0, 1.0, PhaseAdmitWait)
	l.Mark(0, 1.5, PhaseBatchWait)
	l.Close(0, 2.0, CauseDispatched)
	l.Reopen(0, PhaseDrainMigrate)
	if l.Closed(0) || l.Cause(0) != CauseOpen {
		t.Fatal("Reopen left the record closed")
	}
	l.Close(0, 3.25, CauseShedDrain)
	var dur [NumPhases]float64
	if !l.Durations(0, &dur) {
		t.Fatal("reclosed record has no durations")
	}
	if dur[PhaseAdmitWait] != 0.5 || dur[PhaseBatchWait] != 0.5 || dur[PhaseDrainMigrate] != 1.25 {
		t.Fatalf("durations after Reopen = %v", dur)
	}
	spans := l.Spans(0, nil)
	for i := 1; i < len(spans); i++ {
		if spans[i].From != spans[i-1].To {
			t.Fatalf("span %d not contiguous after Reopen: %v", i, spans)
		}
	}
	// Reopen on a still-open record is a no-op; on an out-of-range
	// position or nil ledger it must not panic.
	l.Mark(1, 0, PhaseCompute)
	l.Reopen(1, PhaseDrainMigrate)
	l.Close(1, 1, CauseDone)
	if spans := l.Spans(1, nil); len(spans) != 1 || spans[0].Phase != PhaseCompute {
		t.Fatalf("Reopen of an open record changed its phases: %v", spans)
	}
	l.Reopen(-1, PhaseDrainMigrate)
	l.Reopen(99, PhaseDrainMigrate)
	var nilLed *Ledger
	nilLed.Reopen(0, PhaseDrainMigrate)
}
