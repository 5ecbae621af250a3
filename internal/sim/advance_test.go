package sim

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
)

// advanceRef is Task.advance stepping one layer at a time, with no
// whole-layer steps: the reference FuzzAdvance compares against.
func advanceRef(t *Task, dtCycles int64) int64 {
	if t.Alloc <= 0 || dtCycles <= 0 {
		return 0
	}
	consumed := int64(0)
	if t.PenaltyCycles > 0 {
		pay := min(t.PenaltyCycles, dtCycles)
		t.PenaltyCycles -= pay
		consumed += pay
	}
	tab := t.Prog.Table(t.Alloc)
	joules := t.bind.joules[tab.Subarrays-1]
	scale := t.workScale()
	layers := len(t.Prog.Table(1).Layers)
	layer, frac, energyJ := t.Layer, t.Frac, t.EnergyJ
	for consumed < dtCycles && layer < layers {
		lp := &tab.Layers[layer]
		layerCycles := float64(lp.Cycles)
		layerJoules := joules[layer]
		if scale != 1 {
			layerCycles *= scale
			layerJoules *= scale
		}
		remFrac := 1 - frac
		remCycles := int64(remFrac * layerCycles)
		if remCycles <= 0 {
			remCycles = 1
		}
		budget := dtCycles - consumed
		if budget >= remCycles {
			consumed += remCycles
			energyJ += remFrac * layerJoules
			layer++
			frac = 0
		} else {
			df := float64(budget) / layerCycles
			frac += df
			if frac > 1 {
				frac = 1
			}
			energyJ += df * layerJoules
			consumed += budget
		}
	}
	t.Layer, t.Frac, t.EnergyJ = layer, frac, energyJ
	return consumed
}

// advancePrograms compiles, once, the two programs FuzzAdvance steps
// through: a 13-layer network, and a second compile of it whose
// 4-subarray table has a zero-cycle layer, as a hand-built table may.
var advancePrograms = sync.OnceValues(func() ([2]*compiler.Program, error) {
	var progs [2]*compiler.Program
	b := dnn.NewBuilder("advance-toy", "classification", 16, 16, 8)
	for i := 0; i < 4; i++ {
		b.Conv("c", 16, 3, 1)
		b.Activation("a")
		b.DWConv("dw", 3, 1)
	}
	b.FC("fc", 10)
	net, err := b.Build()
	if err != nil {
		return progs, err
	}
	for i := range progs {
		if progs[i], err = compiler.CompileProgram(net, arch.Planaria(), true); err != nil {
			return progs, err
		}
	}
	tab := progs[1].Table(4)
	tab.Layers[5].Cycles = 0
	tab.MinCycles = 0
	for l, lp := range tab.Layers {
		tab.CumCycles[l+1] = tab.CumCycles[l] + lp.Cycles
	}
	tab.TotalCycles = tab.CumCycles[len(tab.Layers)]
	return progs, nil
})

// FuzzAdvance differentially checks Task.advance's whole-layer steps
// against advanceRef: from a fuzz-chosen allocation, layer, layer
// fraction, energy (on the binding's running sum or off it), work scale,
// penalty and table (one of them with a zero-cycle layer), a sequence of
// fuzz-chosen budgets must leave the layer, fraction, energy and penalty
// equal bit for bit, and consume the same cycles at every step.
func FuzzAdvance(f *testing.F) {
	f.Add(uint8(16), uint8(0), uint16(0), uint8(0), uint8(0), uint16(0), []byte{0, 0, 0, 40})
	f.Add(uint8(4), uint8(3), uint16(0), uint8(1), uint8(0), uint16(500), []byte{0, 1, 0, 0, 0, 0, 255, 255})
	f.Add(uint8(3), uint8(0), uint16(0), uint8(0x80), uint8(0), uint16(0), []byte{0, 0, 8, 0, 0, 16, 0, 0})
	f.Add(uint8(7), uint8(2), uint16(30000), uint8(2), uint8(24), uint16(9), []byte{0, 0, 1, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, alloc, layer uint8, frac16 uint16, mode, work uint8, penalty uint16, budgets []byte) {
		progs, err := advancePrograms()
		if err != nil {
			t.Fatal(err)
		}
		prog := progs[mode>>7]
		task := Task{Prog: prog, bind: testBinding(prog), Alloc: 1 + int(alloc)%prog.MaxAlloc()}
		layers := len(prog.Table(1).Layers)
		task.Layer = int(layer) % (layers + 1)
		if frac16%3 != 0 {
			task.Frac = float64(frac16) / 65536
		}
		// Energy on the running sum of the task's own allocation, of
		// another allocation, or off every sum.
		switch sums := task.bind.sums; mode % 4 {
		case 0:
			task.EnergyJ = sums[task.Alloc-1][task.Layer]
		case 1:
			task.EnergyJ = sums[task.Alloc%prog.MaxAlloc()][task.Layer]
		case 2:
			task.EnergyJ = sums[task.Alloc-1][task.Layer] + 1e-9
		}
		if work%4 == 1 {
			task.Req.Work = 1
		} else if work%4 == 2 {
			task.Req.Work = 1 + float64(work)/16
		}
		task.PenaltyCycles = int64(penalty)
		total := prog.Table(task.Alloc).TotalCycles
		ref := task
		for len(budgets) >= 4 {
			// A budget from a fraction of the table to past its end, or
			// none at all.
			dt := int64(binary.BigEndian.Uint32(budgets)) % (2*total + 2)
			budgets = budgets[4:]
			got, want := task.advance(dt), advanceRef(&ref, dt)
			if got != want || task.Layer != ref.Layer || task.PenaltyCycles != ref.PenaltyCycles ||
				math.Float64bits(task.Frac) != math.Float64bits(ref.Frac) ||
				math.Float64bits(task.EnergyJ) != math.Float64bits(ref.EnergyJ) {
				t.Fatalf("advance(%d) = %d to layer %d frac %v energy %v penalty %d; reference %d to layer %d frac %v energy %v penalty %d",
					dt, got, task.Layer, task.Frac, task.EnergyJ, task.PenaltyCycles,
					want, ref.Layer, ref.Frac, ref.EnergyJ, ref.PenaltyCycles)
			}
		}
	})
}
