// Package compiler implements the offline Planaria compiler (§IV-C,
// Fig 11a): for each DNN and each possible subarray allocation (1..16) it
// selects the optimal fission configuration and tiling per layer and
// produces (a) a configuration table — per layer: shape, tile count,
// cycles per tile, energy — that the runtime scheduler uses to predict
// remaining time, and (b) a macro-instruction binary.
package compiler

import (
	"fmt"
	"sync"

	"planaria/internal/arch"
	"planaria/internal/dnn"
	"planaria/internal/energy"
	"planaria/internal/isa"
	"planaria/internal/model"
	"planaria/internal/par"
)

// LayerPlan is one configuration-table row.
type LayerPlan struct {
	LayerIdx      int
	Shape         arch.Shape
	SplitM        bool
	Tiles         int64
	CyclesPerTile int64
	Cycles        int64
	Util          float64
	Acct          energy.Account
}

// Table is the configuration table for one (network, allocation) pair.
type Table struct {
	Net       string
	Subarrays int
	Layers    []LayerPlan
	// TotalCycles/TotalTiles aggregate the whole inference.
	TotalCycles int64
	TotalTiles  int64
	// CumCycles[i] is the cycle count of layers [0, i); CumCycles has
	// len(Layers)+1 entries, so CumCycles[len] == TotalCycles. The
	// scheduler's PREDICTTIME is a lookup into this prefix sum.
	CumCycles []int64
	// MinCycles is the fewest cycles of any layer. A table built by hand
	// may leave it 0, which claims nothing: the simulator then steps
	// through the table one layer at a time.
	MinCycles int64
	Acct      energy.Account
}

// Compile builds the configuration table for net on cfg with s subarrays.
// fissionable = false forces the monolithic shape for every layer (the
// conventional/PREMA execution model).
func Compile(net *dnn.Network, cfg arch.Config, s int, fissionable bool) (*Table, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if s < 1 || s > cfg.NumSubarrays() {
		return nil, fmt.Errorf("compiler: allocation %d outside [1,%d]", s, cfg.NumSubarrays())
	}
	t := &Table{Net: net.Name, Subarrays: s, Layers: make([]LayerPlan, 0, len(net.Layers))}
	t.CumCycles = make([]int64, 0, len(net.Layers)+1)
	t.CumCycles = append(t.CumCycles, 0)
	mono := arch.MonolithicShape(cfg)
	for i := range net.Layers {
		l := &net.Layers[i]
		var r model.Result
		if fissionable || !l.Kind.IsGEMM() {
			r = model.BestShape(l, cfg, s)
		} else {
			r = model.LayerOnShape(l, mono, cfg, s)
		}
		plan := LayerPlan{
			LayerIdx:      i,
			Shape:         r.Shape,
			SplitM:        r.SplitM,
			Tiles:         r.Tiles,
			CyclesPerTile: r.CyclesPerTile(),
			Cycles:        r.Cycles,
			Util:          r.Util,
			Acct:          r.Acct,
		}
		t.Layers = append(t.Layers, plan)
		if i == 0 || r.Cycles < t.MinCycles {
			t.MinCycles = r.Cycles
		}
		t.TotalCycles += r.Cycles
		t.TotalTiles += r.Tiles
		t.Acct.Add(r.Acct)
		t.CumCycles = append(t.CumCycles, t.TotalCycles)
	}
	if t.TotalCycles <= 0 || t.TotalTiles <= 0 {
		return nil, fmt.Errorf("compiler: degenerate table for %s/s=%d", net.Name, s)
	}
	return t, nil
}

// RemainingCycles returns the cycles left from a progress point: layer
// index and tiles already completed within that layer.
func (t *Table) RemainingCycles(layer int, tilesDone int64) int64 {
	if layer >= len(t.Layers) {
		return 0
	}
	if layer < 0 {
		layer = 0
	}
	rem := t.TotalCycles - t.CumCycles[layer]
	lp := &t.Layers[layer]
	if tilesDone > 0 && lp.Tiles > 0 {
		if tilesDone > lp.Tiles {
			tilesDone = lp.Tiles
		}
		rem -= lp.Cycles * tilesDone / lp.Tiles
	}
	if rem < 0 {
		rem = 0
	}
	return rem
}

// LayersWithin returns the largest k in [layer, len(Layers)] such that
// layers [layer, k) take at most budget cycles in all, by CumCycles. It
// expects 0 ≤ layer ≤ len(Layers), budget ≥ 0 and no layer with
// negative cycles.
func (t *Table) LayersWithin(layer int, budget int64) int {
	base := t.CumCycles[layer]
	n := len(t.Layers)
	if t.CumCycles[n]-base <= budget {
		return n
	}
	if t.CumCycles[layer+1]-base > budget {
		return layer
	}
	// CumCycles[lo]-base ≤ budget < CumCycles[hi]-base throughout.
	lo, hi := layer+1, n
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if t.CumCycles[mid]-base <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Program bundles the 16 per-allocation tables for one network on one
// hardware configuration — the artifact INFaaS deploys per model.
type Program struct {
	Net    *dnn.Network
	Cfg    arch.Config
	tables []*Table // index 0 = allocation 1

	// joules memoizes LayerJoules per parameter set. Programs are shared
	// by concurrent simulations, so mu guards it.
	mu     sync.Mutex
	joules []paramJoules
}

// paramJoules is one LayerJoules result and the parameters it holds for.
type paramJoules struct {
	params     energy.Params
	rows, sums [][]float64
}

// maxJoulesMemo bounds a program's LayerJoules memo: past this many
// parameter sets, further sets get fresh rows that are not kept.
const maxJoulesMemo = 8

// CompileProgram compiles all allocations 1..NumSubarrays. The
// allocations are independent, so they compile across a bounded worker
// pool; tables land at their allocation index and errors surface in
// allocation order, so the result is identical to a sequential build.
func CompileProgram(net *dnn.Network, cfg arch.Config, fissionable bool) (*Program, error) {
	n := cfg.NumSubarrays()
	p := &Program{Net: net, Cfg: cfg, tables: make([]*Table, n)}
	errs := make([]error, n)
	par.ForEach(n, func(i int) {
		t, err := Compile(net, cfg, i+1, fissionable)
		if err != nil {
			errs[i] = fmt.Errorf("compiler: %s s=%d: %w", net.Name, i+1, err)
			return
		}
		p.tables[i] = t
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	return p, nil
}

// Table returns the configuration table for an allocation of s subarrays,
// clamped to the valid range.
func (p *Program) Table(s int) *Table {
	if s < 1 {
		s = 1
	}
	if s > len(p.tables) {
		s = len(p.tables)
	}
	return p.tables[s-1]
}

// LayerJoules returns every layer's energy under params at every
// allocation, and its running sums: rows[s-1][l] is
// Table(s).Layers[l].Acct.Joules(params), bit for bit, and sums[s-1][l]
// is rows[s-1][0] + … + rows[s-1][l-1], accumulated from 0 in layer
// order, so sums[s-1][l+1] == sums[s-1][l] + rows[s-1][l] bit for bit. A
// sums row has one entry more than its table has layers, like CumCycles.
// Both are computed once per parameter set and shared by all callers,
// which must not modify them.
//
//perf:cold one-time energy fill: once per program and parameter set, bound before a run's event loop
func (p *Program) LayerJoules(params energy.Params) (rows, sums [][]float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.joules {
		if e.params == params {
			return e.rows, e.sums
		}
	}
	rows = make([][]float64, len(p.tables))
	sums = make([][]float64, len(p.tables))
	for i, tab := range p.tables {
		rows[i] = make([]float64, len(tab.Layers))
		sums[i] = make([]float64, len(tab.Layers)+1)
		for l := range tab.Layers {
			rows[i][l] = tab.Layers[l].Acct.Joules(params)
			sums[i][l+1] = sums[i][l] + rows[i][l]
		}
	}
	if len(p.joules) < maxJoulesMemo {
		p.joules = append(p.joules, paramJoules{params, rows, sums})
	}
	return rows, sums
}

// MaxAlloc returns the largest allocation the program was compiled for.
func (p *Program) MaxAlloc() int { return len(p.tables) }

// Binary lowers a configuration table to the macro-instruction stream the
// per-subarray sequencers execute. Per layer: CONFIG, then per tile
// LDW/LDA/MATMUL/STORE (vector layers emit VECTOR), with a SYNC at each
// layer end and a final HALT. Tile loops longer than emitLimit are
// emitted as a single hardware-looped MATMUL with the repeat count in B,
// matching how real sequencers avoid unrolling.
func (t *Table) Binary(net *dnn.Network, emitLimit int) (*isa.Binary, error) {
	if net.Name != t.Net {
		return nil, fmt.Errorf("compiler: table for %q, network %q", t.Net, net.Name)
	}
	if emitLimit < 1 {
		emitLimit = 1
	}
	b := &isa.Binary{Net: t.Net, Subarrays: t.Subarrays}
	for _, lp := range t.Layers {
		l := &net.Layers[lp.LayerIdx]
		layer := uint16(lp.LayerIdx)
		b.Instrs = append(b.Instrs, isa.Instruction{
			Op: isa.OpConfig, Layer: layer,
			A: uint32(lp.Shape.Clusters), B: uint32(lp.Shape.H), C: uint32(lp.Shape.W),
		})
		if l.Kind.IsGEMM() {
			m, _, _ := l.GEMM()
			tiles := lp.Tiles
			if tiles <= int64(emitLimit) {
				for ti := int64(0); ti < tiles; ti++ {
					b.Instrs = append(b.Instrs,
						isa.Instruction{Op: isa.OpLoadWeights, Layer: layer, A: uint32(ti)},
						isa.Instruction{Op: isa.OpLoadActs, Layer: layer, A: uint32(ti), B: uint32(m)},
						isa.Instruction{Op: isa.OpMatMul, Layer: layer, A: uint32(m), B: 1},
						isa.Instruction{Op: isa.OpStore, Layer: layer, A: uint32(ti)},
					)
				}
			} else {
				b.Instrs = append(b.Instrs,
					isa.Instruction{Op: isa.OpLoadWeights, Layer: layer},
					isa.Instruction{Op: isa.OpLoadActs, Layer: layer, B: uint32(m)},
					isa.Instruction{Op: isa.OpMatMul, Layer: layer, A: uint32(m), B: uint32(tiles)},
					isa.Instruction{Op: isa.OpStore, Layer: layer},
				)
			}
		} else {
			ops := l.VectorOps()
			b.Instrs = append(b.Instrs, isa.Instruction{
				Op: isa.OpVector, Layer: layer,
				A: uint32(ops & 0xFFFFFFFF), B: uint32(ops >> 32),
			})
		}
		b.Instrs = append(b.Instrs, isa.Instruction{Op: isa.OpSync, Layer: layer})
	}
	last := uint16(0)
	if n := len(t.Layers); n > 0 {
		last = uint16(t.Layers[n-1].LayerIdx)
	}
	b.Instrs = append(b.Instrs, isa.Instruction{Op: isa.OpHalt, Layer: last})
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: generated invalid binary: %w", err)
	}
	return b, nil
}

// Cache memoizes compiled programs — INFaaS compiles each model once and
// serves unbounded requests from the precompiled artifact (§IV-C).
// Concurrent misses for the same key are deduplicated singleflight-style:
// the first caller compiles while the rest block on its result, so a
// program compiles exactly once no matter how many goroutines race.
type Cache struct {
	mu     sync.Mutex
	prog   map[string]*Program
	flight map[string]*flightCall
	// compile is CompileProgram, overridable by tests to observe how many
	// compilations actually run.
	compile func(*dnn.Network, arch.Config, bool) (*Program, error)
}

// flightCall tracks one in-progress compilation; done closes when p/err
// are set.
type flightCall struct {
	done chan struct{}
	p    *Program
	err  error
}

// NewCache returns an empty program cache.
func NewCache() *Cache {
	return &Cache{
		prog:    make(map[string]*Program),
		flight:  make(map[string]*flightCall),
		compile: CompileProgram,
	}
}

func cacheKey(name string, cfg arch.Config, fissionable bool) string {
	return fmt.Sprintf("%s|%dx%d|%dx%d|%v", name, cfg.ArrayRows, cfg.ArrayCols, cfg.SubRows, cfg.SubCols, fissionable)
}

// Program returns (compiling on first use) the program for a network.
// Failed compilations are not cached: once the in-flight call's waiters
// have drained, a later call retries.
func (c *Cache) Program(net *dnn.Network, cfg arch.Config, fissionable bool) (*Program, error) {
	key := cacheKey(net.Name, cfg, fissionable)
	c.mu.Lock()
	if p, ok := c.prog[key]; ok {
		c.mu.Unlock()
		return p, nil
	}
	if f, ok := c.flight[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.p, f.err
	}
	f := &flightCall{done: make(chan struct{})}
	c.flight[key] = f
	c.mu.Unlock()

	f.p, f.err = c.compile(net, cfg, fissionable)

	c.mu.Lock()
	if f.err == nil {
		c.prog[key] = f.p
	}
	delete(c.flight, key)
	c.mu.Unlock()
	close(f.done)
	return f.p, f.err
}

// DefaultCache is the process-wide program cache used by the experiment
// harnesses.
var DefaultCache = NewCache()
