// Package model is the analytical performance and data-movement model for
// layers executing on a (possibly fissioned) Planaria logical accelerator.
// It converts a dnn.Layer plus a fission shape into cycle counts, tile
// counts (the scheduling quantum), utilization, DRAM traffic, and an
// energy account.
//
// The model follows weight-stationary systolic execution: a cluster of
// R×C PEs holds a Kt×Nt weight tile (Kt ≤ R, Nt ≤ C); activation rows
// stream through; one output row drains per cycle after a Kt+Nt pipeline
// fill. Its single-tile cycle count (M + Kt + Nt − 1) is exact — the
// functional simulator in internal/systolic reproduces it cycle for cycle,
// and the cross-validation tests in this package assert that equality.
package model

import (
	"fmt"
	"math"
	"runtime"

	"planaria/internal/arch"
	"planaria/internal/dnn"
	"planaria/internal/energy"
	"planaria/internal/par"
)

// Result describes a layer (or whole network) executed on a given shape.
type Result struct {
	// Shape is the fission configuration used.
	Shape arch.Shape
	// SplitM reports whether clusters partitioned the GEMM's M dimension
	// (true) or its N dimension / depthwise channels (false).
	SplitM bool
	// Cycles is the total execution time in clock cycles, including
	// sequential repetitions and the memory-bandwidth bound.
	Cycles int64
	// Tiles is the number of scheduling quanta (tile executions on the
	// critical path); preemption is only possible at tile boundaries.
	Tiles int64
	// Util is the MAC-array utilization in [0,1].
	Util float64
	// Acct is the energy account (leakage excluded; the simulator adds
	// occupancy leakage).
	Acct energy.Account
	// DRAMBytes is the off-chip traffic (also present in Acct).
	DRAMBytes int64
}

// CyclesPerTile returns the average tile duration, the scheduling quantum.
func (r Result) CyclesPerTile() int64 {
	if r.Tiles <= 0 {
		return r.Cycles
	}
	q := r.Cycles / r.Tiles
	if q < 1 {
		q = 1
	}
	return q
}

const (
	// psumBytes is the partial-sum width (int32).
	psumBytes = 4
	// actBytes is the activation/weight element width (int8).
	actBytes = 1
	// boundaryLatency is the extra pipeline latency per subarray boundary
	// a wavefront crosses (registered ring-bus segment).
	boundaryLatency = 2
	// tileOverheadCycles covers per-tile instruction fetch/dispatch.
	tileOverheadCycles = 4
)

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

// reloadFactor returns how many times the raw activations stream from
// DRAM: once if the per-cluster working set fits its buffer share,
// otherwise once per N-tile pass.
func reloadFactor(workingSet, actShare int64, ntiles int) int64 {
	if workingSet <= actShare || ntiles < 1 {
		return 1
	}
	return int64(ntiles)
}

// gemmOnCluster computes the cycle count and SRAM traffic of an M×K×N
// GEMM on a single R×C-PE cluster whose activation-buffer share is
// actShare bytes. It returns compute cycles (without the bandwidth
// bound), tile count, the activation-reload factor (how many times the
// activation working set streams, i.e. the N-tile count), and SRAM bytes.
func gemmOnCluster(m, k, n, r, c int, actShare int64) (cycles, tiles int64, reload int, sram int64) {
	if m <= 0 || k <= 0 || n <= 0 {
		return 0, 0, 1, 0
	}
	kt := ceilDiv(k, r) // K-tiles
	nt := ceilDiv(n, c) // N-tiles
	ktEff := min(k, r)
	ntEff := min(n, c)

	// M-chunking: a chunk of activation rows must fit the buffer share.
	mt := m
	if actShare > 0 {
		cap := int(actShare / int64(k*actBytes))
		if cap < 1 {
			cap = 1
		}
		if mt > cap {
			mt = cap
		}
	}
	mChunks := ceilDiv(m, mt)

	// Per (kt, nt) weight tile the cluster streams all m rows, split into
	// mChunks buffer-sized chunks, each paying one pipeline fill/drain
	// and per-tile dispatch overhead. Weight loads are double-buffered:
	// the next tile's weights (ktEff rows, one row per cycle) load while
	// the current tile streams, so a tile's period is the larger of its
	// streaming time and the load time; only the first load is exposed
	// (ktEff−1 cycles: the functional simulator's streamed load lands
	// every weight row at cycle K−1, cross-validated in
	// crossval_test.go).
	fill := ktEff + ntEff - 1
	tiles = int64(kt) * int64(nt) * int64(mChunks)
	fullChunks := m / mt
	restRows := m - fullChunks*mt
	perPass := int64(fullChunks) * max(int64(mt+fill+tileOverheadCycles), int64(ktEff))
	if restRows > 0 {
		perPass += max(int64(restRows+fill+tileOverheadCycles), int64(ktEff))
	}
	cycles = int64(kt)*int64(nt)*perPass + int64(ktEff-1)

	// SRAM traffic: im2col-expanded activations re-read per N-tile,
	// weights loaded into the array once per M-chunk, partial sums
	// revisit the output buffer once per extra K-tile (read+write,
	// 4-byte).
	wBytes := int64(k) * int64(n) * actBytes
	aBytes := int64(m) * int64(k) * actBytes
	oBytes := int64(m) * int64(n) * actBytes
	sram = aBytes*int64(nt) + wBytes*int64(mChunks) + oBytes
	if kt > 1 {
		sram += int64(kt-1) * int64(m) * int64(n) * psumBytes * 2
	}
	return cycles, tiles, nt, sram
}

// GEMMOnShape evaluates an (optionally multi-channel, repeated) GEMM on a
// fission shape under an allocation of alloc subarrays (which sets the
// buffer and DRAM-bandwidth shares). channels > 1 denotes independent
// per-channel GEMMs (depthwise convolution): different channels need
// different activation streams, so they parallelize only across clusters.
// The raw activation footprint is taken as m·k·channels bytes (im2col);
// use GEMMOnShapeRaw to supply the true input-tensor footprint for
// convolutions, whose im2col expansion happens on chip.
func GEMMOnShape(m, k, n, channels, repeat int, sh arch.Shape, cfg arch.Config, alloc int) Result {
	raw := int64(m) * int64(k) * int64(channels) * actBytes
	return GEMMOnShapeRaw(m, k, n, channels, repeat, raw, sh, cfg, alloc)
}

// GEMMOnShapeRaw is GEMMOnShape with an explicit raw activation footprint
// (the DRAM bytes one pass over the layer input costs).
func GEMMOnShapeRaw(m, k, n, channels, repeat int, rawAct int64, sh arch.Shape, cfg arch.Config, alloc int) Result {
	if repeat < 1 {
		repeat = 1
	}
	if channels < 1 {
		channels = 1
	}
	nSub := cfg.NumSubarrays()
	if alloc < sh.Subarrays() {
		alloc = sh.Subarrays()
	}
	if alloc > nSub {
		alloc = nSub
	}
	r := sh.PERows(cfg)
	c := sh.PECols(cfg)
	g := sh.Clusters

	actShare := cfg.ActBufBytes * int64(alloc) / int64(nSub) / int64(g)

	// Chip-total DRAM components: weights and outputs move exactly once;
	// activations move once if the per-cluster working set fits its
	// buffer share, else once per N-tile pass.
	wBytes := int64(k) * int64(n) * int64(channels) * actBytes
	oBytes := int64(m) * int64(n) * int64(channels) * actBytes

	// finalize applies chaining latency and the DRAM-bandwidth bound to a
	// candidate execution plan and returns its bound cycle count.
	chain := int64((sh.H-1)+(sh.W-1)) * boundaryLatency
	bw := cfg.BytesPerCycle() * float64(alloc) / float64(nSub)
	finalize := func(cy, ti, dr int64) int64 {
		cy += chain * ti
		memCycles := int64(math.Ceil(float64(dr) / bw))
		if memCycles > cy {
			cy = memCycles
		}
		return cy
	}

	var cycles, tiles, dram, sram int64
	splitM := false
	if channels > 1 {
		// Depthwise: ceil(channels/G) sequential per-channel GEMMs per
		// cluster; clusters run in parallel. The raw input is read once.
		seq := ceilDiv(channels, g)
		cy, ti, _, sr := gemmOnCluster(m, k, n, r, c, actShare)
		tiles = ti * int64(seq)
		sram = sr * int64(channels)
		dram = wBytes + oBytes + rawAct
		cycles = finalize(cy*int64(seq), tiles, dram)
	} else {
		// Dense GEMM: clusters partition N (weight split, activations
		// multicast) or M (activation split, weights multicast) —
		// whichever is faster after the bandwidth bound. K is never
		// split across clusters: that would need cross-cluster
		// partial-sum reduction, which the Fission Pod does not provide
		// (psums only chain within a cluster).
		nCy, nTi, nReload, nSr := gemmOnCluster(m, k, ceilDiv(n, g), r, c, actShare)
		mCy, mTi, mReload, mSr := gemmOnCluster(ceilDiv(m, g), k, n, r, c, actShare)
		nDram := wBytes + oBytes + rawAct*reloadFactor(int64(m)*int64(k), actShare, nReload)
		mDram := wBytes + oBytes + rawAct*reloadFactor(int64(ceilDiv(m, g))*int64(k), actShare, mReload)
		nTotal := finalize(nCy, nTi, nDram)
		mTotal := finalize(mCy, mTi, mDram)
		if mTotal < nTotal {
			splitM = true
			cycles, tiles, dram = mTotal, mTi, mDram
			sram = mSr * int64(g)
		} else {
			cycles, tiles, dram = nTotal, nTi, nDram
			sram = nSr * int64(g)
		}
	}

	macs := int64(m) * int64(k) * int64(n) * int64(channels)
	util := 0.0
	if cycles > 0 {
		avail := float64(cycles) * float64(sh.Subarrays()*cfg.SubRows*cfg.SubCols)
		util = float64(macs) / avail
		if util > 1 {
			util = 1
		}
	}

	// Ring-bus hop traffic: activation stream crosses (W−1) boundaries
	// within a chained cluster, partial sums (H−1); broadcasting shared
	// operands to G clusters costs (G−1) hops of the shared stream.
	var hops int64
	aStream := int64(m) * int64(k) * int64(channels) * actBytes
	oStream := int64(m) * int64(n) * int64(channels) * psumBytes
	hops += aStream * int64(sh.W-1)
	hops += oStream * int64(sh.H-1)
	if channels == 1 && g > 1 {
		if splitM {
			hops += int64(k) * int64(n) * actBytes * int64(g-1) // weight multicast
		} else {
			hops += aStream * int64(g-1) // activation multicast
		}
	}

	// Pipeline-register clocking: every PE of the occupied subarrays
	// clocks its activation and partial-sum registers each cycle whether
	// or not it holds useful data (≈3 effective bytes/PE/cycle). This is
	// what makes utilization an energy lever: a poorly utilized shape
	// burns the same per-cycle register power for more cycles.
	occupiedPEs := int64(sh.Subarrays()) * int64(cfg.SubRows) * int64(cfg.SubCols)
	acct := energy.Account{
		MACs:      macs,
		SRAMBytes: sram,
		RegBytes:  cycles * occupiedPEs * 3,
		DRAMBytes: dram,
		HopBytes:  hops,
		Cycles:    cycles,
	}
	rep := int64(repeat)
	return Result{
		Shape:     sh,
		SplitM:    splitM,
		Cycles:    cycles * rep,
		Tiles:     tiles * rep,
		Util:      util,
		Acct:      acct.Scale(rep),
		DRAMBytes: dram * rep,
	}
}

// VectorOnAlloc evaluates a vector-unit layer (pool, add, activation) on
// an allocation of alloc subarrays. The chip's SIMD unit is segmented per
// subarray (§III-A item 3), so lane count scales with the allocation.
func VectorOnAlloc(l *dnn.Layer, cfg arch.Config, alloc int) Result {
	nSub := cfg.NumSubarrays()
	if alloc < 1 {
		alloc = 1
	}
	if alloc > nSub {
		alloc = nSub
	}
	lanes := cfg.ArrayCols * alloc / nSub
	if lanes < 1 {
		lanes = 1
	}
	ops := l.VectorOps()
	cycles := (ops + int64(lanes) - 1) / int64(lanes)
	if cycles < 1 {
		cycles = 1
	}
	bytes := (l.InputElems() + l.OutputElems()) * actBytes
	acct := energy.Account{
		VectorOps: ops,
		SRAMBytes: bytes,
		Cycles:    cycles,
	}
	return Result{
		Shape:  arch.Shape{Clusters: alloc, H: 1, W: 1},
		Cycles: cycles,
		Tiles:  1,
		Acct:   acct,
	}
}

// LayerOnShape evaluates one layer on a specific fission shape.
func LayerOnShape(l *dnn.Layer, sh arch.Shape, cfg arch.Config, alloc int) Result {
	if !l.Kind.IsGEMM() {
		return VectorOnAlloc(l, cfg, alloc)
	}
	m, k, n := l.GEMM()
	res := GEMMOnShapeRaw(m, k, n, l.Channels(), max(l.Repeat, 1),
		l.InputElems()*actBytes, sh, cfg, alloc)
	// Every GEMM output passes once through the vector unit
	// (bias/activation/requantization); it is pipelined with the drain,
	// so it costs energy but no extra cycles.
	res.Acct.VectorOps += l.OutputElems() * int64(max(l.Repeat, 1))
	return res
}

// ShapeFilter restricts the shape search; nil admits every shape. Used
// by ablation studies (e.g. excluding omni-directional configurations).
type ShapeFilter func(arch.Shape) bool

// BestShape searches the fission shapes available to an allocation of s
// subarrays and returns the fastest (ties broken by energy). This is the
// compiler's per-layer configuration choice (Fig 11a).
func BestShape(l *dnn.Layer, cfg arch.Config, s int) Result {
	return BestShapeWith(l, cfg, s, nil)
}

// parallelShapeThreshold is the candidate count below which the shape
// search stays sequential: each LayerOnShape is a few hundred nanoseconds
// of pure arithmetic, so small searches don't amortize worker startup.
const parallelShapeThreshold = 24

// BestShapeWith is BestShape restricted to shapes accepted by the filter.
// If the filter rejects everything, the single-subarray shape is used.
// Large searches split the candidates into one contiguous chunk per
// worker; the chosen shape is identical to a sequential scan's (see
// searchShapes).
func BestShapeWith(l *dnn.Layer, cfg arch.Config, s int, filter ShapeFilter) Result {
	if !l.Kind.IsGEMM() {
		return VectorOnAlloc(l, cfg, s)
	}
	return bestGEMMShape(l, cfg, s, filter, arch.EnumerateShapes(cfg, s))
}

// bestGEMMShape is BestShapeWith for a GEMM layer, over the shapes
// arch.EnumerateShapes(cfg, s) returned. It only reads shapes, so one
// enumeration serves every layer searched at the same allocation.
func bestGEMMShape(l *dnn.Layer, cfg arch.Config, s int, filter ShapeFilter, shapes []arch.Shape) Result {
	if len(shapes) == 0 {
		shapes = []arch.Shape{arch.MonolithicShape(cfg)}
	}
	workers := 1
	if len(shapes) >= parallelShapeThreshold {
		workers = runtime.GOMAXPROCS(0)
	}
	best, ok := searchShapes(shapes, workers, func(sh arch.Shape) (Result, bool) {
		if filter != nil && !filter(sh) {
			return Result{}, false
		}
		return LayerOnShape(l, sh, cfg, s), true
	}, faster)
	if !ok {
		return LayerOnShape(l, arch.Shape{Clusters: 1, H: 1, W: 1}, cfg, s)
	}
	return best
}

// faster is the shape search's order: fewer cycles, then less energy.
func faster(r, best Result) bool {
	p := energy.Default()
	return r.Cycles < best.Cycles ||
		(r.Cycles == best.Cycles && r.Acct.Joules(p) < best.Acct.Joules(p))
}

// searchShapes returns the best result of eval over shapes under better,
// and false when eval accepts no shape. Up to workers workers each scan
// one contiguous chunk of shapes in order and keep the chunk's earliest
// best; the chunk bests then reduce in chunk order with the same better.
// Ties therefore go to the earliest shape, exactly as in one sequential
// scan, and a worker holds one running best instead of a result per
// shape.
func searchShapes(shapes []arch.Shape, workers int, eval func(arch.Shape) (Result, bool),
	better func(r, best Result) bool) (Result, bool) {
	workers = min(workers, len(shapes))
	if workers <= 1 {
		return scanShapes(shapes, eval, better)
	}
	type chunkBest struct {
		r     Result
		found bool
	}
	bests := make([]chunkBest, workers)
	par.ForEachN(workers, workers, func(c int) {
		b := &bests[c]
		b.r, b.found = scanShapes(shapes[c*len(shapes)/workers:(c+1)*len(shapes)/workers], eval, better)
	})
	var best Result
	found := false
	for _, b := range bests {
		if b.found && (!found || better(b.r, best)) {
			best, found = b.r, true
		}
	}
	return best, found
}

// scanShapes is one sequential scan of searchShapes: the earliest best of
// eval over shapes under better.
func scanShapes(shapes []arch.Shape, eval func(arch.Shape) (Result, bool),
	better func(r, best Result) bool) (best Result, found bool) {
	for _, sh := range shapes {
		if r, ok := eval(sh); ok && (!found || better(r, best)) {
			best, found = r, true
		}
	}
	return best, found
}

// NetworkOnAlloc evaluates a whole network with s subarrays, choosing the
// best shape per layer (fissionable = true) or forcing the monolithic
// shape for every layer (the conventional/PREMA execution model).
func NetworkOnAlloc(n *dnn.Network, cfg arch.Config, s int, fissionable bool) (Result, error) {
	return NetworkOnAllocWith(n, cfg, s, fissionable, nil)
}

// NetworkOnAllocWith is NetworkOnAlloc with a shape filter applied to
// every layer's search (fissionable = true only).
func NetworkOnAllocWith(n *dnn.Network, cfg arch.Config, s int, fissionable bool, filter ShapeFilter) (Result, error) {
	if err := n.Validate(); err != nil {
		return Result{}, err
	}
	var total Result
	total.Shape = arch.Shape{Clusters: 1, H: 1, W: 1}
	mono := arch.MonolithicShape(cfg)
	var shapes []arch.Shape
	if fissionable {
		shapes = arch.EnumerateShapes(cfg, s)
	}
	for i := range n.Layers {
		l := &n.Layers[i]
		var r Result
		if fissionable && l.Kind.IsGEMM() {
			r = bestGEMMShape(l, cfg, s, filter, shapes)
		} else if l.Kind.IsGEMM() {
			r = LayerOnShape(l, mono, cfg, s)
		} else {
			r = VectorOnAlloc(l, cfg, s)
		}
		total.Cycles += r.Cycles
		total.Tiles += r.Tiles
		total.DRAMBytes += r.DRAMBytes
		total.Acct.Add(r.Acct)
	}
	if total.Tiles < 1 {
		return Result{}, fmt.Errorf("model: network %s produced no tiles", n.Name)
	}
	return total, nil
}
