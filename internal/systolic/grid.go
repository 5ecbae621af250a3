// Package systolic is a functional, cycle-level simulator of the
// (omni-directional) systolic PE grid. It moves real int8 activation and
// int32 partial-sum tokens through PEs one clock cycle at a time — no
// closed-form shortcuts — and therefore serves as the ground truth the
// analytical model in internal/model is cross-validated against, playing
// the role the paper's Verilog implementation played for its simulator.
//
// The engine computes in *flow coordinates*: partial sums advance in the
// +row direction and activations in the +column direction. The
// omni-directional feature — which physical edge is "first" — is a
// routing concern handled by the mux network. Here the physically
// routed cluster appears as a straight logical array with pipeline
// boundary registers between subarrays.
//
// Engine internals: token timing uses a calendar queue — a ring of
// per-cycle buckets whose backing slices are reused once the ring wraps —
// and per-PE state uses dense arrays indexed by (row, col) per cluster,
// so the steady-state cycle loop performs no map operations and
// amortizes to zero allocations. Every in-flight delay is bounded by
// 1 + BoundaryDelay, so a ring sized past the latest pre-Run injection
// can never alias two distinct pending cycles to one bucket.
package systolic

import "fmt"

// BoundaryDelay is the extra pipeline latency a token pays when crossing
// a subarray boundary (the registered ring-bus segment). It must match
// the analytical model's assumption; internal/model cross-validates this.
const BoundaryDelay = 2

// ClusterSpec places one logical systolic cluster on the grid.
type ClusterSpec struct {
	// BandRow, BandCol locate the cluster's top-left subarray band.
	BandRow, BandCol int
	// H, W are the cluster extent in subarray bands.
	H, W int
}

// tokenKind discriminates deliveries.
type tokenKind uint8

const (
	actToken tokenKind = iota
	psumToken
	weightToken
)

// delivery is one token arriving at a PE (or collector) at a given cycle.
// Fields are 32-bit to halve the calendar queue's memory traffic; every
// grid coordinate and activation-row index fits comfortably.
type delivery struct {
	cycle   int64
	v       int32
	cluster int32
	row     int32 // cluster-local row; row == K means the output collector
	col     int32 // cluster-local col
	m       int32 // activation-row index the token belongs to
	kind    tokenKind
}

// peCell is the dense per-PE pairing state for one cycle: the activation
// and partial-sum tokens currently present. An m index of −1 means empty.
type peCell struct {
	actV  int32
	actM  int32
	psumV int32
	psumM int32
}

type cluster struct {
	spec    ClusterSpec
	m, k, n int
	// w holds the k×n weights row-major; loaded marks each weight as
	// present in its PE. When the cluster uses streamed loading, weights
	// arrive as tokens shifting down the columns (bottom row first, so
	// every row lands at cycle K−1 plus its band-boundary delays); with
	// preloading every entry starts true.
	w      []int8
	loaded []bool
	// cells is the k×n dense pairing state; touched lists the cell
	// indices that received a token this cycle (reset each cycle, backing
	// array reused).
	cells   []peCell
	touched []int32
	out     [][]int32
	outSeen [][]bool
	pending int
	lastOut int64
}

// Grid is a functional multi-cluster systolic array simulator.
type Grid struct {
	subR, subC     int
	bandsR, bandsC int
	owner          [][]int // band ownership, -1 = free
	// faulty marks subarray bands masked out by injected faults; deadPE
	// counts the dead PEs behind each band's mask. AddCluster refuses to
	// place a cluster over a faulty band — the fission granularity is
	// the subarray, so one dead PE retires its whole band while the
	// surviving bands keep computing bit-exact results.
	faulty   [][]bool
	deadPE   [][]int
	clusters []*cluster
	// staged holds pre-Run injections (activations and streamed weights);
	// Run counting-sorts them into the read-only initial schedule.
	staged   []delivery
	maxStage int64
	// initial[c] is the slice of pre-Run injections arriving at cycle c,
	// views into one contiguous arena. In-flight tokens generated during
	// simulation live in the small calendar ring instead: every runtime
	// delay is ≤ 1+BoundaryDelay, so a handful of buckets (reused as the
	// ring wraps) covers all of them and their backing slices stabilize
	// after the first few cycles.
	initial [][]delivery
	buckets [][]delivery // calendar ring: cycle c lives at buckets[c&mask]
	mask    int64
	cycle   int64
	ran     bool
}

// New creates a grid of bandsR×bandsC subarrays, each subR×subC PEs.
func New(subR, subC, bandsR, bandsC int) (*Grid, error) {
	if subR <= 0 || subC <= 0 || bandsR <= 0 || bandsC <= 0 {
		return nil, fmt.Errorf("systolic: non-positive grid dims %d %d %d %d", subR, subC, bandsR, bandsC)
	}
	owner := make([][]int, bandsR)
	faulty := make([][]bool, bandsR)
	deadPE := make([][]int, bandsR)
	for i := range owner {
		owner[i] = make([]int, bandsC)
		faulty[i] = make([]bool, bandsC)
		deadPE[i] = make([]int, bandsC)
		for j := range owner[i] {
			owner[i][j] = -1
		}
	}
	return &Grid{
		subR: subR, subC: subC,
		bandsR: bandsR, bandsC: bandsC,
		owner: owner, faulty: faulty, deadPE: deadPE,
	}, nil
}

// InjectSubarrayFault masks the subarray band (bandRow, bandCol) out of
// the placement pool: subsequent AddCluster calls refuse to claim it.
// Bands already owned by a cluster cannot be masked — the serving layer
// kills and re-enqueues the affected task instead (internal/sim), and a
// fresh grid is fissioned over the survivors.
func (g *Grid) InjectSubarrayFault(bandRow, bandCol int) error {
	if bandRow < 0 || bandRow >= g.bandsR || bandCol < 0 || bandCol >= g.bandsC {
		return fmt.Errorf("systolic: fault target band (%d,%d) outside %dx%d grid",
			bandRow, bandCol, g.bandsR, g.bandsC)
	}
	if g.owner[bandRow][bandCol] != -1 {
		return fmt.Errorf("systolic: band (%d,%d) is owned by cluster %d; kill the task before masking",
			bandRow, bandCol, g.owner[bandRow][bandCol])
	}
	g.faulty[bandRow][bandCol] = true
	return nil
}

// InjectPEFault marks the PE at grid-global coordinates (peRow, peCol)
// dead. The fission granularity is the subarray, so the PE's whole band
// is masked out of the placement pool (a dead PE breaks its column's
// systolic wavefront; there is no per-PE bypass in the architecture).
func (g *Grid) InjectPEFault(peRow, peCol int) error {
	if peRow < 0 || peRow >= g.bandsR*g.subR || peCol < 0 || peCol >= g.bandsC*g.subC {
		return fmt.Errorf("systolic: fault target PE (%d,%d) outside %dx%d grid",
			peRow, peCol, g.bandsR*g.subR, g.bandsC*g.subC)
	}
	if err := g.InjectSubarrayFault(peRow/g.subR, peCol/g.subC); err != nil {
		return err
	}
	g.deadPE[peRow/g.subR][peCol/g.subC]++
	return nil
}

// BandUsable reports whether a band is free of injected faults.
func (g *Grid) BandUsable(bandRow, bandCol int) bool {
	return !g.faulty[bandRow][bandCol]
}

// FaultyBands returns the masked bands as (row, col) pairs in row-major
// order.
func (g *Grid) FaultyBands() [][2]int {
	var out [][2]int
	for r := 0; r < g.bandsR; r++ {
		for c := 0; c < g.bandsC; c++ {
			if g.faulty[r][c] {
				out = append(out, [2]int{r, c})
			}
		}
	}
	return out
}

// HealthMask flattens the band fault state row-major into a usable-mask
// slice, the shape arch.HealthMask consumes.
func (g *Grid) HealthMask() []bool {
	u := make([]bool, 0, g.bandsR*g.bandsC)
	for r := 0; r < g.bandsR; r++ {
		for c := 0; c < g.bandsC; c++ {
			u = append(u, !g.faulty[r][c])
		}
	}
	return u
}

// AddCluster claims the spec's subarray bands for a new logical cluster
// and schedules an M×K×N GEMM on it: weights (K×N) are preloaded, the
// activation matrix A (M×K) is injected with the systolic skew the
// compiler programs into the pod buffers. Returns the cluster id.
func (g *Grid) AddCluster(spec ClusterSpec, wts [][]int8, a [][]int8) (int, error) {
	return g.addCluster(spec, wts, a, false)
}

// AddClusterStreamLoad is AddCluster with the weight-load phase
// simulated: weight rows stream from the weight buffer one row per cycle
// (bottom row first) and shift down the columns, so the array is fully
// loaded at cycle K−1 (plus band-boundary registers); activations are
// skewed to start exactly then — the exposed first-tile load the
// analytical model charges.
func (g *Grid) AddClusterStreamLoad(spec ClusterSpec, wts [][]int8, a [][]int8) (int, error) {
	return g.addCluster(spec, wts, a, true)
}

func (g *Grid) addCluster(spec ClusterSpec, wts [][]int8, a [][]int8, streamLoad bool) (int, error) {
	if g.ran {
		return 0, fmt.Errorf("systolic: grid already ran")
	}
	if spec.H <= 0 || spec.W <= 0 ||
		spec.BandRow < 0 || spec.BandCol < 0 ||
		spec.BandRow+spec.H > g.bandsR || spec.BandCol+spec.W > g.bandsC {
		return 0, fmt.Errorf("systolic: cluster %+v out of grid %dx%d bands", spec, g.bandsR, g.bandsC)
	}
	for r := spec.BandRow; r < spec.BandRow+spec.H; r++ {
		for c := spec.BandCol; c < spec.BandCol+spec.W; c++ {
			if g.owner[r][c] != -1 {
				return 0, fmt.Errorf("systolic: band (%d,%d) already owned by cluster %d", r, c, g.owner[r][c])
			}
			if g.faulty[r][c] {
				return 0, fmt.Errorf("systolic: band (%d,%d) has an injected fault (%d dead PEs)", r, c, g.deadPE[r][c])
			}
		}
	}

	k := len(wts)
	if k == 0 {
		return 0, fmt.Errorf("systolic: empty weight matrix")
	}
	n := len(wts[0])
	m := len(a)
	if m == 0 {
		return 0, fmt.Errorf("systolic: empty activation matrix")
	}
	rows := spec.H * g.subR
	cols := spec.W * g.subC
	if k > rows || n > cols {
		return 0, fmt.Errorf("systolic: weight tile %dx%d exceeds cluster %dx%d PEs", k, n, rows, cols)
	}
	for i := range wts {
		if len(wts[i]) != n {
			return 0, fmt.Errorf("systolic: ragged weight matrix row %d", i)
		}
	}
	for i := range a {
		if len(a[i]) != k {
			return 0, fmt.Errorf("systolic: activation row %d has %d cols, want K=%d", i, len(a[i]), k)
		}
	}

	id := len(g.clusters)
	cl := &cluster{spec: spec, m: m, k: k, n: n, pending: m * n}
	cl.w = make([]int8, k*n)
	cl.loaded = make([]bool, k*n)
	cl.cells = make([]peCell, k*n)
	cl.touched = make([]int32, 0, k*n)
	for i := range wts {
		copy(cl.w[i*n:(i+1)*n], wts[i])
	}
	if !streamLoad {
		for i := range cl.loaded {
			cl.loaded[i] = true
		}
	}
	for i := range cl.cells {
		cl.cells[i].actM = -1
		cl.cells[i].psumM = -1
	}
	cl.out = make([][]int32, m)
	cl.outSeen = make([][]bool, m)
	for i := range cl.out {
		cl.out[i] = make([]int32, n)
		cl.outSeen[i] = make([]bool, n)
	}
	g.clusters = append(g.clusters, cl)
	for r := spec.BandRow; r < spec.BandRow+spec.H; r++ {
		for c := spec.BandCol; c < spec.BandCol+spec.W; c++ {
			g.owner[r][c] = id
		}
	}

	// Streamed weight load: one row per cycle from the top edge, bottom
	// row (k−1) first so every row lands at cycle (k−1) plus the
	// band-boundary registers it crossed.
	actBase := 0
	if streamLoad {
		for ki := k - 1; ki >= 0; ki-- {
			issue := int64(k - 1 - ki)
			for ni := 0; ni < n; ni++ {
				g.stage(delivery{
					cycle: issue, cluster: int32(id), kind: weightToken,
					row: 0, col: int32(ni), m: int32(ki), v: int32(wts[ki][ni]),
				})
			}
		}
		actBase = k - 1
	}

	// Inject activations: a[mi][ki] enters row ki's first column at cycle
	// base + mi + ki + BoundaryDelay·(ki/subR). The band offset keeps the
	// activation wavefront aligned with partial sums that paid the
	// boundary register crossing — this is the skew the compiler programs.
	for mi := 0; mi < m; mi++ {
		for ki := 0; ki < k; ki++ {
			t := int64(actBase + mi + ki + BoundaryDelay*(ki/g.subR))
			g.stage(delivery{
				cycle: t, cluster: int32(id), kind: actToken,
				row: int32(ki), col: 0, m: int32(mi), v: int32(a[mi][ki]),
			})
		}
	}
	return id, nil
}

// stage queues a pre-Run injection; Run distributes staged deliveries
// into the calendar ring once its size is known.
func (g *Grid) stage(d delivery) {
	g.staged = append(g.staged, d)
	if d.cycle > g.maxStage {
		g.maxStage = d.cycle
	}
}

// push inserts an in-flight token during simulation. All runtime delays
// are ≤ 1+BoundaryDelay, well inside the ring.
func (g *Grid) push(d delivery) {
	b := d.cycle & g.mask
	g.buckets[b] = append(g.buckets[b], d)
}

// initCalendar counting-sorts the staged injections into one contiguous
// arena indexed by cycle (O(1) allocations regardless of how long the
// injection schedule is) and sizes the in-flight ring past the maximum
// runtime delay so two pending cycles can never alias to one bucket.
func (g *Grid) initCalendar() {
	size := int64(8)
	for size < BoundaryDelay+2 {
		size <<= 1
	}
	g.mask = size - 1
	g.buckets = make([][]delivery, size)

	cycles := g.maxStage + 1
	g.initial = make([][]delivery, cycles)
	counts := make([]int32, cycles)
	for i := range g.staged {
		counts[g.staged[i].cycle]++
	}
	arena := make([]delivery, len(g.staged))
	off := 0
	for c := int64(0); c < cycles; c++ {
		n := int(counts[c])
		if n > 0 {
			g.initial[c] = arena[off : off : off+n]
			off += n
		}
	}
	for _, d := range g.staged {
		g.initial[d.cycle] = append(g.initial[d.cycle], d)
	}
	g.staged = nil
}

// Run simulates until every cluster has drained all outputs or maxCycles
// elapse. It returns the number of cycles simulated.
//
//perf:hot cycle-level inner loop: per-delivery work must stay allocation-free
func (g *Grid) Run(maxCycles int64) (int64, error) {
	if g.ran {
		return 0, fmt.Errorf("systolic: grid already ran")
	}
	g.ran = true
	if len(g.clusters) == 0 {
		return 0, fmt.Errorf("systolic: no clusters")
	}
	remaining := 0
	for _, cl := range g.clusters {
		remaining += cl.pending
	}
	g.initCalendar()

	for g.cycle = 0; g.cycle <= maxCycles && remaining > 0; g.cycle++ {
		slot := g.cycle & g.mask
		var init []delivery
		if g.cycle < int64(len(g.initial)) {
			init = g.initial[g.cycle]
		}
		inflight := g.buckets[slot]
		if len(init)+len(inflight) == 0 {
			continue
		}
		// Injections were queued before any runtime token, so they are
		// processed first within the cycle, matching the original
		// single-queue ordering.
		both := [2][]delivery{init, inflight}

		// Weight tokens first: a weight reaching its destination row is
		// captured into the PE the same cycle an aligned activation may
		// use it; otherwise it shifts down one row (plus the boundary
		// register when crossing bands).
		for _, ds := range both {
			for _, d := range ds {
				if d.kind != weightToken {
					continue
				}
				cl := g.clusters[d.cluster]
				if d.row == d.m {
					cl.loaded[int(d.row)*cl.n+int(d.col)] = true
					continue
				}
				if d.row > d.m || int(d.row)+1 > cl.k {
					return g.cycle, fmt.Errorf("systolic: weight token overshot row %d (dest %d)", d.row, d.m)
				}
				delay := int64(1)
				if (int(d.row)+1)%g.subR == 0 && int(d.row)+1 < cl.k {
					delay += BoundaryDelay
				}
				nd := d
				nd.cycle = g.cycle + delay
				nd.row = d.row + 1
				g.push(nd)
			}
		}

		// Deposit act and psum tokens into each cluster's dense per-PE
		// state; psums reaching row K land in the output collector.
		for _, ds := range both {
			for _, d := range ds {
				if d.kind == weightToken {
					continue
				}
				cl := g.clusters[d.cluster]
				if d.kind == psumToken && int(d.row) == cl.k {
					// Output collector at the cluster's drain edge.
					if d.m < 0 || int(d.m) >= cl.m || d.col < 0 || int(d.col) >= cl.n {
						return g.cycle, fmt.Errorf("systolic: stray output token m=%d col=%d cluster=%d", d.m, d.col, d.cluster)
					}
					if cl.outSeen[d.m][d.col] {
						return g.cycle, fmt.Errorf("systolic: duplicate output (%d,%d) cluster=%d", d.m, d.col, d.cluster)
					}
					cl.outSeen[d.m][d.col] = true
					cl.out[d.m][d.col] = d.v
					cl.pending--
					cl.lastOut = g.cycle
					remaining--
					continue
				}
				idx := int(d.row)*cl.n + int(d.col)
				cell := &cl.cells[idx]
				if cell.actM < 0 && cell.psumM < 0 {
					cl.touched = append(cl.touched, int32(idx))
				}
				switch d.kind {
				case actToken:
					if cell.actM >= 0 {
						return g.cycle, fmt.Errorf("systolic: act collision at cluster %d PE (%d,%d) (m=%d,m=%d)",
							d.cluster, d.row, d.col, cell.actM, d.m)
					}
					cell.actM, cell.actV = d.m, d.v
				case psumToken:
					if cell.psumM >= 0 {
						return g.cycle, fmt.Errorf("systolic: psum collision at cluster %d PE (%d,%d) (m=%d,m=%d)",
							d.cluster, d.row, d.col, cell.psumM, d.m)
					}
					cell.psumM, cell.psumV = d.m, d.v
				}
			}
		}
		g.buckets[slot] = inflight[:0]
		if init != nil {
			g.initial[g.cycle] = nil
		}

		// Each PE holding an activation computes and forwards; a psum
		// with no matching activation below row 0 is a timing bug.
		for ci, cl := range g.clusters {
			if len(cl.touched) == 0 {
				continue
			}
			for _, idx := range cl.touched {
				cell := &cl.cells[idx]
				row := int(idx) / cl.n
				col := int(idx) % cl.n
				if cell.actM < 0 {
					if row > 0 {
						return g.cycle, fmt.Errorf("systolic: orphan psum at PE (%d,%d) m=%d cluster=%d", row, col, cell.psumM, ci)
					}
					cell.psumM = -1
					continue
				}
				var p int32
				if row > 0 {
					if cell.psumM < 0 {
						return g.cycle, fmt.Errorf("systolic: act token (cluster %d, PE %d,%d, m=%d) missing partial sum", ci, row, col, cell.actM)
					}
					if cell.psumM != cell.actM {
						return g.cycle, fmt.Errorf("systolic: wavefront misalignment at PE (%d,%d): act m=%d psum m=%d", row, col, cell.actM, cell.psumM)
					}
					p = cell.psumV
				}
				if !cl.loaded[idx] {
					return g.cycle, fmt.Errorf("systolic: PE (%d,%d) computed before its weight loaded (cluster %d, m=%d)",
						row, col, ci, cell.actM)
				}
				p += int32(int8(cell.actV)) * int32(cl.w[idx])
				mIdx, actV := cell.actM, cell.actV
				cell.actM, cell.psumM = -1, -1

				// Forward the partial sum down, paying the boundary
				// register when leaving a subarray band (or into the
				// collector).
				pDelay := int64(1)
				if (row+1)%g.subR == 0 && row+1 < cl.k {
					pDelay += BoundaryDelay
				}
				g.push(delivery{
					cycle: g.cycle + pDelay, cluster: int32(ci), kind: psumToken,
					row: int32(row + 1), col: int32(col), m: mIdx, v: p,
				})

				// Forward the activation along the row while more weight
				// columns remain.
				if col+1 < cl.n {
					aDelay := int64(1)
					if (col+1)%g.subC == 0 {
						aDelay += BoundaryDelay
					}
					g.push(delivery{
						cycle: g.cycle + aDelay, cluster: int32(ci), kind: actToken,
						row: int32(row), col: int32(col + 1), m: mIdx, v: actV,
					})
				}
			}
			cl.touched = cl.touched[:0]
		}
	}
	if remaining > 0 {
		return g.cycle, fmt.Errorf("systolic: %d outputs still pending after %d cycles", remaining, maxCycles)
	}
	return g.cycle, nil
}

// Output returns cluster id's M×N result matrix. Valid after Run.
func (g *Grid) Output(id int) ([][]int32, error) {
	if id < 0 || id >= len(g.clusters) {
		return nil, fmt.Errorf("systolic: no cluster %d", id)
	}
	cl := g.clusters[id]
	if cl.pending != 0 {
		return nil, fmt.Errorf("systolic: cluster %d still has %d outputs pending", id, cl.pending)
	}
	return cl.out, nil
}

// DrainCycle returns the cycle at which cluster id's last output emerged
// (0-indexed); total streaming latency is DrainCycle+1 cycles.
func (g *Grid) DrainCycle(id int) (int64, error) {
	if id < 0 || id >= len(g.clusters) {
		return 0, fmt.Errorf("systolic: no cluster %d", id)
	}
	return g.clusters[id].lastOut, nil
}

// Reference computes the M×N GEMM a·w on the host for verification.
func Reference(a [][]int8, w [][]int8) [][]int32 {
	m := len(a)
	k := len(w)
	n := 0
	if k > 0 {
		n = len(w[0])
	}
	out := make([][]int32, m)
	for i := 0; i < m; i++ {
		out[i] = make([]int32, n)
		for j := 0; j < n; j++ {
			var s int32
			for x := 0; x < k; x++ {
				s += int32(a[i][x]) * int32(w[x][j])
			}
			out[i][j] = s
		}
	}
	return out
}
