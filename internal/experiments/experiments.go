// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI): Fig 12 (throughput), Fig 13 (SLA satisfaction),
// Fig 14 (fairness), Fig 15 (energy), Fig 16 (scale-out), Fig 17
// (isolated single-DNN speedup/energy), Fig 18 (fission-granularity DSE),
// Fig 19 (area/power breakdown), Table I (workloads), and Table II
// (layer sensitivity to fission configurations).
package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
	"planaria/internal/energy"
	"planaria/internal/metrics"
	"planaria/internal/par"
	"planaria/internal/prema"
	"planaria/internal/sched"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// Suite holds the two systems under comparison and caches intermediate
// results (throughputs feed the fixed-rate experiments).
type Suite struct {
	Planaria metrics.System
	PREMA    metrics.System
	// Elastic is the Planaria hardware under the elastic re-fission
	// scheduler (DESIGN.md §16): same chip, same compiled programs, the
	// spatial policy wrapped with QoS-headroom grow/shrink between tiles.
	// The cluster and autoscale sweeps add it as an ablation axis.
	Elastic metrics.System
	Opt     metrics.Options

	mu         sync.Mutex            // guards throughput
	throughput map[string][2]float64 // scenario|qos → {planaria, prema}
}

// NewSuite compiles all nine benchmark models for both systems. The
// (model, system) compilations are independent and run across a bounded
// worker pool; the process-wide cache deduplicates concurrent misses.
// Options follow the evaluation defaults: 400-request instances, 3 seeds.
func NewSuite() (*Suite, error) {
	pl := arch.Planaria()
	mono := arch.Monolithic()
	type compiled struct {
		pl, mono *compiler.Program
	}
	progs := make([]compiled, len(dnn.Names))
	errs := make([]error, 2*len(dnn.Names))
	par.ForEach(2*len(dnn.Names), func(i int) {
		name := dnn.Names[i/2]
		net, err := dnn.ByName(name)
		if err != nil {
			errs[i] = err
			return
		}
		if i%2 == 0 {
			progs[i/2].pl, errs[i] = compiler.DefaultCache.Program(net, pl, true)
		} else {
			progs[i/2].mono, errs[i] = compiler.DefaultCache.Program(net, mono, false)
		}
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	progsP := make(map[string]*compiler.Program, len(dnn.Names))
	progsM := make(map[string]*compiler.Program, len(dnn.Names))
	for i, name := range dnn.Names {
		progsP[name] = progs[i].pl
		progsM[name] = progs[i].mono
	}
	return &Suite{
		Planaria: metrics.System{
			Name: "Planaria", Cfg: pl, Programs: progsP, Params: energy.Default(),
			NewPolicy: func() sim.Policy { return sched.NewSpatial(pl) },
		},
		PREMA: metrics.System{
			Name: "PREMA", Cfg: mono, Programs: progsM, Params: energy.Default(),
			NewPolicy: func() sim.Policy { return prema.NewToken(mono) },
		},
		Elastic: metrics.System{
			Name: "Planaria-Elastic", Cfg: pl, Programs: progsP, Params: energy.Default(),
			NewPolicy: func() sim.Policy { return sched.NewElastic(pl) },
		},
		Opt:        metrics.Options{Requests: 400, Instances: 3, Seed: 1},
		throughput: make(map[string][2]float64),
	}, nil
}

// throughputs returns (and caches) both systems' max sustainable QPS for
// a scenario × QoS point. Safe for concurrent callers; distinct points
// compute in parallel while the cache map stays mutex-guarded.
func (s *Suite) throughputs(sc workload.Scenario, lvl workload.QoSLevel) (plQPS, prQPS float64, err error) {
	key := sc.Name + "|" + lvl.Name
	s.mu.Lock()
	v, ok := s.throughput[key]
	s.mu.Unlock()
	if ok {
		return v[0], v[1], nil
	}
	plQPS, err = metrics.Throughput(s.Planaria, sc, lvl, s.Opt)
	if err != nil {
		return 0, 0, err
	}
	prQPS, err = metrics.Throughput(s.PREMA, sc, lvl, s.Opt)
	if err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	s.throughput[key] = [2]float64{plQPS, prQPS}
	s.mu.Unlock()
	return plQPS, prQPS, nil
}

// commonRate is the fixed arrival rate used by the same-throughput
// comparisons (Fig 13–15): just past the PREMA baseline's sustainable
// rate (1.2×), the operating region the paper's fixed-λ comparisons look
// at — PREMA begins violating the SLA while a stronger system still has
// headroom. Capped at the Planaria rate so both systems stay in a
// meaningful regime when the gap is extreme.
func commonRate(plQPS, prQPS float64) float64 {
	if prQPS <= 0 {
		prQPS = 0.5
	}
	r := prQPS * 1.2
	if plQPS > 0 && r > plQPS {
		r = math.Max(prQPS, plQPS*0.9)
	}
	return r
}

// ServingRow is one (workload, QoS) comparison point shared by the
// serving-path figures.
type ServingRow struct {
	Workload string
	QoS      string

	PlanariaQPS float64
	PremaQPS    float64
	Ratio       float64 // Planaria / PREMA (throughput)

	RateQPS      float64 // common rate used for the fixed-rate metrics
	PlanariaSLA  float64
	PremaSLA     float64
	SLAGainPct   float64 // (Planaria − PREMA) × 100
	PlanariaFair float64
	PremaFair    float64
	FairRatio    float64 // Planaria / PREMA
	PlanariaJ    float64
	PremaJ       float64
	EnergyRatio  float64 // PREMA / Planaria (reduction; >1 favours Planaria)
}

// ServingComparison runs the full Fig 12–15 sweep: throughput per system,
// then SLA rate, fairness, and energy at the common rate. The scenario ×
// QoS points are independent simulations, so they fan out across a
// bounded worker pool; each point writes its own row index and the slice
// is returned in enumeration order, keeping the output identical to the
// sequential sweep (the same pattern metrics.Evaluate uses per instance).
func (s *Suite) ServingComparison() ([]ServingRow, error) {
	type point struct {
		sc  workload.Scenario
		lvl workload.QoSLevel
	}
	var points []point
	for _, sc := range workload.Scenarios() {
		for _, lvl := range workload.Levels {
			points = append(points, point{sc, lvl})
		}
	}
	rows := make([]ServingRow, len(points))
	errs := make([]error, len(points))
	par.ForEach(len(points), func(i int) {
		rows[i], errs[i] = s.servingPoint(points[i].sc, points[i].lvl)
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// servingPoint computes one scenario × QoS row of the Fig 12–15 sweep.
func (s *Suite) servingPoint(sc workload.Scenario, lvl workload.QoSLevel) (ServingRow, error) {
	plQPS, prQPS, err := s.throughputs(sc, lvl)
	if err != nil {
		return ServingRow{}, err
	}
	row := ServingRow{
		Workload:    sc.Name,
		QoS:         lvl.Name,
		PlanariaQPS: plQPS,
		PremaQPS:    prQPS,
	}
	if prQPS > 0 {
		row.Ratio = plQPS / prQPS
	}
	rate := commonRate(plQPS, prQPS)
	row.RateQPS = rate
	// More instances at the fixed rate: the SLA satisfaction *rate* is a
	// fraction over instances and needs resolution.
	fixedOpt := s.Opt
	if fixedOpt.Instances < 5 {
		fixedOpt.Instances = 5
	}
	ap, err := metrics.Evaluate(s.Planaria, sc, lvl, rate, fixedOpt)
	if err != nil {
		return ServingRow{}, err
	}
	am, err := metrics.Evaluate(s.PREMA, sc, lvl, rate, fixedOpt)
	if err != nil {
		return ServingRow{}, err
	}
	row.PlanariaSLA = ap.SLARate
	row.PremaSLA = am.SLARate
	row.SLAGainPct = (ap.SLARate - am.SLARate) * 100
	row.PlanariaFair = ap.Fairness
	row.PremaFair = am.Fairness
	if am.Fairness > 0 {
		row.FairRatio = ap.Fairness / am.Fairness
	}
	row.PlanariaJ = ap.EnergyJ
	row.PremaJ = am.EnergyJ
	if ap.EnergyJ > 0 {
		row.EnergyRatio = am.EnergyJ / ap.EnergyJ
	}
	return row, nil
}

// FormatFig12 renders the throughput comparison (Fig 12).
func FormatFig12(rows []ServingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 12 — Throughput (max QPS meeting SLA), Planaria vs PREMA\n")
	fmt.Fprintf(&b, "%-12s %-6s %14s %12s %8s\n", "workload", "qos", "planaria(qps)", "prema(qps)", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-6s %14.1f %12.1f %8.1fx\n",
			r.Workload, r.QoS, r.PlanariaQPS, r.PremaQPS, r.Ratio)
	}
	return b.String()
}

// FormatFig13 renders the SLA satisfaction comparison (Fig 13).
func FormatFig13(rows []ServingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 13 — SLA satisfaction rate at a common rate\n")
	fmt.Fprintf(&b, "%-12s %-6s %10s %12s %10s %8s\n", "workload", "qos", "rate(qps)", "planaria", "prema", "gain")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-6s %10.1f %11.0f%% %9.0f%% %+7.0f%%\n",
			r.Workload, r.QoS, r.RateQPS, r.PlanariaSLA*100, r.PremaSLA*100, r.SLAGainPct)
	}
	return b.String()
}

// FormatFig14 renders the fairness comparison (Fig 14).
func FormatFig14(rows []ServingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 14 — Fairness (normalized to PREMA) at a common rate\n")
	fmt.Fprintf(&b, "%-12s %-6s %10s %10s %8s\n", "workload", "qos", "planaria", "prema", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-6s %10.3f %10.3f %7.1fx\n",
			r.Workload, r.QoS, r.PlanariaFair, r.PremaFair, r.FairRatio)
	}
	return b.String()
}

// FormatFig15 renders the energy comparison (Fig 15).
func FormatFig15(rows []ServingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 15 — Total workload energy, reduction over PREMA\n")
	fmt.Fprintf(&b, "%-12s %-6s %12s %12s %10s\n", "workload", "qos", "planaria(J)", "prema(J)", "reduction")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-6s %12.2f %12.2f %9.1fx\n",
			r.Workload, r.QoS, r.PlanariaJ, r.PremaJ, r.EnergyRatio)
	}
	return b.String()
}

// artifactJSON encodes one BENCH_<experiment>.json document: indented,
// no timestamps, so two runs of the same options are byte-identical.
func artifactJSON(doc any) ([]byte, error) {
	j, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(j, '\n'), nil
}
