package experiments

import (
	"fmt"
	"math"
	"strings"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
	"planaria/internal/energy"
	"planaria/internal/metrics"
	"planaria/internal/model"
	"planaria/internal/sched"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// PolicyRow is one scheduler-ablation point: the sustainable throughput
// of one policy on one workload × QoS.
type PolicyRow struct {
	Workload string
	QoS      string
	Policy   string
	QPS      float64
}

// SchedulerAblation isolates the scheduler's contribution: the same
// fission-capable hardware and compiled programs under (1) Algorithm 1,
// (2) naive equal-share spatial co-location, and (3) FCFS
// run-to-completion, plus the PREMA baseline on monolithic hardware.
// Expected ordering: spatial ≥ equal-share ≥ FCFS, with PREMA below the
// fission-capable variants (DESIGN.md's scheduling-vs-architecture
// decomposition).
func (s *Suite) SchedulerAblation(sc workload.Scenario) ([]PolicyRow, error) {
	cfg := s.Planaria.Cfg
	variants := []struct {
		name string
		sys  metrics.System
	}{
		{"spatial (Alg. 1)", s.Planaria},
		{"equal-share", withPolicy(s.Planaria, func() sim.Policy { return sched.NewEqualShare(cfg) })},
		{"fcfs", withPolicy(s.Planaria, func() sim.Policy { return sched.NewFCFS(cfg) })},
		{"prema (monolithic)", s.PREMA},
	}
	var rows []PolicyRow
	for _, lvl := range workload.Levels {
		for _, v := range variants {
			qps, err := metrics.Throughput(v.sys, sc, lvl, s.Opt)
			if err != nil {
				return nil, err
			}
			rows = append(rows, PolicyRow{
				Workload: sc.Name, QoS: lvl.Name, Policy: v.name, QPS: qps,
			})
		}
	}
	return rows, nil
}

func withPolicy(sys metrics.System, newPolicy func() sim.Policy) metrics.System {
	sys.NewPolicy = newPolicy
	return sys
}

// ElasticRow is one elastic re-fission ablation point: the cluster's
// maximum SLA-meeting arrival rate with runtime re-fission on or off at
// the same chip count.
type ElasticRow struct {
	Workload string  `json:"workload"`
	QoS      string  `json:"qos"`
	Chips    int     `json:"chips"`
	Elastic  bool    `json:"elastic"`
	MaxQPS   float64 `json:"max_qps"`
}

// ElasticAblation isolates the elastic re-fission control loop's
// contribution (DESIGN.md §16): the same fission hardware, compiled
// programs, and least-work balancing, with and without between-tile
// grow/shrink, at each chip count. The headline claim under test:
// elastic-on sustains a higher SLA-meeting arrival rate at equal chips,
// because arrivals that Algorithm 1 would queue are absorbed into
// headroom donated by SLA-beating tenants.
func (s *Suite) ElasticAblation(sc workload.Scenario, lvl workload.QoSLevel, chips []int) ([]ElasticRow, error) {
	if len(chips) == 0 {
		chips = []int{1, 2}
	}
	o := ClusterOptions{Scenario: sc, Level: lvl, Opt: s.Opt}
	variants := []struct {
		sys     metrics.System
		elastic bool
	}{
		{s.Planaria, false},
		{s.Elastic, true},
	}
	var rows []ElasticRow
	for _, c := range chips {
		for _, v := range variants {
			qps, err := clusterMaxQPS(v.sys, o, c, "least-work")
			if err != nil {
				return nil, err
			}
			rows = append(rows, ElasticRow{
				Workload: sc.Name, QoS: lvl.Name,
				Chips: c, Elastic: v.elastic, MaxQPS: qps,
			})
		}
	}
	return rows, nil
}

// FormatElasticAblation renders the elastic on/off comparison.
func FormatElasticAblation(rows []ElasticRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — elastic re-fission (max SLA-meeting QPS, least-work balancing)\n")
	fmt.Fprintf(&b, "%-12s %-6s %6s %-8s %10s\n", "workload", "qos", "chips", "elastic", "max qps")
	for _, r := range rows {
		on := "off"
		if r.Elastic {
			on = "on"
		}
		fmt.Fprintf(&b, "%-12s %-6s %6d %-8s %10.1f\n", r.Workload, r.QoS, r.Chips, on, r.MaxQPS)
	}
	return b.String()
}

// FormatSchedulerAblation renders the policy ablation.
func FormatSchedulerAblation(rows []PolicyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — scheduler contribution (throughput, same fission hardware)\n")
	fmt.Fprintf(&b, "%-12s %-6s %-20s %10s\n", "workload", "qos", "policy", "qps")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-6s %-20s %10.1f\n", r.Workload, r.QoS, r.Policy, r.QPS)
	}
	return b.String()
}

// OmniRow is one omni-directional-ablation point: how much a network
// loses when the omni-directional configurations are removed from the
// compiler's shape space.
type OmniRow struct {
	Model         string
	FullCycles    int64
	NoOmniCycles  int64
	SlowdownPct   float64
	EnergyRisePct float64
}

// OmniAblation recompiles each benchmark with the omni-directional shapes
// (cluster extents beyond the physical pod-grid side, §IV-A) excluded and
// reports the isolated latency/energy cost — the value of the
// omni-directional systolic feature.
func OmniAblation() ([]OmniRow, error) {
	cfg := arch.Planaria()
	params := energy.Default()
	noOmni := func(sh arch.Shape) bool { return !sh.UsesOmniDirectional(cfg) }
	var rows []OmniRow
	for _, name := range dnn.Names {
		net, err := dnn.ByName(name)
		if err != nil {
			return nil, err
		}
		full, err := model.NetworkOnAlloc(net, cfg, cfg.NumSubarrays(), true)
		if err != nil {
			return nil, err
		}
		restricted, err := model.NetworkOnAllocWith(net, cfg, cfg.NumSubarrays(), true, noOmni)
		if err != nil {
			return nil, err
		}
		fj := full.Acct.Joules(params)
		rj := restricted.Acct.Joules(params)
		rows = append(rows, OmniRow{
			Model:         name,
			FullCycles:    full.Cycles,
			NoOmniCycles:  restricted.Cycles,
			SlowdownPct:   100 * (float64(restricted.Cycles)/float64(full.Cycles) - 1),
			EnergyRisePct: 100 * (rj/fj - 1),
		})
	}
	return rows, nil
}

// FormatOmniAblation renders the omni-directional ablation.
func FormatOmniAblation(rows []OmniRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — omni-directional feature removed from the shape space\n")
	fmt.Fprintf(&b, "%-16s %12s %12s %10s %10s\n", "model", "full(cyc)", "no-omni", "slowdown", "energy")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %12d %12d %9.2f%% %9.2f%%\n",
			r.Model, r.FullCycles, r.NoOmniCycles, r.SlowdownPct, r.EnergyRisePct)
	}
	return b.String()
}

// GranularityRow extends the Fig 18 sweep with additional design points
// for the ablation study (8×8 through 64×64).
type GranularityRow = Fig18Row

// ExtendedGranularity sweeps granularities 8, 16, 32, 64 (the Fig 18
// methodology over a wider range).
func (s *Suite) ExtendedGranularity() ([]GranularityRow, error) {
	params := energy.Default()
	granularities := []int{8, 16, 32, 64}
	perNet := make(map[int]map[string]float64)
	rows := make([]GranularityRow, 0, len(granularities))
	for _, g := range granularities {
		cfg := arch.Planaria().WithGranularity(g)
		idle := energy.LeakageWatts(cfg, params) + energy.OverheadWatts(cfg)
		perNet[g] = make(map[string]float64, len(dnn.Names))
		var sumT, sumJ float64
		for _, name := range dnn.Names {
			net, err := dnn.ByName(name)
			if err != nil {
				return nil, err
			}
			res, err := model.NetworkOnAlloc(net, cfg, cfg.NumSubarrays(), true)
			if err != nil {
				return nil, err
			}
			t := cfg.Seconds(res.Cycles)
			j := res.Acct.Joules(params) + idle*t
			perNet[g][name] = t * j
			sumT += t
			sumJ += j
		}
		n := float64(len(dnn.Names))
		rows = append(rows, GranularityRow{Granularity: g, MeanDelayS: sumT / n, MeanJ: sumJ / n})
	}
	for i := range rows {
		g := rows[i].Granularity
		prod := 1.0
		for _, name := range dnn.Names {
			prod *= perNet[g][name] / perNet[32][name]
		}
		rows[i].RelativeEDP = math.Pow(prod, 1/float64(len(dnn.Names)))
	}
	return rows, nil
}

// PenaltyRow is one reconfiguration-cost sensitivity point.
type PenaltyRow struct {
	Scale float64
	QPS   float64
}

// PenaltySensitivity sweeps a multiplier on every re-allocation penalty
// (tile drain + checkpoint DMA + configuration load) and measures
// Workload-C/QoS-M throughput under Algorithm 1 — quantifying §V's claim
// that tile-granularity scheduling keeps re-allocation overheads from
// eroding throughput (the curve should be nearly flat at small scales and
// degrade only when preemption becomes orders of magnitude dearer).
func (s *Suite) PenaltySensitivity(sc workload.Scenario, lvl workload.QoSLevel) ([]PenaltyRow, error) {
	scales := []float64{0.001, 1, 10, 100}
	rows := make([]PenaltyRow, 0, len(scales))
	for _, scale := range scales {
		qps, err := penaltyThroughput(s.Planaria.Cfg, s.Planaria.Programs,
			s.Planaria.Params, s.Opt, sc, lvl, scale)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PenaltyRow{Scale: scale, QPS: qps})
	}
	return rows, nil
}

// penaltyThroughput is the throughput search over Algorithm 1 nodes
// carrying a penalty scale.
func penaltyThroughput(cfg arch.Config, progs map[string]*compiler.Program, params energy.Params,
	opt metrics.Options, sc workload.Scenario, lvl workload.QoSLevel, scale float64) (float64, error) {
	return metrics.MaxQPS(func(qps float64) (bool, error) {
		ok := 0
		for inst := 0; inst < opt.Instances; inst++ {
			reqs, err := workload.Generate(sc, lvl, qps, opt.Requests, opt.Seed+int64(inst)*7919)
			if err != nil {
				return false, err
			}
			node := &sim.Node{
				Cfg: cfg, Policy: sched.NewSpatial(cfg), Programs: progs,
				Params: params, PenaltyScale: scale,
			}
			out, err := node.Run(reqs)
			if err != nil {
				return false, err
			}
			if out.MeetsSLA {
				ok++
			}
		}
		return float64(ok) >= 0.5*float64(opt.Instances), nil
	})
}

// FormatPenaltySensitivity renders the sweep.
func FormatPenaltySensitivity(sc workload.Scenario, lvl workload.QoSLevel, rows []PenaltyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — re-allocation penalty sensitivity (%s, %s, Algorithm 1)\n", sc.Name, lvl.Name)
	fmt.Fprintf(&b, "%-14s %10s\n", "penalty scale", "qps")
	for _, r := range rows {
		fmt.Fprintf(&b, "%14.3f %10.1f\n", r.Scale, r.QPS)
	}
	return b.String()
}
