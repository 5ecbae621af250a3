package experiments

import (
	"fmt"
	"strings"

	"planaria/internal/cluster"
	"planaria/internal/metrics"
	"planaria/internal/par"
	"planaria/internal/workload"
)

// ClusterOptions configures the multi-chip serving sweep: the workload
// point, the cluster sizes and balancing policies to compare, and the
// shared front-end knobs (batching window, admission buckets are left to
// the CLI; the sweep itself measures raw scale-out).
type ClusterOptions struct {
	Scenario workload.Scenario
	Level    workload.QoSLevel
	// Chips lists the cluster sizes to sweep (e.g. 1, 2, 4).
	Chips []int
	// Policies lists the balancing policies (cluster.Policies() names).
	Policies []string
	// QPS is the fixed-rate grid evaluated per (chips, policy) cell, on
	// top of the bisected maximum.
	QPS []float64
	// BatchWindow/MaxBatch configure the front end's batching stage for
	// every cell (0 disables).
	BatchWindow float64
	MaxBatch    int
	// Elastic adds the elastic re-fission system (DESIGN.md §16) as a
	// third sweep axis next to Planaria and PREMA — same fission
	// hardware, runtime grow/shrink between tiles.
	Elastic bool
	// Opt carries requests/instances/seed, as in the other sweeps.
	Opt metrics.Options
}

// DefaultClusterOptions is the configuration the cluster CLI experiment
// uses where no flag overrides it.
func DefaultClusterOptions() ClusterOptions {
	return ClusterOptions{
		Scenario: workload.ScenarioA(),
		Level:    workload.QoSMedium,
		Chips:    []int{1, 2, 4},
		Policies: cluster.Policies(),
		QPS:      []float64{25, 50, 100},
		Opt:      metrics.Options{Requests: 120, Instances: 2, Seed: 17},
	}
}

// ClusterGridPoint is one fixed arrival rate's aggregate for a cell.
type ClusterGridPoint struct {
	QPS float64 `json:"qps"`
	// SLARate is the fraction of instances meeting the MLPerf server SLA.
	SLARate float64 `json:"sla_rate"`
	// DeadlineFrac is the mean within-deadline request fraction.
	DeadlineFrac float64 `json:"deadline_frac"`
	// ShedFront/ShedChips total the front-door and chip-local declines.
	ShedFront int `json:"shed_front"`
	ShedChips int `json:"shed_chips"`
	// MeanBatch is the mean dispatch-group size (1 with batching off).
	MeanBatch float64 `json:"mean_batch"`
	// EnergyJ is the mean cluster energy per instance.
	EnergyJ float64 `json:"energy_j"`
}

// ClusterRow is one (system, chips, policy) cell: its bisected maximum
// SLA-meeting QPS plus the fixed-rate grid.
type ClusterRow struct {
	System string  `json:"system"`
	Chips  int     `json:"chips"`
	Policy string  `json:"policy"`
	MaxQPS float64 `json:"max_qps"`

	Grid []ClusterGridPoint `json:"grid"`
}

// clusterEval runs one cell at one rate over Opt.Instances seeded
// instances and aggregates.
func clusterEval(sys metrics.System, o ClusterOptions, chips int, policy string, qps float64) (ClusterGridPoint, error) {
	p := ClusterGridPoint{QPS: qps}
	for inst := 0; inst < o.Opt.Instances; inst++ {
		reqs, err := workload.Generate(o.Scenario, o.Level, qps, o.Opt.Requests, o.Opt.Seed+int64(inst)*7919)
		if err != nil {
			return p, err
		}
		out, err := cluster.Run(cluster.Config{
			System: sys, Chips: chips, Policy: policy,
			BatchWindow: o.BatchWindow, MaxBatch: o.MaxBatch,
		}, reqs)
		if err != nil {
			return p, err
		}
		if out.MeetsSLA {
			p.SLARate++
		}
		p.DeadlineFrac += out.DeadlineFrac
		p.ShedFront += out.ShedFront
		p.ShedChips += out.ShedChips
		p.MeanBatch += out.MeanBatchSize
		p.EnergyJ += out.EnergyJ
	}
	n := float64(o.Opt.Instances)
	p.SLARate /= n
	p.DeadlineFrac /= n
	p.MeanBatch /= n
	p.EnergyJ /= n
	return p, nil
}

// clusterMaxQPS finds a cell's maximum SLA-meeting arrival rate on the
// majority-of-instances criterion, the search metrics.Throughput applies
// to a single node.
func clusterMaxQPS(sys metrics.System, o ClusterOptions, chips int, policy string) (float64, error) {
	return metrics.MaxQPS(func(qps float64) (bool, error) {
		p, err := clusterEval(sys, o, chips, policy, qps)
		return p.SLARate >= 0.5, err
	})
}

// ClusterSweep measures cluster scale-out for both systems: every
// (system, chips, policy) cell gets a bisected maximum SLA-meeting QPS
// and a fixed-rate grid. Cells are independent and fan out across the
// worker pool; rows aggregate in deterministic cell order.
func (s *Suite) ClusterSweep(o ClusterOptions) ([]ClusterRow, error) {
	if len(o.Chips) == 0 || len(o.Policies) == 0 {
		return nil, fmt.Errorf("experiments: cluster sweep needs chips and policies, got %v / %v", o.Chips, o.Policies)
	}
	if o.Opt.Requests <= 0 || o.Opt.Instances <= 0 {
		return nil, fmt.Errorf("experiments: bad cluster options %+v", o.Opt)
	}
	for _, c := range o.Chips {
		if c < 1 {
			return nil, fmt.Errorf("experiments: cluster size %d", c)
		}
	}
	for _, p := range o.Policies {
		if _, err := cluster.NewBalancer(p); err != nil {
			return nil, err
		}
	}
	systems := []metrics.System{s.Planaria, s.PREMA}
	if o.Elastic {
		systems = append(systems, s.Elastic)
	}
	rows := make([]ClusterRow, len(systems)*len(o.Chips)*len(o.Policies))
	errs := make([]error, len(rows))
	par.ForEach(len(rows), func(i int) {
		sysIdx := i / (len(o.Chips) * len(o.Policies))
		chipIdx := i / len(o.Policies) % len(o.Chips)
		polIdx := i % len(o.Policies)
		sys := systems[sysIdx]
		row := ClusterRow{System: sys.Name, Chips: o.Chips[chipIdx], Policy: o.Policies[polIdx]}
		row.MaxQPS, errs[i] = clusterMaxQPS(sys, o, row.Chips, row.Policy)
		if errs[i] != nil {
			return
		}
		for _, qps := range o.QPS {
			p, err := clusterEval(sys, o, row.Chips, row.Policy, qps)
			if err != nil {
				errs[i] = err
				return
			}
			row.Grid = append(row.Grid, p)
		}
		rows[i] = row
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatCluster renders the sweep as a text table.
func FormatCluster(o ClusterOptions, rows []ClusterRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cluster sweep — %s × %s (batch window %g s, max batch %d)\n",
		o.Scenario.Name, o.Level.Name, o.BatchWindow, o.MaxBatch)
	fmt.Fprintf(&b, "  %-10s %6s %-12s %10s", "system", "chips", "policy", "max QPS")
	for _, q := range o.QPS {
		fmt.Fprintf(&b, "  SLA@%-6g", q)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s %6d %-12s %10.1f", r.System, r.Chips, r.Policy, r.MaxQPS)
		for _, p := range r.Grid {
			fmt.Fprintf(&b, "  %8.1f%%", p.DeadlineFrac*100)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ClusterJSON marshals the sweep into the BENCH_cluster.json artifact:
// options header plus rows.
func ClusterJSON(o ClusterOptions, rows []ClusterRow) ([]byte, error) {
	doc := struct {
		Scenario    string       `json:"scenario"`
		QoS         string       `json:"qos"`
		BatchWindow float64      `json:"batch_window_s"`
		MaxBatch    int          `json:"max_batch"`
		Elastic     bool         `json:"elastic,omitempty"`
		Requests    int          `json:"requests"`
		Instances   int          `json:"instances"`
		Seed        int64        `json:"seed"`
		Rows        []ClusterRow `json:"rows"`
	}{
		Scenario: o.Scenario.Name, QoS: o.Level.Name,
		BatchWindow: o.BatchWindow, MaxBatch: o.MaxBatch, Elastic: o.Elastic,
		Requests: o.Opt.Requests, Instances: o.Opt.Instances, Seed: o.Opt.Seed,
		Rows: rows,
	}
	return artifactJSON(doc)
}
