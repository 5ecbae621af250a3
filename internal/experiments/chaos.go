package experiments

import (
	"fmt"
	"strings"

	"planaria/internal/fault"
	"planaria/internal/metrics"
	"planaria/internal/par"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// ChaosOptions configures the fault-injection sweep: the serving
// workload, the fault rates to sweep, and Planaria's degradation knobs.
// PREMA runs the same schedules in derate mode with no admission
// control — the monolithic baseline has neither fission masking nor a
// QoS-aware front door.
type ChaosOptions struct {
	Scenario workload.Scenario
	Level    workload.QoSLevel
	// QPS is the fixed arrival rate for every row.
	QPS float64
	// Rates are chip-level fault arrival rates (faults per simulated
	// second). A rate of 0 runs the exact fault-free serving path — no
	// injector, no shedding — so the baseline row reproduces the plain
	// serving numbers bit-for-bit.
	Rates []float64
	// MeanOutage is the mean transient-fault outage in seconds.
	MeanOutage float64
	// Shed is Planaria's admission-control policy at nonzero rates.
	Shed sim.ShedPolicy
	// Schedule, when non-nil, replaces the generated schedules: the
	// sweep collapses to one row (Rate = -1) replaying exactly this
	// schedule on every instance.
	Schedule *fault.Schedule
	// Opt carries requests/instances/seed, as in the other sweeps.
	Opt metrics.Options
}

// DefaultChaosOptions is the configuration the chaos CLI experiment uses
// where no flag overrides it.
func DefaultChaosOptions() ChaosOptions {
	return ChaosOptions{
		Scenario:   workload.ScenarioA(),
		Level:      workload.QoSMedium,
		QPS:        40,
		Rates:      []float64{0, 10, 40, 160},
		MeanOutage: 10e-3,
		Shed:       sim.ShedDoomed,
		Opt:        metrics.Options{Requests: 150, Instances: 2, Seed: 11},
	}
}

// ChaosRow is one fault rate's outcome for both systems, aggregated over
// Opt.Instances instances.
type ChaosRow struct {
	// Rate is the fault rate in faults per simulated second (-1 when the
	// row replays an explicit schedule file).
	Rate float64 `json:"rate"`
	// FaultEvents totals the transitions applied across instances (per
	// system; the two differ because shedding empties the Planaria queue
	// earlier or later than PREMA's).
	FaultEvents int `json:"fault_events"`

	// SLA retention: mean within-deadline request fraction.
	PlanariaSLA float64 `json:"planaria_sla"`
	PremaSLA    float64 `json:"prema_sla"`

	// Degradation tallies, totaled over instances.
	PlanariaKilled  int `json:"planaria_killed"`
	PlanariaRetries int `json:"planaria_retries"`
	PlanariaShed    int `json:"planaria_shed"`
	PremaKilled     int `json:"prema_killed"`
	PremaRetries    int `json:"prema_retries"`

	// Mean energy per instance (J).
	PlanariaJ float64 `json:"planaria_j"`
	PremaJ    float64 `json:"prema_j"`
}

// chaosHorizon bounds fault generation: well past the arrival window so
// late retries still face the configured fault environment.
func chaosHorizon(o ChaosOptions) float64 {
	return 3*float64(o.Opt.Requests)/o.QPS + 1
}

// chaosNode builds one system's serving node for one instance of one
// row. A nil schedule selects the exact fault-free path.
func chaosNode(sys metrics.System, mode sim.FaultMode, shed sim.ShedPolicy, sched *fault.Schedule) (*sim.Node, error) {
	n := &sim.Node{Cfg: sys.Cfg, Policy: sys.NewPolicy(), Programs: sys.Programs, Params: sys.Params}
	if sched == nil {
		return n, nil
	}
	in, err := fault.NewInjector(sched)
	if err != nil {
		return nil, err
	}
	n.Faults = in
	n.FaultMode = mode
	n.Shed = shed
	return n, nil
}

// ChaosSweep runs the fault-rate sweep. Every (rate, instance) pair uses
// the same request stream and the same fault schedule for both systems;
// the injectors are rebuilt per run because they are stateful.
func (s *Suite) ChaosSweep(o ChaosOptions) ([]ChaosRow, error) {
	if o.QPS <= 0 {
		return nil, fmt.Errorf("experiments: chaos needs a positive QPS, got %g", o.QPS)
	}
	if o.Opt.Requests <= 0 || o.Opt.Instances <= 0 {
		return nil, fmt.Errorf("experiments: bad chaos options %+v", o.Opt)
	}
	rates := o.Rates
	if o.Schedule != nil {
		rates = []float64{-1}
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("experiments: chaos needs fault rates or a schedule")
	}

	type cell struct {
		pl, pr *sim.Outcome
		reqs   []workload.Request
		err    error
	}
	units := s.Planaria.Cfg.NumSubarrays()
	pods := s.Planaria.Cfg.Pods
	horizon := chaosHorizon(o)
	cells := make([]cell, len(rates)*o.Opt.Instances)
	par.ForEach(len(cells), func(i int) {
		rateIdx, inst := i/o.Opt.Instances, i%o.Opt.Instances
		rate := rates[rateIdx]
		c := &cells[i]
		c.reqs, c.err = workload.Generate(o.Scenario, o.Level, o.QPS, o.Opt.Requests, o.Opt.Seed+int64(inst)*7919)
		if c.err != nil {
			return
		}
		var sched *fault.Schedule
		shed := sim.ShedNone
		switch {
		case o.Schedule != nil:
			sched, shed = o.Schedule, o.Shed
		case rate > 0:
			// A distinct seed stream per (rate, instance), disjoint from
			// the workload seeds.
			sched, c.err = fault.Generate(units, pods, rate, horizon, o.MeanOutage,
				o.Opt.Seed+int64(inst)*7919+104729*int64(rateIdx+1))
			if c.err != nil {
				return
			}
			shed = o.Shed
		}
		pl, err := chaosNode(s.Planaria, sim.FaultFission, shed, sched)
		if err != nil {
			c.err = err
			return
		}
		c.pl, c.err = pl.Run(c.reqs)
		if c.err != nil {
			return
		}
		pr, err := chaosNode(s.PREMA, sim.FaultDerate, sim.ShedNone, sched)
		if err != nil {
			c.err = err
			return
		}
		c.pr, c.err = pr.Run(c.reqs)
	})

	rows := make([]ChaosRow, len(rates))
	for rateIdx, rate := range rates {
		row := ChaosRow{Rate: rate}
		for inst := 0; inst < o.Opt.Instances; inst++ {
			c := &cells[rateIdx*o.Opt.Instances+inst]
			if c.err != nil {
				return nil, c.err
			}
			row.PlanariaSLA += workload.DeadlineFraction(c.reqs, c.pl.Finishes)
			row.PremaSLA += workload.DeadlineFraction(c.reqs, c.pr.Finishes)
			row.FaultEvents += c.pl.FaultEvents
			row.PlanariaKilled += c.pl.Killed
			row.PlanariaRetries += c.pl.Retries
			row.PlanariaShed += c.pl.Shed
			row.PremaKilled += c.pr.Killed
			row.PremaRetries += c.pr.Retries
			row.PlanariaJ += c.pl.EnergyJ
			row.PremaJ += c.pr.EnergyJ
		}
		n := float64(o.Opt.Instances)
		row.PlanariaSLA /= n
		row.PremaSLA /= n
		row.PlanariaJ /= n
		row.PremaJ /= n
		rows[rateIdx] = row
	}
	return rows, nil
}

// FormatChaos renders the sweep as a text table.
func FormatChaos(o ChaosOptions, rows []ChaosRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos sweep — %s × %s at %g QPS (Planaria: fission masking + shed=%s; PREMA: monolithic derate)\n",
		o.Scenario.Name, o.Level.Name, o.QPS, o.Shed)
	fmt.Fprintf(&b, "  %-10s %10s %14s %14s %8s %8s %8s %8s\n",
		"faults/s", "events", "Planaria SLA", "PREMA SLA", "kills", "retries", "shed", "PR kills")
	for _, r := range rows {
		label := fmt.Sprintf("%g", r.Rate)
		if r.Rate < 0 {
			label = "file"
		}
		fmt.Fprintf(&b, "  %-10s %10d %13.1f%% %13.1f%% %8d %8d %8d %8d\n",
			label, r.FaultEvents, r.PlanariaSLA*100, r.PremaSLA*100,
			r.PlanariaKilled, r.PlanariaRetries, r.PlanariaShed, r.PremaKilled)
	}
	return b.String()
}

// ChaosJSON marshals the sweep into the BENCH_chaos.json artifact:
// options header plus rows.
func ChaosJSON(o ChaosOptions, rows []ChaosRow) ([]byte, error) {
	doc := struct {
		Scenario   string     `json:"scenario"`
		QoS        string     `json:"qos"`
		QPS        float64    `json:"qps"`
		MeanOutage float64    `json:"mean_outage_s"`
		Shed       string     `json:"shed"`
		Requests   int        `json:"requests"`
		Instances  int        `json:"instances"`
		Seed       int64      `json:"seed"`
		Rows       []ChaosRow `json:"rows"`
	}{
		Scenario: o.Scenario.Name, QoS: o.Level.Name, QPS: o.QPS,
		MeanOutage: o.MeanOutage, Shed: o.Shed.String(),
		Requests: o.Opt.Requests, Instances: o.Opt.Instances, Seed: o.Opt.Seed,
		Rows: rows,
	}
	return artifactJSON(doc)
}
