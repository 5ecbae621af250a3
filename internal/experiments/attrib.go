package experiments

import (
	"fmt"
	"strings"

	"planaria/internal/cluster"
	"planaria/internal/metrics"
	"planaria/internal/obs"
	"planaria/internal/par"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// AttribOptions configures the SLA root-cause attribution experiment
// (DESIGN.md §14): one cluster run per system over a mixed-QoS workload,
// with admission control, batching, and doomed-request shedding on so
// every attribution phase can actually appear in the artifact.
type AttribOptions struct {
	Scenario workload.Scenario
	// Chips / Policy / BatchWindow / MaxBatch configure the cluster
	// front end.
	Chips       int
	Policy      string
	BatchWindow float64
	MaxBatch    int
	// QPS is the total arrival rate, split evenly across the three QoS
	// levels so the report breaks down per model × per level.
	QPS float64
	// AdmitRate/AdmitBurst configure one shared front-door token bucket
	// (0 disables admission control and with it the admit-wait phase).
	AdmitRate  float64
	AdmitBurst float64
	// Opt carries requests and seed (Instances is unused: attribution
	// is per-run causal accounting, so the artifact is one run per
	// system).
	Opt metrics.Options
}

// DefaultAttribOptions is the configuration the attrib CLI experiment
// uses where no flag overrides it.
func DefaultAttribOptions() AttribOptions {
	return AttribOptions{
		Scenario:    workload.ScenarioA(),
		Chips:       2,
		Policy:      "least-work",
		BatchWindow: 0.002,
		MaxBatch:    8,
		QPS:         90,
		AdmitRate:   120,
		AdmitBurst:  8,
		Opt:         metrics.Options{Requests: 120, Seed: 17},
	}
}

// AttribRow is one system's attribution result.
type AttribRow struct {
	System    string            `json:"system"`
	Completed int               `json:"completed"`
	ShedFront int               `json:"shed_front"`
	ShedChips int               `json:"shed_chips"`
	Rejected  int               `json:"rejected"`
	Report    *obs.AttribReport `json:"report"`
}

// attribWorkload builds the mixed-QoS stream: one generated stream per
// QoS level at QPS/3, merged chronologically (ties keep level order) and
// re-IDed to the identity so the cluster front end takes its fast paths.
func attribWorkload(o AttribOptions) ([]workload.Request, error) {
	levels := workload.Levels
	per := o.Opt.Requests / len(levels)
	streams := make([][]workload.Request, len(levels))
	for i, lv := range levels {
		n := per
		if i == 0 {
			n += o.Opt.Requests - per*len(levels)
		}
		reqs, err := workload.Generate(o.Scenario, lv, o.QPS/float64(len(levels)), n, o.Opt.Seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		streams[i] = reqs
	}
	merged := make([]workload.Request, 0, o.Opt.Requests)
	heads := make([]int, len(streams))
	for {
		best := -1
		for i, h := range heads {
			if h >= len(streams[i]) {
				continue
			}
			if best < 0 || streams[i][h].Arrival < streams[best][heads[best]].Arrival {
				best = i
			}
		}
		if best < 0 {
			break
		}
		merged = append(merged, streams[best][heads[best]])
		heads[best]++
	}
	for i := range merged {
		merged[i].ID = i
	}
	return merged, nil
}

// AttribRun executes the attribution experiment: the same mixed-QoS
// stream through each system's cluster, attribution on, folded into one
// report per system.
func (s *Suite) AttribRun(o AttribOptions) ([]AttribRow, error) {
	if o.Opt.Requests <= 0 || o.Chips < 1 || o.QPS <= 0 {
		return nil, fmt.Errorf("experiments: bad attrib options %+v", o)
	}
	reqs, err := attribWorkload(o)
	if err != nil {
		return nil, err
	}
	var admission map[string]cluster.TokenBucket
	if o.AdmitRate > 0 {
		admission = map[string]cluster.TokenBucket{
			"": {Rate: o.AdmitRate, Burst: o.AdmitBurst, MaxQueue: 64},
		}
	}
	systems := []metrics.System{s.Planaria, s.PREMA}
	rows := make([]AttribRow, len(systems))
	errs := make([]error, len(systems))
	par.ForEach(len(systems), func(i int) {
		run := make([]workload.Request, len(reqs))
		copy(run, reqs)
		out, err := cluster.Run(cluster.Config{
			System: systems[i], Chips: o.Chips, Policy: o.Policy,
			BatchWindow: o.BatchWindow, MaxBatch: o.MaxBatch,
			Admission: admission,
			Shed:      sim.ShedDoomed,
			Attrib:    true,
		}, run)
		if err != nil {
			errs[i] = err
			return
		}
		report, err := out.AttribReport(run)
		if err != nil {
			errs[i] = err
			return
		}
		rows[i] = AttribRow{
			System:    systems[i].Name,
			Completed: out.Completed,
			ShedFront: out.ShedFront,
			ShedChips: out.ShedChips,
			Rejected:  out.Rejected,
			Report:    report,
		}
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatAttrib renders the attribution rows as text: per-system terminal
// tallies, the per-model × per-QoS phase breakdown, the dominant-cause
// histogram, and the fleet utilization table.
func FormatAttrib(o AttribOptions, rows []AttribRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SLA root-cause attribution — %s, %d chips, %s, %g QPS (batch window %g s)\n",
		o.Scenario.Name, o.Chips, o.Policy, o.QPS, o.BatchWindow)
	for _, r := range rows {
		fmt.Fprintf(&b, "\n%s: completed %d, shed front %d, shed chips %d, rejected %d\n",
			r.System, r.Completed, r.ShedFront, r.ShedChips, r.Rejected)
		b.WriteString(r.Report.Text())
	}
	return b.String()
}

// AttribJSON marshals the rows into the BENCH_attrib.json artifact:
// options header plus rows.
func AttribJSON(o AttribOptions, rows []AttribRow) ([]byte, error) {
	doc := struct {
		Scenario    string      `json:"scenario"`
		Chips       int         `json:"chips"`
		Policy      string      `json:"policy"`
		QPS         float64     `json:"qps"`
		BatchWindow float64     `json:"batch_window_s"`
		MaxBatch    int         `json:"max_batch"`
		AdmitRate   float64     `json:"admit_rate"`
		AdmitBurst  float64     `json:"admit_burst"`
		Requests    int         `json:"requests"`
		Seed        int64       `json:"seed"`
		Rows        []AttribRow `json:"rows"`
	}{
		Scenario: o.Scenario.Name, Chips: o.Chips, Policy: o.Policy,
		QPS: o.QPS, BatchWindow: o.BatchWindow, MaxBatch: o.MaxBatch,
		AdmitRate: o.AdmitRate, AdmitBurst: o.AdmitBurst,
		Requests: o.Opt.Requests, Seed: o.Opt.Seed,
		Rows: rows,
	}
	return artifactJSON(doc)
}
