// Package metrics evaluates serving systems the way the paper's
// evaluation does (§VI-A): throughput is the maximum Poisson arrival rate
// (QPS) at which the MLPerf server SLA still holds, SLA satisfaction rate
// is the fraction of workload instances adhering to the SLA at a fixed
// rate, fairness is PREMA's min-normalized-progress metric, and energy is
// the total consumption per workload.
package metrics

import (
	"fmt"
	"math"
	"sync"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/energy"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// System bundles everything needed to simulate one serving system
// (Planaria or the PREMA baseline).
type System struct {
	Name string
	Cfg  arch.Config
	// NewPolicy constructs a fresh policy per simulation (policies such
	// as PREMA's token scheduler are stateful).
	NewPolicy func() sim.Policy
	// Programs maps model name → compiled program for Cfg.
	Programs map[string]*compiler.Program
	Params   energy.Params
}

func (s System) node() *sim.Node {
	return &sim.Node{Cfg: s.Cfg, Policy: s.NewPolicy(), Programs: s.Programs, Params: s.Params}
}

// Options controls evaluation cost/precision.
type Options struct {
	// Requests per workload instance.
	Requests int
	// Instances (different seeds) per evaluation point.
	Instances int
	// Seed is the base random seed.
	Seed int64
}

// DefaultOptions balances precision against simulation cost.
func DefaultOptions() Options {
	return Options{Requests: 60, Instances: 5, Seed: 1}
}

// Aggregate summarizes one evaluation point (system × scenario × QoS ×
// rate) over Options.Instances instances.
type Aggregate struct {
	QPS       float64
	SLARate   float64 // fraction of instances meeting the SLA
	Fairness  float64 // geometric mean over instances
	EnergyJ   float64 // mean per instance
	MeanLatMS float64 // mean request latency, milliseconds
}

// Evaluate simulates Options.Instances workload instances at a fixed rate.
func Evaluate(sys System, sc workload.Scenario, lvl workload.QoSLevel, qps float64, opt Options) (Aggregate, error) {
	if opt.Requests <= 0 || opt.Instances <= 0 {
		return Aggregate{}, fmt.Errorf("metrics: bad options %+v", opt)
	}
	agg := Aggregate{QPS: qps, Fairness: 1}
	// Instances are independent simulations; run them concurrently and
	// aggregate in index order so results stay deterministic.
	outs := make([]*sim.Outcome, opt.Instances)
	errs := make([]error, opt.Instances)
	var wg sync.WaitGroup
	for inst := 0; inst < opt.Instances; inst++ {
		wg.Add(1)
		go func(inst int) {
			defer wg.Done()
			reqs, err := workload.Generate(sc, lvl, qps, opt.Requests, opt.Seed+int64(inst)*7919)
			if err != nil {
				errs[inst] = err
				return
			}
			outs[inst], errs[inst] = sys.node().Run(reqs)
		}(inst)
	}
	wg.Wait()
	logFairSum := 0.0
	fairCount := 0
	var latSum float64
	var latN int
	for inst := 0; inst < opt.Instances; inst++ {
		if errs[inst] != nil {
			return Aggregate{}, errs[inst]
		}
		out := outs[inst]
		if out.MeetsSLA {
			agg.SLARate++
		}
		if out.Fairness > 0 {
			logFairSum += math.Log(out.Fairness)
			fairCount++
		}
		agg.EnergyJ += out.EnergyJ
		for _, l := range out.Latency {
			latSum += l
			latN++
		}
	}
	agg.SLARate /= float64(opt.Instances)
	agg.EnergyJ /= float64(opt.Instances)
	if fairCount > 0 {
		agg.Fairness = math.Exp(logFairSum / float64(fairCount))
	}
	if latN > 0 {
		agg.MeanLatMS = latSum / float64(latN) * 1e3
	}
	return agg, nil
}

// meetsAt reports whether a majority of instances meet the SLA at qps.
func meetsAt(sys System, sc workload.Scenario, lvl workload.QoSLevel, qps float64, opt Options) (bool, error) {
	a, err := Evaluate(sys, sc, lvl, qps, opt)
	return a.SLARate >= 0.5, err
}

// Throughput finds the maximum sustainable QPS under the SLA. Returns 0
// when even the lowest rate fails.
func Throughput(sys System, sc workload.Scenario, lvl workload.QoSLevel, opt Options) (float64, error) {
	return MaxQPS(func(qps float64) (bool, error) { return meetsAt(sys, sc, lvl, qps, opt) })
}

// MaxQPS finds the highest arrival rate meets accepts: it doubles from
// 0.5 QPS (returning 0 if that fails) up to a 2^20 QPS cap, then bisects
// the last bracket for at most 10 steps or until it is within 5%. meets
// must be monotone in the rate; its first error aborts the search.
func MaxQPS(meets func(qps float64) (bool, error)) (float64, error) {
	const (
		minQPS = 0.5
		maxQPS = 1 << 20
	)
	ok, err := meets(minQPS)
	if err != nil || !ok {
		return 0, err
	}
	lo, hi := minQPS, minQPS
	for hi < maxQPS {
		hi *= 2
		if ok, err = meets(hi); err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		lo = hi
	}
	if hi >= maxQPS {
		return lo, nil
	}
	for i := 0; i < 10 && hi-lo > 0.05*lo; i++ {
		mid := (lo + hi) / 2
		if ok, err = meets(mid); err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// MinNodes returns the smallest cluster of identical nodes that meets the
// SLA in every instance at the given rate (Fig 16's scale-out metric).
// Requests are dispatched to the least-loaded node, estimated by each
// node's backlog of isolated execution times. Returns maxNodes+1 when
// even maxNodes fail.
func MinNodes(sys System, sc workload.Scenario, lvl workload.QoSLevel, qps float64, maxNodes int, opt Options) (int, error) {
	iso := make(map[string]float64, len(sys.Programs))
	full := sys.Cfg.NumSubarrays()
	for name, p := range sys.Programs {
		iso[name] = sys.Cfg.Seconds(p.Table(full).TotalCycles)
	}
	for k := 1; k <= maxNodes; k++ {
		allOK := true
		for inst := 0; inst < opt.Instances && allOK; inst++ {
			reqs, err := workload.Generate(sc, lvl, qps, opt.Requests, opt.Seed+int64(inst)*104729)
			if err != nil {
				return 0, err
			}
			perNode, err := dispatch(reqs, k, iso)
			if err != nil {
				return 0, err
			}
			finishes := make([]float64, len(reqs))
			for i := range finishes {
				finishes[i] = -1
			}
			for _, sub := range perNode {
				if len(sub) == 0 {
					continue
				}
				out, err := sys.node().Run(sub)
				if err != nil {
					return 0, err
				}
				// Run's outcome is positional; request IDs are the
				// original indices into reqs.
				for i, r := range sub {
					finishes[r.ID] = out.Finishes[i]
				}
			}
			if !workload.MeetsSLA(reqs, finishes) {
				allOK = false
			}
		}
		if allOK {
			return k, nil
		}
	}
	return maxNodes + 1, nil
}

// dispatch assigns requests to k nodes least-loaded-first, where load is
// the node's backlog of isolated execution times. Each dispatched request
// carries its original index into the global slice as its ID.
func dispatch(reqs []workload.Request, k int, iso map[string]float64) ([][]workload.Request, error) {
	free := make([]float64, k)
	perNode := make([][]workload.Request, k)
	for i, r := range reqs {
		best := 0
		for n := 1; n < k; n++ {
			if free[n] < free[best] {
				best = n
			}
		}
		t, ok := iso[r.Model]
		if !ok {
			return nil, fmt.Errorf("metrics: no isolated time for %q", r.Model)
		}
		start := math.Max(free[best], r.Arrival)
		free[best] = start + t
		local := r
		local.ID = i
		perNode[best] = append(perNode[best], local)
	}
	return perNode, nil
}
