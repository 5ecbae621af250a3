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

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/energy"
	"planaria/internal/par"
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
	// PenaltyScale is the re-allocation penalty multiplier of the nodes
	// this package simulates (sim.Node.PenaltyScale; 0 means 1).
	PenaltyScale float64
}

func (s System) node() *sim.Node {
	return &sim.Node{Cfg: s.Cfg, Policy: s.NewPolicy(), Programs: s.Programs, Params: s.Params, PenaltyScale: s.PenaltyScale}
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

// DefaultOptions returns the evaluation defaults: 400-request
// instances, 3 seeds, base seed 1.
func DefaultOptions() Options {
	return Options{Requests: 400, Instances: 3, Seed: 1}
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

// stream generates the request stream of workload instance inst of one
// evaluation point, seeded by the instance. Evaluate simulates it on a
// fresh node; the max-QPS votes rebuild it from the instance's draws.
func stream(sc workload.Scenario, lvl workload.QoSLevel, qps float64, opt Options, inst int) ([]workload.Request, error) {
	return workload.Generate(sc, lvl, qps, opt.Requests, instanceSeed(opt, inst))
}

// instanceSeed is the seed of workload instance inst.
func instanceSeed(opt Options, inst int) int64 { return opt.Seed + int64(inst)*7919 }

// instance simulates workload instance inst of one evaluation point in
// full.
func (s System) instance(sc workload.Scenario, lvl workload.QoSLevel, qps float64, opt Options, inst int) (*sim.Outcome, error) {
	reqs, err := stream(sc, lvl, qps, opt, inst)
	if err != nil {
		return nil, err
	}
	return s.node().Run(reqs)
}

// validate rejects options that would simulate nothing.
func (opt Options) validate() error {
	if opt.Requests <= 0 || opt.Instances <= 0 {
		return fmt.Errorf("metrics: bad options %+v", opt)
	}
	return nil
}

// Evaluate simulates Options.Instances workload instances at a fixed
// rate. MeanLatMS averages the requests that finished; a request that
// never did (shed, dropped, or rejected for an unknown model) has no
// latency to average.
func Evaluate(sys System, sc workload.Scenario, lvl workload.QoSLevel, qps float64, opt Options) (Aggregate, error) {
	if err := opt.validate(); err != nil {
		return Aggregate{}, err
	}
	agg := Aggregate{QPS: qps, Fairness: 1}
	// Instances are independent simulations; run them concurrently, one
	// goroutine each, and aggregate in index order so results stay
	// deterministic.
	outs := make([]*sim.Outcome, opt.Instances)
	errs := make([]error, opt.Instances)
	par.PerItem(opt.Instances, func(inst int) {
		outs[inst], errs[inst] = sys.instance(sc, lvl, qps, opt, inst)
	})
	if err := par.FirstError(errs); err != nil {
		return Aggregate{}, err
	}
	logFairSum := 0.0
	fairCount := 0
	var latSum float64
	var latN int
	for _, out := range outs {
		if out.MeetsSLA {
			agg.SLARate++
		}
		if out.Fairness > 0 {
			logFairSum += math.Log(out.Fairness)
			fairCount++
		}
		agg.EnergyJ += out.EnergyJ
		for i, l := range out.Latency {
			if out.Finishes[i] >= 0 {
				latSum += l
				latN++
			}
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

// Majority reports whether at least half of n instance votes say yes
// (2·yes ≥ n). It runs the instances in index order and stops as soon as
// the verdict is fixed, since the instances left could not change it.
// Each round runs the fewest further instances that could fix the
// verdict, so no more instances run than a one-at-a-time count would
// need. A round's instances run concurrently, one goroutine each as in
// Evaluate. (At GOMAXPROCS=1, par.ForEach would run them inline; on a
// 2-vCPU host that raised the paper sweep's peak RSS from ~11 MB to
// 13-14 MB, as the garbage collector's concurrent mark waited longer for
// the processor.) The first error
// among the instances run, in index order, ends the vote; an instance
// that never ran reports no error, and neither does one whose vote
// stopped early (as sim.Node.MeetsSLA does) on an error it would have
// hit after its verdict was fixed.
func Majority(n int, vote func(inst int) (bool, error)) (bool, error) {
	need := (n + 1) / 2 // the yes votes that carry it
	votes := make([]bool, n)
	errs := make([]error, n)
	yes, no := 0, 0
	for yes < need && no <= n-need {
		base := yes + no
		batch := min(need-yes, n-need+1-no)
		par.PerItem(batch, func(i int) {
			votes[base+i], errs[base+i] = vote(base + i)
		})
		for i := base; i < base+batch; i++ {
			if errs[i] != nil {
				return false, errs[i]
			}
			if votes[i] {
				yes++
			} else {
				no++
			}
		}
	}
	return yes >= need, nil
}

// voter returns one max-QPS search's vote at a rate: whether a majority
// of instances meet the SLA there, simulating only the instances Majority
// needs to decide, each only until its verdict is certain
// (sim.Node.MeetsSLA). Each instance's stream is the one stream()
// generates at the rate, rebuilt from draws made at the instance's first
// vote into the buffer of its previous one. Only the goroutine voting for
// an instance touches its slots, and a rate's votes all finish before the
// next rate's begin. opt must be valid.
func voter(sys System, sc workload.Scenario, lvl workload.QoSLevel, opt Options) func(qps float64) (bool, error) {
	draws := make([]*workload.Draws, opt.Instances)
	reqs := make([][]workload.Request, opt.Instances)
	return func(qps float64) (bool, error) {
		return Majority(opt.Instances, func(inst int) (bool, error) {
			if draws[inst] == nil {
				d, err := workload.NewDraws(sc, lvl, opt.Requests, instanceSeed(opt, inst))
				if err != nil {
					return false, err
				}
				draws[inst] = d
			}
			reqs[inst] = draws[inst].At(qps, reqs[inst][:0])
			return sys.node().MeetsSLA(reqs[inst])
		})
	}
}

// Throughput finds the maximum sustainable QPS under the SLA: MaxQPS over
// a majority vote of Options.Instances instances per probed rate. Each
// vote stops once its verdict is fixed, and each instance's run once its
// own SLA verdict is (sim.Node.MeetsSLA), so an error in an instance the
// vote never ran, or one that a run would have hit after its verdict was
// fixed, is not seen. An instance's random draws are made once per
// search, not once per probed rate.
func Throughput(sys System, sc workload.Scenario, lvl workload.QoSLevel, opt Options) (float64, error) {
	if err := opt.validate(); err != nil {
		return 0, err
	}
	return MaxQPS(voter(sys, sc, lvl, opt))
}

// MaxQPS finds the highest arrival rate meets accepts: it doubles from
// 0.5 QPS (returning 0 if that fails) up to a 2^20 QPS cap, then bisects
// the last bracket for at most 10 steps or until it is within 5%. meets
// must be monotone in the rate; its first error aborts the search. The
// searches in this repository pass a Majority vote as meets, which
// decides early: only the instances it runs can report an error, and in
// Throughput only before the instance's own verdict is fixed.
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
