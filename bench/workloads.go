package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"planaria/internal/arch"
	"planaria/internal/cluster"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
	"planaria/internal/energy"
	"planaria/internal/experiments"
	"planaria/internal/fault"
	"planaria/internal/metrics"
	"planaria/internal/obs"
	"planaria/internal/sched"
	"planaria/internal/sim"
	"planaria/internal/workload"
	"planaria/internal/workload/trace"
)

// A benchWorkload is one set of inputs the benchmark runs. setup builds the
// inputs from the seed (compiling programs, generating requests and
// fault schedules) and returns an instance whose run method is one
// measured call. small shrinks the inputs for the package's tests.
type benchWorkload struct {
	name  string
	why   string
	setup func(seed int64, small bool, st *setupTimer) (*instance, error)
}

// workloads lists the benchmark workloads in run order. The reasons are
// the ones BENCHMARK.json and README.md give.
var workloads = []*benchWorkload{
	{"cluster-steady", "1M-request Poisson stream on 8 chips at 60% load: cluster front end, shard merge and sim event loop, no faults/sinks/elastic", setupClusterSteady},
	{"planet-day", "24 h autoscaled planet-day trace (1.6M requests): trace generation dominates set-up; autoscaler, drain and migration", setupPlanetDay},
	{"elastic-crowd", "flash crowd on 2 chips with elastic re-fission on: the only workload where refission planning runs", setupElasticCrowd},
	{"observed-faults", "4 faulty chips with metrics, chip traces and attribution on: the only workload with the fault path and obs sinks", setupObservedFaults},
	{"paper-sweep", "the paper's Fig 12-15 sweep at three seeds: thousands of short bisection runs of Planaria and PREMA instead of one long run", setupPaperSweep},
}

func workloadByName(name string) (*benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setupTimer attributes set-up time to the layer that spent it:
// "compile", "workload" (workload.Generate), "trace" (trace.Spec.Generate),
// "fault" (fault.Generate) or "poisson" (this benchmark's own stream
// generator). In a traced run it also records one span per piece.
type setupTimer struct {
	busy     map[string]time.Duration
	compiles int // programs compiled
	traced   int // requests trace.Spec.Generate produced
	spans    *spanLog
	parent   int
}

func newSetupTimer(spans *spanLog, parent int) *setupTimer {
	return &setupTimer{busy: map[string]time.Duration{}, spans: spans, parent: parent}
}

func (t *setupTimer) do(layer string, fn func() error) error {
	id := t.spans.begin(layer, t.parent)
	t0 := time.Now()
	err := fn()
	t.busy[layer] += time.Since(t0)
	t.spans.end(id)
	return err
}

// instance holds one workload's generated inputs. A stream workload
// runs cluster.Run on reqs with a fresh config per call; the paper
// sweep runs ServingComparison once per entry of sweeps, each on a fresh
// experiments.Suite (the Suite caches throughputs, so reusing one would
// measure a cache hit).
type instance struct {
	reqs    []workload.Request
	config  func() cluster.Config
	horizon float64 // chip-hours horizon of an autoscaled run; 0 for static fleets
	// observed marks the workload whose config turns the sinks on; the
	// traced run varies them one at a time.
	observed bool

	sweeps []metrics.Options
}

// callOpts alters one call for the traced run: wrap replaces each
// system's policy constructor, and sinks overrides which observability
// sinks a cluster call turns on.
type callOpts struct {
	wrap  func(metrics.System) metrics.System
	sinks *sinkSet
}

// sinkSet selects the observability sinks of a cluster call.
type sinkSet struct{ metrics, traces, attrib bool }

// output is what one call returns, before any checking. cfg is the
// cluster config the call ran, without the traced run's policy wrapping.
type output struct {
	cfg  cluster.Config
	out  *cluster.Outcome
	rows []experiments.ServingRow
}

// run is the measured call: only the simulator's entry points, no checks.
func (in *instance) run(o callOpts) (output, error) {
	if in.sweeps != nil {
		var rows []experiments.ServingRow
		for _, opt := range in.sweeps {
			s, err := experiments.NewSuite()
			if err != nil {
				return output{}, err
			}
			s.Opt = opt
			if o.wrap != nil {
				s.Planaria, s.PREMA, s.Elastic = o.wrap(s.Planaria), o.wrap(s.PREMA), o.wrap(s.Elastic)
			}
			r, err := s.ServingComparison()
			if err != nil {
				return output{}, err
			}
			rows = append(rows, r...)
		}
		return output{rows: rows}, nil
	}
	cfg := in.config()
	if o.sinks != nil {
		cfg.Observe, cfg.ChipTraces, cfg.Attrib = o.sinks.metrics, o.sinks.traces, o.sinks.attrib
	}
	run := cfg
	if o.wrap != nil {
		run.System = o.wrap(cfg.System)
	}
	out, err := cluster.Run(run, in.reqs)
	return output{cfg: cfg, out: out}, err
}

// verify checks one call's output and returns its digest. A cluster call
// must conserve requests, and its digest covers every finish time bit
// for bit plus the terminal tallies; a sweep's digest covers every row.
func (in *instance) verify(o output) ([32]byte, error) {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	var sum [32]byte
	if in.sweeps != nil {
		if len(o.rows) != 9*len(in.sweeps) {
			return sum, fmt.Errorf("%d paper sweeps returned %d rows, want 9 each", len(in.sweeps), len(o.rows))
		}
		for _, r := range o.rows {
			// A system that cannot meet the SLA even at the lowest rate
			// the search tries has a max QPS of 0: an outcome, not an error.
			if !(r.PlanariaQPS >= 0 && r.PremaQPS >= 0 && r.PlanariaQPS < math.Inf(1) && r.PremaQPS < math.Inf(1)) ||
				!(r.PlanariaSLA >= 0 && r.PlanariaSLA <= 1 && r.PremaSLA >= 0 && r.PremaSLA <= 1) {
				return sum, fmt.Errorf("%s/%s: max QPS %g / %g, SLA rate %g / %g (Planaria / PREMA)",
					r.Workload, r.QoS, r.PlanariaQPS, r.PremaQPS, r.PlanariaSLA, r.PremaSLA)
			}
			h.Write([]byte(r.Workload + "|" + r.QoS + "|"))
			for _, f := range []float64{r.PlanariaQPS, r.PremaQPS, r.Ratio, r.RateQPS,
				r.PlanariaSLA, r.PremaSLA, r.PlanariaFair, r.PremaFair, r.PlanariaJ, r.PremaJ} {
				putF(f)
			}
		}
		copy(sum[:], h.Sum(nil))
		return sum, nil
	}
	out, n := o.out, len(in.reqs)
	if len(out.Finishes) != n {
		return sum, fmt.Errorf("%d finish times for %d requests", len(out.Finishes), n)
	}
	if got := out.Completed + out.ShedFront + out.ShedChips + out.Rejected + out.ShedDrain; got != n {
		return sum, fmt.Errorf("conservation: completed %d + shed front %d + shed chips %d + rejected %d + shed drain %d = %d, want %d",
			out.Completed, out.ShedFront, out.ShedChips, out.Rejected, out.ShedDrain, got, n)
	}
	for _, f := range out.Finishes {
		putF(f)
	}
	for _, v := range []int{out.Completed, out.ShedFront, out.ShedChips, out.Rejected, out.ShedDrain,
		out.Migrated, out.Killed, out.Retries, out.FaultEvents, out.Batches} {
		put(uint64(v))
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// simMetrics returns the simulated outcome of a verified call. These are
// deterministic for a seed. sim_sla_frac is the SLA attainment: for a
// stream, requests finished by their deadline over arrivals (shed and
// rejected requests miss); for the sweeps, the mean over their rows of
// the fraction of Planaria instances meeting the MLPerf SLA at the
// common rate (Fig 13). sim_qps_ratio is the geometric mean of Planaria
// over PREMA max QPS (Fig 12) over the rows where both are positive.
func (in *instance) simMetrics(o output) map[string]float64 {
	m := map[string]float64{}
	if in.sweeps != nil {
		logSum, sla, n := 0.0, 0.0, 0
		for _, r := range o.rows {
			sla += r.PlanariaSLA
			if r.PlanariaQPS > 0 && r.PremaQPS > 0 {
				logSum += math.Log(r.Ratio)
				n++
			}
		}
		m["sim_sla_frac"] = sla / float64(len(o.rows))
		if n > 0 {
			m["sim_qps_ratio"] = math.Exp(logSum / float64(n))
		}
		return m
	}
	out := o.out
	m["sim_sla_frac"] = out.DeadlineFrac
	lat := make([]float64, 0, out.Completed)
	for i, f := range out.Finishes {
		if f >= 0 {
			lat = append(lat, out.Latency[i])
		}
	}
	sort.Float64s(lat)
	if len(lat) > 0 {
		m["sim_p99_ms"] = 1e3 * lat[(len(lat)*99+99)/100-1]
		m["sim_p99_samples"] = float64(len(lat))
	}
	if in.horizon > 0 {
		m["sim_chip_hours"] = out.Fleet.ChipSeconds(in.horizon) / 3600
	}
	return m
}

// planariaSystem compiles nets for the Planaria chip and returns the
// system experiments.NewSuite would build for them, with the spatial or
// the elastic scheduler.
func planariaSystem(nets []*dnn.Network, elastic bool, st *setupTimer) (metrics.System, error) {
	cfg := arch.Planaria()
	progs := make(map[string]*compiler.Program, len(nets))
	err := st.do("compile", func() error {
		for _, net := range nets {
			var err error
			if progs[net.Name], err = compiler.CompileProgram(net, cfg, true); err != nil {
				return err
			}
		}
		return nil
	})
	st.compiles += len(nets)
	sys := metrics.System{
		Name: "Planaria", Cfg: cfg, Programs: progs, Params: energy.Default(),
		NewPolicy: func() sim.Policy { return sched.NewSpatial(cfg) },
	}
	if elastic {
		sys.Name = "Planaria-Elastic"
		sys.NewPolicy = func() sim.Policy { return sched.NewElastic(cfg) }
	}
	return sys, err
}

// modelNets returns the named benchmark networks of the paper.
func modelNets(models []string) ([]*dnn.Network, error) {
	nets := make([]*dnn.Network, len(models))
	for i, name := range models {
		var err error
		if nets[i], err = dnn.ByName(name); err != nil {
			return nil, err
		}
	}
	return nets, nil
}

// toyNets are the two small networks BenchmarkClusterRun serves: small
// enough that compilation stays out of the way of the serving machinery.
func toyNets() ([]*dnn.Network, error) {
	var nets []*dnn.Network
	for i, name := range []string{"bench-a", "bench-b"} {
		bld := dnn.NewBuilder(name, "classification", 32, 32, 8)
		bld.Conv("c1", 32+16*i, 3, 1)
		bld.Conv("c2", 32+16*i, 3, 1)
		bld.GlobalPool("gp")
		bld.FC("fc", 10)
		net, err := bld.Build()
		if err != nil {
			return nil, err
		}
		nets = append(nets, net)
	}
	return nets, nil
}

func setupClusterSteady(seed int64, small bool, st *setupTimer) (*instance, error) {
	nets, err := toyNets()
	if err != nil {
		return nil, err
	}
	sys, err := planariaSystem(nets, false, st)
	if err != nil {
		return nil, err
	}
	const chips = 8
	// About 60% of the batched service capacity of 8 chips: 2.3 is the
	// throughput gain of a full batch of 8 at the default batching cost.
	cfg := sys.Cfg
	iso := cfg.Seconds(sys.Programs[nets[0].Name].Table(cfg.NumSubarrays()).TotalCycles)
	qps := 0.6 * chips * 2.3 / iso
	n := 1_000_000
	if small {
		n = 5_000
	}
	var reqs []workload.Request
	_ = st.do("poisson", func() error {
		reqs = poissonStream(nets, n, qps, seed)
		return nil
	})
	return &instance{reqs: reqs, config: func() cluster.Config {
		return cluster.Config{System: sys, Chips: chips, Policy: "least-work", BatchWindow: 2e-4, MaxBatch: 8}
	}}, nil
}

// poissonStream draws the BenchmarkClusterRun stream: Poisson arrivals
// over nets with a one-second deadline, so the run is bound by
// throughput, not by shedding.
func poissonStream(nets []*dnn.Network, n int, qps float64, seed int64) []workload.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]workload.Request, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / qps
		reqs = append(reqs, workload.Request{
			ID:       i,
			Model:    nets[rng.Intn(len(nets))].Name,
			Domain:   "classification",
			Arrival:  t,
			Priority: rng.Intn(11) + 1,
			QoS:      1,
			Deadline: t + 1,
		})
	}
	return reqs
}

// generateTrace runs trace.Spec.Generate under the set-up timer.
func generateTrace(spec *trace.Spec, st *setupTimer) ([]workload.Request, error) {
	var reqs []workload.Request
	err := st.do("trace", func() error {
		var err error
		reqs, err = spec.Generate()
		return err
	})
	st.traced += len(reqs)
	return reqs, err
}

func setupPlanetDay(seed int64, small bool, st *setupTimer) (*instance, error) {
	spec := experiments.DefaultAutoscaleTrace()
	spec.Seed = seed
	if small {
		spec.MaxRequests = 1_000
	}
	nets, err := modelNets(spec.Models)
	if err != nil {
		return nil, err
	}
	sys, err := planariaSystem(nets, false, st)
	if err != nil {
		return nil, err
	}
	reqs, err := generateTrace(spec, st)
	if err != nil {
		return nil, err
	}
	return &instance{reqs: reqs, horizon: spec.HorizonS, config: func() cluster.Config {
		// DefaultAutoscaleOptions builds a fresh Hysteresis controller,
		// which is stateful, on every call.
		scale := experiments.DefaultAutoscaleOptions().Scale
		return cluster.Config{System: sys, Chips: 6, Shed: sim.ShedPriority, Scale: &scale}
	}}, nil
}

func setupElasticCrowd(seed int64, small bool, st *setupTimer) (*instance, error) {
	spec := &trace.Spec{
		Version:  trace.FormatVersion,
		Name:     "elastic-crowd",
		Models:   workload.ScenarioB().Models,
		QoS:      workload.QoSHard.Name,
		Seed:     seed,
		HorizonS: 60,
		BaseQPS:  2900,
		// A 1.2x crowd on a fleet already near capacity: it deepens the
		// queues the elastic planner works on without tipping them into
		// the superlinear regime README.md describes, where a call's cost
		// swings two-fold with the seed.
		Crowds: []trace.Crowd{{AtS: 30, Mult: 1.2, RampS: 1, DecayS: 2}},
	}
	if small {
		spec.HorizonS, spec.BaseQPS = 1, 1000
		spec.Crowds[0].AtS = 1
	}
	nets, err := modelNets(spec.Models)
	if err != nil {
		return nil, err
	}
	sys, err := planariaSystem(nets, true, st)
	if err != nil {
		return nil, err
	}
	reqs, err := generateTrace(spec, st)
	if err != nil {
		return nil, err
	}
	return &instance{reqs: reqs, config: func() cluster.Config {
		return cluster.Config{System: sys, Chips: 2, Policy: "least-work"}
	}}, nil
}

func setupObservedFaults(seed int64, small bool, st *setupTimer) (*instance, error) {
	sc := workload.ScenarioA()
	nets, err := modelNets(sc.Models)
	if err != nil {
		return nil, err
	}
	sys, err := planariaSystem(nets, false, st)
	if err != nil {
		return nil, err
	}
	n := 20_000
	if small {
		n = 300
	}
	var reqs []workload.Request
	err = st.do("workload", func() error {
		reqs, err = workload.Generate(sc, workload.QoSMedium, 80, n, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	const chips = 4
	// Faults keep landing until well after the last arrival, so retried
	// and queued work still meets them. Only transient faults are kept:
	// fault.Generate makes a third of its faults permanent, and a few
	// permanent faults that happen to take out whole pods decide a run's
	// cost (README.md describes the regime where they kill the fleet), so
	// with them the cost of a call swings several-fold from seed to seed.
	// Two transient faults per chip-second give each run thousands of
	// fault events and hundreds of kills and retries.
	const faultRate = 2.0
	horizon := 1.5 * reqs[len(reqs)-1].Arrival
	faults := make([]*fault.Schedule, chips)
	err = st.do("fault", func() error {
		for c := range faults {
			s, err := fault.Generate(sys.Cfg.NumSubarrays(), sys.Cfg.Pods, faultRate, horizon, 10e-3,
				seed+104729*int64(c+1))
			if err != nil {
				return err
			}
			transient := s.Events[:0]
			for _, e := range s.Events {
				if e.Duration > 0 {
					transient = append(transient, e)
				}
			}
			s.Events = transient
			faults[c] = s
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &instance{reqs: reqs, observed: true, config: func() cluster.Config {
		return cluster.Config{
			System: sys, Chips: chips, Policy: "least-work",
			BatchWindow: 2e-3, MaxBatch: 8,
			Faults: faults, FaultMode: sim.FaultFission, Shed: sim.ShedDoomed,
			Observe: true, ChipTraces: true, Attrib: true,
		}
	}}, nil
}

func setupPaperSweep(seed int64, small bool, st *setupTimer) (*instance, error) {
	// The process-wide program cache would turn every set-up after the
	// first into cache hits; a fresh cache makes each one compile.
	compiler.DefaultCache = compiler.NewCache()
	var s *experiments.Suite
	err := st.do("compile", func() error {
		var err error
		s, err = experiments.NewSuite()
		return err
	})
	if err != nil {
		return nil, err
	}
	st.compiles += len(s.Planaria.Programs) + len(s.PREMA.Programs)
	// One call sweeps three seeds: which max-QPS searches a seed sends
	// where moves a single sweep's cost by up to half from seed to seed.
	sweeps := make([]metrics.Options, 3)
	if small {
		sweeps = sweeps[:1]
	}
	for i := range sweeps {
		sweeps[i] = s.Opt
		sweeps[i].Seed = 3*seed + int64(i)
		if small {
			sweeps[i].Requests, sweeps[i].Instances = 10, 1
		}
	}
	return &instance{sweeps: sweeps}, nil
}

// traceEvents counts the chip trace events of a cluster call.
func traceEvents(out *cluster.Outcome) int {
	n := 0
	for _, cr := range out.PerChip {
		if cr.Trace != nil {
			n += len(cr.Trace.Events)
		}
	}
	return n
}

// scaleUps counts chip boots on an autoscaled run, initial boots included.
func scaleUps(out *cluster.Outcome) int {
	n := 0
	for _, ev := range out.Fleet.Events() {
		if ev.Kind == obs.FleetBoot {
			n++
		}
	}
	return n
}
