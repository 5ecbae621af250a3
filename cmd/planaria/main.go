// Command planaria regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	planaria [flags] <experiment>...
//
// Experiments: table1, table2, fig12, fig13, fig14, fig15, fig16, fig17,
// fig18, fig19, ablation, models, trace, chaos, cluster, attrib,
// autoscale, all. An unknown name exits 2.
//
// -out DIR writes each experiment's deterministic artifact into DIR:
// BENCH_<experiment>.json for chaos, cluster, attrib and autoscale, and
// trace.json plus metrics.json for trace.
//
// The trace experiment runs one instrumented co-location instance on both
// systems and produces a Perfetto-loadable timeline and a metrics
// snapshot; open the timeline at ui.perfetto.dev.
//
// The chaos experiment sweeps fault-injection rates (-fault-rates) or
// replays a JSON fault schedule (-faults, see examples/chaos/faults.json)
// and compares SLA retention under Planaria's fission masking + load
// shedding (-shed) against PREMA's monolithic derate.
//
// The cluster experiment sweeps multi-chip serving: cluster sizes
// (-chips), balancing policies (-policy), and optional dynamic batching
// (-batch-window); each cell reports its bisected maximum SLA-meeting
// QPS for both systems.
//
// The attrib experiment answers "why did my request miss its SLA?": it
// runs a mixed-QoS stream through the cluster with the attribution
// ledger on and prints, per model × QoS level, where each request's
// latency went (admit-wait, batch-wait, queue-wait, compute,
// preempt-stall, retry-backoff, fault-stall), the dominant cause of
// each SLA violation, and the per-chip/fleet utilization breakdown
// (busy/idle/faulted/reconfig cycles).
//
// The autoscale experiment replays a planet-scale workload trace — a
// 24 h diurnal rate curve with flash crowds (-trace-file for a custom
// JSON spec) — against a grid of static fleet sizes (-statics) and one
// autoscaled fleet (-ceiling slots), comparing SLA attainment against
// chip-hours billed.
//
// The chaos, cluster, attrib and autoscale experiments start from the
// experiments package's Default*Options and override only the flags
// given on the command line. The paper's tables and figures read
// -requests, -instances and -seed, whose defaults are
// metrics.DefaultOptions and match EXPERIMENTS.md. Profiling flags
// (-cpuprofile, -memprofile, -phasestats) live here in the CLI: the
// simulation packages never read the wall clock (enforced by
// planaria-vet), so all wall-time accounting stays in this layer.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"planaria/internal/cluster"
	"planaria/internal/dnn"
	"planaria/internal/experiments"
	"planaria/internal/fault"
	"planaria/internal/metrics"
	"planaria/internal/sim"
	"planaria/internal/workload"
	"planaria/internal/workload/trace"
)

// experimentNames lists every experiment the command accepts.
var experimentNames = []string{"table1", "table2", "fig12", "fig13", "fig14", "fig15",
	"fig16", "fig17", "fig18", "fig19", "ablation", "models", "trace", "chaos",
	"cluster", "attrib", "autoscale", "all"}

// phaseClock reports wall-clock and heap-allocation deltas per CLI phase
// on stderr when -phasestats is set.
type phaseClock struct {
	enabled   bool
	start     time.Time
	last      time.Time
	lastBytes uint64
	lastObjs  uint64
}

func newPhaseClock(enabled bool) *phaseClock {
	p := &phaseClock{enabled: enabled, start: time.Now()}
	p.last = p.start
	if enabled {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.lastBytes, p.lastObjs = ms.TotalAlloc, ms.Mallocs
	}
	return p
}

// mark closes the current phase under the given name.
func (p *phaseClock) mark(name string) {
	if !p.enabled {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(os.Stderr, "phase %-12s %8.2fs  %10.1f MB  %12d allocs\n",
		name, time.Since(p.last).Seconds(),
		float64(ms.TotalAlloc-p.lastBytes)/1e6, ms.Mallocs-p.lastObjs)
	p.last = time.Now()
	p.lastBytes, p.lastObjs = ms.TotalAlloc, ms.Mallocs
}

func scenarioByName(name string) (workload.Scenario, error) {
	for _, sc := range workload.Scenarios() {
		if strings.EqualFold(sc.Name, name) || strings.EqualFold(sc.Name, "Workload-"+name) {
			return sc, nil
		}
	}
	return workload.Scenario{}, fmt.Errorf("unknown scenario %q (want A, B, or C)", name)
}

func qosByName(name string) (workload.QoSLevel, error) {
	for _, lvl := range workload.Levels {
		if strings.EqualFold(lvl.Name, name) || strings.EqualFold(lvl.Name, "QoS-"+name) {
			return lvl, nil
		}
	}
	return workload.QoSLevel{}, fmt.Errorf("unknown QoS level %q (want S, M, or H)", name)
}

// cli holds the parsed command line.
type cli struct {
	requests, instances int
	seed                int64
	rate                float64
	scenario, qos       string
	faults, faultRates  string
	shed                string
	chips, policy       string
	batchWindow         float64
	maxBatch            int
	traceFile, statics  string
	ceiling             int
	elastic             bool
	out                 string
	given               map[string]bool // flags set on the command line
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var f cli
	defaults := metrics.DefaultOptions()
	fs := flag.NewFlagSet("planaria", flag.ContinueOnError)
	fs.IntVar(&f.requests, "requests", defaults.Requests, "requests per workload instance (chaos, cluster and attrib keep their own default unless given)")
	fs.IntVar(&f.instances, "instances", defaults.Instances, "workload instances (seeds) per evaluation point (chaos and cluster keep their own default unless given)")
	fs.Int64Var(&f.seed, "seed", defaults.Seed, "base random seed (chaos, cluster and attrib keep their own default unless given)")
	fs.Float64Var(&f.rate, "rate", 100, "fixed arrival rate (QPS) for fig16, trace and attrib (attrib keeps its own default unless given)")
	profile := fs.String("profile", "", "print the per-layer compiled profile of a model (e.g. -profile ResNet-50)")
	profAlloc := fs.Int("alloc", 16, "subarray allocation for -profile")
	fs.StringVar(&f.scenario, "scenario", "A", "workload scenario (A, B, or C)")
	fs.StringVar(&f.qos, "qos", "M", "QoS level (S, M, or H)")
	fs.StringVar(&f.faults, "faults", "", "JSON fault schedule to replay in the chaos experiment (overrides -fault-rates)")
	fs.StringVar(&f.faultRates, "fault-rates", "", "comma-separated fault rates (faults/s) for the chaos sweep (default 0,10,40,160)")
	fs.StringVar(&f.shed, "shed", "doomed", "Planaria admission-control policy for chaos (none, doomed, or priority)")
	fs.StringVar(&f.chips, "chips", "", "comma-separated cluster sizes for the cluster experiment (default 1,2,4)")
	fs.StringVar(&f.policy, "policy", "all", "comma-separated balancing policies for the cluster experiment (round-robin, least-work, affinity, or all)")
	fs.Float64Var(&f.batchWindow, "batch-window", 0, "dynamic-batching window in seconds for cluster and attrib (0 disables batching)")
	fs.IntVar(&f.maxBatch, "max-batch", 8, "batch size cap; applies whenever either batching flag is given")
	fs.StringVar(&f.traceFile, "trace-file", "", "JSON trace spec for the autoscale experiment (default: the built-in 24 h planet-day trace)")
	fs.StringVar(&f.statics, "statics", "", "comma-separated static fleet sizes for the autoscale experiment (default 1,2,3)")
	fs.IntVar(&f.ceiling, "ceiling", 0, "autoscaled fleet slot ceiling for the autoscale experiment (default 6)")
	fs.BoolVar(&f.elastic, "elastic", false, "add the elastic re-fission system as an extra axis in the cluster, autoscale, and ablation experiments")
	fs.StringVar(&f.out, "out", "", "write each experiment's artifact into this directory (BENCH_<experiment>.json; trace: trace.json and metrics.json)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	phasestats := fs.Bool("phasestats", false, "report per-phase wall-clock and allocations on stderr")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: planaria [flags] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: %s\n\n", strings.Join(experimentNames, " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	f.given = map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { f.given[fl.Name] = true })

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			pf, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "planaria:", err)
				return
			}
			defer pf.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(pf); err != nil {
				fmt.Fprintln(os.Stderr, "planaria:", err)
			}
		}()
	}
	phases := newPhaseClock(*phasestats)

	if *profile != "" {
		rows, err := experiments.Profile(*profile, *profAlloc)
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatProfile(*profile, *profAlloc, rows))
		phases.mark("profile")
		return 0
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	want := map[string]bool{}
	for _, a := range fs.Args() {
		a = strings.ToLower(a)
		if !slices.Contains(experimentNames, a) {
			fmt.Fprintf(os.Stderr, "planaria: unknown experiment %q (want one of: %s)\n",
				a, strings.Join(experimentNames, " "))
			return 2
		}
		if a == "all" {
			for _, e := range []string{"models", "table1", "table2", "fig12", "fig13",
				"fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "ablation"} {
				want[e] = true
			}
			continue
		}
		want[a] = true
	}

	start := time.Now()
	suite, err := experiments.NewSuite()
	if err != nil {
		return fail(err)
	}
	suite.Opt = metrics.Options{Requests: f.requests, Instances: f.instances, Seed: f.seed}
	phases.mark("compile")

	if want["models"] {
		fmt.Println("Benchmark models")
		for _, n := range dnn.All() {
			fmt.Println("  " + n.Summary())
		}
		fmt.Println()
	}
	if want["table1"] {
		fmt.Println(experiments.FormatTable1())
	}
	if want["table2"] {
		cells, err := suite.Table2Sensitivity()
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatTable2(cells))
		phases.mark("table2")
	}

	needServing := want["fig12"] || want["fig13"] || want["fig14"] || want["fig15"]
	if needServing {
		rows, err := suite.ServingComparison()
		if err != nil {
			return fail(err)
		}
		phases.mark("serving")
		if want["fig12"] {
			fmt.Println(experiments.FormatFig12(rows))
		}
		if want["fig13"] {
			fmt.Println(experiments.FormatFig13(rows))
		}
		if want["fig14"] {
			fmt.Println(experiments.FormatFig14(rows))
		}
		if want["fig15"] {
			fmt.Println(experiments.FormatFig15(rows))
		}
	}
	if want["fig16"] {
		rows, err := suite.Fig16ScaleOut(f.rate)
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatFig16(rows))
		phases.mark("fig16")
	}
	if want["fig17"] {
		rows, err := suite.Fig17Isolated()
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatFig17(rows))
		phases.mark("fig17")
	}
	if want["fig18"] {
		rows, err := suite.Fig18Granularity()
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatFig18(rows))
		phases.mark("fig18")
	}
	if want["fig19"] {
		fmt.Println(experiments.FormatFig19())
	}
	if want["ablation"] {
		for _, sc := range workload.Scenarios() {
			rows, err := suite.SchedulerAblation(sc)
			if err != nil {
				return fail(err)
			}
			fmt.Println(experiments.FormatSchedulerAblation(rows))
		}
		orows, err := experiments.OmniAblation()
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatOmniAblation(orows))
		grows, err := suite.ExtendedGranularity()
		if err != nil {
			return fail(err)
		}
		fmt.Println("Extended granularity sweep (8/16/32/64):")
		fmt.Println(experiments.FormatFig18(grows))
		prows, err := suite.PenaltySensitivity(workload.ScenarioC(), workload.QoSMedium)
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatPenaltySensitivity(workload.ScenarioC(), workload.QoSMedium, prows))
		if f.elastic {
			erows, err := suite.ElasticAblation(workload.ScenarioB(), workload.QoSHard, nil)
			if err != nil {
				return fail(err)
			}
			fmt.Println(experiments.FormatElasticAblation(erows))
		}
		phases.mark("ablation")
	}
	for _, e := range []struct {
		name string
		run  func(*experiments.Suite, *cli) error
	}{
		{"trace", runTrace},
		{"chaos", runChaos},
		{"cluster", runCluster},
		{"attrib", runAttrib},
		{"autoscale", runAutoscale},
	} {
		if want[e.name] {
			if err := e.run(suite, &f); err != nil {
				return fail(err)
			}
			phases.mark(e.name)
		}
	}
	fmt.Printf("done in %.1fs\n", time.Since(start).Seconds())
	return 0
}

// writeArtifact writes data to name inside the -out directory, creating
// the directory if needed; without -out it writes nothing.
func (f *cli) writeArtifact(name string, data []byte) error {
	if f.out == "" {
		return nil
	}
	if err := os.MkdirAll(f.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(f.out, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
	return nil
}

// applyOpt copies -requests, -instances and -seed over an experiment's
// defaults where they were given.
func (f *cli) applyOpt(o *metrics.Options) {
	if f.given["requests"] {
		o.Requests = f.requests
	}
	if f.given["instances"] {
		o.Instances = f.instances
	}
	if f.given["seed"] {
		o.Seed = f.seed
	}
}

// applyWorkload copies -scenario and -qos over an experiment's defaults
// where they were given; a nil level skips -qos.
func (f *cli) applyWorkload(sc *workload.Scenario, lvl *workload.QoSLevel) error {
	var err error
	if f.given["scenario"] {
		if *sc, err = scenarioByName(f.scenario); err != nil {
			return err
		}
	}
	if lvl != nil && f.given["qos"] {
		if *lvl, err = qosByName(f.qos); err != nil {
			return err
		}
	}
	return nil
}

// applyBatching copies -batch-window where given; -max-batch, default
// included, applies whenever either batching flag is given.
func (f *cli) applyBatching(window *float64, maxBatch *int) {
	if f.given["batch-window"] {
		*window = f.batchWindow
	}
	if f.given["batch-window"] || f.given["max-batch"] {
		*maxBatch = f.maxBatch
	}
}

// runTrace executes the instrumented co-location run and writes its
// timeline and metrics snapshot.
func runTrace(suite *experiments.Suite, f *cli) error {
	sc, err := scenarioByName(f.scenario)
	if err != nil {
		return err
	}
	lvl, err := qosByName(f.qos)
	if err != nil {
		return err
	}
	res, err := suite.TracedRun(sc, lvl, f.rate, f.requests, f.seed)
	if err != nil {
		return err
	}
	if err := f.writeArtifact("trace.json", res.TraceJSON); err != nil {
		return err
	}
	if err := f.writeArtifact("metrics.json", append(res.MetricsJSON, '\n')); err != nil {
		return err
	}
	fmt.Println()
	fmt.Println(res.MetricsText)
	return nil
}

// parseList decodes a comma-separated flag value: it trims each element,
// skips empty ones and decodes the rest with parse. A value that names
// nothing fails with "<name> <value> names no <noun>".
func parseList[T any](spec, name, noun string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := parse(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s %q names no %s", name, spec, noun)
	}
	return out, nil
}

// parseRates decodes a -fault-rates list ("0,10,40").
func parseRates(spec string) ([]float64, error) {
	return parseList(spec, "-fault-rates", "rates", func(part string) (float64, error) {
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || !(r >= 0) || math.IsInf(r, 1) {
			return 0, fmt.Errorf("bad fault rate %q (want a finite non-negative number)", part)
		}
		return r, nil
	})
}

// runChaos executes the fault-injection sweep (or a single replayed
// schedule) and prints the comparison table.
func runChaos(suite *experiments.Suite, f *cli) error {
	o := experiments.DefaultChaosOptions()
	if err := f.applyWorkload(&o.Scenario, &o.Level); err != nil {
		return err
	}
	f.applyOpt(&o.Opt)
	var err error
	if f.given["shed"] {
		if o.Shed, err = sim.ParseShedPolicy(f.shed); err != nil {
			return err
		}
	}
	if f.given["fault-rates"] {
		if o.Rates, err = parseRates(f.faultRates); err != nil {
			return err
		}
	}
	if f.given["faults"] {
		data, err := os.ReadFile(f.faults)
		if err != nil {
			return err
		}
		if o.Schedule, err = fault.ParseJSON(data); err != nil {
			return fmt.Errorf("%s: %w", f.faults, err)
		}
	}
	rows, err := suite.ChaosSweep(o)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatChaos(o, rows))
	j, err := experiments.ChaosJSON(o, rows)
	if err != nil {
		return err
	}
	return f.writeArtifact("BENCH_chaos.json", j)
}

// parseChips decodes a list of cluster sizes ("1,2,4") given to the
// flag name, such as -chips or -statics.
func parseChips(spec, name string) ([]int, error) {
	return parseList(spec, name, "cluster sizes", func(part string) (int, error) {
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return 0, fmt.Errorf("bad cluster size %q (want a positive integer)", part)
		}
		return n, nil
	})
}

// parsePolicies decodes a -policy list; "all" selects every built-in.
func parsePolicies(spec string) ([]string, error) {
	if strings.EqualFold(strings.TrimSpace(spec), "all") {
		return cluster.Policies(), nil
	}
	return parseList(spec, "-policy", "policies", cluster.PolicyName)
}

// runCluster executes the multi-chip serving sweep and prints the
// scale-out table.
func runCluster(suite *experiments.Suite, f *cli) error {
	o := experiments.DefaultClusterOptions()
	if err := f.applyWorkload(&o.Scenario, &o.Level); err != nil {
		return err
	}
	f.applyOpt(&o.Opt)
	f.applyBatching(&o.BatchWindow, &o.MaxBatch)
	o.Elastic = f.elastic
	var err error
	if f.given["chips"] {
		if o.Chips, err = parseChips(f.chips, "-chips"); err != nil {
			return err
		}
	}
	if f.given["policy"] {
		if o.Policies, err = parsePolicies(f.policy); err != nil {
			return err
		}
	}
	rows, err := suite.ClusterSweep(o)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatCluster(o, rows))
	j, err := experiments.ClusterJSON(o, rows)
	if err != nil {
		return err
	}
	return f.writeArtifact("BENCH_cluster.json", j)
}

// runAttrib executes the SLA attribution run and prints the root-cause
// breakdown plus utilization tables.
func runAttrib(suite *experiments.Suite, f *cli) error {
	o := experiments.DefaultAttribOptions()
	if err := f.applyWorkload(&o.Scenario, nil); err != nil {
		return err
	}
	f.applyOpt(&o.Opt)
	f.applyBatching(&o.BatchWindow, &o.MaxBatch)
	if f.given["rate"] {
		o.QPS = f.rate
	}
	rows, err := suite.AttribRun(o)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatAttrib(o, rows))
	j, err := experiments.AttribJSON(o, rows)
	if err != nil {
		return err
	}
	return f.writeArtifact("BENCH_attrib.json", j)
}

// runAutoscale replays the planet-scale trace against static fleets and
// the autoscaled one, printing the SLA-versus-chip-hours table.
func runAutoscale(suite *experiments.Suite, f *cli) error {
	o := experiments.DefaultAutoscaleOptions()
	o.Elastic = f.elastic
	var err error
	if f.given["trace-file"] {
		data, err := os.ReadFile(f.traceFile)
		if err != nil {
			return err
		}
		if o.Trace, err = trace.ParseJSON(data); err != nil {
			return err
		}
	}
	if f.given["statics"] {
		if o.Statics, err = parseChips(f.statics, "-statics"); err != nil {
			return err
		}
	}
	if f.given["ceiling"] {
		o.Chips = f.ceiling
	}
	rows, err := suite.AutoscaleSweep(o)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatAutoscale(o, rows))
	j, err := experiments.AutoscaleJSON(o, rows)
	if err != nil {
		return err
	}
	return f.writeArtifact("BENCH_autoscale.json", j)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "planaria:", err)
	return 1
}
