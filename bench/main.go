// Command bench is the repository benchmark. It builds each workload's
// inputs from a seed, calls the simulator's public entry points on them,
// times the calls from outside, checks every output, and prints every
// metric by name and unit. README.md describes the workloads, the
// metrics and the three modes:
//
//	bench -workload NAME -seed N -seconds S -trace 0|1   one workload, in this process
//	bench -seed N -out results.json [-runs R] [-trace 1]  every workload, one child process each
//	bench -compare a.json b.json                          verdict per workload and metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 10, "host seconds of measured calls per workload")
	traced := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
	out := fs.String("out", "", "write every run's results, samples included, to this JSON file")
	runs := fs.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
	compare := fs.Bool("compare", false, "compare two results files: bench -compare parent.json change.json")
	probe := fs.Bool("probe", false, "time the host probe once and print its seconds (runs use it in a child process)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe {
		fmt.Fprintln(stdout, probeKernel())
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two results files")
			return 2
		}
		if err := compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds <= 0 || *runs < 1 || (*traced != 0 && *traced != 1) {
		fs.Usage()
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	if *name == "" {
		return runAll(*seed, *seconds, *traced == 1, *runs, *out, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var rep *report
	if *traced == 1 {
		rep, err = runTraced(w, *seed, budget, false, ".bench_build/spans-"+w.name+".json")
	} else {
		rep, err = runWorkload(w, *seed, budget, false)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := printReport(rep, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run of one workload. The last line a run prints is the
// summary: correct, attempted, failed and the metrics. The line before
// it is the whole report, samples included, which the all-workloads mode
// collects into its results file.
type report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	Env      hostEnv `json:"env"`
	// Calls is K, the number of measured calls.
	Calls        int       `json:"calls"`
	SetupSamples []float64 `json:"setup_samples_s,omitempty"`
	CallSamples  []float64 `json:"call_samples_s,omitempty"`
	ProbeSamples []float64 `json:"probe_samples_s,omitempty"`
	Attempted    int       `json:"attempted"`
	Failed       int       `json:"failed"`
	Failures     []string  `json:"failures,omitempty"`
	// Metrics are the BENCHMARK.json metrics: end-to-end in an untraced
	// run, per-layer in a traced one. Quartiles holds [q1, median, q3]
	// of the ones that are medians of samples. Extra holds the
	// workload-specific numbers BENCHMARK.json cannot list, because every
	// workload must report every listed metric.
	Metrics   map[string]metric     `json:"metrics"`
	Quartiles map[string][3]float64 `json:"quartiles,omitempty"`
	Extra     map[string]metric     `json:"extra,omitempty"`
}

func (r *report) correct() bool { return r.Failed == 0 && len(r.Failures) == 0 }

// fail records a failed check; at most a few messages are kept.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func printReport(r *report, w io.Writer) error {
	for _, m := range []map[string]metric{r.Metrics, r.Extra} {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			line := fmt.Sprintf("%-16s %-28s %14.6g %s", r.Workload, k, m[k].Value, m[k].Unit)
			if q, ok := r.Quartiles[k]; ok {
				line += fmt.Sprintf("   (q1 %.6g, q3 %.6g)", q[0], q[2])
			}
			fmt.Fprintln(w, line)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%-16s FAILED: %s\n", r.Workload, f)
	}
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	summary, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, summary)
	return err
}

// A run builds its inputs at least minSetups times and until a tenth of
// its measuring budget has gone into set-up, at most maxSetups times;
// setup_s is the median. Every set-up compiles afresh: nothing is cached
// across them.
const (
	minSetups = 2
	maxSetups = 20
)

// minCalls and maxCalls bound the measured calls of a run: at least
// enough for quartiles, and a cap for inputs so small that the time
// budget would mean thousands of calls.
const (
	minCalls = 3
	maxCalls = 200
)

// runWorkload is the untraced run behind the end-to-end metrics: set up
// several times, make one unmeasured warm-up call, then measure calls
// until the budget is spent. Every call is verified and must reproduce
// the warm-up call's digest. It runs with GOMAXPROCS=1: on a shared
// 2-vCPU host the run-to-run spread of call_s was 13-49% with the chip
// shards on two threads and 8-18% on one. The traced run reports what
// the second thread buys as par.shard_speedup. call_s is scaled to the
// reference host's speed; see probe.go.
func runWorkload(w *benchWorkload, seed int64, budget time.Duration, small bool) (*report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rep := &report{Workload: w.name, Seed: seed, Env: currentEnv(),
		Metrics: map[string]metric{}, Quartiles: map[string][3]float64{}, Extra: map[string]metric{}}
	var in *instance
	for spent := time.Duration(0); len(rep.SetupSamples) < minSetups || (spent < budget/10 && len(rep.SetupSamples) < maxSetups); {
		in = nil // let the previous set-up's inputs go before building the next
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = w.setup(seed, small, newSetupTimer(nil, -1)); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		rep.SetupSamples = append(rep.SetupSamples, d.Seconds())
	}

	rep.Attempted++
	warm, err := in.run(callOpts{})
	if err != nil {
		return nil, fmt.Errorf("warm-up call: %w", err)
	}
	ref, err := in.verify(warm)
	if err != nil {
		return nil, fmt.Errorf("warm-up call: %w", err)
	}
	sims := in.simMetrics(warm)
	warm = output{}

	speed := &hostSpeed{}
	c := &caller{in: in, ref: ref, rep: rep, speed: speed}
	if rep.CallSamples, err = c.measure(callOpts{}, budget, minCalls); err != nil {
		return nil, err
	}
	rep.Calls = len(rep.CallSamples)
	rep.ProbeSamples = speed.samples
	rss, err := maxRSSMB()
	if err != nil {
		return nil, err
	}

	put := func(m map[string]metric, name, unit string, v float64) { m[name] = metric{v, unit} }
	q1, setup, q3 := quartiles(rep.SetupSamples)
	put(rep.Metrics, "setup_s", "s", setup)
	rep.Quartiles["setup_s"] = [3]float64{q1, setup, q3}
	q1, raw, q3 := quartiles(rep.CallSamples)
	k := speed.scale()
	call := raw * k
	put(rep.Metrics, "call_s", "s", call)
	rep.Quartiles["call_s"] = [3]float64{q1 * k, call, q3 * k}
	put(rep.Metrics, "max_rss_mb", "MB", rss)
	put(rep.Metrics, "sim_sla_frac", "fraction", sims["sim_sla_frac"])

	put(rep.Extra, "call_raw_s", "s", raw)
	put(rep.Extra, "probe_s", "s", median(speed.samples))
	put(rep.Extra, "fail_frac", "fraction", float64(rep.Failed)/float64(rep.Attempted))
	put(rep.Extra, "calls", "count", float64(rep.Calls))
	put(rep.Extra, "setups", "count", float64(len(rep.SetupSamples)))
	if len(in.reqs) > 0 {
		put(rep.Extra, "sim_req_per_s", "req/s", float64(len(in.reqs))/raw)
		put(rep.Extra, "requests", "count", float64(len(in.reqs)))
	}
	units := map[string]string{"sim_p99_ms": "ms", "sim_p99_samples": "count", "sim_chip_hours": "h", "sim_qps_ratio": "x"}
	for k, u := range units {
		if v, ok := sims[k]; ok {
			put(rep.Extra, k, u, v)
		}
	}
	return rep, nil
}

// caller makes and checks the measured calls of one run.
type caller struct {
	in  *instance
	ref [32]byte // the warm-up call's digest
	rep *report
	// mem, when set, counts the runtime's allocations and collections
	// from just before the forced collection that precedes a call to the
	// end of the call, so the garbage a call leaves is charged to it.
	mem *memDelta
	// speed, when set, probes the host between calls.
	speed *hostSpeed
}

// measure makes verified calls until budget is spent, at least least of
// them, and returns their host seconds. Each call starts right after a
// forced collection, so no call pays for its predecessor's garbage (on
// planet-day, whether a collection of the 1.4 GB heap landed inside a
// call decided much of its time); collections a call's own allocation
// triggers are still timed.
func (c *caller) measure(o callOpts, budget time.Duration, least int) ([]float64, error) {
	var samples []float64
	start := time.Now()
	for len(samples) < least || (time.Since(start) < budget && len(samples) < maxCalls) {
		if c.speed != nil {
			if err := c.speed.probe(false); err != nil {
				return nil, err
			}
		}
		c.rep.Attempted++
		if c.mem != nil {
			c.mem.start()
		}
		runtime.GC()
		t0 := time.Now()
		out, err := c.in.run(o)
		samples = append(samples, time.Since(t0).Seconds())
		if c.mem != nil {
			c.mem.stop()
		}
		c.check(out, err)
	}
	if c.speed != nil {
		return samples, c.speed.probe(true)
	}
	return samples, nil
}

// check verifies one call and compares its digest with the warm-up call's.
func (c *caller) check(out output, err error) {
	rep := c.rep
	if err != nil {
		rep.fail("call %d: %v", rep.Attempted, err)
		return
	}
	if d, err := c.in.verify(out); err != nil {
		rep.fail("call %d: %v", rep.Attempted, err)
	} else if d != c.ref {
		rep.fail("call %d: outcome digest %x differs from the warm-up call's %x", rep.Attempted, d[:8], c.ref[:8])
	}
}
