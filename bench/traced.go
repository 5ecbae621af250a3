package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"planaria/internal/cluster"
	"planaria/internal/fault"
	"planaria/internal/sim"
)

// spanLog keeps a traced run's spans in memory. write emits them once,
// at exit, as Chrome trace-event JSON. Policy calls are far too many to
// keep as spans; they are aggregated into counters on the call spans.
type spanLog struct {
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	parent     int
	start, end time.Duration
	args       map[string]float64
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
// A nil log records nothing.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, parent: parent, start: time.Since(l.t0), end: -1})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l != nil && id >= 0 {
		l.spans[id].end = time.Since(l.t0)
	}
}

func (l *spanLog) annotate(id int, args map[string]float64) {
	if l != nil && id >= 0 {
		l.spans[id].args = args
	}
}

// self is a span's length minus the time its children cover.
func (l *spanLog) self(id int) time.Duration {
	s := l.spans[id]
	var kids [][2]time.Duration
	for _, c := range l.spans {
		if c.parent == id {
			kids = append(kids, [2]time.Duration{max(c.start, s.start), min(c.end, s.end)})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	covered, reach := time.Duration(0), s.start
	for _, k := range kids {
		lo := max(k[0], reach)
		if k[1] > lo {
			covered += k[1] - lo
			reach = k[1]
		}
	}
	return s.end - s.start - covered
}

// write stores the spans as complete ("X") trace events in
// microseconds, one track, each with its self time among its args.
func (l *spanLog) write(path string) error {
	type event struct {
		Name string             `json:"name"`
		Cat  string             `json:"cat"`
		Ph   string             `json:"ph"`
		Ts   float64            `json:"ts"`
		Dur  float64            `json:"dur"`
		Pid  int                `json:"pid"`
		Tid  int                `json:"tid"`
		Args map[string]float64 `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	evs := make([]event, 0, len(l.spans))
	for id, s := range l.spans {
		args := map[string]float64{"self_us": us(l.self(id))}
		for k, v := range s.args {
			args[k] = v
		}
		evs = append(evs, event{s.name, "bench", "X", us(s.start), us(s.end - s.start), 1, 1, args})
	}
	data, err := json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{evs, "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// memDelta sums the runtime's allocation and GC counters over calls.
type memDelta struct {
	calls                    int
	allocBytes, mallocs, gcs uint64
	pauseNs                  uint64
	before                   runtime.MemStats
	after                    runtime.MemStats
}

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }

func (m *memDelta) stop() {
	runtime.ReadMemStats(&m.after)
	m.calls++
	m.allocBytes += m.after.TotalAlloc - m.before.TotalAlloc
	m.mallocs += m.after.Mallocs - m.before.Mallocs
	m.gcs += uint64(m.after.NumGC - m.before.NumGC)
	m.pauseNs += m.after.PauseTotalNs - m.before.PauseTotalNs
}

func (m *memDelta) perCall(v uint64) float64 { return float64(v) / float64(max(m.calls, 1)) }

// replay re-runs every chip of a cluster call through sim.Node.Run, one
// after another, on the chip's dispatched requests and with its fault
// schedule, and checks that each reproduces the chip's finish times bit
// for bit. It returns the summed Node.Run time; the policies are
// wrapped by rec so their time can be taken out of it.
func replay(o output, rec *recorder, log *spanLog, parent int) (time.Duration, error) {
	cfg, sys := o.cfg, rec.wrapSystem(o.cfg.System)
	var busy time.Duration
	for i, cr := range o.out.PerChip {
		if cr.Outcome == nil {
			continue
		}
		node := &sim.Node{Cfg: sys.Cfg, Policy: sys.NewPolicy(), Programs: sys.Programs,
			Params: sys.Params, FaultMode: cfg.FaultMode, Shed: cfg.Shed}
		if cfg.Faults != nil && cfg.Faults[i] != nil {
			var err error
			if node.Faults, err = fault.NewInjector(cfg.Faults[i]); err != nil {
				return busy, err
			}
		}
		id := log.begin(fmt.Sprintf("Node.Run chip %d", i), parent)
		t0 := time.Now()
		got, err := node.Run(cr.Requests)
		busy += time.Since(t0)
		log.end(id)
		if err != nil {
			return busy, fmt.Errorf("replay chip %d: %w", i, err)
		}
		for j, f := range got.Finishes {
			if math.Float64bits(f) != math.Float64bits(cr.Outcome.Finishes[j]) {
				return busy, fmt.Errorf("replay chip %d: request %d finishes at %v, cluster.Run said %v",
					i, j, f, cr.Outcome.Finishes[j])
			}
		}
	}
	return busy, nil
}

// runTraced is the traced run behind the per-layer metrics. It sets up
// once with each piece as a span, then spends a third of the budget on
// each of: untraced calls at the default GOMAXPROCS (runtime counters),
// untraced calls at GOMAXPROCS=1, and traced calls at GOMAXPROCS=1, so
// that chip shards run one at a time and their times add up. A traced
// call wraps every policy, then replays every chip. On the workload with
// observability sinks, a last phase times each sink alone.
func runTraced(w *benchWorkload, seed int64, budget time.Duration, small bool, spansPath string) (*report, error) {
	rep := &report{Workload: w.name, Seed: seed, Traced: true, Env: currentEnv(),
		Metrics: map[string]metric{}, Quartiles: map[string][3]float64{}}
	log := newSpanLog()
	root := log.begin("workload "+w.name, -1)

	setupID := log.begin("setup", root)
	st := newSetupTimer(log, setupID)
	t0 := time.Now()
	in, err := w.setup(seed, small, st)
	setupS := time.Since(t0).Seconds()
	log.end(setupID)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
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
	// Counts of the simulated run come from the warm-up call: the digest
	// check makes every call's outcome identical to it.
	var counts clusterCounts
	if in.sweeps == nil {
		counts = countsOf(warm.out)
	}
	warm = output{}

	phase := budget / 3
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	var mem, memOne, memNone memDelta
	c := &caller{in: in, ref: ref, rep: rep, mem: &mem}
	def, err := c.measure(callOpts{}, phase, 2)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(1)
	c.mem = &memOne
	one, err := c.measure(callOpts{}, phase, 2)
	if err != nil {
		return nil, err
	}
	callDef, callOne := median(def), median(one)

	rec, replayRec := &recorder{}, &recorder{}
	var tot, replayTot layerTotals
	var callSum, simBusy time.Duration
	start := time.Now()
	for len(rep.CallSamples) < 2 || (time.Since(start) < phase && len(rep.CallSamples) < maxCalls) {
		rep.Attempted++
		callID := log.begin("call", root)
		runName := "cluster.Run"
		if in.sweeps != nil {
			runName = "ServingComparison"
		}
		runtime.GC()
		runID := log.begin(runName, callID)
		t0 := time.Now()
		out, err := in.run(callOpts{wrap: rec.wrapSystem})
		d := time.Since(t0)
		log.end(runID)
		rep.CallSamples = append(rep.CallSamples, d.Seconds())
		callSum += d
		t, werr := rec.takeTotals()
		if werr != nil {
			rep.fail("traced call %d: %v", len(rep.CallSamples), werr)
		}
		tot.add(t)
		log.annotate(runID, map[string]float64{
			"policies": float64(t.policies), "sched.calls": float64(t.sched.calls),
			"refission.calls": float64(t.refNext.calls), "prema.calls": float64(t.prema.calls),
		})
		c.check(out, err)
		if err == nil && in.sweeps == nil {
			b, err := replay(out, replayRec, log, callID)
			simBusy += b
			if err != nil {
				rep.fail("traced call %d: %v", len(rep.CallSamples), err)
			}
			rt, werr := replayRec.takeTotals()
			if werr != nil {
				rep.fail("replay %d: %v", len(rep.CallSamples), werr)
			}
			replayTot.add(rt)
		}
		log.end(callID)
	}
	rep.Calls = len(rep.CallSamples)

	var sinkCost [3]float64
	if in.observed {
		sets := []sinkSet{{}, {metrics: true}, {traces: true}, {attrib: true}}
		var meds [4]float64
		for i := range sets {
			c.mem = &memDelta{}
			if i == 0 {
				c.mem = &memNone
			}
			v, err := c.measure(callOpts{sinks: &sets[i]}, phase/4, 2)
			if err != nil {
				return nil, err
			}
			meds[i] = median(v)
		}
		for i := range sinkCost {
			sinkCost[i] = meds[i+1]/meds[0] - 1
		}
	}
	log.end(root)
	if err := log.write(spansPath); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}

	n := float64(rep.Calls)
	call := callSum.Seconds()
	share := func(s float64) float64 { return s / call }
	put := func(name, unit string, v float64) { rep.Metrics[name] = metric{v, unit} }
	setupShare := func(layer string) float64 { return st.busy[layer].Seconds() / setupS }

	put("traced.setup_s", "s", setupS)
	put("compiler.calls", "count", float64(st.compiles))
	put("compiler.setup_share", "fraction", setupShare("compile"))
	put("workload.setup_share", "fraction", setupShare("workload"))
	put("trace.setup_share", "fraction", setupShare("trace"))
	traceReqPerS := 0.0
	if b := st.busy["trace"]; b > 0 {
		traceReqPerS = float64(st.traced) / b.Seconds()
	}
	put("trace.req_per_s", "req/s", traceReqPerS)

	q1, med, q3 := quartiles(rep.CallSamples)
	put("traced.call_s", "s", med)
	rep.Quartiles["traced.call_s"] = [3]float64{q1, med, q3}
	put("trace_overhead_frac", "fraction", med/callOne-1)
	put("par.shard_speedup", "x", callOne/callDef)
	put("policy.interrupted", "count", float64(tot.interrupted())/n)

	put("sim.calls", "count", float64(tot.policies)/n)
	put("sched.calls", "count", float64(tot.sched.calls)/n)
	put("sched.busy_share", "fraction", share(tot.sched.busyS()))
	tasksPerCall := 0.0
	if tot.sched.calls > 0 {
		tasksPerCall = float64(tot.sched.tasks) / float64(tot.sched.calls)
	}
	put("sched.tasks_per_call", "count", tasksPerCall)
	put("refission.calls", "count", float64(tot.refNext.calls)/n)
	put("refission.busy_share", "fraction", share(tot.refissionS()))
	put("prema.calls", "count", float64(tot.prema.calls)/n)
	put("prema.busy_share", "fraction", share(tot.prema.busyS()))

	if in.sweeps == nil {
		put("sim.busy_share", "fraction", share(simBusy.Seconds()))
		put("sim.self_share", "fraction", share(simBusy.Seconds()-replayTot.policyS()))
		put("cluster.self_share", "fraction", share(call-simBusy.Seconds()))
	} else {
		// ServingComparison runs sim.Node inside the experiments package,
		// out of reach of a replay; see README.md.
		put("sim.busy_share", "fraction", 0)
		put("sim.self_share", "fraction", 0)
		put("cluster.self_share", "fraction", 0)
	}
	put("cluster.batches", "count", counts.batches)
	put("cluster.mean_batch", "count", counts.meanBatch)
	put("cluster.shed_front", "count", counts.shedFront)
	put("cluster.migrated", "count", counts.migrated)
	put("cluster.scale_ups", "count", counts.scaleUps)
	put("sim.preemptions", "count", counts.preemptions)
	put("sim.shed", "count", counts.shed)
	put("refission.applied", "count", counts.refissions)
	ratio := 0.0
	if tot.refNext.calls > 0 {
		ratio = counts.refissions / (float64(tot.refNext.calls) / n)
	}
	put("refission.applied_ratio", "fraction", ratio)
	put("fault.events", "count", counts.faultEvents)
	put("fault.killed", "count", counts.killed)
	put("fault.retries", "count", counts.retries)

	put("obs.metrics_cost", "fraction", sinkCost[0])
	put("obs.trace_cost", "fraction", sinkCost[1])
	put("obs.attrib_cost", "fraction", sinkCost[2])
	obsMallocs := 0.0
	if in.observed {
		obsMallocs = memOne.perCall(memOne.mallocs) - memNone.perCall(memNone.mallocs)
	}
	put("obs.mallocs", "count", obsMallocs)
	put("obs.trace_events", "count", counts.traceEvents)

	put("runtime.alloc_mb", "MB", mem.perCall(mem.allocBytes)/(1<<20))
	put("runtime.mallocs", "count", mem.perCall(mem.mallocs))
	put("runtime.gc_cycles", "count", mem.perCall(mem.gcs))
	put("runtime.gc_pause_ms", "ms", mem.perCall(mem.pauseNs)/1e6)
	return rep, nil
}

// clusterCounts are the simulated counts of one cluster call.
type clusterCounts struct {
	batches, meanBatch, shedFront, migrated, scaleUps float64
	preemptions, shed, refissions                     float64
	faultEvents, killed, retries, traceEvents         float64
}

func countsOf(out *cluster.Outcome) clusterCounts {
	c := clusterCounts{
		batches: float64(out.Batches), meanBatch: out.MeanBatchSize,
		shedFront: float64(out.ShedFront), migrated: float64(out.Migrated),
		scaleUps:    float64(scaleUps(out)),
		faultEvents: float64(out.FaultEvents), killed: float64(out.Killed), retries: float64(out.Retries),
		traceEvents: float64(traceEvents(out)),
	}
	for _, cr := range out.PerChip {
		if cr.Outcome != nil {
			c.preemptions += float64(cr.Outcome.Preemptions)
			c.shed += float64(cr.Outcome.Shed)
			c.refissions += float64(cr.Outcome.Refissions)
		}
	}
	return c
}
