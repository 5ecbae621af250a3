package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"planaria/internal/fault"
	"planaria/internal/metrics"
	"planaria/internal/obs"
	"planaria/internal/sim"
	"planaria/internal/workload"
	"planaria/internal/workload/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenMaxBytes is the largest artifact stored verbatim; a larger one
// is pinned by its SHA-256 in a ".sha256" file instead.
const goldenMaxBytes = 100 << 10

// goldenCase regenerates one deterministic artifact. long cases are
// skipped under -short.
type goldenCase struct {
	name string // file name under testdata/golden
	long bool
	gen  func(s *Suite) ([]byte, error)
}

var goldenCases = []goldenCase{
	{name: "chaos.json", gen: func(s *Suite) ([]byte, error) {
		o := chaosTestOptions()
		rows, err := s.ChaosSweep(o)
		if err != nil {
			return nil, err
		}
		return ChaosJSON(o, rows)
	}},
	{name: "cluster.json", long: true, gen: func(s *Suite) ([]byte, error) {
		return clusterGolden(s, clusterGridTestOptions())
	}},
	{name: "cluster-elastic.json", long: true, gen: func(s *Suite) ([]byte, error) {
		return clusterGolden(s, elasticClusterTestOptions())
	}},
	{name: "attrib.json", gen: func(s *Suite) ([]byte, error) {
		o := attribTestOptions()
		rows, err := s.AttribRun(o)
		if err != nil {
			return nil, err
		}
		return AttribJSON(o, rows)
	}},
	{name: "autoscale.json", long: true, gen: func(s *Suite) ([]byte, error) {
		return autoscaleGolden(s, autoscaleTestOptions())
	}},
	{name: "autoscale-elastic.json", long: true, gen: func(s *Suite) ([]byte, error) {
		return autoscaleGolden(s, elasticAutoscaleTestOptions())
	}},
	{name: "autoscale-example.json", long: true, gen: func(s *Suite) ([]byte, error) {
		data, err := os.ReadFile("../../examples/autoscale/trace.json")
		if err != nil {
			return nil, err
		}
		o := DefaultAutoscaleOptions()
		if o.Trace, err = trace.ParseJSON(data); err != nil {
			return nil, err
		}
		return autoscaleGolden(s, o)
	}},
	{name: "traced-metrics.json", gen: tracedGolden(2, 200, 11, func(r *TracedResult) []byte { return r.MetricsJSON })},
	{name: "traced-metrics.txt", gen: tracedGolden(2, 200, 11, func(r *TracedResult) []byte { return []byte(r.MetricsText) })},
	{name: "traced-timeline.json", gen: tracedGolden(2, 200, 11, func(r *TracedResult) []byte { return r.TraceJSON })},
	// A longer run whose snapshot carries unfit fission decisions and
	// PREMA dispatch switches in the hundreds.
	{name: "traced-metrics-60.json", gen: tracedGolden(60, 200, 1, func(r *TracedResult) []byte { return r.MetricsJSON })},
	// The CLI trace experiment's defaults at -requests 60: a timeline
	// large enough to be pinned by digest.
	{name: "traced-timeline-60.json", gen: tracedGolden(60, 100, 1, func(r *TracedResult) []byte { return r.TraceJSON })},
	// The same run's per-request summary, stored verbatim: when the
	// digest above moves, this case names the first request that differs.
	{name: "traced-requests-60.txt", gen: renderTracedRequests},
	{name: "serving.txt", long: true, gen: func(s *Suite) ([]byte, error) {
		rows, err := s.ServingComparison()
		if err != nil {
			return nil, err
		}
		return []byte(renderComparison(rows)), nil
	}},
	{name: "node-planaria.txt", gen: func(s *Suite) ([]byte, error) { return renderNodeMetrics(s.Planaria) }},
	{name: "node-prema.txt", gen: func(s *Suite) ([]byte, error) { return renderNodeMetrics(s.PREMA) }},
	{name: "node-shuffled.txt", gen: renderShuffledNode},
	{name: "node-observed.txt", gen: renderObservedNode},
	{name: "ablation.txt", long: true, gen: renderAblations},
	{name: "cluster-paths.txt", gen: renderClusterPaths},
	{name: "chip-timelines.txt", gen: renderChipTimelines},
}

func clusterGolden(s *Suite, o ClusterOptions) ([]byte, error) {
	rows, err := s.ClusterSweep(o)
	if err != nil {
		return nil, err
	}
	return ClusterJSON(o, rows)
}

func autoscaleGolden(s *Suite, o AutoscaleOptions) ([]byte, error) {
	rows, err := s.AutoscaleSweep(o)
	if err != nil {
		return nil, err
	}
	return AutoscaleJSON(o, rows)
}

// tracedGolden runs the instrumented Workload-A/QoS-M co-location run
// and picks one of its artifacts.
func tracedGolden(requests int, rate float64, seed int64, pick func(*TracedResult) []byte) func(*Suite) ([]byte, error) {
	return func(s *Suite) ([]byte, error) {
		res, err := s.TracedRun(workload.ScenarioA(), workload.QoSMedium, rate, requests, seed)
		if err != nil {
			return nil, err
		}
		return pick(res), nil
	}
}

// renderTracedRequests renders the traced-timeline-60 run one request a
// line: its position, ID and model, and its Planaria and PREMA finish
// times in hex (-1 if it never completed).
func renderTracedRequests(s *Suite) ([]byte, error) {
	const requests, rate, seed = 60, 100, 1
	reqs, err := workload.Generate(workload.ScenarioA(), workload.QoSMedium, rate, requests, seed)
	if err != nil {
		return nil, err
	}
	res, err := s.TracedRun(workload.ScenarioA(), workload.QoSMedium, rate, requests, seed)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	for i, r := range reqs {
		fmt.Fprintf(&b, "req %2d id=%2d %-9s planaria=%x prema=%x\n", i, r.ID, r.Model, res.Planaria.Finishes[i], res.PREMA.Finishes[i])
	}
	return []byte(b.String()), nil
}

// renderComparison renders every serving-comparison figure plus a raw
// hexadecimal dump of each row's float fields, so a single ULP of
// run-to-run drift changes the output.
func renderComparison(rows []ServingRow) string {
	var b strings.Builder
	b.WriteString(FormatFig12(rows))
	b.WriteString(FormatFig13(rows))
	b.WriteString(FormatFig14(rows))
	b.WriteString(FormatFig15(rows))
	for _, r := range rows {
		fmt.Fprintf(&b, "%s|%s %x %x %x %x %x %x %x %x %x %x %x %x\n",
			r.Workload, r.QoS,
			r.PlanariaQPS, r.PremaQPS, r.Ratio, r.RateQPS,
			r.PlanariaSLA, r.PremaSLA, r.SLAGainPct,
			r.PlanariaFair, r.PremaFair, r.FairRatio,
			r.PlanariaJ, r.PremaJ)
	}
	return b.String()
}

// renderNodeMetrics replays one workload instance through a single node
// and renders the per-model latency table and the outcome metrics at
// full float precision: task retirement, fairness and energy accounting.
func renderNodeMetrics(sys metrics.System) ([]byte, error) {
	reqs, err := workload.Generate(workload.ScenarioB(), workload.QoSMedium, 40, 120, 7)
	if err != nil {
		return nil, err
	}
	node := &sim.Node{Cfg: sys.Cfg, Policy: sys.NewPolicy(), Programs: sys.Programs, Params: sys.Params}
	out, err := node.Run(reqs)
	if err != nil {
		return nil, err
	}
	stats, err := metrics.GroupLatencies(reqs, out.Latency, out.Finishes)
	if err != nil {
		return nil, err
	}
	return []byte(fmt.Sprintf("%s\nenergy=%x makespan=%x busy=%x fair=%x preempt=%d sla=%v\n",
		metrics.FormatLatencyTable(stats),
		out.EnergyJ, out.Makespan, out.BusyTime, out.Fairness, out.Preemptions, out.MeetsSLA)), nil
}

// renderShuffledNode serves renderNodeMetrics's stream through both
// systems after shuffling it with a fixed seed: arrivals come out of
// order, two of them tie with their neighbour, and each request keeps its
// ID, so IDs no longer match positions. The positional outcome is
// rendered in hex, which pins the engine's arrival ordering and its
// position bookkeeping bit for bit.
func renderShuffledNode(s *Suite) ([]byte, error) {
	reqs, err := workload.Generate(workload.ScenarioB(), workload.QoSMedium, 40, 120, 7)
	if err != nil {
		return nil, err
	}
	for _, i := range []int{17, 63} {
		reqs[i].Arrival = reqs[i-1].Arrival
		reqs[i].Deadline = reqs[i].Arrival + reqs[i].QoS
	}
	rand.New(rand.NewSource(5)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	var b strings.Builder
	for _, sys := range []metrics.System{s.Planaria, s.PREMA} {
		node := &sim.Node{Cfg: sys.Cfg, Policy: sys.NewPolicy(), Programs: sys.Programs, Params: sys.Params}
		out, err := node.Run(reqs)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%s energy=%x fair=%x preempt=%d\n", sys.Name, out.EnergyJ, out.Fairness, out.Preemptions)
		for i, r := range reqs {
			fmt.Fprintf(&b, "%3d id=%3d %x %x\n", i, r.ID, out.Finishes[i], out.Latency[i])
		}
	}
	return []byte(b.String()), nil
}

// observedNodeRun builds the stream and fault schedule of the
// node-observed golden for one system. The stream is shuffled with two
// tied arrivals, one request has no program and arrives before any fault,
// and one has a deadline too close to survive ShedDoomed. Transient
// subarray faults kill running tasks (twice in a row for some, so
// MaxAttempts 1 sheds them), a transient outage of every pod link stalls
// the chip, and a permanent one near the end drains the queue, the
// retries and the requests still to arrive.
func observedNodeRun(sys metrics.System, mode sim.FaultMode) (*sim.Node, []workload.Request, error) {
	reqs, err := workload.Generate(workload.ScenarioA(), workload.QoSHard, 400, 48, 3)
	if err != nil {
		return nil, nil, err
	}
	for _, i := range []int{9, 30} {
		reqs[i].Arrival = reqs[i-1].Arrival
		reqs[i].Deadline = reqs[i].Arrival + reqs[i].QoS
	}
	reqs[3].Model = "no-such-model"
	reqs[5].Deadline = reqs[5].Arrival
	span := reqs[len(reqs)-1].Arrival
	units, pods := sys.Cfg.NumSubarrays(), sys.Cfg.Pods
	sched := &fault.Schedule{Units: units, Pods: pods}
	for _, f := range []float64{0.15, 0.16, 0.3, 0.31, 0.45} {
		sched.Events = append(sched.Events,
			fault.Event{Time: span * f, Kind: fault.KindSubarray, Unit: 0, Duration: span / 50},
			fault.Event{Time: span * f, Kind: fault.KindSubarray, Unit: units - 1, Duration: span / 40})
	}
	for pod := 0; pod < pods; pod++ {
		sched.Events = append(sched.Events,
			fault.Event{Time: span * 0.6, Kind: fault.KindLink, Unit: pod, Duration: span / 30},
			fault.Event{Time: span * 0.85, Kind: fault.KindLink, Unit: pod})
	}
	in, err := fault.NewInjector(sched)
	if err != nil {
		return nil, nil, err
	}
	rand.New(rand.NewSource(8)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	node := &sim.Node{
		Cfg: sys.Cfg, Policy: sys.NewPolicy(), Programs: sys.Programs, Params: sys.Params,
		Trace: &sim.Trace{}, Timeline: obs.NewTraceBuilder(1e6), Attrib: obs.NewLedger(0), Occ: obs.NewOccupancy(0),
		Faults: in, FaultMode: mode, Shed: sim.ShedDoomed, MaxAttempts: 1,
	}
	return node, reqs, nil
}

// renderObservedNode runs observedNodeRun's stream through the elastic
// Planaria scheduler and PREMA with every chip-side sink attached, and
// renders the outcome tallies, the trace, a digest of the timeline, each
// request's ledger phases (in hex) and cause, and the occupancy totals.
func renderObservedNode(s *Suite) ([]byte, error) {
	var b strings.Builder
	for _, c := range []struct {
		sys  metrics.System
		mode sim.FaultMode
	}{{s.Elastic, sim.FaultFission}, {s.PREMA, sim.FaultDerate}} {
		node, reqs, err := observedNodeRun(c.sys, c.mode)
		if err != nil {
			return nil, err
		}
		out, err := node.Run(reqs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.sys.Name, err)
		}
		fmt.Fprintf(&b, "== %s\n", c.sys.Name)
		fmt.Fprintf(&b, "killed=%d retries=%d shed=%d rejected=%d faults=%d preempt=%d refissions=%d energy=%x\n",
			out.Killed, out.Retries, out.Shed, out.Rejected, out.FaultEvents, out.Preemptions, out.Refissions, out.EnergyJ)
		b.WriteString(node.Trace.String())
		fmt.Fprintf(&b, "timeline sha256=%x\n", sha256.Sum256(node.Timeline.JSON()))
		for i, r := range reqs {
			var dur [obs.NumPhases]float64
			node.Attrib.Durations(i, &dur)
			fmt.Fprintf(&b, "req %2d id=%2d fin=%x cause=%v phases=%x\n", i, r.ID, out.Finishes[i], node.Attrib.Cause(i), dur)
		}
		o := node.Occ
		fmt.Fprintf(&b, "occupancy units=%d horizon=%d busy=%d idle=%d faulted=%d reconfig=%d\n",
			o.Units, o.Horizon, o.Busy, o.Idle, o.Faulted, o.Reconfig)
	}
	return []byte(b.String()), nil
}

// renderAblations renders the penalty-sensitivity and elastic ablation
// rows, each max-QPS search result in hex.
func renderAblations(s *Suite) ([]byte, error) {
	prows, err := s.PenaltySensitivity(workload.ScenarioC(), workload.QoSMedium)
	if err != nil {
		return nil, err
	}
	erows, err := s.ElasticAblation(workload.ScenarioB(), workload.QoSHard, []int{1})
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	for _, r := range prows {
		fmt.Fprintf(&b, "penalty scale=%x qps=%x\n", r.Scale, r.QPS)
	}
	for _, r := range erows {
		fmt.Fprintf(&b, "elastic %s|%s chips=%d elastic=%v qps=%x\n", r.Workload, r.QoS, r.Chips, r.Elastic, r.MaxQPS)
	}
	return []byte(b.String()), nil
}

// TestGolden pins every deterministic artifact across commits: each case
// regenerates its artifact from a fresh suite and compares it with the
// committed file under testdata/golden. After a deliberate behaviour
// change, rewrite the files with
//
//	go test ./internal/experiments -run TestGolden -update
//
// The goldens come from linux/amd64. Other architectures may fuse
// floating multiply-adds and change low-order bits legitimately.
func TestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden artifacts are recorded on amd64; %s may round floats differently", runtime.GOARCH)
	}
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("long sweep")
			}
			got, err := c.gen(testSuite(t))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name, got)
		})
	}
}

// TestGoldenFiles fails on a stale file under testdata/golden: one that
// no goldenCase writes, or a case stored both verbatim and as a digest.
// -update removes the other form of the case it rewrites, so either
// shape is left behind only by a renamed or deleted case, or by a
// partial edit.
func TestGoldenFiles(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, e := range entries {
		have[e.Name()] = true
	}
	cases := map[string]bool{}
	for _, c := range goldenCases {
		cases[c.name] = true
		if have[c.name] && have[c.name+".sha256"] {
			t.Errorf("golden %s is stored both verbatim and as %s.sha256", c.name, c.name)
		}
	}
	for _, e := range entries {
		if !cases[strings.TrimSuffix(e.Name(), ".sha256")] {
			t.Errorf("testdata/golden/%s matches no golden case", e.Name())
		}
	}
}

// checkGolden compares got with testdata/golden/name (or, for an
// artifact over goldenMaxBytes, its digest with name.sha256) and reports
// the first differing line. With -update it rewrites the file instead.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	stale := path + ".sha256"
	if len(got) > goldenMaxBytes {
		sum := sha256.Sum256(got)
		got = []byte(hex.EncodeToString(sum[:]) + "\n")
		path, stale = stale, path
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(stale); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; ; i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) || i >= len(gl) || i >= len(wl) {
			t.Fatalf("%s differs from golden %s at line %d:\n  got:  %s\n  want: %s",
				name, path, i+1, g, w)
		}
	}
}
