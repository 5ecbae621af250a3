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

	"planaria/internal/metrics"
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
	// The CLI trace experiment's defaults at -requests 60: a timeline
	// large enough to be pinned by digest.
	{name: "traced-timeline-60.json", gen: tracedGolden(60, 100, 1, func(r *TracedResult) []byte { return r.TraceJSON })},
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
	{name: "ablation.txt", long: true, gen: renderAblations},
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
