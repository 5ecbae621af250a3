package metrics

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
	"planaria/internal/energy"
	"planaria/internal/sched"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// fastSystem builds a Planaria system over a tiny synthetic model so the
// metric searches stay fast.
func fastSystem(t *testing.T) (System, workload.Scenario) {
	t.Helper()
	cfg := arch.Planaria()
	// Reuse a known QoS name; heavy enough that a 40-request instance can
	// exceed the QoS-H deadline when overloaded.
	b := dnn.NewBuilder("ResNet-50", "classification", 64, 64, 32)
	b.Conv("c1", 128, 3, 1)
	b.Conv("c2", 128, 3, 1)
	b.Conv("c3", 256, 3, 2)
	b.GlobalPool("gp")
	b.FC("fc", 10)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.CompileProgram(net, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	sys := System{
		Name:     "fast",
		Cfg:      cfg,
		Programs: map[string]*compiler.Program{"ResNet-50": prog},
		Params:   energy.Default(),
		NewPolicy: func() sim.Policy {
			return sched.NewSpatial(cfg)
		},
	}
	sc := workload.Scenario{Name: "fast", Models: []string{"ResNet-50"}}
	return sys, sc
}

func fastOpt() Options { return Options{Requests: 80, Instances: 2, Seed: 3} }

func TestEvaluateBasics(t *testing.T) {
	sys, sc := fastSystem(t)
	a, err := Evaluate(sys, sc, workload.QoSSoft, 50, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if a.SLARate < 0 || a.SLARate > 1 {
		t.Errorf("SLARate = %g", a.SLARate)
	}
	if a.Fairness <= 0 || a.Fairness > 1+1e-9 {
		t.Errorf("Fairness = %g", a.Fairness)
	}
	if a.EnergyJ <= 0 || a.MeanLatMS <= 0 {
		t.Errorf("degenerate aggregate %+v", a)
	}
}

// TestEvaluateMeanLatencySkipsUnfinished serves one request for a model
// the system has no program for: it is rejected, never finishes, and
// keeps Latency 0, so MeanLatMS must average only the finished requests.
func TestEvaluateMeanLatencySkipsUnfinished(t *testing.T) {
	sys, _ := fastSystem(t)
	sc := workload.Scenario{Name: "mixed", Models: []string{"ResNet-50", "GoogLeNet"}}
	opt := Options{Requests: 8, Instances: 1, Seed: 7}
	out, err := sys.instance(sc, workload.QoSSoft, 50, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rejected != 1 {
		t.Fatalf("stream has %d rejected requests, want exactly 1", out.Rejected)
	}
	var sum float64
	n := 0
	for i, f := range out.Finishes {
		if f >= 0 {
			sum += out.Latency[i]
			n++
		}
	}
	a, err := Evaluate(sys, sc, workload.QoSSoft, 50, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := sum / float64(n) * 1e3; a.MeanLatMS != want {
		t.Errorf("MeanLatMS = %g, want %g over the %d finished requests", a.MeanLatMS, want, n)
	}
}

func TestEvaluateRejectsBadOptions(t *testing.T) {
	sys, sc := fastSystem(t)
	if _, err := Evaluate(sys, sc, workload.QoSSoft, 50, Options{}); err == nil {
		t.Fatal("zero options accepted")
	}
}

func TestThroughputFindsSaturation(t *testing.T) {
	sys, sc := fastSystem(t)
	tp, err := Throughput(sys, sc, workload.QoSHard, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if tp <= 0 {
		t.Fatalf("throughput = %g, expected a sustainable rate", tp)
	}
	if tp >= 1<<19 {
		t.Fatalf("throughput %g hit the search cap — workload cannot saturate", tp)
	}
	// The found rate must itself satisfy the SLA...
	ok, err := voter(sys, sc, workload.QoSHard, fastOpt())(tp)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("reported throughput %g does not meet the SLA", tp)
	}
	// ...and the SLA must fail well above it.
	ok, err = voter(sys, sc, workload.QoSHard, fastOpt())(tp * 4)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("4x the reported throughput still meets the SLA — search under-estimated")
	}
}

// TestMaxQPS checks the search on threshold predicates: the result meets
// the predicate and lies within 5% of the threshold, a failing floor
// gives 0, the cap bounds the doubling, and an error aborts the search.
func TestMaxQPS(t *testing.T) {
	for _, limit := range []float64{0.7, 3, 100, 1234.5, 90000} {
		got, err := MaxQPS(func(qps float64) (bool, error) { return qps <= limit, nil })
		if err != nil {
			t.Fatal(err)
		}
		if got > limit || got < limit/1.05 {
			t.Errorf("limit %g: MaxQPS = %g, want within 5%% below", limit, got)
		}
	}
	if got, _ := MaxQPS(func(float64) (bool, error) { return false, nil }); got != 0 {
		t.Errorf("failing floor: MaxQPS = %g, want 0", got)
	}
	if got, _ := MaxQPS(func(float64) (bool, error) { return true, nil }); got != 1<<20 {
		t.Errorf("always met: MaxQPS = %g, want the 2^20 cap", got)
	}
	boom := errors.New("boom")
	calls := 0
	if _, err := MaxQPS(func(qps float64) (bool, error) {
		calls++
		if qps > 8 {
			return false, boom
		}
		return true, nil
	}); !errors.Is(err, boom) || calls != 6 {
		t.Errorf("err = %v after %d calls, want boom after 6", err, calls)
	}
}

// TestMajority runs the vote over every yes/no/error outcome vector of
// n = 1..7 instances. It checks that the instances run form a prefix,
// that the first error among them is returned, that an error-free vote
// matches a full count, and that no more instances run than the
// shortest prefix fixing the verdict, whatever the errors would have
// voted.
func TestMajority(t *testing.T) {
	const (
		no = iota
		yes
		fail
	)
	// stop is the shortest prefix of v that fixes the verdict.
	stop := func(v []int) int {
		n, y := len(v), 0
		for k := 1; k <= n; k++ {
			if v[k-1] == yes {
				y++
			}
			if 2*y >= n || 2*(y+n-k) < n {
				return k
			}
		}
		return n
	}
	errs := make([]error, 7)
	for i := range errs {
		errs[i] = fmt.Errorf("instance %d failed", i)
	}
	for n := 1; n <= 7; n++ {
		v := make([]int, n)
		for code := 0; ; code++ {
			c := code
			for i := range v {
				v[i] = c % 3
				c /= 3
			}
			if c > 0 {
				break
			}
			ran := make([]bool, n)
			got, err := Majority(n, func(inst int) (bool, error) {
				ran[inst] = true
				if v[inst] == fail {
					return false, errs[inst]
				}
				return v[inst] == yes, nil
			})
			k := 0
			for k < n && ran[k] {
				k++
			}
			for i := k; i < n; i++ {
				if ran[i] {
					t.Fatalf("%v: ran %v, not a prefix", v, ran)
				}
			}
			asYes, asNo := slices.Clone(v), slices.Clone(v)
			y := 0
			firstErr := -1
			for i := range v {
				if v[i] == fail {
					asYes[i], asNo[i] = yes, no
					if firstErr < 0 && i < k {
						firstErr = i
					}
				}
				if i < k && v[i] == yes {
					y++
				}
			}
			if k > stop(asYes) || k > stop(asNo) {
				t.Fatalf("%v: ran %d instances, the verdict is fixed after %d / %d", v, k, stop(asYes), stop(asNo))
			}
			if firstErr >= 0 {
				if err != errs[firstErr] || got {
					t.Fatalf("%v: got (%v, %v), want (false, %v)", v, got, err, errs[firstErr])
				}
				continue
			}
			if err != nil {
				t.Fatalf("%v: error %v from an instance that did not run", v, err)
			}
			if 2*y < n && 2*(y+n-k) >= n {
				t.Fatalf("%v: stopped after %d instances with the verdict open", v, k)
			}
			if !slices.Contains(v, fail) {
				total := 0
				for _, x := range v {
					if x == yes {
						total++
					}
				}
				if want := 2*total >= n; got != want || k != stop(v) {
					t.Fatalf("%v: got %v after %d instances, want %v after %d", v, got, k, want, stop(v))
				}
			} else if want := 2*y >= n; got != want {
				t.Fatalf("%v: got %v, the %d instances run say %v", v, got, k, want)
			}
		}
	}
}

func TestThroughputMonotoneInQoS(t *testing.T) {
	sys, sc := fastSystem(t)
	soft, err := Throughput(sys, sc, workload.QoSSoft, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	hard, err := Throughput(sys, sc, workload.QoSHard, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if hard > soft {
		t.Errorf("hard-QoS throughput %g exceeds soft-QoS %g", hard, soft)
	}
}

func TestMinNodesMonotoneAndConsistent(t *testing.T) {
	sys, sc := fastSystem(t)
	opt := fastOpt()
	// A rate one node can handle.
	tp, err := Throughput(sys, sc, workload.QoSHard, opt)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := MinNodes(sys, sc, workload.QoSHard, tp*0.5, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != 1 {
		t.Errorf("half the single-node capacity needs %d nodes", n1)
	}
	// A rate beyond one node.
	n2, err := MinNodes(sys, sc, workload.QoSHard, tp*4, 8, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n2 < 2 {
		t.Errorf("4x single-node capacity handled by %d node(s)", n2)
	}
}

func TestDispatchBalances(t *testing.T) {
	reqs, err := workload.Generate(workload.Scenario{Name: "x", Models: []string{"ResNet-50"}},
		workload.QoSSoft, 1000, 90, 1)
	if err != nil {
		t.Fatal(err)
	}
	iso := map[string]float64{"ResNet-50": 0.001}
	per, err := dispatch(reqs, 3, iso)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, sub := range per {
		if len(sub) < 10 {
			t.Errorf("unbalanced dispatch: node got %d of 90", len(sub))
		}
		for _, r := range sub {
			if seen[r.ID] {
				t.Fatalf("request %d dispatched twice", r.ID)
			}
			seen[r.ID] = true
		}
	}
	if len(seen) != 90 {
		t.Fatalf("dispatched %d of 90", len(seen))
	}
}

func TestDispatchUnknownModel(t *testing.T) {
	reqs := []workload.Request{{ID: 0, Model: "mystery"}}
	if _, err := dispatch(reqs, 2, map[string]float64{}); err == nil {
		t.Fatal("unknown model accepted")
	}
}
