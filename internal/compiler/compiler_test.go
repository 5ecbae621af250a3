package compiler

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"planaria/internal/arch"
	"planaria/internal/dnn"
	"planaria/internal/energy"
)

// TestLayerJoules checks the memoized layer energies against the
// configuration tables bit for bit, the shared rows of a repeated
// parameter set, and the memo bound.
func TestLayerJoules(t *testing.T) {
	p, err := CompileProgram(toyNet(t), arch.Planaria(), true)
	if err != nil {
		t.Fatal(err)
	}
	params := energy.Default()
	rows, _ := p.LayerJoules(params)
	if len(rows) != p.MaxAlloc() {
		t.Fatalf("%d rows, want %d", len(rows), p.MaxAlloc())
	}
	for s := 1; s <= p.MaxAlloc(); s++ {
		layers := p.Table(s).Layers
		if len(rows[s-1]) != len(layers) {
			t.Fatalf("alloc %d: %d entries, want %d", s, len(rows[s-1]), len(layers))
		}
		for l := range layers {
			if want := layers[l].Acct.Joules(params); rows[s-1][l] != want {
				t.Errorf("alloc %d layer %d: %v J, table says %v", s, l, rows[s-1][l], want)
			}
		}
	}
	if again, _ := p.LayerJoules(params); &again[0][0] != &rows[0][0] {
		t.Error("repeated parameter set recomputed its rows")
	}
	for i := 0; i < 2*maxJoulesMemo; i++ {
		q := params
		q.MACpJ += float64(i + 1)
		p.LayerJoules(q)
	}
	if len(p.joules) != maxJoulesMemo {
		t.Errorf("memo holds %d parameter sets, bound %d", len(p.joules), maxJoulesMemo)
	}
}

// TestLayerJoulesPrefix checks the running sums against sequential adds
// from 0 in layer order, bit for bit, and that they are memoized with
// the rows, under the same bound.
func TestLayerJoulesPrefix(t *testing.T) {
	p, err := CompileProgram(toyNet(t), arch.Planaria(), true)
	if err != nil {
		t.Fatal(err)
	}
	params := energy.Default()
	for i := 0; i < maxJoulesMemo+2; i++ {
		rows, sums := p.LayerJoules(params)
		for s := range rows {
			if len(sums[s]) != len(rows[s])+1 {
				t.Fatalf("alloc %d: %d sums for %d layers", s+1, len(sums[s]), len(rows[s]))
			}
			acc := 0.0
			for l, j := range rows[s] {
				if sums[s][l] != acc {
					t.Fatalf("alloc %d: sums[%d] = %v, sequential adds %v", s+1, l, sums[s][l], acc)
				}
				acc += j
			}
			if last := sums[s][len(rows[s])]; last != acc {
				t.Fatalf("alloc %d: last sum %v, sequential adds %v", s+1, last, acc)
			}
		}
		memoized := i < maxJoulesMemo
		if _, again := p.LayerJoules(params); (&again[0][0] == &sums[0][0]) != memoized {
			t.Errorf("parameter set %d: sums shared %v, want %v", i, !memoized, memoized)
		}
		params.MACpJ += 1
	}
	if len(p.joules) != maxJoulesMemo {
		t.Errorf("memo holds %d parameter sets, bound %d", len(p.joules), maxJoulesMemo)
	}
}

func toyNet(t *testing.T) *dnn.Network {
	t.Helper()
	b := dnn.NewBuilder("toy", "classification", 16, 16, 3)
	b.Conv("c1", 8, 3, 1)
	b.DWConv("dw", 3, 1)
	b.Conv("pw", 16, 1, 1)
	b.Pool("p", 2, 2)
	b.GlobalPool("gp")
	b.FC("fc", 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCompileBasics(t *testing.T) {
	cfg := arch.Planaria()
	tab, err := Compile(toyNet(t), cfg, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Layers) != 6 {
		t.Fatalf("layer plans = %d, want 6", len(tab.Layers))
	}
	if tab.TotalCycles <= 0 || tab.TotalTiles <= 0 {
		t.Fatalf("degenerate table %+v", tab)
	}
	if len(tab.CumCycles) != 7 || tab.CumCycles[6] != tab.TotalCycles {
		t.Fatalf("prefix sums wrong: %v vs total %d", tab.CumCycles, tab.TotalCycles)
	}
}

func TestCompileRejectsBadInput(t *testing.T) {
	cfg := arch.Planaria()
	if _, err := Compile(&dnn.Network{Name: "x"}, cfg, 4, true); err == nil {
		t.Error("accepted invalid network")
	}
	if _, err := Compile(toyNet(t), cfg, 0, true); err == nil {
		t.Error("accepted allocation 0")
	}
	if _, err := Compile(toyNet(t), cfg, 17, true); err == nil {
		t.Error("accepted allocation 17")
	}
}

func TestProgramMonotoneLatency(t *testing.T) {
	// More subarrays must never increase compiled latency — the property
	// the scheduler's ESTIMATERESOURCES search relies on.
	cfg := arch.Planaria()
	for _, name := range []string{"MobileNet-v1", "GoogLeNet", "GNMT"} {
		p, err := CompileProgram(dnn.MustByName(name), cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		prev := int64(1 << 62)
		for s := 1; s <= 16; s++ {
			c := p.Table(s).TotalCycles
			if c > prev {
				t.Errorf("%s: cycles increased %d→%d at s=%d", name, prev, c, s)
			}
			prev = c
		}
	}
}

func TestRemainingCycles(t *testing.T) {
	cfg := arch.Planaria()
	tab, err := Compile(toyNet(t), cfg, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.RemainingCycles(0, 0); got != tab.TotalCycles {
		t.Errorf("fresh task remaining = %d, want %d", got, tab.TotalCycles)
	}
	if got := tab.RemainingCycles(len(tab.Layers), 0); got != 0 {
		t.Errorf("finished task remaining = %d, want 0", got)
	}
	// Mid-layer progress interpolates.
	l0 := tab.Layers[0]
	if l0.Tiles > 1 {
		half := tab.RemainingCycles(0, l0.Tiles/2)
		if half >= tab.TotalCycles || half <= tab.RemainingCycles(1, 0)-1 {
			t.Errorf("mid-layer remaining %d not between bounds (%d, %d)",
				half, tab.RemainingCycles(1, 0), tab.TotalCycles)
		}
	}
	// Tiles beyond the layer clamp.
	if got := tab.RemainingCycles(0, l0.Tiles*10); got < 0 {
		t.Errorf("clamped remaining = %d", got)
	}
	// Monotone in progress.
	prev := tab.TotalCycles + 1
	for layer := 0; layer <= len(tab.Layers); layer++ {
		got := tab.RemainingCycles(layer, 0)
		if got >= prev {
			t.Errorf("remaining not decreasing at layer %d: %d >= %d", layer, got, prev)
		}
		prev = got
	}
}

func TestBinaryGeneration(t *testing.T) {
	cfg := arch.Planaria()
	net := toyNet(t)
	tab, err := Compile(net, cfg, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := tab.Binary(net, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := bin.Validate(); err != nil {
		t.Fatal(err)
	}
	if bin.Subarrays != 4 || bin.Net != "toy" {
		t.Fatalf("binary header %q/%d", bin.Net, bin.Subarrays)
	}
	// Hardware-looped emission keeps big nets within sane binary sizes.
	big, err := Compile(dnn.MustByName("ResNet-50"), cfg, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	bbin, err := big.Binary(dnn.MustByName("ResNet-50"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := bbin.Validate(); err != nil {
		t.Fatal(err)
	}
	if bbin.Bytes() > 1<<20 {
		t.Errorf("ResNet-50 binary = %d bytes, want < 1 MB with looped emission", bbin.Bytes())
	}
}

func TestBinaryNetMismatch(t *testing.T) {
	cfg := arch.Planaria()
	tab, err := Compile(toyNet(t), cfg, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Binary(dnn.MustByName("GNMT"), 8); err == nil {
		t.Fatal("expected network mismatch error")
	}
}

func TestDepthwisePlansAreClustered(t *testing.T) {
	// Table II's observation: depthwise layers pick the finest fission.
	cfg := arch.Planaria()
	tab, err := Compile(dnn.MustByName("MobileNet-v1"), cfg, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	net := dnn.MustByName("MobileNet-v1")
	for _, lp := range tab.Layers {
		if net.Layers[lp.LayerIdx].Kind == dnn.DWConv && lp.Shape.Clusters < 8 {
			t.Errorf("depthwise layer %s compiled to %v, expected many clusters",
				net.Layers[lp.LayerIdx].Name, lp.Shape)
		}
	}
}

func TestMonolithicCompilationUsesOneShape(t *testing.T) {
	cfg := arch.Monolithic()
	net := dnn.MustByName("GoogLeNet")
	tab, err := Compile(net, cfg, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	mono := arch.MonolithicShape(cfg)
	for _, lp := range tab.Layers {
		if net.Layers[lp.LayerIdx].Kind.IsGEMM() && lp.Shape != mono {
			t.Errorf("layer %d compiled to %v on a monolithic design", lp.LayerIdx, lp.Shape)
		}
	}
}

func TestCacheReturnsSameProgram(t *testing.T) {
	c := NewCache()
	cfg := arch.Planaria()
	net := dnn.MustByName("Tiny YOLO")
	p1, err := c.Program(net, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Program(net, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("cache returned distinct programs")
	}
	// Different fissionability is a different artifact.
	p3, err := c.Program(net, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("cache conflated fissionable and monolithic programs")
	}
}

func TestProgramTableClamping(t *testing.T) {
	cfg := arch.Planaria()
	p, err := CompileProgram(toyNetHelper(t), cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Table(0) != p.Table(1) {
		t.Error("Table(0) should clamp to 1")
	}
	if p.Table(99) != p.Table(16) {
		t.Error("Table(99) should clamp to 16")
	}
	if p.MaxAlloc() != 16 {
		t.Errorf("MaxAlloc = %d", p.MaxAlloc())
	}
}

func toyNetHelper(t *testing.T) *dnn.Network { return toyNet(t) }

func TestCacheConcurrentAccess(t *testing.T) {
	// INFaaS deployments compile models from concurrent request paths;
	// the cache must be safe and return one program per artifact.
	c := NewCache()
	cfg := arch.Planaria()
	net := dnn.MustByName("GoogLeNet")
	const goroutines = 8
	progs := make([]*Program, goroutines)
	done := make(chan int, goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			p, err := c.Program(net, cfg, true)
			if err == nil {
				progs[i] = p
			}
			done <- i
		}(i)
	}
	for i := 0; i < goroutines; i++ {
		<-done
	}
	for i := 1; i < goroutines; i++ {
		if progs[i] == nil {
			t.Fatalf("goroutine %d got no program", i)
		}
		if progs[i].MaxAlloc() != 16 {
			t.Fatalf("goroutine %d got incomplete program", i)
		}
		// In-flight deduplication: every racing caller must share the one
		// artifact compiled by the first.
		if progs[i] != progs[0] {
			t.Fatalf("goroutine %d got a distinct program — duplicate compile", i)
		}
	}
}

func TestCacheSingleflightCompilesOnce(t *testing.T) {
	// Hold every caller at a start line, release them at once, and count
	// how many compilations actually execute: exactly one.
	c := NewCache()
	cfg := arch.Planaria()
	net := dnn.MustByName("Tiny YOLO")

	var compiles atomic.Int32
	inner := c.compile
	c.compile = func(n *dnn.Network, cf arch.Config, f bool) (*Program, error) {
		compiles.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the miss window
		return inner(n, cf, f)
	}

	const goroutines = 16
	start := make(chan struct{})
	progs := make([]*Program, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			progs[i], errs[i] = c.Program(net, cfg, true)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if progs[i] != progs[0] {
			t.Fatalf("goroutine %d got a distinct program", i)
		}
	}
	if got := compiles.Load(); got != 1 {
		t.Fatalf("CompileProgram ran %d times for one key, want 1", got)
	}
}

func TestCacheSingleflightRetriesAfterError(t *testing.T) {
	// A failed compilation must not be cached: waiters share the error,
	// and a later call retries and succeeds.
	c := NewCache()
	cfg := arch.Planaria()
	net := dnn.MustByName("Tiny YOLO")

	inner := c.compile
	var calls atomic.Int32
	wantErr := errors.New("transient failure")
	c.compile = func(n *dnn.Network, cf arch.Config, f bool) (*Program, error) {
		if calls.Add(1) == 1 {
			return nil, wantErr
		}
		return inner(n, cf, f)
	}
	if _, err := c.Program(net, cfg, true); !errors.Is(err, wantErr) {
		t.Fatalf("first call error = %v, want %v", err, wantErr)
	}
	p, err := c.Program(net, cfg, true)
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if p == nil || p.MaxAlloc() != 16 {
		t.Fatal("retry returned incomplete program")
	}
	if calls.Load() != 2 {
		t.Fatalf("compile ran %d times, want 2 (fail once, then retry)", calls.Load())
	}
}

func TestCompileProgramParallelMatchesSequential(t *testing.T) {
	// Force real worker goroutines even on narrow machines, then check the
	// parallel per-allocation sweep lands the same tables a sequential
	// compile produces — the fan-out must be invisible in the artifact.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	cfg := arch.Planaria()
	net := dnn.MustByName("Tiny YOLO")
	p, err := CompileProgram(net, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= p.MaxAlloc(); s++ {
		want, err := Compile(net, cfg, s, true)
		if err != nil {
			t.Fatal(err)
		}
		got := p.Table(s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("allocation %d: parallel table differs from sequential compile", s)
		}
	}
}
