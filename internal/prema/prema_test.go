package prema

import (
	"testing"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
	"planaria/internal/energy"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

func toyProg(t testing.TB, cfg arch.Config) *compiler.Program {
	t.Helper()
	b := dnn.NewBuilder("prema-toy", "classification", 32, 32, 8)
	b.Conv("c1", 32, 3, 1)
	b.GlobalPool("gp")
	b.FC("fc", 10)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.CompileProgram(net, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mkTask(id, prio int, prog *compiler.Program) *sim.Task {
	return &sim.Task{
		ID:     id,
		Req:    workload.Request{ID: id, Priority: prio, Deadline: 1},
		Prog:   prog,
		Finish: -1,
	}
}

func TestSingleOwnerAtATime(t *testing.T) {
	cfg := arch.Monolithic()
	p := toyProg(t, cfg)
	pol := NewToken(cfg)
	tasks := []*sim.Task{mkTask(0, 3, p), mkTask(1, 7, p), mkTask(2, 11, p)}
	alloc := pol.Allocate(0, tasks, 1)
	owners := 0
	for _, a := range alloc {
		if a > 0 {
			owners++
			if a != 1 {
				t.Fatalf("owner granted %d of 1", a)
			}
		}
	}
	if owners != 1 {
		t.Fatalf("%d owners, want exactly 1", owners)
	}
}

func TestTokensAccrueForWaiters(t *testing.T) {
	cfg := arch.Monolithic()
	p := toyProg(t, cfg)
	pol := NewToken(cfg)
	a := mkTask(0, 2, p)
	b := mkTask(1, 10, p)
	tasks := []*sim.Task{a, b}

	first := pol.Allocate(0, tasks, 1)
	var runner, waiter *sim.Task
	if first[a.ID] == 1 {
		runner, waiter = a, b
	} else {
		runner, waiter = b, a
	}
	runner.Alloc = 1
	// After the waiter has waited, its token (priority × wait) overtakes
	// the runner's reset token and it preempts.
	later := pol.Allocate(0.05, tasks, 1)
	if later[waiter.ID] != 1 {
		t.Fatalf("waiter (prio %d) not scheduled after waiting: %v", waiter.Req.Priority, later)
	}
}

func TestHigherPriorityWinsInitially(t *testing.T) {
	cfg := arch.Monolithic()
	p := toyProg(t, cfg)
	pol := NewToken(cfg)
	lo := mkTask(0, 1, p)
	hi := mkTask(1, 11, p)
	alloc := pol.Allocate(0, []*sim.Task{lo, hi}, 1)
	if alloc[hi.ID] != 1 {
		t.Fatalf("high-priority task not scheduled first: %v", alloc)
	}
}

func TestFinishedTasksForgotten(t *testing.T) {
	cfg := arch.Monolithic()
	p := toyProg(t, cfg)
	pol := NewToken(cfg)
	a := mkTask(0, 5, p)
	pol.Allocate(0, []*sim.Task{a}, 1)
	checkEntries(t, pol, []*sim.Task{a})
	if len(pol.entries) != 1 {
		t.Fatalf("tokens = %d, want 1", len(pol.entries))
	}
	b := mkTask(1, 5, p)
	pol.Allocate(1, []*sim.Task{b}, 1)
	checkEntries(t, pol, []*sim.Task{b})
	if _, ok := pol.index[a.ID]; ok || len(pol.entries) != 1 {
		t.Fatal("departed task still holds a token")
	}
}

// checkEntries requires that the entries stamped with the policy's
// current round belong to exactly the IDs of tasks, the round just
// decided, and that the index maps every ID to its entry.
func checkEntries(t *testing.T, p *Token, tasks []*sim.Task) {
	t.Helper()
	if len(p.index) != len(p.entries) {
		t.Fatalf("index holds %d IDs for %d entries", len(p.index), len(p.entries))
	}
	current := map[int]bool{}
	for j, e := range p.entries {
		if p.index[e.id] != j {
			t.Fatalf("index maps task %d to entry %d, it sits at %d", e.id, p.index[e.id], j)
		}
		if e.round == p.round {
			current[e.id] = true
		}
	}
	ids := map[int]bool{}
	for _, task := range tasks {
		ids[task.ID] = true
		if !current[task.ID] {
			t.Fatalf("task %d of the current round holds no current entry", task.ID)
		}
	}
	if len(current) != len(ids) {
		t.Fatalf("%d current entries for the round's %d tasks", len(current), len(ids))
	}
}

// TestQuantumPositive pins the token re-evaluation quantum by value: no
// golden moves when it moves by one ULP.
func TestQuantumPositive(t *testing.T) {
	if q := NewToken(arch.Monolithic()).Quantum(); q != 500e-6 {
		t.Fatalf("PREMA scheduling quantum = %g, want 500 µs", q)
	}
}

// TestTokenNodeRunAllocs pins the allocations of one warm Node.Run under
// PREMA, beside sim's TestNodeRunAllocs: three for the Outcome and its
// two slices, the rest for the monolithic chip's power breakdown behind the
// leakage charge, and none for the token decisions, whose entries, index and
// scratch stay warm from the previous run.
func TestTokenNodeRunAllocs(t *testing.T) {
	const wantAllocs = 9
	cfg := arch.Monolithic()
	prog := toyProg(t, cfg)
	node := &sim.Node{
		Cfg: cfg, Policy: NewToken(cfg), Params: energy.Default(),
		Programs: map[string]*compiler.Program{prog.Net.Name: prog},
	}
	iso := cfg.Seconds(prog.Table(1).TotalCycles)
	var reqs []workload.Request
	for i := 0; i < 16; i++ {
		arrival := float64(i) * iso / 3
		reqs = append(reqs, workload.Request{
			ID: i, Model: prog.Net.Name, Domain: "classification",
			Arrival: arrival, Priority: 1 + i%11, QoS: 8 * iso, Deadline: arrival + 8*iso,
		})
	}
	run := func() {
		if _, err := node.Run(reqs); err != nil {
			t.Fatal(err)
		}
	}
	// The fewest over 20 single runs: the race detector drops a random
	// share of sync.Pool puts, and a run that loses the pooled state
	// allocates more.
	got := testing.AllocsPerRun(1, run)
	for i := 1; i < 20; i++ {
		got = min(got, testing.AllocsPerRun(1, run))
	}
	if got > wantAllocs {
		t.Errorf("warm PREMA Node.Run: %.1f allocs/op, want at most %d", got, wantAllocs)
	}
}
