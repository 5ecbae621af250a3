package sched

import (
	"testing"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
	"planaria/internal/obs"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

func toyProg(t testing.TB, cfg arch.Config) *compiler.Program {
	t.Helper()
	b := dnn.NewBuilder("sched-toy", "classification", 32, 32, 8)
	b.Conv("c1", 32, 3, 1)
	b.Conv("c2", 64, 3, 2)
	b.GlobalPool("gp")
	b.FC("fc", 10)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.CompileProgram(net, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mkTask(t testing.TB, id int, prog *compiler.Program, deadline float64, prio int) *sim.Task {
	t.Helper()
	return &sim.Task{
		ID: id,
		Req: workload.Request{
			ID: id, Model: prog.Net.Name, Priority: prio,
			Arrival: 0, QoS: deadline, Deadline: deadline,
		},
		Prog:   prog,
		Finish: -1,
	}
}

func TestEstimateResourcesMinimal(t *testing.T) {
	cfg := arch.Planaria()
	p := toyProg(t, cfg)
	s := NewSpatial(cfg)
	// Generous slack: one subarray suffices.
	loose := mkTask(t, 0, p, 10.0, 5)
	if got := s.EstimateResources(loose, 0, 16); got != 1 {
		t.Errorf("loose slack estimate = %d, want 1", got)
	}
	// Impossible slack: the maximum is requested.
	tight := mkTask(t, 1, p, 1e-9, 5)
	if got := s.EstimateResources(tight, 0, 16); got != 16 {
		t.Errorf("impossible slack estimate = %d, want 16", got)
	}
	// Intermediate slack: the minimal allocation that meets it.
	t4 := cfg.Seconds(p.Table(4).TotalCycles)
	mid := mkTask(t, 2, p, t4*1.01, 5)
	got := s.EstimateResources(mid, 0, 16)
	if got > 4 || got < 1 {
		t.Errorf("mid estimate = %d, want in [1,4]", got)
	}
	if s.Cfg.Seconds(mid.RemainingCycles(got)) > mid.Slack(0) {
		t.Errorf("estimate %d does not meet slack", got)
	}
	if got > 1 && s.Cfg.Seconds(mid.RemainingCycles(got-1)) <= mid.Slack(0) {
		t.Errorf("estimate %d is not minimal", got)
	}
}

func TestAllocateFitConservesAndCovers(t *testing.T) {
	cfg := arch.Planaria()
	p := toyProg(t, cfg)
	s := NewSpatial(cfg)
	tasks := []*sim.Task{
		mkTask(t, 0, p, 1.0, 1),
		mkTask(t, 1, p, 1.0, 11),
		mkTask(t, 2, p, 1.0, 5),
	}
	alloc := s.Allocate(0, tasks, 16)
	sum := 0
	for _, task := range tasks {
		a := alloc[task.ID]
		if a < s.EstimateResources(task, 0, 16) {
			t.Errorf("task %d got %d < its estimate", task.ID, a)
		}
		sum += a
	}
	if sum > 16 {
		t.Fatalf("over-allocated: %d", sum)
	}
	if sum != 16 {
		t.Errorf("fit allocation left %d subarrays idle", 16-sum)
	}
	// Spare distribution favours the higher-priority task.
	if alloc[1] < alloc[0] {
		t.Errorf("priority 11 task got %d, priority 1 task got %d", alloc[1], alloc[0])
	}
}

func TestAllocateUnfitPrefersUrgentHighPriority(t *testing.T) {
	cfg := arch.Planaria()
	p := toyProg(t, cfg)
	s := NewSpatial(cfg)
	// Many tasks with impossible deadlines: every estimate is 16, so only
	// the best-scoring tasks get the chip.
	var tasks []*sim.Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, mkTask(t, i, p, 1e-9, i+1))
	}
	alloc := s.Allocate(0, tasks, 16)
	sum := 0
	for _, a := range alloc {
		sum += a
	}
	if sum > 16 {
		t.Fatalf("over-allocated: %d", sum)
	}
	// The highest-priority task must be admitted.
	if alloc[3] == 0 {
		t.Errorf("highest-priority task starved: %v", alloc)
	}
}

// TestPolicyConstants pins the unfit score's slack floor and the elastic
// comfort band by value: no golden moves when either moves by one ULP.
func TestPolicyConstants(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"minSlack", minSlack, 1e-6},
		{"headroomFrac", headroomFrac, 0.001},
	} {
		if c.got != c.want {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
}

func TestAllocateEmpty(t *testing.T) {
	s := NewSpatial(arch.Planaria())
	if got := s.Allocate(0, nil, 16); len(got) != 0 {
		t.Fatalf("empty queue allocation = %v", got)
	}
}

func TestAllocateSingleTaskGetsEverything(t *testing.T) {
	cfg := arch.Planaria()
	p := toyProg(t, cfg)
	s := NewSpatial(cfg)
	task := mkTask(t, 0, p, 10.0, 3)
	alloc := s.Allocate(0, []*sim.Task{task}, 16)
	if alloc[0] != 16 {
		t.Fatalf("lone task got %d of 16 subarrays", alloc[0])
	}
}

func TestUnfitTopUpUsesWholeChip(t *testing.T) {
	cfg := arch.Planaria()
	p := toyProg(t, cfg)
	s := NewSpatial(cfg)
	// Two tasks each estimating ~16 (impossible deadline): one is
	// admitted and topped up to the full chip.
	tasks := []*sim.Task{
		mkTask(t, 0, p, 1e-9, 5),
		mkTask(t, 1, p, 1e-9, 7),
	}
	alloc := s.Allocate(0, tasks, 16)
	sum := 0
	for _, a := range alloc {
		sum += a
	}
	if sum != 16 {
		t.Fatalf("unfit allocation uses %d of 16", sum)
	}
}

// TestSpatialOccupancyFeed pins the fission-decision feed into the
// utilization accountant: every AllocateInto records one decision with
// the demanded and supplied subarray counts, fit or unfit.
func TestSpatialOccupancyFeed(t *testing.T) {
	cfg := arch.Planaria()
	p := toyProg(t, cfg)
	s := NewSpatial(cfg)
	occ := obs.NewOccupancy(16)
	s.SetOccupancy(occ)

	dst := make([]int, 1)
	// One loose task: fits with demand 1 of 16.
	s.AllocateInto(0, []*sim.Task{mkTask(t, 0, p, 10.0, 5)}, 16, dst)
	if occ.Decisions != 1 || occ.FitDecisions != 1 {
		t.Fatalf("after fit: %+v", occ)
	}
	if occ.SupplyUnits != 16 || occ.DemandUnits < 1 {
		t.Fatalf("fit demand/supply: %+v", occ)
	}

	// Many impossible-deadline tasks: demand exceeds supply, unfit.
	tasks := []*sim.Task{
		mkTask(t, 1, p, 1e-9, 5),
		mkTask(t, 2, p, 1e-9, 5),
		mkTask(t, 3, p, 1e-9, 5),
	}
	dst = make([]int, len(tasks))
	s.AllocateInto(0, tasks, 16, dst)
	if occ.Decisions != 2 || occ.FitDecisions != 1 {
		t.Fatalf("after unfit: %+v", occ)
	}
	if occ.Pressure() <= 1 {
		t.Fatalf("over-demand pressure = %g, want > 1", occ.Pressure())
	}

	// A nil accountant must be inert (the default wiring).
	s2 := NewSpatial(cfg)
	s2.AllocateInto(0, []*sim.Task{mkTask(t, 4, p, 10.0, 5)}, 16, make([]int, 1))
}
