package sched

import (
	"testing"

	"planaria/internal/arch"
	"planaria/internal/sim"
)

func TestFCFSPicksOldestAndSticks(t *testing.T) {
	cfg := arch.Planaria()
	p := toyProg(t, cfg)
	pol := NewFCFS()
	a := mkTask(t, 0, p, 1, 5)
	b := mkTask(t, 1, p, 1, 9)
	a.Req.Arrival = 0.002
	b.Req.Arrival = 0.001
	alloc := pol.Allocate(0.01, []*sim.Task{a, b}, 16)
	if alloc[b.ID] != 16 || alloc[a.ID] != 0 {
		t.Fatalf("FCFS should give the whole chip to the oldest: %v", alloc)
	}
	// Once a task runs, it runs to completion even if an older-looking
	// task appears.
	a.Alloc = 16
	alloc = pol.Allocate(0.02, []*sim.Task{a, b}, 16)
	if alloc[a.ID] != 16 {
		t.Fatalf("FCFS preempted a running task: %v", alloc)
	}
}

func TestFCFSEmpty(t *testing.T) {
	if got := NewFCFS().Allocate(0, nil, 16); len(got) != 0 {
		t.Fatalf("empty allocation = %v", got)
	}
}

func TestEqualShareDivides(t *testing.T) {
	cfg := arch.Planaria()
	p := toyProg(t, cfg)
	pol := NewEqualShare()
	tasks := []*sim.Task{
		mkTask(t, 0, p, 1, 1),
		mkTask(t, 1, p, 1, 11),
		mkTask(t, 2, p, 1, 5),
	}
	alloc := pol.Allocate(0, tasks, 16)
	sum := 0
	for _, task := range tasks {
		a := alloc[task.ID]
		if a < 5 || a > 6 {
			t.Errorf("task %d got %d, want 5 or 6", task.ID, a)
		}
		sum += a
	}
	if sum != 16 {
		t.Fatalf("equal share used %d of 16", sum)
	}
}

func TestEqualShareOversubscribed(t *testing.T) {
	cfg := arch.Planaria()
	p := toyProg(t, cfg)
	pol := NewEqualShare()
	var tasks []*sim.Task
	for i := 0; i < 20; i++ {
		tk := mkTask(t, i, p, 1, 5)
		tk.Req.Arrival = float64(i) * 1e-4
		tasks = append(tasks, tk)
	}
	alloc := pol.Allocate(1, tasks, 16)
	sum := 0
	granted := 0
	for _, a := range alloc {
		sum += a
		if a > 0 {
			granted++
		}
	}
	if sum != 16 {
		t.Fatalf("oversubscribed share used %d of 16", sum)
	}
	if granted != 16 {
		t.Fatalf("%d tasks granted, want the 16 oldest", granted)
	}
	// The newest tasks wait.
	if alloc[19] != 0 || alloc[16] != 0 {
		t.Errorf("newest tasks should wait: %v", alloc)
	}
	if alloc[0] != 1 {
		t.Errorf("oldest task should run: %v", alloc)
	}
}

func TestAblationPoliciesNames(t *testing.T) {
	if NewFCFS().Name() == "" || NewEqualShare().Name() == "" {
		t.Fatal("policies need names")
	}
	if NewFCFS().Quantum() != 0 || NewEqualShare().Quantum() != 0 {
		t.Fatal("ablation policies are event-driven")
	}
}
