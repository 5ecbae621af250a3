package sim

import (
	"strings"
	"testing"

	"planaria/internal/workload"
)

func TestTraceRecordsTimeline(t *testing.T) {
	node, _ := testNode(t, fullPolicy{})
	tr := &Trace{}
	node.Trace = tr
	reqs := []workload.Request{
		req(0, 0, 1, 5),
		req(1, 0.0002, 1, 7),
	}
	if _, err := node.Run(reqs); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Both tasks were (re)allocated at least once and finished once.
	arrivals, allocs, finishes, task0Allocs := 0, 0, 0, 0
	for _, e := range tr.Events {
		switch e.Kind {
		case EvArrival:
			arrivals++
		case EvAlloc:
			allocs++
			if e.Task == 0 {
				task0Allocs++
			}
		case EvFinish:
			finishes++
		}
	}
	if arrivals != 2 || finishes != 2 || allocs < 2 {
		t.Fatalf("arrivals=%d allocs=%d finishes=%d", arrivals, allocs, finishes)
	}
	if task0Allocs == 0 {
		t.Fatal("task 0 has no allocation timeline")
	}
	if s := tr.String(); !strings.Contains(s, "finish") {
		t.Fatal("trace rendering missing events")
	}
}

func TestTraceNilSafe(t *testing.T) {
	node, _ := testNode(t, fullPolicy{})
	node.Trace = nil
	if _, err := node.Run([]workload.Request{req(0, 0, 1, 5)}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceValidateCatchesCorruption(t *testing.T) {
	cases := map[string]Trace{
		"backwards": {Events: []Event{
			{Time: 1, Kind: EvArrival, Task: 0},
			{Time: 0.5, Kind: EvFinish, Task: 0},
		}},
		"double arrival": {Events: []Event{
			{Time: 0, Kind: EvArrival, Task: 0},
			{Time: 1, Kind: EvArrival, Task: 0},
		}},
		"alloc before arrival": {Events: []Event{
			{Time: 0, Kind: EvAlloc, Task: 0, Alloc: 4},
		}},
		"double finish": {Events: []Event{
			{Time: 0, Kind: EvArrival, Task: 0},
			{Time: 1, Kind: EvFinish, Task: 0},
			{Time: 2, Kind: EvFinish, Task: 0},
		}},
		"alloc after finish": {Events: []Event{
			{Time: 0, Kind: EvArrival, Task: 0},
			{Time: 1, Kind: EvFinish, Task: 0},
			{Time: 2, Kind: EvAlloc, Task: 0, Alloc: 1},
		}},
		"finish before arrival": {Events: []Event{
			{Time: 0, Kind: EvFinish, Task: 0},
		}},
	}
	for name, tr := range cases {
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: corrupted trace validated", name)
		}
	}
}

func TestEventKindString(t *testing.T) {
	for _, k := range []EventKind{EvArrival, EvAlloc, EvFinish} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
	if EventKind(99).String() != "event(99)" {
		t.Fatal("unknown kind string")
	}
}
