package experiments

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"

	"planaria/internal/cluster"
	"planaria/internal/fault"
	"planaria/internal/metrics"
	"planaria/internal/obs"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// clusterPathCase is one cluster.Run of the cluster-paths golden.
type clusterPathCase struct {
	name string
	cfg  cluster.Config
	reqs []workload.Request
}

// deadChipSchedule takes every pod's link down permanently at instant at.
func deadChipSchedule(units, pods int, at float64) *fault.Schedule {
	s := &fault.Schedule{Units: units, Pods: pods}
	for pod := 0; pod < pods; pod++ {
		s.Events = append(s.Events, fault.Event{Time: at, Kind: fault.KindLink, Unit: pod})
	}
	return s
}

// clusterPathCases builds a small matrix that reaches the cluster front
// end's cold paths, each under all three balancing policies where the
// policy matters:
//
//   - static: a shuffled stream with tied arrivals; a queueing admission
//     bucket on one QoS level while another level admits freely, so
//     admits come out of arrival order; batching; one chip dying a third
//     of the way in and the other two near the end, so the tail sheds as
//     unroutable;
//   - autoscale: a burst on three slots under a Script controller that
//     drains one slot while the others are alive (migration), then
//     another after every chip has died (drain shed), with retires
//     logged at future instants;
//   - eps-window: a batch window that closes within simtime.Eps after
//     another model's max-batch dispatch, so dispatch instants move
//     backwards in emit order.
//
// Every case runs with a timeline and attribution on every chip.
func clusterPathCases(s *Suite) ([]clusterPathCase, error) {
	sys := s.Planaria
	units := sys.Cfg.NumSubarrays()
	pods := sys.Cfg.Pods
	var cases []clusterPathCase

	reqs, err := workload.Generate(workload.ScenarioA(), workload.QoSMedium, 300, 90, 3)
	if err != nil {
		return nil, err
	}
	for _, i := range []int{17, 52} {
		reqs[i].Arrival = reqs[i-1].Arrival
		reqs[i].Deadline = reqs[i].Arrival + reqs[i].QoS
	}
	for i := range reqs {
		if i%3 == 0 {
			reqs[i].Level = workload.QoSSoft.Name
		}
	}
	span := reqs[len(reqs)-1].Arrival
	rand.New(rand.NewSource(9)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	for _, pol := range cluster.Policies() {
		cases = append(cases, clusterPathCase{name: "static/" + pol, reqs: reqs, cfg: cluster.Config{
			System: sys, Chips: 3, Policy: pol,
			BatchWindow: 2e-3, MaxBatch: 3,
			Admission: map[string]cluster.TokenBucket{
				workload.QoSMedium.Name: {Rate: 120, Burst: 2, MaxQueue: 6},
			},
			Faults: []*fault.Schedule{
				deadChipSchedule(units, pods, span/3),
				deadChipSchedule(units, pods, span*5/6),
				deadChipSchedule(units, pods, span*5/6),
			},
			FaultMode: sim.FaultFission,
		}})
	}

	burst, err := workload.Generate(workload.ScenarioA(), workload.QoSSoft, 20000, 80, 4)
	if err != nil {
		return nil, err
	}
	for _, pol := range cluster.Policies() {
		cases = append(cases, clusterPathCase{name: "autoscale/" + pol, reqs: burst, cfg: cluster.Config{
			System: sys, Chips: 3, Policy: pol,
			BatchWindow: 2e-4, MaxBatch: 4,
			Faults: []*fault.Schedule{
				deadChipSchedule(units, pods, 0.003),
				deadChipSchedule(units, pods, 0.003),
				deadChipSchedule(units, pods, 0.003),
			},
			FaultMode: sim.FaultFission,
			Scale: &cluster.Autoscale{
				Min: 1, Initial: 3, IntervalS: 0.002,
				Controller: &cluster.Script{Steps: []cluster.ScaleStep{{AtS: 0.002, Chips: 2}, {AtS: 0.004, Chips: 1}}},
			},
		}})
	}

	const window = 1e-3
	mk := func(id int, at float64, model string) workload.Request {
		r, _ := workload.NewRequest(id, at, model, 1+id%11, workload.QoSSoft)
		return r
	}
	cases = append(cases, clusterPathCase{name: "eps-window", reqs: []workload.Request{
		mk(0, 0, "ResNet-50"),
		mk(1, window/2, "GoogLeNet"),
		mk(2, window-1e-13, "GoogLeNet"),
		mk(3, 2*window, "ResNet-50"),
	}, cfg: cluster.Config{System: sys, Chips: 2, BatchWindow: window, MaxBatch: 2}})
	return cases, nil
}

// renderClusterPaths runs the cluster-paths matrix and renders each
// outcome: finishes and latencies in hex, every tally, a digest of each
// chip's dispatch stream, the attribution links and front-door phase
// totals, and the fleet log.
func renderClusterPaths(s *Suite) ([]byte, error) {
	cases, err := clusterPathCases(s)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	for _, c := range cases {
		cfg := c.cfg
		cfg.Attrib = true
		out, err := cluster.Run(cfg, c.reqs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		fmt.Fprintf(&b, "== %s\n", c.name)
		fmt.Fprintf(&b, "completed=%d shedFront=%d shedChips=%d rejected=%d shedDrain=%d migrated=%d\n",
			out.Completed, out.ShedFront, out.ShedChips, out.Rejected, out.ShedDrain, out.Migrated)
		fmt.Fprintf(&b, "killed=%d retries=%d faults=%d batches=%d batched=%d meanBatch=%x\n",
			out.Killed, out.Retries, out.FaultEvents, out.Batches, out.BatchedReqs, out.MeanBatchSize)
		fmt.Fprintf(&b, "energy=%x makespan=%x sla=%v deadlineFrac=%x dispatched=%v\n",
			out.EnergyJ, out.Makespan, out.MeetsSLA, out.DeadlineFrac, out.Dispatched)
		for i, cr := range out.PerChip {
			h := sha256.New()
			for _, r := range cr.Requests {
				fmt.Fprintf(h, "%+v\n", r)
			}
			fmt.Fprintf(&b, "chip %d requests=%d sha256=%x\n", i, len(cr.Requests), h.Sum(nil))
		}
		a := out.Attrib
		for i, r := range c.reqs {
			var dur [obs.NumPhases]float64
			if !a.Front.Durations(i, &dur) {
				return nil, fmt.Errorf("%s: request %d has an open front record", c.name, i)
			}
			fmt.Fprintf(&b, "req %3d id=%3d fin=%x lat=%x chip=%d pos=%d cause=%v front=%x\n",
				i, r.ID, out.Finishes[i], out.Latency[i], a.Chip[i], a.Pos[i], a.Front.Cause(i), dur)
		}
		for _, e := range out.Fleet.Events() {
			fmt.Fprintf(&b, "fleet %x chip=%d %v\n", e.Time, e.Chip, e.Kind)
		}
	}
	return []byte(b.String()), nil
}

// chipTimelineTemplates are the timeline names renderChipTimelines must
// reach; no other golden records them.
var chipTimelineTemplates = map[string][]string{
	"Planaria":         {`"fission: unfit `, `"fission: fit `, `"task 1`, `"kill task `, `fault lands on unit `, `fault repairs on unit `},
	"Planaria-Elastic": {`"elastic: fit `, `"elastic: unfit `, `"task 1`, `"refission task `},
}

// renderChipTimelines pins each chip's own timeline. Two chips serve an
// overloaded Workload-A/QoS-H stream whose request IDs cross 1000, under
// Spatial and under the elastic policy, with transient subarray faults
// on chip 0, batching, and a timeline on every chip. It renders a
// digest and the length of every chip's timeline, and fails if a chip
// timeline misses a name template of chipTimelineTemplates.
func renderChipTimelines(s *Suite) ([]byte, error) {
	reqs, err := workload.Generate(workload.ScenarioA(), workload.QoSHard, 1500, 120, 6)
	if err != nil {
		return nil, err
	}
	for i := range reqs {
		reqs[i].ID += 940
	}
	span := reqs[len(reqs)-1].Arrival
	var b strings.Builder
	for _, sys := range []metrics.System{s.Planaria, s.Elastic} {
		units, pods := sys.Cfg.NumSubarrays(), sys.Cfg.Pods
		sched := &fault.Schedule{Units: units, Pods: pods}
		for _, f := range []float64{0.2, 0.5, 0.7} {
			sched.Events = append(sched.Events,
				fault.Event{Time: span * f, Kind: fault.KindSubarray, Unit: 0, Duration: span / 20},
				fault.Event{Time: span * f, Kind: fault.KindSubarray, Unit: units - 1, Duration: span / 25})
		}
		cfg := cluster.Config{
			System: sys, Chips: 2, Policy: "round-robin",
			BatchWindow: 1e-3, MaxBatch: 3,
			Faults:    []*fault.Schedule{sched, nil},
			FaultMode: sim.FaultFission, Shed: sim.ShedDoomed,
			Observe: true,
		}
		out, err := cluster.Run(cfg, reqs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sys.Name, err)
		}
		fmt.Fprintf(&b, "== %s completed=%d killed=%d shed=%d\n", sys.Name, out.Completed, out.Killed, out.ShedChips)
		all := ""
		for i, cr := range out.PerChip {
			tl := cr.Timeline
			js := tl.JSON()
			all += string(js)
			fmt.Fprintf(&b, "chip %d events=%d sha256=%x\n", i, tl.Len(), sha256.Sum256(js))
		}
		for _, want := range chipTimelineTemplates[sys.Name] {
			if !strings.Contains(all, want) {
				return nil, fmt.Errorf("%s: no chip timeline has a %s name", sys.Name, want)
			}
		}
	}
	return []byte(b.String()), nil
}
