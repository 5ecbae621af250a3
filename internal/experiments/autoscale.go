package experiments

import (
	"fmt"
	"strings"

	"planaria/internal/cluster"
	"planaria/internal/obs"
	"planaria/internal/par"
	"planaria/internal/sim"
	"planaria/internal/workload"
	"planaria/internal/workload/trace"
)

// The autoscale experiment (DESIGN.md §15) replays one planet-scale
// trace — a 24 h diurnal curve with flash crowds over a heavy model mix
// — against a grid of static fleet sizes and one autoscaled fleet, and
// reports each configuration's SLA attainment next to its chip-hours
// bill. The claim under test: the autoscaler rides the diurnal valley at
// the fleet floor, absorbs the crowds by booting spares, and ends the
// day meeting the best static row's SLA at a fraction of its chip-time.

// AutoscaleOptions configures the static-versus-autoscaled sweep.
type AutoscaleOptions struct {
	// Trace is the workload description; nil means DefaultAutoscaleTrace.
	Trace *trace.Spec
	// Statics lists the fixed fleet sizes to sweep.
	Statics []int
	// Chips is the autoscaled fleet's slot ceiling.
	Chips int
	// Scale holds the autoscaler knobs (controller nil = tuned
	// Hysteresis); Scale.Min/Initial/BootS/IntervalS apply as in
	// cluster.Autoscale.
	Scale cluster.Autoscale
	// Policy names the load balancer (empty = least-work).
	Policy string
	// Elastic serves the trace with the elastic re-fission scheduler
	// (DESIGN.md §16) instead of plain spatial fission on every chip.
	Elastic bool
}

// DefaultAutoscaleOptions is the artifact configuration: static fleets
// of 1–3 chips against an autoscaler allowed up to 6, on a 15 s control
// loop with 30 s boots. The controller is tuned tight (30 ms of backlog
// per chip) with a long scale-down hold, trading some chip-hours for
// flash-crowd headroom — on the default trace it is the only row that
// meets the MLPerf SLA, at roughly half the chip-time of the best
// (still SLA-missing) static fleet.
func DefaultAutoscaleOptions() AutoscaleOptions {
	return AutoscaleOptions{
		Statics: []int{1, 2, 3},
		Chips:   6,
		Scale: cluster.Autoscale{
			Min:       1,
			Initial:   1,
			BootS:     30,
			IntervalS: 15,
			Controller: &cluster.Hysteresis{
				TargetS:   0.03,
				HoldTicks: 8,
			},
		},
	}
}

// DefaultAutoscaleTrace is the planet-day workload: 24 hours of the
// heavy serving mix (GNMT, SSD-R, YOLOv3 — per-chip capacity ≈ 47 QPS)
// under a day/night rate curve, a 12× lunchtime flash crowd, an 8×
// evening one, Zipf-skewed model popularity, and a heavy-tailed user
// population. The base rate is sized so the day comfortably exceeds one
// million requests.
func DefaultAutoscaleTrace() *trace.Spec {
	return &trace.Spec{
		Version:  trace.FormatVersion,
		Name:     "planet-day",
		Models:   []string{"GNMT", "SSD-R", "YOLOv3"},
		QoS:      "QoS-M",
		Seed:     1,
		HorizonS: 86400,
		BaseQPS:  13,
		Diurnal: []trace.RatePoint{
			{AtS: 0, Mult: 0.35},
			{AtS: 5 * 3600, Mult: 0.25},
			{AtS: 9 * 3600, Mult: 1.2},
			{AtS: 12 * 3600, Mult: 1.5},
			{AtS: 15 * 3600, Mult: 1.35},
			{AtS: 18 * 3600, Mult: 1.6},
			{AtS: 21 * 3600, Mult: 0.9},
			{AtS: 24 * 3600, Mult: 0.35},
		},
		Crowds: []trace.Crowd{
			{AtS: 12.5 * 3600, Mult: 12, RampS: 120, DecayS: 1800},
			{AtS: 19 * 3600, Mult: 8, RampS: 180, DecayS: 1200},
		},
		ZipfS:    0.9,
		Users:    10000,
		UserBias: 0.3,
	}
}

// AutoscaleRow is one fleet configuration's day.
type AutoscaleRow struct {
	// Mode is "static" or "autoscaled"; Chips is the fixed size or the
	// slot ceiling; Controller names the scaling policy (autoscaled only).
	Mode       string `json:"mode"`
	Chips      int    `json:"chips"`
	Controller string `json:"controller,omitempty"`

	// Terminal tallies over the trace (the five-way conservation
	// partition plus the informational migration count).
	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	ShedFront int `json:"shed_front"`
	ShedChips int `json:"shed_chips"`
	ShedDrain int `json:"shed_drain,omitempty"`
	Migrated  int `json:"migrated,omitempty"`

	// MeetsSLA / DeadlineFrac apply the MLPerf server criterion over the
	// full stream; ChipHours is the fleet-time bill (size × horizon for
	// statics, the lifecycle-log integral for the autoscaled fleet).
	MeetsSLA     bool    `json:"meets_sla"`
	DeadlineFrac float64 `json:"deadline_frac"`
	ChipHours    float64 `json:"chip_hours"`

	// Autoscaled-only fleet dynamics: the concurrent-chip peak and the
	// boot / retire event counts (initial boots included).
	PeakActive int `json:"peak_active,omitempty"`
	ScaleUps   int `json:"scale_ups,omitempty"`
	ScaleDowns int `json:"scale_downs,omitempty"`
}

// autoscaleEval runs one fleet configuration over the shared stream.
func autoscaleEval(s *Suite, o AutoscaleOptions, spec *trace.Spec, reqs []workload.Request, chips int, scale *cluster.Autoscale) (AutoscaleRow, error) {
	sys := s.Planaria
	if o.Elastic {
		sys = s.Elastic
	}
	cfg := cluster.Config{
		System: sys,
		Chips:  chips,
		Policy: o.Policy,
		Shed:   sim.ShedPriority,
		Scale:  scale,
	}
	out, err := cluster.Run(cfg, reqs)
	if err != nil {
		return AutoscaleRow{}, err
	}
	row := AutoscaleRow{
		Mode:         "static",
		Chips:        chips,
		Requests:     len(reqs),
		Completed:    out.Completed,
		ShedFront:    out.ShedFront,
		ShedChips:    out.ShedChips,
		ShedDrain:    out.ShedDrain,
		Migrated:     out.Migrated,
		MeetsSLA:     out.MeetsSLA,
		DeadlineFrac: out.DeadlineFrac,
		ChipHours:    float64(chips) * spec.HorizonS / 3600,
	}
	if scale != nil {
		row.Mode = "autoscaled"
		ctrl := scale.Controller
		if ctrl == nil {
			ctrl = &cluster.Hysteresis{}
		}
		row.Controller = ctrl.Name()
		row.ChipHours = out.Fleet.ChipSeconds(spec.HorizonS) / 3600
		row.PeakActive = out.Fleet.PeakActive(spec.HorizonS)
		for _, ev := range out.Fleet.Events() {
			switch ev.Kind {
			case obs.FleetBoot:
				row.ScaleUps++
			case obs.FleetRetire:
				row.ScaleDowns++
			}
		}
	}
	return row, nil
}

// AutoscaleSweep replays the trace against every static size and the
// autoscaled fleet. The request stream generates once and is shared
// read-only; rows evaluate in parallel and land in a fixed order
// (statics in option order, the autoscaled row last), so the sweep is
// deterministic end to end.
func (s *Suite) AutoscaleSweep(o AutoscaleOptions) ([]AutoscaleRow, error) {
	spec := o.Trace
	if spec == nil {
		spec = DefaultAutoscaleTrace()
	}
	if len(o.Statics) == 0 || o.Chips < 1 {
		return nil, fmt.Errorf("experiments: autoscale sweep needs static sizes and a positive chip ceiling")
	}
	reqs, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	rows := make([]AutoscaleRow, len(o.Statics)+1)
	errs := make([]error, len(rows))
	par.ForEach(len(rows), func(i int) {
		if i < len(o.Statics) {
			rows[i], errs[i] = autoscaleEval(s, o, spec, reqs, o.Statics[i], nil)
			return
		}
		// Each evaluation needs a private Autoscale: controllers are
		// stateful and the runs execute concurrently.
		scale := o.Scale
		rows[i], errs[i] = autoscaleEval(s, o, spec, reqs, o.Chips, &scale)
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatAutoscale renders the sweep as a text table.
func FormatAutoscale(o AutoscaleOptions, rows []AutoscaleRow) string {
	spec := o.Trace
	if spec == nil {
		spec = DefaultAutoscaleTrace()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Autoscale sweep — trace %q (%s, %.3g h, base %g QPS)\n",
		spec.Name, spec.QoS, spec.HorizonS/3600, spec.BaseQPS)
	fmt.Fprintf(&b, "  %-10s %6s %-11s %10s %10s %6s %11s %6s\n",
		"mode", "chips", "controller", "requests", "deadline%", "SLA", "chip-hours", "peak")
	for _, r := range rows {
		ctrl, sla, peak := "-", "miss", "-"
		if r.Controller != "" {
			ctrl = r.Controller
		}
		if r.MeetsSLA {
			sla = "meet"
		}
		if r.Mode == "autoscaled" {
			peak = fmt.Sprintf("%d", r.PeakActive)
		}
		fmt.Fprintf(&b, "  %-10s %6d %-11s %10d %9.3f%% %6s %11.1f %6s\n",
			r.Mode, r.Chips, ctrl, r.Requests, r.DeadlineFrac*100, sla, r.ChipHours, peak)
	}
	return b.String()
}

// AutoscaleJSON marshals the sweep into the BENCH_autoscale.json
// artifact: the full trace spec as the options header plus rows.
func AutoscaleJSON(o AutoscaleOptions, rows []AutoscaleRow) ([]byte, error) {
	spec := o.Trace
	if spec == nil {
		spec = DefaultAutoscaleTrace()
	}
	doc := struct {
		Trace     *trace.Spec    `json:"trace"`
		Statics   []int          `json:"statics"`
		Chips     int            `json:"chips"`
		BootS     float64        `json:"boot_s"`
		IntervalS float64        `json:"interval_s"`
		Policy    string         `json:"policy,omitempty"`
		Elastic   bool           `json:"elastic,omitempty"`
		Rows      []AutoscaleRow `json:"rows"`
	}{
		Trace: spec, Statics: o.Statics, Chips: o.Chips,
		BootS: o.Scale.BootS, IntervalS: o.Scale.IntervalS,
		Policy: o.Policy, Elastic: o.Elastic, Rows: rows,
	}
	return artifactJSON(doc)
}
