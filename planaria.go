// Package planaria is a software reproduction of "Planaria: Dynamic
// Architecture Fission for Spatial Multi-Tenant Acceleration of Deep
// Neural Networks" (MICRO 2020): a TPU-like systolic DNN inference
// accelerator that dynamically fissions into up to 16 smaller
// full-fledged logical accelerators, spatially co-locating multiple
// inference tasks, together with its QoS-aware spatial task scheduler and
// the PREMA temporal-multi-tenancy baseline it is evaluated against.
//
// The package is a facade over the internal packages:
//
//   - dnn        — layer/network representation and the nine Table I models
//   - arch       — chip organization, fission shapes, reconfiguration state
//   - systolic   — functional, cycle-level omni-directional PE-grid simulator
//   - isa / vm   — macro-instruction ISA and a data-exact functional backend
//   - model      — analytical cycle/energy model (cross-validated vs systolic)
//   - compiler   — per-(DNN, allocation) configuration tables and binaries
//   - sched      — Planaria's spatial scheduler (Algorithm 1)
//   - prema      — the PREMA token-based baseline
//   - sim        — discrete-event multi-tenant serving simulator
//   - workload   — MLPerf-style INFaaS workload generation
//   - metrics    — throughput / SLA / fairness / energy evaluation
//   - experiments — harnesses regenerating every paper figure and table
//
// Quick start:
//
//	acc, _ := planaria.NewAccelerator(planaria.DefaultConfig())
//	_ = acc.Deploy(planaria.MustModel("ResNet-50"))
//	stats, _ := acc.EstimateInference("ResNet-50")
//	fmt.Printf("latency %.2f ms\n", stats.LatencySeconds*1e3)
package planaria

import (
	"fmt"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
	"planaria/internal/energy"
	"planaria/internal/metrics"
	"planaria/internal/model"
	"planaria/internal/prema"
	"planaria/internal/sched"
	"planaria/internal/sim"
	"planaria/internal/vm"
	"planaria/internal/workload"
)

// Config is the hardware configuration (PE array, fission granularity,
// pods, clocks, buffers, bandwidth).
type Config = arch.Config

// Shape is a fission configuration of a logical accelerator: Clusters
// independent clusters, each H×W subarrays.
type Shape = arch.Shape

// Network is a DNN model description.
type Network = dnn.Network

// Layer is one network operator.
type Layer = dnn.Layer

// Kind enumerates layer operator types.
type Kind = dnn.Kind

// Layer operator kinds.
const (
	Conv       = dnn.Conv
	DWConv     = dnn.DWConv
	FC         = dnn.FC
	MatMul     = dnn.MatMul
	Pool       = dnn.Pool
	GlobalPool = dnn.GlobalPool
	Add        = dnn.Add
	Activation = dnn.Activation
)

// Builder constructs networks with shape inference.
type Builder = dnn.Builder

// Program is the compiled artifact for one network: 16 per-allocation
// configuration tables and binaries.
type Program = compiler.Program

// Request is one inference request in a multi-tenant workload.
type Request = workload.Request

// Outcome aggregates a simulated serving run.
type Outcome = sim.Outcome

// QoSLevel scales the MLPerf latency bounds (QoS-S/M/H).
type QoSLevel = workload.QoSLevel

// Scenario is a workload mix (Table I).
type Scenario = workload.Scenario

// The paper's QoS levels.
var (
	QoSSoft   = workload.QoSSoft
	QoSMedium = workload.QoSMedium
	QoSHard   = workload.QoSHard
)

// DefaultConfig returns the evaluated Planaria configuration: 128×128 PEs
// fissionable into 16 subarrays of 32×32, 4 Fission Pods, 700 MHz, 12 MB
// SRAM, 64 GB/s.
func DefaultConfig() Config { return arch.Planaria() }

// MonolithicConfig returns the conventional (PREMA baseline) accelerator:
// identical resources, no fission capability.
func MonolithicConfig() Config { return arch.Monolithic() }

// ModelNames lists the nine benchmark networks (Table I).
func ModelNames() []string { return append([]string(nil), dnn.Names...) }

// Model returns a benchmark network by name.
func Model(name string) (*Network, error) { return dnn.ByName(name) }

// MustModel is Model for statically known names.
func MustModel(name string) *Network { return dnn.MustByName(name) }

// NewBuilder starts a custom network with the given input tensor shape.
func NewBuilder(name, domain string, h, w, c int) *Builder {
	return dnn.NewBuilder(name, domain, h, w, c)
}

// Compile produces the configuration tables and binaries for a network on
// a configuration. fissionable=false compiles for a conventional
// monolithic accelerator.
func Compile(net *Network, cfg Config, fissionable bool) (*Program, error) {
	return compiler.CompileProgram(net, cfg, fissionable)
}

// FissionShapes enumerates the shapes available to an allocation of s
// subarrays on the configuration.
func FissionShapes(cfg Config, s int) []Shape { return arch.EnumerateShapes(cfg, s) }

// InferenceStats summarizes one isolated inference.
type InferenceStats struct {
	LatencySeconds float64
	EnergyJ        float64
	Cycles         int64
	Tiles          int64
	DRAMBytes      int64
}

// SchedulerKind selects the multi-tenancy policy of an Accelerator.
type SchedulerKind int

const (
	// SpatialScheduler is Planaria's Algorithm 1 (dynamic fission).
	SpatialScheduler SchedulerKind = iota
	// TemporalScheduler is the PREMA token baseline (monolithic,
	// preemptive time sharing).
	TemporalScheduler
	// ElasticScheduler is Algorithm 1 plus the runtime re-fission
	// control loop (DESIGN.md §16): between scheduling events the chip
	// re-splits at tile boundaries, shrinking SLA-beating tenants to
	// absorb arrivals and growing starved ones into freed subarrays.
	ElasticScheduler
)

// Accelerator is a serving node: a hardware configuration, a scheduling
// policy, and the deployed (compiled) models.
type Accelerator struct {
	cfg    Config
	kind   SchedulerKind
	progs  map[string]*compiler.Program
	params energy.Params
}

// NewAccelerator builds a Planaria node (spatial scheduler) for the
// configuration.
func NewAccelerator(cfg Config) (*Accelerator, error) {
	return newAccelerator(cfg, SpatialScheduler)
}

// NewElasticAccelerator builds a Planaria node whose spatial scheduler
// also re-fissions the chip at runtime between scheduling events.
func NewElasticAccelerator(cfg Config) (*Accelerator, error) {
	return newAccelerator(cfg, ElasticScheduler)
}

// NewBaselineAccelerator builds a PREMA-style node: monolithic hardware
// with temporal scheduling. The configuration's fission granularity is
// ignored (forced monolithic).
func NewBaselineAccelerator(cfg Config) (*Accelerator, error) {
	cfg.SubRows, cfg.SubCols = cfg.ArrayRows, cfg.ArrayCols
	cfg.Pods = 1
	return newAccelerator(cfg, TemporalScheduler)
}

func newAccelerator(cfg Config, kind SchedulerKind) (*Accelerator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Accelerator{
		cfg:    cfg,
		kind:   kind,
		progs:  make(map[string]*compiler.Program),
		params: energy.Default(),
	}, nil
}

// Config returns the accelerator's hardware configuration.
func (a *Accelerator) Config() Config { return a.cfg }

// Deploy compiles and registers a model for serving. Deploying the same
// model twice is a no-op.
func (a *Accelerator) Deploy(net *Network) error {
	if _, ok := a.progs[net.Name]; ok {
		return nil
	}
	p, err := compiler.DefaultCache.Program(net, a.cfg, a.kind != TemporalScheduler)
	if err != nil {
		return err
	}
	a.progs[net.Name] = p
	return nil
}

// Deployed lists the registered model names.
func (a *Accelerator) Deployed() []string {
	names := make([]string, 0, len(a.progs))
	for n := range a.progs {
		names = append(names, n)
	}
	return names
}

// EstimateInference returns the isolated (whole-chip) latency and energy
// of one inference of a deployed model.
func (a *Accelerator) EstimateInference(model string) (InferenceStats, error) {
	p, ok := a.progs[model]
	if !ok {
		return InferenceStats{}, fmt.Errorf("planaria: model %q not deployed", model)
	}
	tab := p.Table(a.cfg.NumSubarrays())
	t := a.cfg.Seconds(tab.TotalCycles)
	idle := energy.LeakageWatts(a.cfg, a.params) + energy.OverheadWatts(a.cfg)
	return InferenceStats{
		LatencySeconds: t,
		EnergyJ:        tab.Acct.Joules(a.params) + idle*t,
		Cycles:         tab.TotalCycles,
		Tiles:          tab.TotalTiles,
		DRAMBytes:      tab.Acct.DRAMBytes,
	}, nil
}

// policy constructs a fresh scheduling policy for one serving run.
func (a *Accelerator) policy() sim.Policy {
	switch a.kind {
	case TemporalScheduler:
		return prema.NewToken(a.cfg)
	case ElasticScheduler:
		return sched.NewElastic(a.cfg)
	}
	return sched.NewSpatial(a.cfg)
}

// Serve simulates the requests on this node to completion. Every
// requested model must be deployed.
func (a *Accelerator) Serve(reqs []Request) (*Outcome, error) {
	node := &sim.Node{Cfg: a.cfg, Policy: a.policy(), Programs: a.progs, Params: a.params}
	return node.Run(reqs)
}

// system adapts the accelerator for the metrics package.
func (a *Accelerator) system(name string) metrics.System {
	return metrics.System{
		Name:      name,
		Cfg:       a.cfg,
		Programs:  a.progs,
		Params:    a.params,
		NewPolicy: a.policy,
	}
}

// EvalOptions controls evaluation cost/precision.
type EvalOptions = metrics.Options

// DefaultEvalOptions returns the evaluation defaults.
func DefaultEvalOptions() EvalOptions { return metrics.DefaultOptions() }

// Throughput returns the maximum Poisson QPS at which the node meets the
// MLPerf server SLA for a scenario × QoS level. Every scenario model must
// be deployed.
func (a *Accelerator) Throughput(sc Scenario, lvl QoSLevel, opt EvalOptions) (float64, error) {
	return metrics.Throughput(a.system("node"), sc, lvl, opt)
}

// SLARate returns the fraction of workload instances meeting the SLA at a
// fixed rate.
func (a *Accelerator) SLARate(sc Scenario, lvl QoSLevel, qps float64, opt EvalOptions) (float64, error) {
	agg, err := metrics.Evaluate(a.system("node"), sc, lvl, qps, opt)
	if err != nil {
		return 0, err
	}
	return agg.SLARate, nil
}

// MinNodes returns the smallest cluster of identical nodes of this
// accelerator's kind that meets the SLA at the given rate (requests are
// dispatched least-loaded-first); maxNodes+1 means not achievable within
// maxNodes.
func (a *Accelerator) MinNodes(sc Scenario, lvl QoSLevel, qps float64, maxNodes int, opt EvalOptions) (int, error) {
	return metrics.MinNodes(a.system("node"), sc, lvl, qps, maxNodes, opt)
}

// ServeTraced is Serve with a recorded timeline of arrivals, allocation
// changes, and completions.
func (a *Accelerator) ServeTraced(reqs []Request) (*Outcome, *ServingTrace, error) {
	tr := &sim.Trace{}
	node := &sim.Node{Cfg: a.cfg, Policy: a.policy(), Programs: a.progs, Params: a.params, Trace: tr}
	out, err := node.Run(reqs)
	if err != nil {
		return nil, nil, err
	}
	return out, tr, nil
}

// ServingTrace is the recorded timeline of a traced serving run.
type ServingTrace = sim.Trace

// LatencyBreakdown computes per-model latency percentiles and deadline
// miss rates from a completed serving run.
func LatencyBreakdown(reqs []Request, out *Outcome) (map[string]metrics.LatencyStats, error) {
	return metrics.GroupLatencies(reqs, out.Latency, out.Finishes)
}

// FormatLatencyBreakdown renders per-model latency statistics as a table.
func FormatLatencyBreakdown(stats map[string]metrics.LatencyStats) string {
	return metrics.FormatLatencyTable(stats)
}

// LatencyStats summarizes one model's latency distribution in a serving
// run.
type LatencyStats = metrics.LatencyStats

// GenerateWorkload draws a Poisson multi-tenant workload instance.
func GenerateWorkload(sc Scenario, lvl QoSLevel, qps float64, n int, seed int64) ([]Request, error) {
	return workload.Generate(sc, lvl, qps, n, seed)
}

// Scenarios returns the paper's three workload mixes.
func Scenarios() []Scenario { return workload.Scenarios() }

// LayerEval reports how one layer performs on one fission shape.
type LayerEval struct {
	Shape   Shape
	Cycles  int64
	Tiles   int64
	Util    float64
	EnergyJ float64
	// OmniDirectional reports whether the shape needs the
	// omni-directional systolic feature on the configuration.
	OmniDirectional bool
}

// EvaluateLayer runs the analytical model for a layer on a specific
// fission shape with an allocation of alloc subarrays.
func EvaluateLayer(l *Layer, sh Shape, cfg Config, alloc int) LayerEval {
	r := model.LayerOnShape(l, sh, cfg, alloc)
	return LayerEval{
		Shape:           r.Shape,
		Cycles:          r.Cycles,
		Tiles:           r.Tiles,
		Util:            r.Util,
		EnergyJ:         r.Acct.Joules(energy.Default()),
		OmniDirectional: sh.UsesOmniDirectional(cfg),
	}
}

// BestLayerShape returns the compiler's per-layer choice: the fastest
// shape available to the allocation (ties broken by energy).
func BestLayerShape(l *Layer, cfg Config, alloc int) LayerEval {
	r := model.BestShape(l, cfg, alloc)
	return LayerEval{
		Shape:           r.Shape,
		Cycles:          r.Cycles,
		Tiles:           r.Tiles,
		Util:            r.Util,
		EnergyJ:         r.Acct.Joules(energy.Default()),
		OmniDirectional: r.Shape.UsesOmniDirectional(cfg),
	}
}

// FunctionalResult reports a data-exact execution on the cycle-level
// systolic grid.
type FunctionalResult struct {
	// Output is the final activation tensor (int8).
	Output []int8
	// SystolicCycles is the grid time spent streaming tiles.
	SystolicCycles int64
	// TilesRun counts systolic tile executions.
	TilesRun int64
	// InstructionsRetired counts macro instructions executed.
	InstructionsRetired int
	// MatchesReference reports bit-exactness against the host golden
	// model.
	MatchesReference bool
}

// RunFunctional compiles the network, lowers it to a macro-instruction
// binary, and executes it with real int8 data through the cycle-level
// omni-directional grid, comparing against a host reference
// implementation. Intended for small feed-forward networks (the grid
// moves every byte); recurrent models are rejected.
func RunFunctional(net *Network, cfg Config, seed int64) (*FunctionalResult, error) {
	machine, err := vm.NewMachine(cfg, net, seed)
	if err != nil {
		return nil, err
	}
	tab, err := compiler.Compile(net, cfg, cfg.NumSubarrays(), true)
	if err != nil {
		return nil, err
	}
	bin, err := tab.Binary(net, 8)
	if err != nil {
		return nil, err
	}
	input := machine.RandomInput(seed + 1)
	res, err := machine.Run(bin, tab, append([]int8(nil), input...))
	if err != nil {
		return nil, err
	}
	want, err := machine.Reference(append([]int8(nil), input...))
	if err != nil {
		return nil, err
	}
	match := len(res.Output) == len(want)
	if match {
		for i := range want {
			if res.Output[i] != want[i] {
				match = false
				break
			}
		}
	}
	return &FunctionalResult{
		Output:              res.Output,
		SystolicCycles:      res.SystolicCycles,
		TilesRun:            res.TilesRun,
		InstructionsRetired: res.InstrsRetired,
		MatchesReference:    match,
	}, nil
}
