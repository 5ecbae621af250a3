// Package dnn defines the deep-neural-network representation used across
// the Planaria simulator: layers with explicit shapes, shape-inferring
// network builders, and the nine benchmark networks from the paper's
// evaluation (Table I).
//
// A Network is a flat, in-order list of layers (DNN inference graphs are
// static; branches such as residual connections and inception modules are
// serialized, which preserves total compute and data movement — the
// quantities the performance model consumes). Every compute layer lowers
// to a canonical GEMM via Layer.GEMM, matching how systolic arrays execute
// convolutions.
package dnn

import (
	"fmt"
	"strings"
)

// Kind enumerates the layer operator types the simulator models.
type Kind int

const (
	// Conv is a standard (dense) 2-D convolution executed on the systolic
	// array as an im2col GEMM.
	Conv Kind = iota
	// DWConv is a depthwise 2-D convolution: each input channel is
	// convolved with its own K×K filter. On a systolic array one channel
	// occupies a single column (paper §VI-B2), so channel-level
	// parallelism is only available across independent clusters.
	DWConv
	// FC is a fully connected layer (GEMM with M = batch).
	FC
	// MatMul is a generic matrix multiplication with explicit M, K, N.
	MatMul
	// Pool is a max/average pooling layer executed on the SIMD vector unit.
	Pool
	// GlobalPool is a global average pool executed on the vector unit.
	GlobalPool
	// Add is an elementwise residual addition on the vector unit.
	Add
	// Activation is a standalone elementwise activation on the vector unit
	// (activations fused into the preceding conv are not emitted).
	Activation
)

// String returns the human-readable operator name.
func (k Kind) String() string {
	switch k {
	case Conv:
		return "Conv"
	case DWConv:
		return "DWConv"
	case FC:
		return "FC"
	case MatMul:
		return "MatMul"
	case Pool:
		return "Pool"
	case GlobalPool:
		return "GlobalPool"
	case Add:
		return "Add"
	case Activation:
		return "Activation"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsGEMM reports whether the layer kind executes on the systolic array
// (as opposed to the SIMD vector unit).
func (k Kind) IsGEMM() bool {
	switch k {
	case Conv, DWConv, FC, MatMul:
		return true
	}
	return false
}

// Layer is one operator in a network. Spatial fields (InH..Pad) are
// populated for Conv/DWConv/Pool layers; the GEMM fields (M, K, N) for
// FC/MatMul layers; Elems for vector-unit layers. OutH/OutW are stored
// explicitly (computed by the builder) so padding conventions never need
// to be re-derived downstream.
type Layer struct {
	Name string
	Kind Kind

	// Spatial operator parameters.
	InH, InW, InC  int
	OutH, OutW     int
	OutC           int // for DWConv, OutC == InC (channel multiplier 1)
	KH, KW, Stride int
	Pad            int

	// Explicit GEMM dimensions for FC/MatMul.
	M, K, N int

	// Elems is the elementwise operation count for vector-unit layers.
	Elems int64

	// Repeat is the number of strictly sequential invocations of this
	// layer (default 1). Used for recurrent networks (GNMT): an LSTM
	// layer's per-timestep GEMM cannot be batched across time, so it is
	// represented once with Repeat = sequence length.
	Repeat int
}

// reps returns Repeat clamped to at least one invocation.
func (l *Layer) reps() int64 {
	if l.Repeat < 1 {
		return 1
	}
	return int64(l.Repeat)
}

// GEMM lowers the layer to its canonical matrix multiplication
// M×K · K×N, the form in which the systolic array executes it.
//
// For DWConv the returned GEMM describes a single channel
// (M = OutH·OutW, K = KH·KW, N = 1); Channels reports how many such
// independent per-channel GEMMs the layer contains.
// Vector-unit layers return zeros.
func (l *Layer) GEMM() (m, k, n int) {
	switch l.Kind {
	case Conv:
		return l.OutH * l.OutW, l.KH * l.KW * l.InC, l.OutC
	case DWConv:
		return l.OutH * l.OutW, l.KH * l.KW, 1
	case FC, MatMul:
		return l.M, l.K, l.N
	default:
		return 0, 0, 0
	}
}

// Channels reports the number of independent per-channel GEMMs for a
// depthwise convolution, and 1 for every other GEMM kind.
func (l *Layer) Channels() int {
	if l.Kind == DWConv {
		return l.InC
	}
	return 1
}

// MACs returns the total multiply-accumulate count of the layer,
// including sequential repetitions.
func (l *Layer) MACs() int64 {
	m, k, n := l.GEMM()
	per := int64(m) * int64(k) * int64(n) * int64(l.Channels())
	return per * l.reps()
}

// Params returns the number of weight parameters of the layer
// (weights are shared across Repeat invocations).
func (l *Layer) Params() int64 {
	switch l.Kind {
	case Conv:
		return int64(l.KH)*int64(l.KW)*int64(l.InC)*int64(l.OutC) + int64(l.OutC)
	case DWConv:
		return int64(l.KH)*int64(l.KW)*int64(l.InC) + int64(l.InC)
	case FC, MatMul:
		return int64(l.K)*int64(l.N) + int64(l.N)
	default:
		return 0
	}
}

// InputElems returns the activation element count consumed per invocation.
func (l *Layer) InputElems() int64 {
	switch l.Kind {
	case Conv, DWConv:
		return int64(l.InH) * int64(l.InW) * int64(l.InC)
	case FC, MatMul:
		return int64(l.M) * int64(l.K)
	case Pool, GlobalPool, Add, Activation:
		return l.Elems
	default:
		return 0
	}
}

// OutputElems returns the activation element count produced per invocation.
func (l *Layer) OutputElems() int64 {
	switch l.Kind {
	case Conv, DWConv:
		return int64(l.OutH) * int64(l.OutW) * int64(l.OutC)
	case FC, MatMul:
		return int64(l.M) * int64(l.N)
	case Pool:
		return int64(l.OutH) * int64(l.OutW) * int64(l.OutC)
	case GlobalPool:
		return int64(l.OutC)
	case Add, Activation:
		return l.Elems
	default:
		return 0
	}
}

// VectorOps returns the number of SIMD vector-unit operations the layer
// performs (pooling window reductions, elementwise ops). GEMM layers
// report their output element count: every GEMM output passes through the
// vector unit once for bias/activation/requantization.
func (l *Layer) VectorOps() int64 {
	switch l.Kind {
	case Pool:
		return int64(l.OutH) * int64(l.OutW) * int64(l.OutC) * int64(l.KH) * int64(l.KW) * l.reps()
	case GlobalPool:
		return int64(l.InH) * int64(l.InW) * int64(l.InC) * l.reps()
	case Add, Activation:
		return l.Elems * l.reps()
	case Conv, DWConv, FC, MatMul:
		return l.OutputElems() * l.reps()
	default:
		return 0
	}
}

// String summarizes the layer for logs and error messages.
func (l *Layer) String() string {
	switch l.Kind {
	case Conv, DWConv:
		return fmt.Sprintf("%s %s %dx%dx%d -> %dx%dx%d k%dx%d s%d",
			l.Name, l.Kind, l.InH, l.InW, l.InC, l.OutH, l.OutW, l.OutC, l.KH, l.KW, l.Stride)
	case FC, MatMul:
		r := ""
		if l.Repeat > 1 {
			r = fmt.Sprintf(" x%d", l.Repeat)
		}
		return fmt.Sprintf("%s %s M%d K%d N%d%s", l.Name, l.Kind, l.M, l.K, l.N, r)
	default:
		return fmt.Sprintf("%s %s elems=%d", l.Name, l.Kind, l.Elems)
	}
}

// Network is an in-order list of layers with model-level metadata.
type Network struct {
	Name string
	// Domain is the MLPerf-style task domain: "classification",
	// "detection", or "translation".
	Domain string
	// InputH/InputW/InputC describe the network input tensor.
	InputH, InputW, InputC int
	Layers                 []Layer
}

// TotalMACs returns the multiply-accumulate count of one inference.
func (n *Network) TotalMACs() int64 {
	var t int64
	for i := range n.Layers {
		t += n.Layers[i].MACs()
	}
	return t
}

// TotalParams returns the number of weight parameters of the network.
func (n *Network) TotalParams() int64 {
	var t int64
	for i := range n.Layers {
		t += n.Layers[i].Params()
	}
	return t
}

// GEMMLayers returns the indices of layers that execute on the systolic
// array.
func (n *Network) GEMMLayers() []int {
	var idx []int
	for i := range n.Layers {
		if n.Layers[i].Kind.IsGEMM() {
			idx = append(idx, i)
		}
	}
	return idx
}

// Validate checks structural integrity: positive dimensions, consistent
// spatial shapes, unique layer names. Networks produced by the builders in
// this package always validate; the check exists to catch hand-built or
// corrupted models before they reach the compiler.
func (n *Network) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("dnn: network has no name")
	}
	if len(n.Layers) == 0 {
		return fmt.Errorf("dnn: network %q has no layers", n.Name)
	}
	seen := make(map[string]bool, len(n.Layers))
	for i := range n.Layers {
		l := &n.Layers[i]
		if l.Name == "" {
			return fmt.Errorf("dnn: %s layer %d has no name", n.Name, i)
		}
		if seen[l.Name] {
			return fmt.Errorf("dnn: %s has duplicate layer name %q", n.Name, l.Name)
		}
		seen[l.Name] = true
		switch l.Kind {
		case Conv, DWConv:
			if l.InH <= 0 || l.InW <= 0 || l.InC <= 0 || l.OutC <= 0 ||
				l.KH <= 0 || l.KW <= 0 || l.Stride <= 0 || l.OutH <= 0 || l.OutW <= 0 {
				return fmt.Errorf("dnn: %s layer %s has non-positive dimensions: %+v", n.Name, l.Name, *l)
			}
			if l.Kind == DWConv && l.OutC != l.InC {
				return fmt.Errorf("dnn: %s depthwise layer %s must have OutC == InC (%d != %d)",
					n.Name, l.Name, l.OutC, l.InC)
			}
			// OutH/OutW must match either the exact symmetric-padding
			// formula or the SAME convention ceil(in/stride); even kernels
			// need asymmetric padding that symmetric Pad over-covers.
			okDim := func(in, k, out int) bool {
				return out == (in+2*l.Pad-k)/l.Stride+1 ||
					out == (in+l.Stride-1)/l.Stride
			}
			if !okDim(l.InH, l.KH, l.OutH) || !okDim(l.InW, l.KW, l.OutW) {
				return fmt.Errorf("dnn: %s layer %s output %dx%d inconsistent with params %+v",
					n.Name, l.Name, l.OutH, l.OutW, *l)
			}
		case FC, MatMul:
			if l.M <= 0 || l.K <= 0 || l.N <= 0 {
				return fmt.Errorf("dnn: %s layer %s has non-positive GEMM dims M%d K%d N%d",
					n.Name, l.Name, l.M, l.K, l.N)
			}
		case Pool:
			if l.KH <= 0 || l.Stride <= 0 || l.OutH <= 0 || l.OutW <= 0 {
				return fmt.Errorf("dnn: %s pool layer %s has non-positive dimensions", n.Name, l.Name)
			}
		case GlobalPool, Add, Activation:
			// Elems may legitimately be derived; nothing stronger to check.
		default:
			return fmt.Errorf("dnn: %s layer %s has unknown kind %d", n.Name, l.Name, int(l.Kind))
		}
		if l.Repeat < 0 {
			return fmt.Errorf("dnn: %s layer %s has negative Repeat", n.Name, l.Name)
		}
	}
	return nil
}

// Summary returns a one-line description of the network.
func (n *Network) Summary() string {
	return fmt.Sprintf("%s: %d layers, %.2f GMACs, %.1fM params",
		n.Name, len(n.Layers), float64(n.TotalMACs())/1e9, float64(n.TotalParams())/1e6)
}

// Builder constructs a Network with automatic shape inference. Each
// spatial method consumes the current tensor shape (H, W, C) and updates
// it. Padding follows the TensorFlow SAME convention (output = ceil(in /
// stride)) unless a Valid variant is used, matching how the benchmark
// networks are commonly specified.
type Builder struct {
	net     Network
	h, w, c int
	counter map[string]int
	err     error
}

// NewBuilder starts a network with the given input tensor shape.
func NewBuilder(name, domain string, h, w, c int) *Builder {
	return &Builder{
		net: Network{Name: name, Domain: domain, InputH: h, InputW: w, InputC: c},
		h:   h, w: w, c: c,
		counter: make(map[string]int),
	}
}

// Shape returns the current tensor shape (H, W, C).
func (b *Builder) Shape() (h, w, c int) { return b.h, b.w, b.c }

func (b *Builder) unique(name string) string {
	b.counter[name]++
	if b.counter[name] == 1 {
		return name
	}
	return fmt.Sprintf("%s_%d", name, b.counter[name])
}

// samePad computes the SAME-convention output size (ceil(in/stride)) and
// a symmetric padding that covers it. When the required total padding is
// odd (even kernels), symmetric padding necessarily over-covers by one
// row/column; the padding returned always provides at least SAME coverage.
func samePad(in, k, stride int) (out, pad int) {
	out = (in + stride - 1) / stride
	total := (out-1)*stride + k - in
	if total < 0 {
		total = 0
	}
	pad = (total + 1) / 2
	for (in+2*pad-k)/stride+1 < out {
		pad++
	}
	return out, pad
}

// Conv appends a standard convolution with SAME padding.
func (b *Builder) Conv(name string, outC, k, stride int) *Builder {
	return b.conv(name, outC, k, k, stride, true)
}

// ConvValid appends a standard convolution with VALID (no) padding.
func (b *Builder) ConvValid(name string, outC, k, stride int) *Builder {
	return b.conv(name, outC, k, k, stride, false)
}

func (b *Builder) conv(name string, outC, kh, kw, stride int, same bool) *Builder {
	if b.err != nil {
		return b
	}
	l := Layer{
		Name: b.unique(name), Kind: Conv,
		InH: b.h, InW: b.w, InC: b.c, OutC: outC,
		KH: kh, KW: kw, Stride: stride,
	}
	if same {
		l.OutH, l.Pad = samePad(b.h, kh, stride)
		l.OutW, _ = samePad(b.w, kw, stride)
	} else {
		l.OutH = (b.h-kh)/stride + 1
		l.OutW = (b.w-kw)/stride + 1
	}
	if l.OutH <= 0 || l.OutW <= 0 {
		b.err = fmt.Errorf("dnn: %s: conv %s collapses spatial dims (%dx%d k%d s%d)",
			b.net.Name, name, b.h, b.w, kh, stride)
		return b
	}
	b.net.Layers = append(b.net.Layers, l)
	b.h, b.w, b.c = l.OutH, l.OutW, outC
	return b
}

// DWConv appends a depthwise convolution with SAME padding.
func (b *Builder) DWConv(name string, k, stride int) *Builder {
	if b.err != nil {
		return b
	}
	l := Layer{
		Name: b.unique(name), Kind: DWConv,
		InH: b.h, InW: b.w, InC: b.c, OutC: b.c,
		KH: k, KW: k, Stride: stride,
	}
	l.OutH, l.Pad = samePad(b.h, k, stride)
	l.OutW, _ = samePad(b.w, k, stride)
	b.net.Layers = append(b.net.Layers, l)
	b.h, b.w = l.OutH, l.OutW
	return b
}

// Pool appends a max/avg pooling layer with SAME padding.
func (b *Builder) Pool(name string, k, stride int) *Builder {
	if b.err != nil {
		return b
	}
	l := Layer{
		Name: b.unique(name), Kind: Pool,
		InH: b.h, InW: b.w, InC: b.c, OutC: b.c,
		KH: k, KW: k, Stride: stride,
	}
	l.OutH, l.Pad = samePad(b.h, k, stride)
	l.OutW, _ = samePad(b.w, k, stride)
	b.net.Layers = append(b.net.Layers, l)
	b.h, b.w = l.OutH, l.OutW
	return b
}

// GlobalPool appends a global average pool, collapsing spatial dims to 1×1.
func (b *Builder) GlobalPool(name string) *Builder {
	if b.err != nil {
		return b
	}
	l := Layer{
		Name: b.unique(name), Kind: GlobalPool,
		InH: b.h, InW: b.w, InC: b.c, OutC: b.c,
		Elems: int64(b.h) * int64(b.w) * int64(b.c),
	}
	b.net.Layers = append(b.net.Layers, l)
	b.h, b.w = 1, 1
	return b
}

// Activation appends a standalone elementwise activation (ReLU) over the
// current tensor. Activations fused into a preceding conv need no layer.
func (b *Builder) Activation(name string) *Builder {
	if b.err != nil {
		return b
	}
	l := Layer{
		Name: b.unique(name), Kind: Activation,
		Elems: int64(b.h) * int64(b.w) * int64(b.c),
	}
	b.net.Layers = append(b.net.Layers, l)
	return b
}

// Add appends a residual elementwise addition over the current tensor.
func (b *Builder) Add(name string) *Builder {
	if b.err != nil {
		return b
	}
	l := Layer{
		Name: b.unique(name), Kind: Add,
		Elems: int64(b.h) * int64(b.w) * int64(b.c),
	}
	b.net.Layers = append(b.net.Layers, l)
	return b
}

// FC appends a fully connected layer from the current (flattened) tensor
// to outN features.
func (b *Builder) FC(name string, outN int) *Builder {
	if b.err != nil {
		return b
	}
	k := b.h * b.w * b.c
	l := Layer{Name: b.unique(name), Kind: FC, M: 1, K: k, N: outN}
	b.net.Layers = append(b.net.Layers, l)
	b.h, b.w, b.c = 1, 1, outN
	return b
}

// MatMul appends a generic GEMM layer with explicit dimensions and a
// sequential repetition count (use repeat > 1 for recurrent timesteps).
// It does not alter the builder's spatial shape.
func (b *Builder) MatMul(name string, m, k, n, repeat int) *Builder {
	if b.err != nil {
		return b
	}
	l := Layer{Name: b.unique(name), Kind: MatMul, M: m, K: k, N: n, Repeat: repeat}
	b.net.Layers = append(b.net.Layers, l)
	return b
}

// SetShape overrides the current tensor shape. Needed after serializing a
// branch (e.g. returning to a backbone feature map for a second SSD head).
func (b *Builder) SetShape(h, w, c int) *Builder {
	if b.err != nil {
		return b
	}
	b.h, b.w, b.c = h, w, c
	return b
}

// Build finalizes and validates the network.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := b.net
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &n, nil
}

// MustBuild is Build for the package's own statically known models, where
// a validation failure is a programming error.
func (b *Builder) MustBuild() *Network {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}

// FormatLayers renders a multi-line layer listing, useful for examples and
// debugging.
func (n *Network) FormatLayers() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%s) input %dx%dx%d\n", n.Name, n.Domain, n.InputH, n.InputW, n.InputC)
	for i := range n.Layers {
		fmt.Fprintf(&sb, "  %3d  %s\n", i, n.Layers[i].String())
	}
	return sb.String()
}
