package arch

import (
	"fmt"
)

// Shape describes one fission configuration of a logical accelerator:
// Clusters independent systolic clusters, each an H×W arrangement of
// subarrays acting as a single logical systolic array of
// (H·SubRows)×(W·SubCols) PEs. For the 16-subarray chip this space
// contains exactly the 15 configurations of the paper's Table II.
type Shape struct {
	Clusters int
	H, W     int // in subarray units
}

// Subarrays returns the number of subarrays the shape occupies.
func (s Shape) Subarrays() int { return s.Clusters * s.H * s.W }

// PERows and PECols return the PE dimensions of one cluster.
func (s Shape) PERows(c Config) int { return s.H * c.SubRows }
func (s Shape) PECols(c Config) int { return s.W * c.SubCols }

// UsesOmniDirectional reports whether realizing the shape requires the
// omni-directional systolic feature: a cluster whose logical row or
// column span exceeds the physical pod grid side must fold its dataflow
// (serpentine chaining over the ring bus, Fig 4), reversing the flow
// direction in alternating subarrays. For the 4×4 subarray grid this
// reproduces Table II's OD-SA Used/Unused labelling exactly.
func (s Shape) UsesOmniDirectional(c Config) bool {
	side := gridSide(c)
	return s.H > side || s.W > side
}

// gridSide returns the side of the (assumed square) physical subarray grid.
func gridSide(c Config) int {
	return c.ArrayRows / c.SubRows
}

// String renders the shape in the paper's Table II notation,
// e.g. "(256x64)-1" for one 256×64-PE cluster.
func (s Shape) String() string {
	return fmt.Sprintf("(%dx%d)-%d", s.H*32, s.W*32, s.Clusters)
}

// Label renders the shape with explicit PE dims for a configuration.
func (s Shape) Label(c Config) string {
	return fmt.Sprintf("(%dx%d)-%d", s.PERows(c), s.PECols(c), s.Clusters)
}

// Valid reports whether the shape is realizable on the configuration:
// power-of-two subarray extents that fit within the chip.
func (s Shape) Valid(c Config) bool {
	n := c.NumSubarrays()
	return s.Clusters >= 1 && s.H >= 1 && s.W >= 1 &&
		isPow2(s.H) && isPow2(s.W) &&
		s.H*s.W <= n && s.Subarrays() <= n
}

func isPow2(x int) bool { return x > 0 && x&(x-1) == 0 }

// EnumerateShapes returns every fission shape available to a logical
// accelerator granted s subarrays: all power-of-two cluster extents
// (h, w) with h·w ≤ s, at every cluster count from 1 to floor(s/(h·w)).
// Fewer-than-maximal clusters matter because each cluster claims its own
// Pod Memory share — a layer whose activations barely fit may prefer two
// big shares over three small ones. Enumerating all counts also makes the
// shape set for s+1 a superset of the set for s, so compiled latency is
// monotone in the allocation. Shapes are returned in a deterministic
// order (largest clusters first, then by H, then W).
func EnumerateShapes(c Config, s int) []Shape {
	n := c.NumSubarrays()
	if s > n {
		s = n
	}
	if s < 1 {
		return nil
	}
	// The shape search calls this once per layer, so it allocates once:
	// it counts the shapes, then emits them already in order.
	count := 0
	for h := 1; h <= s; h *= 2 {
		for w := 1; h*w <= s; w *= 2 {
			count += s / (h * w)
		}
	}
	shapes := make([]Shape, 0, count)
	for g := s; g >= 1; g-- {
		for h := 1; g*h <= s; h *= 2 {
			for w := 1; g*h*w <= s; w *= 2 {
				shapes = append(shapes, Shape{Clusters: g, H: h, W: w})
			}
		}
	}
	return shapes
}

// MonolithicShape returns the single shape available to a conventional
// (non-fissionable) accelerator: one cluster spanning the whole array.
func MonolithicShape(c Config) Shape {
	return Shape{Clusters: 1, H: c.ArrayRows / c.SubRows, W: c.ArrayCols / c.SubCols}
}
