package arch

import (
	"testing"
	"testing/quick"
)

func TestPlanariaConfig(t *testing.T) {
	c := Planaria()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumSubarrays() != 16 {
		t.Errorf("NumSubarrays = %d, want 16", c.NumSubarrays())
	}
	if c.SubarraysPerPod() != 4 {
		t.Errorf("SubarraysPerPod = %d, want 4", c.SubarraysPerPod())
	}
	if total := c.ActBufBytes + c.WgtBufBytes + c.OutBufBytes; total != 12<<20 {
		t.Errorf("total SRAM = %d, want 12 MB", total)
	}
}

func TestMonolithicConfig(t *testing.T) {
	c := Monolithic()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumSubarrays() != 1 {
		t.Errorf("monolithic NumSubarrays = %d, want 1", c.NumSubarrays())
	}
	sh := MonolithicShape(c)
	if sh.PERows(c) != 128 || sh.PECols(c) != 128 {
		t.Errorf("monolithic shape = %dx%d PEs", sh.PERows(c), sh.PECols(c))
	}
}

func TestGranularitySweep(t *testing.T) {
	for g, want := range map[int]int{16: 64, 32: 16, 64: 4} {
		c := Planaria().WithGranularity(g)
		if err := c.Validate(); err != nil {
			t.Fatalf("g=%d: %v", g, err)
		}
		if c.NumSubarrays() != want {
			t.Errorf("g=%d: NumSubarrays = %d, want %d", g, c.NumSubarrays(), want)
		}
	}
}

func TestEnumerateShapesFull(t *testing.T) {
	c := Planaria()
	shapes := EnumerateShapes(c, 16)
	// Shapes that occupy the whole chip are exactly Table II's 15
	// configurations; of those, 6 need the omni-directional feature.
	full, odUsed := 0, 0
	for _, s := range shapes {
		if s.Subarrays() == 16 {
			full++
			if s.UsesOmniDirectional(c) {
				odUsed++
				if s.H <= 4 && s.W <= 4 {
					t.Errorf("shape %v should not need omni-directional", s)
				}
			}
		}
	}
	if full != 15 {
		t.Fatalf("full-chip shape count = %d, want 15 (Table II)", full)
	}
	if odUsed != 6 {
		t.Errorf("omni-directional full-chip shapes = %d, want 6 (Table II)", odUsed)
	}
}

func TestEnumerateShapesSuperset(t *testing.T) {
	// The shape set for s+1 subarrays must contain every shape available
	// at s (this is what makes compiled latency monotone in allocation).
	c := Planaria()
	for s := 1; s < 16; s++ {
		have := map[Shape]bool{}
		for _, sh := range EnumerateShapes(c, s+1) {
			have[sh] = true
		}
		for _, sh := range EnumerateShapes(c, s) {
			if !have[sh] {
				t.Fatalf("shape %v available at s=%d but not s=%d", sh, s, s+1)
			}
		}
	}
}

// TestEnumerateShapesPartial checks every allocation's shape list: each
// shape valid and within the allocation, every (clusters, H, W) with
// power-of-two extents that fits listed, in the documented order —
// largest cluster count first, then by H, then W — which the shape
// search's tie-break depends on.
func TestEnumerateShapesPartial(t *testing.T) {
	c := Planaria()
	for s := 1; s <= 16; s++ {
		shapes := EnumerateShapes(c, s)
		if len(shapes) == 0 {
			t.Fatalf("no shapes for %d subarrays", s)
		}
		fits := 0
		for h := 1; h <= 16; h *= 2 {
			for w := 1; w <= 16; w *= 2 {
				for g := 1; g*h*w <= s; g++ {
					fits++
				}
			}
		}
		if len(shapes) != fits {
			t.Errorf("s=%d: %d shapes, want %d", s, len(shapes), fits)
		}
		for i, sh := range shapes {
			if !sh.Valid(c) {
				t.Errorf("s=%d: invalid shape %v", s, sh)
			}
			if sh.Subarrays() > s {
				t.Errorf("s=%d: shape %v uses %d subarrays", s, sh, sh.Subarrays())
			}
			if i == 0 {
				continue
			}
			p := shapes[i-1]
			if p.Clusters < sh.Clusters || p.Clusters == sh.Clusters && (p.H > sh.H || p.H == sh.H && p.W >= sh.W) {
				t.Errorf("s=%d: shape %v listed after %v", s, sh, p)
			}
		}
	}
}

func TestEnumerateShapesProperty(t *testing.T) {
	c := Planaria()
	f := func(raw uint8) bool {
		s := int(raw)%16 + 1
		for _, sh := range EnumerateShapes(c, s) {
			if !isPow2(sh.H) || !isPow2(sh.W) {
				return false
			}
			if sh.Clusters < 1 || sh.Clusters > s/(sh.H*sh.W) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShapeString(t *testing.T) {
	s := Shape{Clusters: 2, H: 8, W: 1}
	if got := s.String(); got != "(256x32)-2" {
		t.Errorf("String = %q, want (256x32)-2", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{},
		func() Config { c := Planaria(); c.SubRows = 33; return c }(),
		func() Config { c := Planaria(); c.Pods = 3; return c }(),
		func() Config { c := Planaria(); c.FreqMHz = 0; return c }(),
		func() Config { c := Planaria(); c.DRAMBandwidthGBs = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %v", i, c)
		}
	}
}
