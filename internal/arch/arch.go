// Package arch describes the Planaria chip organization: the PE array and
// its fission granularity, Fission Pods, the space of fission shapes a
// logical accelerator can take, and the subarray health mask (§III–IV of
// the paper).
package arch

import "fmt"

// Config captures the hardware parameters shared by the functional
// simulator, the analytical model, and the schedulers. The defaults in
// Planaria() match the paper's evaluation setup (§VI-A): the same compute
// and memory resources as PREMA's TPU-like baseline.
type Config struct {
	// ArrayRows × ArrayCols is the total PE count of the chip.
	ArrayRows, ArrayCols int
	// SubRows × SubCols is the fission granularity (subarray size).
	SubRows, SubCols int
	// Pods is the number of Fission Pods; subarrays are distributed
	// evenly across pods.
	Pods int
	// FreqMHz is the clock frequency.
	FreqMHz int
	// On-chip SRAM capacities (bytes). ActBuf+WgtBuf+OutBuf = 12 MB in
	// the evaluation configuration.
	ActBufBytes, WgtBufBytes, OutBufBytes int64
	// DRAMBandwidthGBs is the aggregate off-chip bandwidth across the
	// chip's memory channels (one channel per pod).
	DRAMBandwidthGBs float64
	// RingPipelineRegs is the pipeline depth of each ring bus (§IV-B).
	RingPipelineRegs int
	// InstrBufBytes is the per-subarray instruction buffer (§IV-C).
	InstrBufBytes int
}

// Planaria returns the paper's evaluated configuration: 128×128 PEs,
// 32×32 fission granularity (16 subarrays), 4 Fission Pods, 700 MHz,
// 12 MB of on-chip SRAM, and 4 × 16 GB/s memory channels.
func Planaria() Config {
	return Config{
		ArrayRows: 128, ArrayCols: 128,
		SubRows: 32, SubCols: 32,
		Pods:             4,
		FreqMHz:          700,
		ActBufBytes:      6 << 20,
		WgtBufBytes:      4 << 20,
		OutBufBytes:      2 << 20,
		DRAMBandwidthGBs: 64,
		RingPipelineRegs: 12,
		InstrBufBytes:    4 << 10,
	}
}

// Monolithic returns the PREMA baseline: identical resources but no
// fission capability (granularity = full array, a single "pod").
func Monolithic() Config {
	c := Planaria()
	c.SubRows, c.SubCols = c.ArrayRows, c.ArrayCols
	c.Pods = 1
	c.RingPipelineRegs = 0
	return c
}

// WithGranularity returns a copy of the configuration refissioned at a
// g×g subarray granularity (used by the Fig 18 design-space exploration).
func (c Config) WithGranularity(g int) Config {
	c.SubRows, c.SubCols = g, g
	n := c.NumSubarrays()
	if n < c.Pods {
		c.Pods = n
	}
	return c
}

// NumSubarrays returns the total subarray count.
func (c Config) NumSubarrays() int {
	return (c.ArrayRows / c.SubRows) * (c.ArrayCols / c.SubCols)
}

// SubarraysPerPod returns the number of subarrays in each Fission Pod.
func (c Config) SubarraysPerPod() int {
	return c.NumSubarrays() / c.Pods
}

// CyclesPerSecond returns the clock rate in Hz.
func (c Config) CyclesPerSecond() float64 { return float64(c.FreqMHz) * 1e6 }

// Seconds converts a cycle count to wall-clock time.
func (c Config) Seconds(cycles int64) float64 {
	return float64(cycles) / c.CyclesPerSecond()
}

// BytesPerCycle returns the aggregate DRAM bandwidth in bytes per clock
// cycle (the unit the cycle model works in).
func (c Config) BytesPerCycle() float64 {
	return c.DRAMBandwidthGBs * 1e9 / c.CyclesPerSecond()
}

// ConfigSwapCycles returns the cycles to bring n subarrays onto a new
// task's configuration outside a drain-and-checkpoint preemption: one
// cycle per subarray to swap the double-buffered configuration
// registers, plus the per-subarray instruction-buffer prefetch through
// the aggregate DRAM bandwidth (§IV-C). The elastic re-fission hook
// charges this when it grows a stalled task into freed subarrays
// mid-run; it is what makes a grow decision non-free and keeps the
// planner honest about churn.
func (c Config) ConfigSwapCycles(n int) int64 {
	if n <= 0 {
		return 0
	}
	bpc := c.BytesPerCycle()
	if bpc <= 0 {
		return int64(n)
	}
	return int64(n) + int64(float64(n)*float64(c.InstrBufBytes)/bpc)
}

// Validate checks internal consistency of a configuration.
func (c Config) Validate() error {
	if c.ArrayRows <= 0 || c.ArrayCols <= 0 {
		return fmt.Errorf("arch: non-positive array dims %dx%d", c.ArrayRows, c.ArrayCols)
	}
	if c.SubRows <= 0 || c.SubCols <= 0 ||
		c.ArrayRows%c.SubRows != 0 || c.ArrayCols%c.SubCols != 0 {
		return fmt.Errorf("arch: granularity %dx%d does not tile array %dx%d",
			c.SubRows, c.SubCols, c.ArrayRows, c.ArrayCols)
	}
	if c.Pods <= 0 || c.NumSubarrays()%c.Pods != 0 {
		return fmt.Errorf("arch: %d subarrays not divisible into %d pods", c.NumSubarrays(), c.Pods)
	}
	if c.FreqMHz <= 0 {
		return fmt.Errorf("arch: non-positive frequency")
	}
	if c.ActBufBytes <= 0 || c.WgtBufBytes <= 0 || c.OutBufBytes <= 0 {
		return fmt.Errorf("arch: non-positive buffer capacity")
	}
	if c.DRAMBandwidthGBs <= 0 {
		return fmt.Errorf("arch: non-positive DRAM bandwidth")
	}
	return nil
}

// String summarizes the configuration.
func (c Config) String() string {
	return fmt.Sprintf("%dx%d PEs, %dx%d subarrays (%d), %d pods, %d MHz, %d MB SRAM, %.0f GB/s",
		c.ArrayRows, c.ArrayCols, c.SubRows, c.SubCols, c.NumSubarrays(), c.Pods, c.FreqMHz,
		(c.ActBufBytes+c.WgtBufBytes+c.OutBufBytes)>>20, c.DRAMBandwidthGBs)
}
