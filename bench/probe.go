package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The benchmark's host is shared, and its speed drifts: over ten seeds
// run one after another, the raw median call time of a workload spread
// by 6-51% (quartile distance over median) in six such sets, while
// within one run the calls agree far more closely. The slow stretches
// last minutes and slow memory-bound work the most, so call_s is
// corrected by a fixed memory-bound probe timed between the calls of
// the same run:
//
//	call_s = median call seconds × probeRefS ÷ median probe seconds
//
// On a host running at the reference speed this is the raw median; the
// raw median and the probe times are in every report. The probe is this
// file's code only, which a change to the simulator cannot speed up.

const (
	// The probe makes probeOps random read-modify-writes over an array of
	// probeWords words (64 MB), far larger than a last-level cache, so it
	// waits on memory the way the large workloads do.
	probeWords = 8 << 20
	probeOps   = 2_000_000
	// probeRefS is the probe's median time on the reference host, a
	// 2-vCPU Intel Xeon VM with go1.24: the time call_s is scaled to.
	probeRefS = 0.028
	// probeEvery spaces the probes of a run: one before the first call,
	// one before each call at least this long after the previous probe,
	// and one after the last call.
	probeEvery = time.Second
)

// probeKernel fills the array, then times the probe loop alone.
func probeKernel() float64 {
	mem := make([]uint64, probeWords)
	for i := range mem {
		mem[i] = uint64(i)
	}
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < probeOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		mem[(x>>17)%probeWords] += x
	}
	return time.Since(t0).Seconds()
}

// hostProbe runs probeKernel in a child process (this program run with
// -probe), so that the probe's array never counts in the peak memory of
// the process being measured.
func hostProbe() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	out, err := exec.Command(exe, "-probe").Output()
	if err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil || !(s > 0) {
		return 0, fmt.Errorf("host probe printed %q", out)
	}
	return s, nil
}

// hostSpeed collects a run's probes.
type hostSpeed struct {
	samples []float64
	last    time.Time
}

// probe times the host if the last probe is at least probeEvery old, or
// unconditionally when force is set.
func (h *hostSpeed) probe(force bool) error {
	if !force && !h.last.IsZero() && time.Since(h.last) < probeEvery {
		return nil
	}
	s, err := hostProbe()
	if err != nil {
		return err
	}
	h.samples = append(h.samples, s)
	h.last = time.Now()
	return nil
}

// scale is the factor that brings this run's times to the reference
// host's speed.
func (h *hostSpeed) scale() float64 { return probeRefS / median(h.samples) }
