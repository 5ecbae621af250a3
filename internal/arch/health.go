package arch

import "fmt"

// HealthMask is the chip's subarray availability view of the fission
// configuration space: Usable[i] reports whether subarray i can host a
// logical accelerator right now. A subarray is unusable when it holds a
// permanent or active transient fault (dead PE, dead subarray) or when
// its Fission Pod's crossbar/ring link is down (internal/fault produces
// masks from its fault schedule). The scheduler consults the mask so
// Algorithm 1 only considers fission configurations whose subarrays and
// chaining links are alive.
//
// Chaining feasibility is judged in the serpentine ring order: a
// cluster of k subarrays needs k consecutive usable subarrays so its
// ring-bus chaining links are all alive; single-subarray clusters need
// no links at all.
type HealthMask struct {
	// Usable[i] is subarray i's availability.
	Usable []bool
}

// Alive returns the number of usable subarrays.
func (m HealthMask) Alive() int {
	n := 0
	for _, u := range m.Usable {
		if u {
			n++
		}
	}
	return n
}

// Fraction returns the usable share of the subarray pool (1 for an empty
// mask, which means "no health tracking").
func (m HealthMask) Fraction() float64 {
	if len(m.Usable) == 0 {
		return 1
	}
	return float64(m.Alive()) / float64(len(m.Usable))
}

// MaxChainable returns the length of the longest run of consecutive
// usable subarrays in chain order — the largest single cluster the
// surviving hardware can still realize. Zero when nothing is usable.
func (m HealthMask) MaxChainable() int {
	best, run := 0, 0
	for _, u := range m.Usable {
		if u {
			run++
			if run > best {
				best = run
			}
		} else {
			run = 0
		}
	}
	return best
}

// Validate checks the mask's dimensions against a configuration.
func (m HealthMask) Validate(c Config) error {
	if len(m.Usable) != 0 && len(m.Usable) != c.NumSubarrays() {
		return fmt.Errorf("arch: health mask covers %d subarrays, config has %d",
			len(m.Usable), c.NumSubarrays())
	}
	return nil
}

// String renders the mask as a compact alive/dead string in chain order
// ('#' alive, 'x' dead).
func (m HealthMask) String() string {
	b := make([]byte, len(m.Usable))
	for i, u := range m.Usable {
		if u {
			b[i] = '#'
		} else {
			b[i] = 'x'
		}
	}
	return string(b)
}
