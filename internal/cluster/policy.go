package cluster

import "fmt"

// policy is a load-balancing policy: the rule route applies to pick a
// chip for each dispatch. Every policy is deterministic and routes only
// to routable chips, so a dead chip or a slot that is not ready never
// receives work. The values index Policies().
type policy uint8

const (
	// roundRobin cycles through the chips, skipping unroutable ones. The
	// cursor advances past the chosen chip, so a dead chip costs one
	// probe per dispatch but never receives work.
	roundRobin policy = iota
	// leastWork is join-shortest-queue over the estimated backlog: the
	// chip with the least outstanding isolated work wins, ties broken by
	// lowest chip index.
	leastWork
	// affinity pins each model to a chip via rendezvous
	// (highest-random-weight) hashing over the model name: every chip
	// scores hash(model, chip) and the highest-scoring routable chip
	// wins. The assignment is stable across runs (the hash has no seed or
	// state), and when a chip dies only the models it owned move — the
	// consistent-hashing property the policy exists for (weight locality:
	// a chip serves few distinct models, so its scratchpad keeps their
	// weights resident).
	affinity
)

// Policies lists the balancing policy names in canonical order.
func Policies() []string {
	return []string{"round-robin", "least-work", "affinity"}
}

// PolicyName returns the canonical name of a balancing policy. Accepted
// names (and aliases): "round-robin" ("rr"), "least-work" ("lw", "jsq"),
// "affinity" ("hash").
func PolicyName(name string) (string, error) {
	p, err := parsePolicy(name)
	if err != nil {
		return "", err
	}
	return Policies()[p], nil
}

// parsePolicy resolves a policy name or alias.
func parsePolicy(name string) (policy, error) {
	switch name {
	case "round-robin", "rr":
		return roundRobin, nil
	case "least-work", "lw", "jsq":
		return leastWork, nil
	case "affinity", "hash":
		return affinity, nil
	default:
		return 0, fmt.Errorf("cluster: unknown policy %q (want round-robin, least-work, or affinity)", name)
	}
}

// route picks the chip for a group of the given interned model
// dispatched at instant t, or returns -1 when no chip is routable (the
// front end sheds the group).
func (r *run) route(t float64, model int32) int {
	switch r.pol {
	case roundRobin:
		n := len(r.chips)
		for probe := 0; probe < n; probe++ {
			i := (r.rrNext + probe) % n
			if r.routable(i, t) {
				r.rrNext = (i + 1) % n
				return i
			}
		}
		return -1
	case affinity:
		best, bestScore := -1, uint64(0)
		for i := range r.chips {
			if !r.routable(i, t) {
				continue
			}
			// Strict > keeps the lowest index on a (vanishingly unlikely)
			// score tie.
			if s := affinityScore(r.col.models[model].name, i); best < 0 || s > bestScore {
				best, bestScore = i, s
			}
		}
		return best
	}
	return r.leastWork(t, -1)
}

// leastWork returns the routable chip other than skip with the least
// backlog at instant t, the lowest index on ties, or -1 when there is
// none. Dispatch routes with it under the least-work policy, and a drain
// migrates queued groups with it under every policy.
func (r *run) leastWork(t float64, skip int) int {
	best, bestOut := -1, 0.0
	for i := range r.chips {
		if i == skip || !r.routable(i, t) {
			continue
		}
		if out := r.chips[i].backlog(t); best < 0 || out < bestOut {
			best, bestOut = i, out
		}
	}
	return best
}

// routable reports whether chip i can take new work at instant t: it
// has a usable subarray and, on autoscaled runs, its slot is ready. A
// chip with no fault schedule on a static fleet always can, a test that
// inlines into the routing loops.
func (r *run) routable(i int, t float64) bool {
	return r.chips[i].health == nil && r.asc == nil || r.ready(i, t)
}

// ready is routable's test for a chip with a fault schedule or on an
// autoscaled fleet.
func (r *run) ready(i int, t float64) bool {
	return r.chips[i].health.aliveAt(t, r.total) > 0 && (r.asc == nil || r.asc.routable(i, t))
}

// affinityScore is the rendezvous weight of (model, chip): the 64-bit
// FNV-1a hash of the model name, a '|' and the chip index's four
// little-endian bytes, computed in place so routing allocates nothing.
func affinityScore(model string, chip int) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(model); i++ {
		h = (h ^ uint64(model[i])) * prime
	}
	for _, b := range [...]byte{'|', byte(chip), byte(chip >> 8), byte(chip >> 16), byte(chip >> 24)} {
		h = (h ^ uint64(b)) * prime
	}
	return h
}
