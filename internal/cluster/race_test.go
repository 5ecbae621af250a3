//go:build race

package cluster

// raceEnabled reports whether the race detector is on. It makes
// sync.Pool drop a random share of Puts, fmt's printer cache among
// them, so a run that formats series and track names has no
// deterministic warm allocation count.
const raceEnabled = true
