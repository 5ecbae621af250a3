// Package trace is the planet-scale workload layer: a compact, versioned
// trace format plus a deterministic generator for the non-stationary
// arrival processes cloud serving actually sees — diurnal rate curves,
// multiplicative flash crowds with ramp/decay, Zipf model-popularity
// skew, and heavy-tailed per-user request mixes (the INFaaS-style
// consolidation setting PREMA motivates). A trace replays into the same
// workload.Request stream the stationary Poisson generator emits, through
// the same workload.NewRequest emission path, so every serving layer
// (sim.Node, cluster.Run) consumes it unchanged.
//
// The on-disk form is the JSON *spec* (ParseJSON/EncodeJSON): the
// generative description — rate curve, crowds, skew — replayed
// deterministically from its seed. Specs are small, hand-editable, and
// canonical: parse → encode is a fixed point (FuzzTraceJSON pins it), so
// artifacts embedding a spec are byte-comparable.
//
// Everything is simulated-time only and seeded (the package is in
// planaria-vet's deterministic set): the same spec yields the same
// request stream, byte-for-byte, on every run.
package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"planaria/internal/workload"
)

// FormatVersion is the trace spec version this package reads and writes.
const FormatVersion = 1

// RatePoint is one control point of the piecewise-linear diurnal rate
// curve: at AtS seconds into the trace the rate multiplier is Mult.
// Between points the multiplier interpolates linearly; before the first
// point it holds the first Mult, after the last it holds the last.
type RatePoint struct {
	AtS  float64 `json:"at_s"`
	Mult float64 `json:"mult"`
}

// Crowd is one flash crowd: starting at AtS the arrival rate ramps
// linearly over RampS seconds to Mult× its base value, then decays
// exponentially back toward 1× with time constant DecayS. Overlapping
// crowds multiply.
type Crowd struct {
	AtS    float64 `json:"at_s"`
	Mult   float64 `json:"mult"`
	RampS  float64 `json:"ramp_s"`
	DecayS float64 `json:"decay_s"`
}

// Spec is the versioned trace description. The zero values of the
// optional fields (Diurnal, Crowds, ZipfS, Users, UserBias) make the
// spec a plain stationary Poisson stream — the degenerate trace that
// subsumes workload.Generate's setting.
type Spec struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Models is the served mix, in popularity-rank order (rank 0 is the
	// most popular under Zipf skew).
	Models []string `json:"models"`
	// QoS names the workload QoS level ("QoS-S", "QoS-M", "QoS-H").
	QoS  string `json:"qos"`
	Seed int64  `json:"seed"`
	// HorizonS is the trace duration in simulated seconds.
	HorizonS float64 `json:"horizon_s"`
	// BaseQPS is the 1×-multiplier arrival rate.
	BaseQPS float64 `json:"base_qps"`
	// Diurnal is the piecewise-linear rate-multiplier curve (empty = flat 1×).
	Diurnal []RatePoint `json:"diurnal,omitempty"`
	// Crowds lists the flash crowds (empty = none).
	Crowds []Crowd `json:"crowds,omitempty"`
	// ZipfS is the model-popularity Zipf exponent: model rank r draws
	// with weight (r+1)^-ZipfS. 0 means uniform.
	ZipfS float64 `json:"zipf_s,omitempty"`
	// Users is the simulated user population for heavy-tailed per-user
	// request mixes; 0 disables user modeling. Users are drawn Zipf(1.2)
	// by rank, so a few heavy users dominate the stream.
	Users int `json:"users,omitempty"`
	// UserBias is the probability that a request from a user asks for
	// that user's favorite model (a deterministic function of the user
	// ID) instead of the popularity draw; 0 disables the bias.
	UserBias float64 `json:"user_bias,omitempty"`
	// MaxRequests caps the generated stream length (0 = unbounded: the
	// horizon alone ends the trace).
	MaxRequests int `json:"max_requests,omitempty"`
}

// qosByName resolves a QoS level name.
func qosByName(name string) (workload.QoSLevel, bool) {
	for _, lvl := range workload.Levels {
		if lvl.Name == name {
			return lvl, true
		}
	}
	return workload.QoSLevel{}, false
}

// Validate checks the spec's internal consistency. Parsed and
// hand-constructed specs both go through it before generation.
func (s *Spec) Validate() error {
	if s.Version != FormatVersion {
		return fmt.Errorf("trace: unsupported spec version %d (want %d)", s.Version, FormatVersion)
	}
	if len(s.Models) == 0 {
		return fmt.Errorf("trace: spec %q names no models", s.Name)
	}
	seen := make([]string, 0, len(s.Models))
	for _, m := range s.Models {
		if _, ok := workload.BaseQoSSeconds[m]; !ok {
			return fmt.Errorf("trace: no QoS bound for model %q", m)
		}
		for _, p := range seen {
			if p == m {
				return fmt.Errorf("trace: duplicate model %q", m)
			}
		}
		seen = append(seen, m)
	}
	if _, ok := qosByName(s.QoS); !ok {
		return fmt.Errorf("trace: unknown QoS level %q (want QoS-S, QoS-M, or QoS-H)", s.QoS)
	}
	if !(s.HorizonS > 0) || math.IsInf(s.HorizonS, 0) {
		return fmt.Errorf("trace: need a positive finite horizon, got %v", s.HorizonS)
	}
	if !(s.BaseQPS > 0) || math.IsInf(s.BaseQPS, 0) {
		return fmt.Errorf("trace: need a positive finite base QPS, got %v", s.BaseQPS)
	}
	for i, p := range s.Diurnal {
		if math.IsNaN(p.AtS) || math.IsInf(p.AtS, 0) || p.AtS < 0 {
			return fmt.Errorf("trace: diurnal point %d at %v", i, p.AtS)
		}
		if !(p.Mult >= 0) || math.IsInf(p.Mult, 0) {
			return fmt.Errorf("trace: diurnal point %d has multiplier %v", i, p.Mult)
		}
		if i > 0 && p.AtS <= s.Diurnal[i-1].AtS {
			return fmt.Errorf("trace: diurnal points must be strictly increasing in time (point %d)", i)
		}
	}
	for i, c := range s.Crowds {
		if math.IsNaN(c.AtS) || math.IsInf(c.AtS, 0) || c.AtS < 0 {
			return fmt.Errorf("trace: crowd %d at %v", i, c.AtS)
		}
		if !(c.Mult >= 1) || math.IsInf(c.Mult, 0) {
			return fmt.Errorf("trace: crowd %d needs multiplier >= 1, got %v", i, c.Mult)
		}
		if !(c.RampS > 0) || math.IsInf(c.RampS, 0) {
			return fmt.Errorf("trace: crowd %d needs a positive ramp, got %v", i, c.RampS)
		}
		if !(c.DecayS > 0) || math.IsInf(c.DecayS, 0) {
			return fmt.Errorf("trace: crowd %d needs a positive decay, got %v", i, c.DecayS)
		}
		if i > 0 && c.AtS < s.Crowds[i-1].AtS {
			return fmt.Errorf("trace: crowds must be sorted by onset (crowd %d)", i)
		}
	}
	// An infinite dominating rate would stall the generator: every
	// candidate gap would be zero.
	if math.IsInf(s.peakRate(), 0) {
		return fmt.Errorf("trace: peak rate overflows (base %v QPS times the curve and crowd peaks)", s.BaseQPS)
	}
	if math.IsNaN(s.ZipfS) || math.IsInf(s.ZipfS, 0) || s.ZipfS < 0 {
		return fmt.Errorf("trace: Zipf exponent %v", s.ZipfS)
	}
	if s.Users < 0 {
		return fmt.Errorf("trace: negative user population %d", s.Users)
	}
	if math.IsNaN(s.UserBias) || s.UserBias < 0 || s.UserBias > 1 {
		return fmt.Errorf("trace: user bias %v outside [0, 1]", s.UserBias)
	}
	if s.UserBias > 0 && s.Users == 0 {
		return fmt.Errorf("trace: user bias %v needs a user population", s.UserBias)
	}
	if s.MaxRequests < 0 {
		return fmt.Errorf("trace: negative request cap %d", s.MaxRequests)
	}
	return nil
}

// ParseJSON decodes and validates a trace spec. Unknown fields are
// rejected so a typo ("zipf" for "zipf_s") cannot silently change the
// workload.
func ParseJSON(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("trace: parse spec: %w", err)
	}
	// Exactly one JSON value: trailing garbage is a malformed file.
	if dec.More() {
		return nil, fmt.Errorf("trace: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// EncodeJSON renders the spec canonically: fixed field order, two-space
// indent, trailing newline. Parse → encode is a fixed point (the fuzz
// harness pins encode(parse(x)) == encode(parse(encode(parse(x))))
// byte-for-byte), so specs embedded in artifacts diff cleanly.
func (s *Spec) EncodeJSON() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// rateAt evaluates the arrival rate λ(t) = BaseQPS × diurnal(t) × Π
// crowd_i(t) at trace time t.
func (s *Spec) rateAt(t float64) float64 {
	return s.BaseQPS * s.diurnalAt(t) * s.crowdsAt(t)
}

// diurnalAt interpolates the rate-multiplier curve at t.
func (s *Spec) diurnalAt(t float64) float64 {
	pts := s.Diurnal
	if len(pts) == 0 {
		return 1
	}
	// First control point at or after t.
	idx := sort.Search(len(pts), func(i int) bool { return pts[i].AtS >= t })
	switch {
	case idx == 0:
		return pts[0].Mult
	case idx == len(pts):
		return pts[len(pts)-1].Mult
	}
	a, b := pts[idx-1], pts[idx]
	frac := (t - a.AtS) / (b.AtS - a.AtS)
	return a.Mult + frac*(b.Mult-a.Mult)
}

// crowdsAt multiplies the active flash-crowd factors at t.
func (s *Spec) crowdsAt(t float64) float64 {
	f := 1.0
	for i := range s.Crowds {
		c := &s.Crowds[i]
		if t < c.AtS {
			break // crowds are sorted by onset; later ones have not started
		}
		f *= crowdFactor(c, t)
	}
	return f
}

// crowdFactor is crowd c's multiplier at t >= c.AtS.
func crowdFactor(c *Crowd, t float64) float64 {
	boost := c.Mult - 1
	dt := t - c.AtS
	if dt < c.RampS {
		return 1 + boost*dt/c.RampS
	}
	return 1 + boost*math.Exp(-(dt-c.RampS)/c.DecayS)
}

// peakRate upper-bounds λ(t) over the horizon: the diurnal maximum times
// the product of every crowd's peak. The thinning generator uses it as
// its dominating rate, so it must only never under-estimate.
func (s *Spec) peakRate() float64 {
	peak := 1.0
	if len(s.Diurnal) > 0 {
		peak = 0
		for _, p := range s.Diurnal {
			if p.Mult > peak {
				peak = p.Mult
			}
		}
		if peak == 0 {
			peak = 1e-9 // all-zero curve: keep the dominating rate positive
		}
	}
	for _, c := range s.Crowds {
		peak *= c.Mult
	}
	return s.BaseQPS * peak
}
