// Package workload generates the multi-tenant INFaaS workloads of the
// paper's evaluation (§VI-A): inference requests to the Table I benchmark
// DNNs with Poisson arrivals, uniform priorities in 1..11, and MLPerf
// server-scenario QoS latency bounds scaled by the QoS level
// (QoS-S = 1×, QoS-M = 1/4×, QoS-H = 1/16×).
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// QoSLevel is one of the paper's three QoS tightness levels.
type QoSLevel struct {
	Name  string
	Scale float64 // multiplier on the MLPerf latency bound
}

// The three levels evaluated in the paper.
var (
	QoSSoft   = QoSLevel{Name: "QoS-S", Scale: 1.0}
	QoSMedium = QoSLevel{Name: "QoS-M", Scale: 0.25}
	QoSHard   = QoSLevel{Name: "QoS-H", Scale: 1.0 / 16.0}
)

// Levels lists the QoS levels in paper order.
var Levels = []QoSLevel{QoSSoft, QoSMedium, QoSHard}

// BaseQoSSeconds holds the 1× (QoS-S) latency bounds. MLPerf's published
// numbers target the authors' hardware; following the paper's
// construction — bounds that are comfortable at QoS-S and stressful but
// attainable at QoS-H — these are scaled to this repository's simulated
// substrate so that QoS-H (bound/16) sits at ≈1.5–1.7× each model's
// isolated latency on the monolithic baseline (see DESIGN.md §3).
var BaseQoSSeconds = map[string]float64{
	"ResNet-50":       0.030,
	"GoogLeNet":       0.015,
	"MobileNet-v1":    0.075,
	"EfficientNet-B0": 0.100,
	"SSD-M":           0.140,
	"Tiny YOLO":       0.025,
	"YOLOv3":          0.125,
	"SSD-R":           0.350,
	"GNMT":            1.200,
}

// SLATarget returns the within-deadline fraction MLPerf requires for a
// domain: 99% for vision tasks, 97% for translation.
func SLATarget(domain string) float64 {
	if domain == "translation" {
		return 0.97
	}
	return 0.99
}

// Scenario is one of the paper's three workload mixes (Table I).
type Scenario struct {
	Name   string
	Models []string
}

// ScenarioA is the heavier mix (no depthwise convolutions).
func ScenarioA() Scenario {
	return Scenario{Name: "Workload-A", Models: []string{
		"ResNet-50", "GoogLeNet", "YOLOv3", "SSD-R", "GNMT",
	}}
}

// ScenarioB is the lighter mix (depthwise-heavy models).
func ScenarioB() Scenario {
	return Scenario{Name: "Workload-B", Models: []string{
		"EfficientNet-B0", "MobileNet-v1", "SSD-M", "Tiny YOLO",
	}}
}

// ScenarioC is the mixed workload over all nine models.
func ScenarioC() Scenario {
	return Scenario{Name: "Workload-C", Models: []string{
		"ResNet-50", "GoogLeNet", "YOLOv3", "SSD-R", "GNMT",
		"EfficientNet-B0", "MobileNet-v1", "SSD-M", "Tiny YOLO",
	}}
}

// Scenarios lists the three workloads in paper order.
func Scenarios() []Scenario {
	return []Scenario{ScenarioA(), ScenarioB(), ScenarioC()}
}

// Request is one dispatched inference task.
type Request struct {
	ID       int
	Model    string
	Domain   string
	Arrival  float64 // seconds
	Priority int     // 1..11, higher is more important
	QoS      float64 // latency bound in seconds
	Deadline float64 // Arrival + QoS
	// Level names the QoS level the request was generated under
	// ("QoS-S", "QoS-M", "QoS-H"). The cluster admission controller keys
	// its token buckets on it; empty means unclassified.
	Level string
	// Work multiplies the request's compiled-program cycle counts (and
	// dynamic energy). The cluster batching stage uses it to model a
	// fused batch: k inferences sharing one allocation cost
	// 1 + α·(k−1) single-inference runs, not k. Zero means 1.
	Work float64
}

// NewRequest is the single arrival-emission path shared by the
// stationary generator below and the trace replayer
// (internal/workload/trace): given an arrival instant, model, and
// priority, it assigns the QoS bound, domain, and deadline exactly one
// way. Every request that enters a serving layer is built here, so the
// deadline/priority semantics cannot drift between workload sources.
func NewRequest(id int, t float64, model string, prio int, level QoSLevel) (Request, error) {
	base, ok := BaseQoSSeconds[model]
	if !ok {
		return Request{}, fmt.Errorf("workload: no QoS bound for model %q", model)
	}
	qos := base * level.Scale
	return Request{
		ID:       id,
		Model:    model,
		Domain:   domainOf(model),
		Arrival:  t,
		Priority: prio,
		QoS:      qos,
		Deadline: t + qos,
		Level:    level.Name,
	}, nil
}

// Generate draws n requests from the scenario at mean rate qps under the
// QoS level, deterministically from seed. Arrivals are Poisson
// (exponential interarrivals), models uniform over the scenario mix,
// priorities uniform in 1..11 (following the Google-trace analysis the
// paper cites). A stationary Poisson stream is the degenerate case of
// the trace format (flat rate curve, no crowds, no skew); this helper
// keeps the historical draw order so existing seeds reproduce.
func Generate(sc Scenario, level QoSLevel, qps float64, n int, seed int64) ([]Request, error) {
	if len(sc.Models) == 0 {
		return nil, fmt.Errorf("workload: scenario %q has no models", sc.Name)
	}
	if qps <= 0 || n <= 0 {
		return nil, fmt.Errorf("workload: need positive qps (%g) and n (%d)", qps, n)
	}
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / qps
		model := sc.Models[rng.Intn(len(sc.Models))]
		r, err := NewRequest(i, t, model, rng.Intn(11)+1, level)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// RequestError reports a malformed request: its index in the stream, its
// ID, and the offending field.
type RequestError struct {
	Index, ID int
	Field     string
	Problem   string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("workload: request %d (ID %d): %s %s", e.Index, e.ID, e.Field, e.Problem)
}

// Validate checks a request stream in one pass before it is served:
// every arrival is a finite time ≥ 0, no deadline is NaN, every Work is
// finite and ≥ 0 (0 means 1), and IDs are unique. QoS is not checked: a
// merged batch's QoS is measured from its dispatch instant and can be
// negative. IDs that increase along the stream, as in generated streams,
// are unique without a lookup table. The first violation is returned as
// a *RequestError.
//
//perf:cold boundary check: one pass over the stream before any event is simulated
func Validate(reqs []Request) error {
	var seen map[int]bool
	for i := range reqs {
		r := &reqs[i]
		if field, problem := badField(r); field != "" {
			return &RequestError{Index: i, ID: r.ID, Field: field, Problem: problem}
		}
		if seen == nil {
			if i == 0 || r.ID > reqs[i-1].ID {
				continue
			}
			seen = make(map[int]bool, len(reqs))
			for j := 0; j < i; j++ {
				seen[reqs[j].ID] = true
			}
		}
		if seen[r.ID] {
			return &RequestError{Index: i, ID: r.ID, Field: "ID", Problem: "is a duplicate"}
		}
		seen[r.ID] = true
	}
	return nil
}

// badField names r's first malformed numeric field and what is wrong
// with it, or returns empty strings.
func badField(r *Request) (field, problem string) {
	switch {
	case !(r.Arrival >= 0) || math.IsInf(r.Arrival, 1):
		return "Arrival", fmt.Sprintf("%g is not a finite time ≥ 0", r.Arrival)
	case math.IsNaN(r.Deadline):
		return "Deadline", "is NaN"
	case !(r.Work >= 0) || math.IsInf(r.Work, 1):
		return "Work", fmt.Sprintf("%g is not a finite multiplier ≥ 0", r.Work)
	}
	return "", ""
}

func domainOf(model string) string {
	switch model {
	case "GNMT":
		return "translation"
	case "YOLOv3", "SSD-R", "SSD-M", "Tiny YOLO":
		return "detection"
	default:
		return "classification"
	}
}

// MeetsSLA reports whether a completed workload instance satisfies the
// MLPerf server SLA: per domain, the within-deadline fraction must reach
// SLATarget. finishes[i] < 0 marks an unfinished request (never
// compliant).
func MeetsSLA(reqs []Request, finishes []float64) bool {
	if len(reqs) != len(finishes) {
		return false
	}
	per := make([]domCount, 0, 8)
	var c *domCount
	for i := range reqs {
		r := &reqs[i]
		per, c = domSlot(per, r.Domain)
		c.total++
		if finishes[i] >= 0 && finishes[i] <= r.Deadline+1e-12 {
			c.ok++
		}
	}
	for i := range per {
		if float64(per[i].ok) < SLATarget(per[i].dom)*float64(per[i].total)-1e-9 {
			return false
		}
	}
	return true
}

// SLAOutcomeFlat computes MeetsSLA and DeadlineFraction together in one
// pass over pre-flattened columns: domIDs[i] indexes domNames (interned
// in first-sight order), deadlines[i] is the request's deadline. Serving
// layers that already stream the request array once can build these
// columns in that pass and keep the SLA tally off the 96-byte-stride
// records entirely. It returns (false, 0) on a length mismatch.
func SLAOutcomeFlat(domIDs []int32, domNames []string, deadlines, finishes []float64) (bool, float64) {
	n := len(deadlines)
	if len(domIDs) != n || len(finishes) != n {
		return false, 0
	}
	if n == 0 {
		return true, 0
	}
	okPer := make([]int, len(domNames))
	totPer := make([]int, len(domNames))
	ok := 0
	for i := 0; i < n; i++ {
		d := domIDs[i]
		totPer[d]++
		if finishes[i] >= 0 && finishes[i] <= deadlines[i]+1e-12 {
			okPer[d]++
			ok++
		}
	}
	meets := true
	for d, name := range domNames {
		if totPer[d] == 0 {
			continue
		}
		if float64(okPer[d]) < SLATarget(name)*float64(totPer[d])-1e-9 {
			meets = false
			break
		}
	}
	return meets, float64(ok) / float64(n)
}

// domCount tallies one domain's within-deadline results. The handful of
// domains lives in a small slice: a linear scan with string equality's
// pointer fast path (domain strings are shared, not rebuilt per request)
// beats hashing every request's domain, and the aggregate is identical —
// per-domain counts don't depend on bucket order.
type domCount struct {
	dom       string
	ok, total int
}

// domSlot returns the tally slot for dom, appending one on first sight.
func domSlot(per []domCount, dom string) ([]domCount, *domCount) {
	for i := range per {
		if per[i].dom == dom {
			return per, &per[i]
		}
	}
	per = append(per, domCount{dom: dom})
	return per, &per[len(per)-1]
}

// DeadlineFraction returns the fraction of requests whose finish meets
// the deadline. Unfinished requests (finishes[i] < 0 — shed, rejected,
// or dropped) count as misses; the chaos experiments use this as the
// SLA-retention metric under fault injection.
func DeadlineFraction(reqs []Request, finishes []float64) float64 {
	if len(reqs) == 0 || len(reqs) != len(finishes) {
		return 0
	}
	ok := 0
	for i := range reqs {
		if finishes[i] >= 0 && finishes[i] <= reqs[i].Deadline+1e-12 {
			ok++
		}
	}
	return float64(ok) / float64(len(reqs))
}

// TailLatencySlack returns the minimum over domains of
// (achieved within-deadline fraction − required fraction); positive means
// the SLA holds with margin. Useful for diagnostics and tests.
func TailLatencySlack(reqs []Request, finishes []float64) float64 {
	per := make([]domCount, 0, 8)
	var c *domCount
	for i := range reqs {
		r := &reqs[i]
		per, c = domSlot(per, r.Domain)
		c.total++
		if i < len(finishes) && finishes[i] >= 0 && finishes[i] <= r.Deadline+1e-12 {
			c.ok++
		}
	}
	slack := math.Inf(1)
	for i := range per {
		s := float64(per[i].ok)/float64(per[i].total) - SLATarget(per[i].dom)
		if s < slack {
			slack = s
		}
	}
	return slack
}
