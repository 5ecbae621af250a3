package trace

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"

	"planaria/internal/workload"
)

// The CSV stream form materializes an arrival list. Line 1 is a pragma
// carrying the format version and the QoS level the stream was generated
// under; line 2 is the column header; each following row is one request.
// Floats are rendered with strconv 'g'/-1 (shortest exact round-trip),
// so parse → encode is byte-stable.
//
//	#planaria-trace v1 qos=QoS-M
//	id,at_s,model,priority
//	0,0.0517181105715,ResNet-50,7
const csvHeader = "id,at_s,model,priority"

// EncodeCSV renders a request stream in the CSV form. The stream must be
// homogeneous in QoS level (one pragma covers the file); IDs and arrival
// instants are written as generated.
func EncodeCSV(reqs []workload.Request) ([]byte, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("trace: refusing to encode an empty stream")
	}
	level := reqs[0].Level
	var buf bytes.Buffer
	buf.Grow(len(reqs) * 40)
	fmt.Fprintf(&buf, "#planaria-trace v%d qos=%s\n%s\n", FormatVersion, level, csvHeader)
	for i := range reqs {
		r := &reqs[i]
		if r.Level != level {
			return nil, fmt.Errorf("trace: mixed QoS levels in stream (%q then %q at row %d)", level, r.Level, i)
		}
		if strings.ContainsAny(r.Model, ",\n") {
			return nil, fmt.Errorf("trace: model name %q not CSV-safe", r.Model)
		}
		buf.WriteString(strconv.Itoa(r.ID))
		buf.WriteByte(',')
		buf.WriteString(strconv.FormatFloat(r.Arrival, 'g', -1, 64))
		buf.WriteByte(',')
		buf.WriteString(r.Model)
		buf.WriteByte(',')
		buf.WriteString(strconv.Itoa(r.Priority))
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// ParseCSV replays a CSV stream back into requests. Every row goes
// through workload.NewRequest, so the replayed requests carry exactly
// the deadline/QoS semantics the generator would have assigned —
// externally captured traces cannot smuggle in their own deadlines.
func ParseCSV(data []byte) ([]workload.Request, error) {
	lines := strings.Split(string(data), "\n")
	if len(lines) < 3 {
		return nil, fmt.Errorf("trace: CSV stream too short")
	}
	var version int
	var qosName string
	if _, err := fmt.Sscanf(lines[0], "#planaria-trace v%d qos=%s", &version, &qosName); err != nil {
		return nil, fmt.Errorf("trace: bad CSV pragma %q: %w", lines[0], err)
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("trace: unsupported CSV version %d (want %d)", version, FormatVersion)
	}
	level, ok := qosByName(qosName)
	if !ok {
		return nil, fmt.Errorf("trace: unknown QoS level %q in CSV pragma", qosName)
	}
	if lines[1] != csvHeader {
		return nil, fmt.Errorf("trace: bad CSV header %q (want %q)", lines[1], csvHeader)
	}
	reqs := make([]workload.Request, 0, len(lines)-2)
	prevAt := 0.0
	for ln, line := range lines[2:] {
		if line == "" {
			continue // trailing newline / blank lines
		}
		row := ln + 3 // 1-based file line for messages
		f := strings.Split(line, ",")
		if len(f) != 4 {
			return nil, fmt.Errorf("trace: CSV line %d has %d fields (want 4)", row, len(f))
		}
		id, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d id: %w", row, err)
		}
		at, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d arrival: %w", row, err)
		}
		// ParseFloat accepts "NaN" and "Inf", and a NaN would also pass the
		// ordering check below and disable it for the next row.
		if math.IsNaN(at) || math.IsInf(at, 0) {
			return nil, fmt.Errorf("trace: CSV line %d at_s %q is not a finite arrival", row, f[1])
		}
		if at < prevAt || at < 0 {
			return nil, fmt.Errorf("trace: CSV line %d arrival %v out of order", row, at)
		}
		prio, err := strconv.Atoi(f[3])
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d priority: %w", row, err)
		}
		if prio < 1 || prio > 11 {
			return nil, fmt.Errorf("trace: CSV line %d priority %d outside 1..11", row, prio)
		}
		if id != len(reqs) {
			return nil, fmt.Errorf("trace: CSV line %d id %d (want %d — IDs are dense)", row, id, len(reqs))
		}
		r, err := workload.NewRequest(id, at, f[2], prio, level)
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d: %w", row, err)
		}
		reqs = append(reqs, r)
		prevAt = at
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("trace: CSV stream has no rows")
	}
	return reqs, nil
}
