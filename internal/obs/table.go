package obs

import "strings"

// Table renders aligned monospace tables with a strings.Builder — the
// shared renderer behind the metrics snapshot text encoding and the
// metrics package's latency tables. The first column is left-aligned,
// all others right-aligned (override with AlignLeft).
type Table struct {
	header []string
	left   []bool
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(cols ...string) *Table {
	left := make([]bool, len(cols))
	if len(left) > 0 {
		left[0] = true
	}
	return &Table{header: cols, left: left}
}

// AlignLeft left-aligns the given column indices.
func (t *Table) AlignLeft(cols ...int) *Table {
	for _, c := range cols {
		if c >= 0 && c < len(t.left) {
			t.left[c] = true
		}
	}
	return t
}

// Row appends one row; missing cells render empty, extra cells are kept
// and widen the table.
func (t *Table) Row(cells ...string) {
	t.rows = append(t.rows, cells)
}

// String renders the table, one space-padded line per row.
func (t *Table) String() string {
	ncol := len(t.header)
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < ncol; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			pad := widths[i] - len(cell)
			if i > 0 {
				b.WriteByte(' ')
				b.WriteByte(' ')
			}
			left := i < len(t.left) && t.left[i]
			if !left {
				b.WriteString(strings.Repeat(" ", pad))
			}
			b.WriteString(cell)
			if left && i < ncol-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	if len(t.header) > 0 {
		writeRow(t.header)
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
