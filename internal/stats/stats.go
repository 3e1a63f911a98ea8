// Package stats provides the result tables shared by the simulator's
// experiments: printable tables of pre-formatted cells, used to
// regenerate the paper's figures as text series, and the compact
// number formatting their cells use.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Table is a printable experiment result: a header row plus data rows.
// Cells are pre-formatted strings so that experiments control their own
// numeric precision.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row of cells. Rows shorter than the header are
// padded with empty cells; longer rows panic to catch experiment bugs.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Columns) {
		panic(fmt.Sprintf("stats: row has %d cells, table %q has %d columns",
			len(cells), t.Title, len(t.Columns)))
	}
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// AddRowf appends a row formatting each value with %v for numbers and
// applying compact scientific notation to floats.
func (t *Table) AddRowf(values ...interface{}) {
	cells := make([]string, 0, len(values))
	for _, v := range values {
		cells = append(cells, FormatCell(v))
	}
	t.AddRow(cells...)
}

// AddNote attaches a free-text footnote printed below the table.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// FormatCell renders a value for a table cell: floats get adaptive
// precision, everything else uses %v.
func FormatCell(v interface{}) string {
	switch x := v.(type) {
	case float64:
		return FormatFloat(x)
	case float32:
		return FormatFloat(float64(x))
	default:
		return fmt.Sprintf("%v", v)
	}
}

// FormatFloat renders a float compactly: integers as integers, small
// and large magnitudes in scientific notation, the rest with four
// significant digits.
func FormatFloat(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 0):
		if f > 0 {
			return "+Inf"
		}
		return "-Inf"
	case f == 0:
		return "0"
	case math.Abs(f) >= 1e6 || math.Abs(f) < 1e-3:
		return fmt.Sprintf("%.3e", f)
	case f == math.Trunc(f):
		return fmt.Sprintf("%.0f", f)
	default:
		return fmt.Sprintf("%.4g", f)
	}
}

// String renders the table with aligned columns, suitable for terminal
// output and for inclusion in EXPERIMENTS.md.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
