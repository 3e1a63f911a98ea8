// Package stats provides the small statistics and result-formatting
// toolkit shared by the simulator's experiments: running summaries,
// percentiles, and printable tables used to regenerate the paper's
// figures as text series.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates running moments and extrema of a series of
// float64 observations. The zero value is ready to use.
type Summary struct {
	n          int64
	sum, sumSq float64
	min, max   float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.n++
	s.sum += v
	s.sumSq += v * v
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Sum returns the sum of observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Variance returns the population variance, or 0 for fewer than two
// observations. Negative rounding artifacts are clamped to zero.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.n) - m*m
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the population standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or 0 for an empty summary.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 for an empty summary.
func (s *Summary) Max() float64 { return s.max }

// String formats the summary compactly for logs.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// Percentile returns the p-th percentile (0..100) of the given sample
// using linear interpolation between closest ranks. The input slice is
// not modified. It panics on an empty sample.
func Percentile(sample []float64, p float64) float64 {
	if len(sample) == 0 {
		panic("stats: Percentile of empty sample")
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

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

// GeoMean returns the geometric mean of positive values; zero or
// negative inputs panic since they indicate an experiment bug.
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		panic("stats: GeoMean of empty slice")
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			panic("stats: GeoMean requires positive values")
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// LinearFit returns the least-squares slope and intercept of y on x.
// It panics if the lengths differ or fewer than two points are given.
func LinearFit(x, y []float64) (slope, intercept float64) {
	if len(x) != len(y) || len(x) < 2 {
		panic("stats: LinearFit needs two equal-length series")
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept
}
