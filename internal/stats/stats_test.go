package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if math.Abs(s.Variance()-2) > 1e-12 {
		t.Errorf("Variance = %v, want 2", s.Variance())
	}
	if math.Abs(s.StdDev()-math.Sqrt(2)) > 1e-12 {
		t.Errorf("StdDev = %v", s.StdDev())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.N() != 0 {
		t.Error("empty summary should be all zeros")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(-7)
	if s.Min() != -7 || s.Max() != -7 || s.Mean() != -7 {
		t.Error("single-element summary wrong")
	}
	if s.Variance() != 0 {
		t.Error("variance of one element should be 0")
	}
}

func TestSummaryNonNegativeVariance(t *testing.T) {
	if err := quick.Check(func(vals []float64) bool {
		var s Summary
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// keep magnitudes sane to avoid FP blowup irrelevant here
			s.Add(math.Mod(v, 1e6))
		}
		return s.Variance() >= 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	sample := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		p, want float64
	}{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}}
	for _, c := range cases {
		if got := Percentile(sample, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Input must not be modified.
	if sample[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	got := Percentile([]float64{0, 10}, 50)
	if got != 5 {
		t.Fatalf("interpolated median = %v, want 5", got)
	}
}

func TestPercentilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Percentile(nil, 50)
}

func TestTableFormatting(t *testing.T) {
	tab := NewTable("demo", "name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRowf("beta", 2.5)
	tab.AddNote("a note")
	out := tab.String()
	for _, want := range []string{"demo", "alpha", "beta", "2.5", "note: a note", "name", "value"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tab := NewTable("t", "a", "b", "c")
	tab.AddRow("x")
	if len(tab.Rows[0]) != 3 {
		t.Fatalf("short row not padded: %v", tab.Rows[0])
	}
}

func TestTableLongRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable("t", "a").AddRow("1", "2")
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{3, "3"},
		{2.5, "2.5"},
		{1234567, "1.235e+06"},
		{0.0001, "1.000e-04"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.in); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 10, 100})
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("GeoMean = %v, want 10", got)
	}
}

func TestGeoMeanPanics(t *testing.T) {
	for _, bad := range [][]float64{nil, {1, 0}, {-1}} {
		func() {
			defer func() { recover() }()
			GeoMean(bad)
			t.Errorf("GeoMean(%v) should panic", bad)
		}()
	}
}

func TestLinearFit(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, intercept := LinearFit(x, y)
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 {
		t.Fatalf("fit = %v, %v; want 2, 1", slope, intercept)
	}
}

func TestLinearFitDegenerateX(t *testing.T) {
	slope, intercept := LinearFit([]float64{2, 2}, []float64{1, 3})
	if slope != 0 || intercept != 2 {
		t.Fatalf("degenerate fit = %v, %v; want 0, 2", slope, intercept)
	}
}
