package stats

import (
	"math"
	"strings"
	"testing"
)

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
