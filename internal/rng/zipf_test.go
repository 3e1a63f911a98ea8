package rng

import (
	"fmt"
	"math"
	"testing"
)

// zipfSearch is the oracle for Zipf.index: a binary search over the
// whole CDF for the smallest i with cdf[i] >= u, clamped to n-1. It is
// the search Zipf.Next ran before the guide table.
func zipfSearch(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// zipfEdges returns the draws where a guided search is most likely to
// go wrong: every CDF value and its two neighbouring floats, every
// guide-cell boundary and the float just below it, and the ends of
// [0, 1).
func zipfEdges(z *Zipf) []float64 {
	us := []float64{0, math.Nextafter(1, 0)}
	for _, c := range z.cdf {
		us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
	}
	cells := len(z.guide) - 1
	for j := 1; j <= cells; j++ {
		b := float64(j) / float64(cells)
		us = append(us, b, math.Nextafter(b, 0))
	}
	return us
}

// checkZipfEdges compares z.index with the oracle at every edge draw
// in [0, 1).
func checkZipfEdges(t *testing.T, z *Zipf) {
	t.Helper()
	for _, u := range zipfEdges(z) {
		if u < 0 || u >= 1 {
			continue
		}
		if got, want := z.index(u), zipfSearch(z.cdf, u); got != want {
			t.Fatalf("u=%v (%#x): guided index %d, binary search %d", u, math.Float64bits(u), got, want)
		}
	}
}

// TestZipfGuideMatchesBinarySearch pins the guide-table search to the
// whole-CDF binary search: on 1M draws through Next, spread over
// several sizes and exponents, and at every edge draw.
func TestZipfGuideMatchesBinarySearch(t *testing.T) {
	sizes := []int{1, 2, 3, 7, 64, 100, 1000, 8192, 10000}
	thetas := []float64{0.5, 0.99, 1.1, 2, 4}
	draws := 1_000_000 / (len(sizes) * len(thetas))
	for _, n := range sizes {
		for _, theta := range thetas {
			t.Run(fmt.Sprintf("n=%d/theta=%v", n, theta), func(t *testing.T) {
				src := New(uint64(n)*1000 + uint64(theta*100))
				twin := FromState(src.State())
				z := NewZipf(src, n, theta)
				for i := 0; i < draws; i++ {
					u := twin.Float64()
					if got, want := z.Next(), zipfSearch(z.cdf, u); got != want {
						t.Fatalf("draw %d, u=%v: Next %d, binary search %d", i, u, got, want)
					}
				}
				checkZipfEdges(t, z)
			})
		}
	}
}

// TestZipfGuideClampsAboveCDF covers draws above the last CDF value,
// which the search clamps to n-1: a CDF that stops short of 1, and one
// whose tail rounds to 1 before its last row.
func TestZipfGuideClampsAboveCDF(t *testing.T) {
	short := NewZipf(New(1), 1000, 1.1).cdf
	for i := range short {
		short[i] *= 0.75
	}
	flat := []float64{0.25, 0.5, 1, 1, 1}
	for name, cdf := range map[string][]float64{"short": short, "flat tail": flat} {
		z := newZipfCDF(New(1), cdf)
		checkZipfEdges(t, z)
		for _, u := range []float64{0.75, 0.8, 0.99, math.Nextafter(1, 0)} {
			if got, want := z.index(u), zipfSearch(cdf, u); got != want {
				t.Fatalf("%s: u=%v: guided index %d, binary search %d", name, u, got, want)
			}
		}
	}
}

// BenchmarkZipfNext draws from traffic-mixed's Zipf: theta 1.1 over the
// 8192 rows of a 4-channel, 2-rank, 4-bank, 256-row topology.
func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(New(1), 8192, 1.1)
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}

// TestZipfWithSourceMatchesNewZipf pins a sampler on shared tables to
// a freshly built one: over several sizes and exponents, WithSource
// draws exactly what NewZipf draws from the same stream state, and
// shares the tables it was built from.
func TestZipfWithSourceMatchesNewZipf(t *testing.T) {
	for _, n := range []int{1, 3, 100, 8192} {
		for _, theta := range []float64{0.5, 1.1, 4} {
			tables := NewZipf(New(1), n, theta)
			shared := tables.WithSource(New(2))
			fresh := NewZipf(New(2), n, theta)
			if &shared.cdf[0] != &tables.cdf[0] || &shared.guide[0] != &tables.guide[0] {
				t.Fatalf("n=%d theta=%v: WithSource copied the tables", n, theta)
			}
			for i := 0; i < 10000; i++ {
				if got, want := shared.Next(), fresh.Next(); got != want {
					t.Fatalf("n=%d theta=%v: draw %d is %d on shared tables, %d from NewZipf", n, theta, i, got, want)
				}
			}
			if shared.src.State() != fresh.src.State() {
				t.Fatalf("n=%d theta=%v: stream states part after the draws", n, theta)
			}
		}
	}
}
