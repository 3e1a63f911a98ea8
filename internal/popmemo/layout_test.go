package popmemo

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/rng"
)

// TestSortByRowStable checks SortByRow against a stable comparison sort
// of the same rows, with items in no row mixed in, over several sizes
// and a start buffer reused between calls.
func TestSortByRowStable(t *testing.T) {
	src := rng.New(1)
	var start []int32
	for _, tc := range []struct{ rows, n int }{{1, 0}, {1, 5}, {7, 40}, {64, 3}, {300, 1000}} {
		keys := make([]int32, tc.n)
		for i := range keys {
			keys[i] = int32(src.Intn(tc.rows+1)) - 1 // -1 is no row
		}
		// want lists the items with a row in sorted order.
		var want []int
		for i, k := range keys {
			if k >= 0 {
				want = append(want, i)
			}
		}
		slices.SortStableFunc(want, func(a, b int) int { return int(keys[a] - keys[b]) })
		at := slices.Clone(keys)
		start = SortByRow(start, tc.rows, at)
		if len(start) != tc.rows+1 || start[0] != 0 || int(start[tc.rows]) != len(want) {
			t.Fatalf("rows %d n %d: start %v for %d items with a row", tc.rows, tc.n, start, len(want))
		}
		for pos, i := range want {
			if int(at[i]) != pos {
				t.Fatalf("rows %d n %d: item %d at %d, want %d", tc.rows, tc.n, i, at[i], pos)
			}
			if k := keys[i]; int32(pos) < start[k] || int32(pos) >= start[k+1] {
				t.Fatalf("rows %d n %d: item %d at %d outside its row %d's range [%d, %d)", tc.rows, tc.n, i, pos, k, start[k], start[k+1])
			}
		}
		for i, k := range keys {
			if k < 0 && at[i] != k {
				t.Fatalf("rows %d n %d: item %d in no row changed to %d", tc.rows, tc.n, i, at[i])
			}
		}
	}
}

// TestInstalled pins the in-place restore check: a body matches only
// when it has one record per installed cell, each beginning with that
// cell's physics, and every flag byte is 0 or 1.
func TestInstalled(t *testing.T) {
	const physBytes, recBytes, flag = 3, 5, 4
	phys := []byte{1, 2, 3, 4, 5, 6}
	body := []byte{1, 2, 3, 9, 1, 4, 5, 6, 9, 0}
	if !Installed(body, phys, physBytes, recBytes, flag) {
		t.Fatal("matching body not installed")
	}
	if !Installed(nil, nil, physBytes, recBytes, flag) {
		t.Fatal("empty body does not match an empty population")
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"other physics", []byte{1, 2, 3, 9, 1, 4, 5, 7, 9, 0}},
		{"flag 2", []byte{1, 2, 3, 9, 2, 4, 5, 6, 9, 0}},
		{"one record", body[:recBytes]},
		{"one record more", append(bytes.Clone(body), 1, 2, 3, 9, 0)},
		{"cut inside a record", body[:len(body)-1]},
	} {
		if Installed(tc.body, phys, physBytes, recBytes, flag) {
			t.Errorf("%s: reported installed", tc.name)
		}
	}
}
