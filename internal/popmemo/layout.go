package popmemo

import (
	"bytes"
	"slices"

	"repro/internal/snapshot"
)

// SortByRow is the stable counting sort that lays a population out by
// row. On entry at[i] is the row of item i, a row index
// bank*Rows+physRow in [0, rows), or negative for an item in no row. On
// return at[i] is item i's position in the sorted order, negative
// entries unchanged: items are grouped by row and keep their order
// within one. It returns start, where start[idx]:start[idx+1] are the
// positions of row idx's items, reusing start's backing array when it
// is large enough.
func SortByRow(start []int32, rows int, at []int32) []int32 {
	start = slices.Grow(start[:0], rows+1)[:rows+1]
	clear(start)
	for _, idx := range at {
		if idx >= 0 {
			start[idx+1]++
		}
	}
	sum := int32(0)
	for idx, c := range start {
		sum += c
		start[idx] = sum
	}
	// Place each item at its row's cursor: start[idx] advances to the
	// next row's start, and shifting the starts up by one afterwards
	// restores them.
	for i, idx := range at {
		if idx >= 0 {
			at[i] = start[idx]
			start[idx]++
		}
	}
	copy(start[1:], start[:rows])
	start[0] = 0
	return start
}

// Installed checks that body, a checkpoint's encoded cells of recBytes
// each, carries exactly the cells whose physics phys encodes, physBytes
// per cell, in the same order, each record starting with its cell's
// physics, and that the byte at offset flag of every record is a valid
// boolean. A restore overlays only such a body, changing nothing but
// the cells' mutable state: populations are configuration, rebuilt from
// the spec, and never installed from a checkpoint. It returns
// snapshot.ErrCorrupt if a flag byte is not a boolean, and
// snapshot.ErrMismatch if the body carries other cells. The flags are
// scanned on their own only after the compare has failed, so an
// accepted body costs one pass.
func Installed(body, phys []byte, physBytes, recBytes, flag int) error {
	n := len(phys) / physBytes
	same := len(body) == n*recBytes
	for i := 0; same && i < n; i++ {
		rec := body[i*recBytes : (i+1)*recBytes]
		same = bytes.Equal(rec[:physBytes], phys[i*physBytes:(i+1)*physBytes]) && rec[flag] <= 1
	}
	if same {
		return nil
	}
	for i := flag; i < len(body); i += recBytes {
		if body[i] > 1 {
			return snapshot.Corruptf("weak cell %d: flag byte %d is not a boolean", i/recBytes, body[i])
		}
	}
	return snapshot.Mismatchf("checkpoint's %d weak cells differ from the %d installed", len(body)/recBytes, n)
}
