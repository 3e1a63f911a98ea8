package workload

import (
	"math"

	"repro/internal/popmemo"
	"repro/internal/rng"
)

// zipfBudget bounds the memo's footprint, in bytes of CDF, guide and
// permutation slices.
const zipfBudget = 8 << 20

// zipfMemo is the memo of FlatZipfRows tables.
type zipfMemo = popmemo.Memo[zipfKey, *zipfTables]

// sharedZipfTables is the process-wide memo NewFlatZipfRows draws
// through.
var sharedZipfTables = popmemo.New[zipfKey, *zipfTables](zipfBudget)

// zipfKey is the draw's key besides the stream state: the topology's
// total row count and theta's bit pattern.
type zipfKey struct {
	rows  int
	theta uint64
}

// zipfTables is the immutable half of a FlatZipfRows: the row sampler,
// which has no source and only lends its tables, and the row
// permutation. Entries are never written once memoised.
type zipfTables struct {
	zipf *rng.Zipf
	perm []int32
}

// zipfTablesOf returns the tables of a FlatZipfRows over rows rows,
// drawn from src through memo m. A miss builds the sampler's tables
// and draws the permutation, and charges the memo an upper bound on
// their size: an 8-byte CDF entry, at most one 4-byte guide entry and
// a 4-byte permutation entry per row.
func zipfTablesOf(m *zipfMemo, rows int, theta float64, src *rng.Stream) *zipfTables {
	t, _ := m.Draw(zipfKey{rows: rows, theta: math.Float64bits(theta)}, src, func() (*zipfTables, int) {
		t := &zipfTables{zipf: rng.NewZipf(nil, rows, theta), perm: make([]int32, rows)}
		for i, r := range src.Perm(rows) {
			t.perm[i] = int32(r)
		}
		return t, 16*rows + 4
	})
	return t
}
