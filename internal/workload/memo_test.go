package workload

import (
	"runtime"
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/popmemo"
	"repro/internal/rng"
)

// trafficTopo is perfbench traffic-mixed's 4ch x 2rk topology, 8192
// rows in all.
var trafficTopo = dram.Topology{Channels: 4, Ranks: 2, Geom: dram.Geometry{Banks: 4, Rows: 256, Cols: 16}}

func newTestMemo() *zipfMemo { return popmemo.New[zipfKey, *zipfTables](zipfBudget) }

// zipfRowsOracle builds a FlatZipfRows the way the generator did before
// the memo: a fresh CDF and guide table, then a Perm drawn from src.
func zipfRowsOracle(p memctrl.MappingPolicy, theta float64, src *rng.Stream) *FlatZipfRows {
	topo := p.Topology()
	rows := topo.TotalRows()
	z := &FlatZipfRows{policy: p, topo: topo, zipf: rng.NewZipf(src, rows, theta), src: src}
	for _, r := range src.Perm(rows) {
		z.perm = append(z.perm, int32(r))
	}
	return z
}

// drawAddrs returns the next n addresses of g.
func drawAddrs(g FlatGenerator, n int) []uint64 {
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = g.NextFlat().Addr
	}
	return addrs
}

// TestZipfRowsMemoHitMatchesMiss builds a generator on a fresh memo (a
// miss), then again from the same stream state (a hit), under every
// policy: both must share the tables, leave their streams at the same
// state, and emit the same first 10k addresses as the unmemoised
// construction.
func TestZipfRowsMemoHitMatchesMiss(t *testing.T) {
	const n = 10000
	for _, p := range memctrl.Policies(trafficTopo) {
		m := newTestMemo()
		missSrc, hitSrc, oracleSrc := rng.New(11), rng.New(11), rng.New(11)
		miss := newFlatZipfRows(m, p, 1.1, missSrc)
		if m.Len() != 1 {
			t.Fatalf("%s: memo holds %d entries after one miss, want 1", p.Name(), m.Len())
		}
		hit := newFlatZipfRows(m, p, 1.1, hitSrc)
		oracle := zipfRowsOracle(p, 1.1, oracleSrc)
		if &hit.perm[0] != &miss.perm[0] {
			t.Fatalf("%s: second build from one stream state did not share the memoised permutation", p.Name())
		}
		if hitSrc.State() != missSrc.State() || missSrc.State() != oracleSrc.State() {
			t.Fatalf("%s: stream after construction: hit %+v, miss %+v, oracle %+v", p.Name(), hitSrc.State(), missSrc.State(), oracleSrc.State())
		}
		want := drawAddrs(oracle, n)
		for name, g := range map[string]*FlatZipfRows{"miss": miss, "hit": hit} {
			for i, a := range drawAddrs(g, n) {
				if a != want[i] {
					t.Fatalf("%s %s: address %d is %#x, oracle %#x", p.Name(), name, i, a, want[i])
				}
			}
		}
		if hitSrc.State() != oracleSrc.State() || missSrc.State() != oracleSrc.State() {
			t.Fatalf("%s: stream after %d draws: hit %+v, miss %+v, oracle %+v", p.Name(), n, hitSrc.State(), missSrc.State(), oracleSrc.State())
		}
	}
}

// TestZipfRowsMemoInterleaved draws two generators built from one
// stream state, and so on one set of shared tables, in alternation:
// each must still emit its solo sequence, so nothing writes the shared
// tables.
func TestZipfRowsMemoInterleaved(t *testing.T) {
	const n = 10000
	p := memctrl.XORBankHash{Topo: trafficTopo}
	m := newTestMemo()
	solo := drawAddrs(newFlatZipfRows(m, p, 1.1, rng.New(5)), n)
	a := newFlatZipfRows(m, p, 1.1, rng.New(5))
	b := newFlatZipfRows(m, p, 1.1, rng.New(5))
	if &a.perm[0] != &b.perm[0] {
		t.Fatal("generators from one stream state do not share the memoised permutation")
	}
	for i := 0; i < n; i++ {
		if got := a.NextFlat().Addr; got != solo[i] {
			t.Fatalf("first generator: address %d is %#x, solo %#x", i, got, solo[i])
		}
		if got := b.NextFlat().Addr; got != solo[i] {
			t.Fatalf("second generator: address %d is %#x, solo %#x", i, got, solo[i])
		}
	}
}

// TestZipfRowsHitAllocs bounds a memo hit to a few small allocations:
// the generator, its sampler and nothing that grows with the row
// count.
func TestZipfRowsHitAllocs(t *testing.T) {
	const runs = 100
	p := memctrl.XORBankHash{Topo: trafficTopo}
	m := newTestMemo()
	src := rng.New(1)
	st := src.State()
	newFlatZipfRows(m, p, 1.1, src)
	build := func() {
		src.SetState(st)
		newFlatZipfRows(m, p, 1.1, src)
	}
	if allocs := testing.AllocsPerRun(runs, build); allocs > 4 {
		t.Fatalf("memo hit makes %v allocations, want at most 4", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	// The smallest per-row slice is the 4-byte permutation.
	if perRun, perRow := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(4*trafficTopo.TotalRows()); perRun >= perRow {
		t.Fatalf("memo hit allocates %d bytes, at least a per-row slice (%d bytes)", perRun, perRow)
	}
}

// BenchmarkNewFlatZipfRows builds traffic-mixed's Zipf generator. miss
// builds on an empty memo, so it computes the CDF and guide table and
// draws the permutation; hit rebuilds from one stream state, as every
// traffic-mixed pass does, and shares the memoised tables.
func BenchmarkNewFlatZipfRows(b *testing.B) {
	p := memctrl.XORBankHash{Topo: trafficTopo}
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			newFlatZipfRows(newTestMemo(), p, 1.1, rng.New(1))
		}
	})
	b.Run("hit", func(b *testing.B) {
		src := rng.New(1)
		st := src.State()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.SetState(st)
			NewFlatZipfRows(p, 1.1, src)
		}
	})
}
