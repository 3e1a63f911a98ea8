package workload

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/rng"
)

// testPolicy is the single-device layout: row-interleaved over one
// channel of one rank.
func testPolicy() memctrl.RowInterleaved {
	return memctrl.RowInterleaved{Topo: dram.SingleChannel(dram.Geometry{Banks: 2, Rows: 128, Cols: 8})}
}

func TestSequentialWrapsAndHitsRows(t *testing.T) {
	p := testPolicy()
	g := NewFlatSequential(p)
	first := g.NextFlat()
	n := int(p.Bytes() / 8)
	for i := 1; i < n; i++ {
		if a := g.NextFlat(); a.Addr != uint64(i)*8 {
			t.Fatalf("access %d at %#x", i, a.Addr)
		}
	}
	if wrapped := g.NextFlat(); wrapped.Addr != first.Addr {
		t.Fatalf("did not wrap: %#x vs %#x", wrapped.Addr, first.Addr)
	}
}

func TestSequentialRowLocality(t *testing.T) {
	p := testPolicy()
	ms := buildFlatSystem(p)
	RunSystem(ms, NewFlatSequential(p), 1000)
	if st := ms.AggregateStats(); st.RowHits < st.RowConflicts {
		t.Fatalf("sequential should be hit-dominated: hits=%d conflicts=%d",
			st.RowHits, st.RowConflicts)
	}
}

func TestRandomCoversSpace(t *testing.T) {
	p := testPolicy()
	g := NewFlatRandom(p, 0.3, rng.New(1))
	banks := map[int]bool{}
	writes := 0
	for i := 0; i < 5000; i++ {
		a := g.NextFlat()
		banks[p.Decode(a.Addr).Bank] = true
		if a.Write {
			writes++
		}
	}
	if len(banks) != 2 {
		t.Fatal("random workload missed a bank")
	}
	frac := float64(writes) / 5000
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("write fraction = %v, want ~0.3", frac)
	}
}

func TestStridedPeriodicity(t *testing.T) {
	p := testPolicy()
	g := NewFlatStrided(p, 64)
	a := g.NextFlat()
	b := g.NextFlat()
	if a.Addr == b.Addr || p.Decode(a.Addr) == p.Decode(b.Addr) {
		t.Fatal("stride did not advance")
	}
	for i := 2; uint64(i)*64 < p.Bytes(); i++ {
		g.NextFlat()
	}
	if g.NextFlat() != a {
		t.Fatal("stride did not wrap to its start")
	}
}

func TestZipfConcentration(t *testing.T) {
	p := testPolicy()
	g := NewFlatZipfRows(p, 1.2, rng.New(3))
	rowCounts := map[[2]int]int{}
	for i := 0; i < 20000; i++ {
		l := p.Decode(g.NextFlat().Addr)
		rowCounts[[2]int{l.Bank, l.Row}]++
	}
	max := 0
	for _, n := range rowCounts {
		if n > max {
			max = n
		}
	}
	if max < 2000 {
		t.Fatalf("Zipf workload not concentrated: max row count %d of 20000", max)
	}
}

func TestHammerAlternates(t *testing.T) {
	p := testPolicy()
	g := NewFlatHammer(p, memctrl.Loc{Row: 10}, memctrl.Loc{Row: 12})
	a, b, c := p.Decode(g.NextFlat().Addr), p.Decode(g.NextFlat().Addr), p.Decode(g.NextFlat().Addr)
	if a.Row != 10 || b.Row != 12 || c.Row != 10 {
		t.Fatalf("hammer pattern wrong: %d %d %d", a.Row, b.Row, c.Row)
	}
}

func TestMixRespectsWeights(t *testing.T) {
	p := testPolicy()
	src := rng.New(5)
	mix := NewFlatMix("mix", src,
		[]FlatGenerator{NewFlatHammer(p, memctrl.Loc{Row: 1}, memctrl.Loc{Row: 3}), NewFlatSequential(p)},
		[]float64{0.2, 0.8})
	hammered := 0
	for i := 0; i < 10000; i++ {
		l := p.Decode(mix.NextFlat().Addr)
		if (l.Row == 1 || l.Row == 3) && l.Col == 0 && l.Bank == 0 {
			hammered++
		}
	}
	frac := float64(hammered) / 10000
	if frac < 0.1 || frac > 0.3 {
		t.Fatalf("hammer fraction in mix = %v, want ~0.2", frac)
	}
}

func TestMixPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFlatMix("bad", rng.New(1), []FlatGenerator{NewFlatSequential(testPolicy())}, []float64{1, 2})
}

func TestRunComputesMeanLatency(t *testing.T) {
	p := testPolicy()
	ms := buildFlatSystem(p)
	mean := RunSystem(ms, NewFlatSequential(p), 500)
	if mean <= 0 {
		t.Fatal("mean latency not positive")
	}
	if n := ms.Controller(0).Stats.Accesses; n != 500 {
		t.Fatalf("accesses = %d", n)
	}
	if RunSystem(ms, NewFlatSequential(p), 0) != 0 {
		t.Fatal("zero accesses should give zero latency")
	}
}

func TestNames(t *testing.T) {
	p := testPolicy()
	src := rng.New(9)
	gens := []FlatGenerator{
		NewFlatSequential(p), NewFlatRandom(p, 0, src), NewFlatStrided(p, 8),
		NewFlatZipfRows(p, 1, src), NewFlatHammer(p, memctrl.Loc{Row: 1}, memctrl.Loc{Row: 2}),
		NewFlatMix("combo", src, []FlatGenerator{NewFlatSequential(p)}, []float64{1}),
	}
	seen := map[string]bool{}
	for _, g := range gens {
		if g.Name() == "" || seen[g.Name()] {
			t.Fatalf("bad name %q", g.Name())
		}
		seen[g.Name()] = true
	}
}

// --- Flat-address generator family ---

func flatTestTopo() dram.Topology {
	return dram.Topology{Channels: 2, Ranks: 2, Geom: dram.Geometry{Banks: 4, Rows: 64, Cols: 16}}
}

func buildFlatSystem(p memctrl.MappingPolicy) *memctrl.MemorySystem {
	t := p.Topology()
	devs := make([][]*dram.Device, t.Channels)
	for ch := range devs {
		for rk := 0; rk < t.Ranks; rk++ {
			devs[ch] = append(devs[ch], dram.NewDevice(t.Geom))
		}
	}
	return memctrl.NewSystem(devs, p, memctrl.Config{})
}

// TestFlatStreamsPolicyIndependent pins the controlled-comparison
// property: with the same topology and seed, FlatRandom emits the
// identical address stream no matter which policy will decode it.
func TestFlatStreamsPolicyIndependent(t *testing.T) {
	topo := flatTestTopo()
	pols := memctrl.Policies(topo)
	var streams [][]uint64
	for _, p := range pols {
		g := NewFlatRandom(p, 0.3, rng.New(42))
		var s []uint64
		for i := 0; i < 1000; i++ {
			s = append(s, g.NextFlat().Addr)
		}
		streams = append(streams, s)
	}
	for i := 1; i < len(streams); i++ {
		for j := range streams[0] {
			if streams[0][j] != streams[i][j] {
				t.Fatalf("policy %s diverged at access %d", pols[i].Name(), j)
			}
		}
	}
}

// TestFlatGeneratorsStayInRange drives each generator and checks every
// emitted address is word-aligned and within the topology.
func TestFlatGeneratorsStayInRange(t *testing.T) {
	topo := flatTestTopo()
	p := memctrl.ChannelInterleaved{Topo: topo}
	src := rng.New(9)
	gens := []FlatGenerator{
		NewFlatSequential(p),
		NewFlatRandom(p, 0.5, src),
		NewFlatStrided(p, 4096),
		NewFlatZipfRows(p, 1.1, src),
		NewFlatHammer(p, memctrl.Loc{Channel: 1, Rank: 1, Bank: 2, Row: 10},
			memctrl.Loc{Channel: 1, Rank: 1, Bank: 2, Row: 12}),
	}
	mix := NewFlatMix("mix", src, gens, []float64{1, 1, 1, 1, 1})
	for _, g := range append(gens, FlatGenerator(mix)) {
		for i := 0; i < 2000; i++ {
			a := g.NextFlat()
			if a.Addr%8 != 0 {
				t.Fatalf("%s: unaligned address %#x", g.Name(), a.Addr)
			}
			if a.Addr >= p.Bytes() {
				t.Fatalf("%s: address %#x beyond capacity %#x", g.Name(), a.Addr, p.Bytes())
			}
		}
	}
}

// TestRunSystemTouchesAllChannels checks that a random flat stream
// through a channel-interleaved system reaches every channel.
func TestRunSystemTouchesAllChannels(t *testing.T) {
	topo := flatTestTopo()
	p := memctrl.ChannelInterleaved{Topo: topo}
	ms := buildFlatSystem(p)
	lat := RunSystem(ms, NewFlatRandom(p, 0.2, rng.New(5)), 5000)
	if lat <= 0 {
		t.Fatalf("mean latency %v", lat)
	}
	for ch := 0; ch < ms.Channels(); ch++ {
		if ms.Controller(ch).Stats.Accesses == 0 {
			t.Fatalf("channel %d never accessed", ch)
		}
	}
	agg := ms.AggregateStats()
	if agg.Accesses != 5000 {
		t.Fatalf("aggregate accesses %d, want 5000", agg.Accesses)
	}
}

// TestFlatHammerAlternates checks the attacker stream alternates its
// aggressor addresses exactly.
func TestFlatHammerAlternates(t *testing.T) {
	topo := flatTestTopo()
	p := memctrl.RowInterleaved{Topo: topo}
	a := memctrl.Loc{Bank: 1, Row: 7}
	b := memctrl.Loc{Bank: 1, Row: 9}
	h := NewFlatHammer(p, a, b)
	for i := 0; i < 10; i++ {
		want := p.Encode(a)
		if i%2 == 1 {
			want = p.Encode(b)
		}
		if got := h.NextFlat().Addr; got != want {
			t.Fatalf("access %d: %#x, want %#x", i, got, want)
		}
	}
}

// TestZipfRowsPinned pins the first 10k FlatZipfRows addresses under
// every policy as FNV-1a digests, recorded at seed 1 on the 4ch x 2rk
// benign traffic topology from the generator that read its topology
// through the policy on every draw.
func TestZipfRowsPinned(t *testing.T) {
	const n = 10000
	traffic := dram.Topology{Channels: 4, Ranks: 2, Geom: dram.Geometry{Banks: 4, Rows: 256, Cols: 16}}
	digests := map[string]uint64{
		"row-interleaved":     0xbce65093ee6c8f0d,
		"channel-interleaved": 0xbc24393e41eca48d,
		"xor-bank-hash":       0xf5f2b789cc21c60d,
	}
	for _, p := range memctrl.Policies(traffic) {
		z := NewFlatZipfRows(p, 1.1, rng.New(1))
		h := uint64(14695981039346656037)
		for i := 0; i < n; i++ {
			h = (h ^ z.NextFlat().Addr) * 1099511628211
		}
		if h != digests[p.Name()] {
			t.Errorf("%s: digest of the first %d addresses %#x, want %#x", p.Name(), n, h, digests[p.Name()])
		}
	}
}
