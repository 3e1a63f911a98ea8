package disturb

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// testSetup builds a small device with a deliberately dense, weak
// population so tests exercise flips quickly.
func testSetup(t *testing.T, p Params, seed uint64) (*dram.Device, *Model) {
	t.Helper()
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 8}
	d := dram.NewDevice(g)
	m := NewModel(g, p, rng.New(seed))
	d.AttachFault(m)
	return d, m
}

func aggressiveParams() Params {
	return Params{
		WeakCellFraction: 0.01, // dense for test speed
		ThresholdMedian:  1000,
		ThresholdSigma:   0.3,
		MinThreshold:     500,
		Dist2Fraction:    0.1,
		DPDFactor:        1, // disable DPD unless a test enables it
		SecondSideMin:    0.5,
		SecondSideMax:    1.0,
	}
}

// hammer performs n ACT/PRE cycles on each of the given rows in turn.
func hammer(d *dram.Device, rows []int, n int) {
	now := dram.Time(0)
	for i := 0; i < n; i++ {
		for _, r := range rows {
			d.Activate(0, r, now)
			d.Precharge(0)
			now += 50
		}
	}
}

func TestNoFlipsWithoutHammering(t *testing.T) {
	d, m := testSetup(t, aggressiveParams(), 1)
	for r := 0; r < 256; r++ {
		d.Activate(0, r, dram.Time(r))
		d.Precharge(0)
	}
	if m.TotalFlips() != 0 {
		t.Fatalf("single activations caused %d flips", m.TotalFlips())
	}
}

func TestInvulnerableModule(t *testing.T) {
	d, m := testSetup(t, Params{}, 1)
	hammer(d, []int{100, 102}, 100000)
	if m.TotalFlips() != 0 || m.WeakCellCount() != 0 {
		t.Fatal("invulnerable module flipped bits")
	}
	if !math.IsInf(m.MinThreshold(), 1) {
		t.Fatal("MinThreshold of invulnerable module should be +Inf")
	}
}

func TestHammeringFlipsBits(t *testing.T) {
	d, m := testSetup(t, aggressiveParams(), 2)
	// Fill everything with the pattern most likely to expose flips in
	// both directions: alternating fill makes half the cells charged.
	for r := 0; r < 256; r++ {
		d.FillPhysRow(0, r, 0xaaaaaaaaaaaaaaaa)
	}
	hammer(d, []int{100, 102}, 5000)
	if m.TotalFlips() == 0 {
		t.Fatal("no flips after heavy double-sided hammering of a dense-weak device")
	}
}

func TestFlipsLandInNeighbors(t *testing.T) {
	p := aggressiveParams()
	p.Dist2Fraction = 0 // distance-1 only for a crisp assertion
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 8}
	d := dram.NewDevice(g)
	m := NewModel(g, p, rng.New(3))
	d.AttachFault(m)
	// Golden copy of all rows.
	golden := make([][]uint64, 256)
	for r := 0; r < 256; r++ {
		d.FillPhysRow(0, r, 0xffffffffffffffff)
		golden[r] = append([]uint64(nil), d.PhysRowWords(0, r)...)
	}
	hammer(d, []int{100}, 20000)
	for r := 0; r < 256; r++ {
		differs := false
		words := d.PhysRowWords(0, r)
		for i := range words {
			if words[i] != golden[r][i] {
				differs = true
			}
		}
		if differs && r != 99 && r != 101 {
			t.Fatalf("row %d corrupted; only 99/101 may differ", r)
		}
	}
}

func TestRepeatabilitySameCellsFlip(t *testing.T) {
	run := func() map[[2]int]bool {
		g := dram.Geometry{Banks: 1, Rows: 64, Cols: 4}
		d := dram.NewDevice(g)
		m := NewModel(g, aggressiveParams(), rng.New(7))
		d.AttachFault(m)
		for r := 0; r < 64; r++ {
			d.FillPhysRow(0, r, 0xffffffffffffffff)
		}
		evens := []int{}
		for r := 0; r < 64; r += 2 {
			evens = append(evens, r)
		}
		hammer(d, evens, 4000)
		flips := map[[2]int]bool{}
		for r := 0; r < 64; r++ {
			for b := 0; b < g.BitsPerRow(); b++ {
				if d.PhysBit(0, r, b) != 1 {
					flips[[2]int{r, b}] = true
				}
			}
		}
		_ = m
		return flips
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no flips to compare")
	}
	if len(a) != len(b) {
		t.Fatalf("flip sets differ in size: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("flip at %v not repeated", k)
		}
	}
}

func TestRefreshPreventsFlips(t *testing.T) {
	p := aggressiveParams()
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 4}
	d := dram.NewDevice(g)
	m := NewModel(g, p, rng.New(11))
	d.AttachFault(m)
	for r := 0; r < 64; r++ {
		d.FillPhysRow(0, r, 0xffffffffffffffff)
	}
	// Hammer in bursts below every threshold, refreshing victims
	// between bursts: no cell should ever flip.
	now := dram.Time(0)
	for burst := 0; burst < 50; burst++ {
		for i := 0; i < 200; i++ { // 200*(1+second) < MinThreshold 500
			d.Activate(0, 30, now)
			d.Precharge(0)
			now += 50
		}
		d.RefreshPhysRow(0, 29, now)
		d.RefreshPhysRow(0, 31, now)
		d.RefreshPhysRow(0, 28, now)
		d.RefreshPhysRow(0, 32, now)
		now += 100
	}
	if m.TotalFlips() != 0 {
		t.Fatalf("refresh between sub-threshold bursts still produced %d flips", m.TotalFlips())
	}
}

func TestDoubleSidedBeatsSingleSided(t *testing.T) {
	count := func(rows []int, perRow int) int64 {
		g := dram.Geometry{Banks: 1, Rows: 256, Cols: 8}
		d := dram.NewDevice(g)
		m := NewModel(g, aggressiveParams(), rng.New(13))
		d.AttachFault(m)
		for r := 0; r < 256; r++ {
			d.FillPhysRow(0, r, 0xaaaaaaaaaaaaaaaa)
		}
		hammer(d, rows, perRow)
		return m.TotalFlips()
	}
	// Same total activation budget: double-sided around row 101 vs
	// single row far from the other.
	ds := count([]int{100, 102}, 1500)
	ss := count([]int{100, 200}, 1500)
	if ds <= ss {
		t.Fatalf("double-sided (%d flips) not more effective than single-sided (%d)", ds, ss)
	}
}

func TestDataPatternDependence(t *testing.T) {
	// With strong DPD, hammering with aggressor rows holding the same
	// pattern as victims should flip far fewer bits than opposite.
	count := func(aggPattern uint64) int64 {
		p := aggressiveParams()
		p.DPDFactor = 0.05
		g := dram.Geometry{Banks: 1, Rows: 256, Cols: 8}
		d := dram.NewDevice(g)
		m := NewModel(g, p, rng.New(17))
		d.AttachFault(m)
		for r := 0; r < 256; r++ {
			d.FillPhysRow(0, r, 0xffffffffffffffff) // victims all-1
		}
		d.FillPhysRow(0, 100, aggPattern)
		d.FillPhysRow(0, 102, aggPattern)
		hammer(d, []int{100, 102}, 3000)
		return m.TotalFlips()
	}
	opposite := count(0x0000000000000000)
	same := count(0xffffffffffffffff)
	if opposite <= same {
		t.Fatalf("DPD inverted: opposite-pattern flips %d <= same-pattern flips %d", opposite, same)
	}
}

func TestFlippedCellDoesNotRecount(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 4}
	d := dram.NewDevice(g)
	m := NewModel(g, aggressiveParams(), rng.New(19))
	d.AttachFault(m)
	for r := 0; r < 64; r++ {
		d.FillPhysRow(0, r, 0xffffffffffffffff)
	}
	hammer(d, []int{30, 32}, 3000)
	first := m.TotalFlips()
	if first == 0 {
		t.Skip("seed produced no flips in this small array")
	}
	hammer(d, []int{30, 32}, 3000) // continue without restoring victims
	if m.TotalFlips() != first {
		t.Fatalf("flips recounted without victim restore: %d -> %d", first, m.TotalFlips())
	}
}

func TestFractionFlippableAt(t *testing.T) {
	p := DefaultParams()
	if p.FractionFlippableAt(0) != 0 {
		t.Error("zero hammer count must give zero")
	}
	if p.FractionFlippableAt(1000) != 0 {
		t.Error("below MinThreshold must give zero")
	}
	hi := p.FractionFlippableAt(10e6)
	if hi <= 0 || hi > p.WeakCellFraction {
		t.Errorf("high hammer count fraction = %v, want in (0, %v]", hi, p.WeakCellFraction)
	}
	// Monotone non-decreasing in hammer count.
	prev := 0.0
	for _, hc := range []float64{100e3, 200e3, 400e3, 800e3, 1.6e6, 3.2e6} {
		f := p.FractionFlippableAt(hc)
		if f < prev {
			t.Fatalf("FractionFlippableAt not monotone at %v: %v < %v", hc, f, prev)
		}
		prev = f
	}
	if (Params{}).FractionFlippableAt(1e9) != 0 {
		t.Error("invulnerable params must have zero flippable fraction")
	}
}

func TestMinThresholdMatchesPopulation(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 1024, Cols: 8}
	p := aggressiveParams()
	m := NewModel(g, p, rng.New(23))
	if m.WeakCellCount() == 0 {
		t.Fatal("expected weak cells")
	}
	if m.MinThreshold() < p.MinThreshold {
		t.Fatalf("MinThreshold %v below configured floor %v", m.MinThreshold(), p.MinThreshold)
	}
}

func TestDeterministicConstruction(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 512, Cols: 8}
	a := NewModel(g, DefaultParams(), rng.New(31))
	b := NewModel(g, DefaultParams(), rng.New(31))
	if a.WeakCellCount() != b.WeakCellCount() {
		t.Fatal("same-seed models differ")
	}
	if a.MinThreshold() != b.MinThreshold() {
		t.Fatal("same-seed thresholds differ")
	}
}

func TestVictimRowHelpers(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 4}
	m := NewModel(g, aggressiveParams(), rng.New(37))
	rows := m.VictimRows()
	if len(rows) == 0 {
		t.Fatal("no victim rows")
	}
	total := 0
	for _, k := range rows {
		n := m.CellsInRow(k[0], k[1])
		if n <= 0 {
			t.Fatalf("victim row %v has %d cells", k, n)
		}
		total += n
	}
	if total != m.WeakCellCount() {
		t.Fatalf("per-row cells %d != total %d", total, m.WeakCellCount())
	}
}

func TestResetCounters(t *testing.T) {
	d, m := testSetup(t, aggressiveParams(), 41)
	for r := 0; r < 256; r++ {
		d.FillPhysRow(0, r, 0xffffffffffffffff)
	}
	hammer(d, []int{100, 102}, 5000)
	if m.TotalFlips() == 0 {
		t.Skip("no flips with this seed")
	}
	m.ResetCounters()
	if m.TotalFlips() != 0 {
		t.Fatal("ResetCounters failed")
	}
}

// TestRefreshReachBoundsOrder checks the reach contract on the physics:
// an activation of row r and a refresh of row f, applied in either
// order, may leave different bits or model state only when f lies
// within RefreshReach of r, and the reach is the largest cell distance
// of the bank, which dense distance-2 cells reach.
func TestRefreshReachBoundsOrder(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 16, Cols: 1}
	p := DefaultParams()
	p.WeakCellFraction = 0.1
	p.ThresholdMedian, p.MinThreshold = 3, 1
	p.Dist2Fraction = 0.5
	src := rng.New(4)
	seen := map[int]bool{}
	for trial := 0; trial < 1000; trial++ {
		bank, r, f := src.Intn(g.Banks), src.Intn(g.Rows), src.Intn(g.Rows)
		if r == f {
			continue
		}
		pre := src.Intn(4)
		apply := func(activateFirst bool) ([]byte, *Model, *dram.Device) {
			d := dram.NewDevice(g)
			m := NewModel(g, p, rng.New(3))
			d.AttachFault(m)
			for row := 0; row < g.Rows; row++ {
				d.FillPhysRow(bank, row, 0x5555555555555555<<(row%2))
			}
			// Some pressure first, so an activation can cross a threshold.
			for i := 0; i < pre; i++ {
				d.Activate(bank, r, dram.Time(i))
				d.Precharge(bank)
			}
			if activateFirst {
				d.Activate(bank, r, 10)
				d.RefreshPhysRow(bank, f, 20)
			} else {
				d.RefreshPhysRow(bank, f, 20)
				d.Activate(bank, r, 10)
			}
			var w snapshot.Writer
			m.SaveState(&w)
			for row := 0; row < g.Rows; row++ {
				w.U64(d.PhysRowWords(bank, row)[0])
			}
			return w.Bytes(), m, d
		}
		a, m, d := apply(true)
		b, _, _ := apply(false)
		if bytes.Equal(a, b) {
			continue
		}
		dist := max(r-f, f-r)
		seen[dist] = true
		if reach := m.RefreshReach(d, bank, f, 20); dist > reach {
			t.Fatalf("bank %d: activation of row %d and refresh of row %d do not commute, but the refresh's reach is %d", bank, r, f, reach)
		}
	}
	if !seen[2] {
		t.Fatalf("no non-commuting pair at distance 2 (saw %v); the test is vacuous", seen)
	}
}
