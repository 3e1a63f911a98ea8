package retention

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

func denseParams() Params {
	return Params{
		WeakFraction: 0.02,
		MedianSec:    1.0,
		Sigma:        0.5,
		MinSec:       0.07,
		DPDFraction:  0,
		DPDReduction: 0.5,
		VRTFraction:  0,
		VRTRatio:     6,
		VRTDwellSec:  30,
		TemperatureC: 45,
	}
}

func newSetup(p Params, seed uint64) (*dram.Device, *Model) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 8}
	d := dram.NewDevice(g)
	m := NewModel(g, p, rng.New(seed))
	d.AttachFault(m)
	return d, m
}

// chargeAll writes the charged value of every weak cell so decays are
// observable, and returns the per-cell ground truth.
func chargeAll(d *dram.Device, m *Model) []CellInfo {
	cells := m.Cells()
	for _, c := range cells {
		d.SetPhysBit(c.Bank, c.PhysRow, c.Bit, c.ChargedVal)
	}
	return cells
}

func TestNoDecayWithinRetention(t *testing.T) {
	d, m := newSetup(denseParams(), 1)
	chargeAll(d, m)
	// Refresh every 64 ms for one second: min retention is 70 ms, so
	// nothing may decay.
	for step := 1; step <= 16; step++ {
		now := dram.Time(step) * 64 * dram.Millisecond
		for r := 0; r < 64; r++ {
			d.RefreshPhysRow(0, r, now)
		}
	}
	if m.Decays() != 0 {
		t.Fatalf("decays under nominal refresh: %d", m.Decays())
	}
}

func TestDecayWhenRefreshStops(t *testing.T) {
	d, m := newSetup(denseParams(), 2)
	cells := chargeAll(d, m)
	if len(cells) == 0 {
		t.Fatal("no weak cells sampled")
	}
	// Let 100 seconds pass with no refresh, then refresh everything:
	// nearly all weak cells (median retention 1 s) must decay.
	now := 100 * dram.Second
	for r := 0; r < 64; r++ {
		d.RefreshPhysRow(0, r, now)
	}
	if m.Decays() == 0 {
		t.Fatal("no decays after 100 s without refresh")
	}
	decayed := 0
	for _, c := range cells {
		if d.PhysBit(c.Bank, c.PhysRow, c.Bit) != c.ChargedVal {
			decayed++
		}
	}
	if decayed < len(cells)*9/10 {
		t.Fatalf("only %d/%d weak cells decayed after 100 s", decayed, len(cells))
	}
}

func TestDecayLockedInByRefresh(t *testing.T) {
	d, m := newSetup(denseParams(), 3)
	cells := chargeAll(d, m)
	if len(cells) == 0 {
		t.Fatal("no weak cells")
	}
	c := cells[0]
	// Decay then refresh: the wrong value must persist even after
	// subsequent timely refreshes (the sense amp restored garbage).
	d.RefreshPhysRow(0, c.PhysRow, 100*dram.Second)
	v := d.PhysBit(c.Bank, c.PhysRow, c.Bit)
	if v == c.ChargedVal {
		t.Fatal("cell did not decay")
	}
	d.RefreshPhysRow(0, c.PhysRow, 100*dram.Second+64*dram.Millisecond)
	if d.PhysBit(c.Bank, c.PhysRow, c.Bit) != v {
		t.Fatal("locked-in error changed under timely refresh")
	}
}

func TestActivationRestoresCharge(t *testing.T) {
	d, m := newSetup(denseParams(), 4)
	chargeAll(d, m)
	// Activate every row at 50 ms intervals (below min retention):
	// activation restores charge, so no decay may occur even though no
	// REF commands are ever issued.
	for step := 1; step <= 40; step++ {
		now := dram.Time(step) * 50 * dram.Millisecond
		for r := 0; r < 64; r++ {
			d.Activate(0, r, now)
			d.Precharge(0)
		}
	}
	if m.Decays() != 0 {
		t.Fatalf("decays despite sub-retention activation cadence: %d", m.Decays())
	}
}

func TestDischargedCellCannotDecay(t *testing.T) {
	d, m := newSetup(denseParams(), 5)
	cells := m.Cells()
	if len(cells) == 0 {
		t.Fatal("no weak cells")
	}
	// Write the *discharged* value everywhere: decay changes nothing.
	for _, c := range cells {
		d.SetPhysBit(c.Bank, c.PhysRow, c.Bit, 1-c.ChargedVal)
	}
	for r := 0; r < 64; r++ {
		d.RefreshPhysRow(0, r, 200*dram.Second)
	}
	if m.Decays() != 0 {
		t.Fatalf("discharged cells decayed: %d", m.Decays())
	}
}

func TestDPDShortensRetention(t *testing.T) {
	p := denseParams()
	p.DPDFraction = 1
	p.DPDReduction = 0.3
	d, m := newSetup(p, 6)
	cells := chargeAll(d, m)
	if len(cells) == 0 {
		t.Fatal("no weak cells")
	}
	// Fill neighbours with each cell's charged value (friendly): at an
	// interval below base retention but above reduced retention, no
	// decay should occur.
	for _, c := range cells {
		for _, nr := range []int{c.PhysRow - 1, c.PhysRow + 1} {
			if nr >= 0 && nr < 64 {
				d.SetPhysBit(c.Bank, nr, c.Bit, c.ChargedVal)
			}
		}
	}
	// Pick a cell and test around its base retention.
	c := cells[0]
	friendlyInterval := secToTime(c.BaseSec * 0.5) // below base, above base*0.3
	d.RefreshPhysRow(0, c.PhysRow, friendlyInterval)
	if d.PhysBit(c.Bank, c.PhysRow, c.Bit) != c.ChargedVal {
		t.Fatal("cell decayed with friendly neighbours below base retention")
	}
	// Now make neighbours adversarial and repeat the same interval
	// from the new restore point: the cell must decay.
	for _, nr := range []int{c.PhysRow - 1, c.PhysRow + 1} {
		if nr >= 0 && nr < 64 {
			d.SetPhysBit(c.Bank, nr, c.Bit, 1-c.ChargedVal)
		}
	}
	d.SetPhysBit(c.Bank, c.PhysRow, c.Bit, c.ChargedVal)
	d.RefreshPhysRow(0, c.PhysRow, friendlyInterval*2)
	if d.PhysBit(c.Bank, c.PhysRow, c.Bit) == c.ChargedVal {
		t.Fatal("cell did not decay with adversarial neighbours above reduced retention")
	}
}

func TestVRTTogglesBehaviour(t *testing.T) {
	p := denseParams()
	p.WeakFraction = 0.05
	p.VRTFraction = 1
	p.VRTRatio = 100 // long state effectively never fails in-window
	p.VRTDwellSec = 5
	p.Sigma = 0.1
	p.MedianSec = 0.2
	d, m := newSetup(p, 7)
	cells := chargeAll(d, m)
	if len(cells) == 0 {
		t.Fatal("no weak cells")
	}
	// Observe each cell across many 1-second epochs: VRT cells should
	// fail in some epochs (short state) and survive others (long
	// state). Count cells showing both behaviours.
	both := 0
	fails := map[int]int{}
	survives := map[int]int{}
	for epoch := 1; epoch <= 120; epoch++ {
		now := dram.Time(epoch) * dram.Second
		for r := 0; r < 64; r++ {
			d.RefreshPhysRow(0, r, now)
		}
		for i, c := range cells {
			if d.PhysBit(c.Bank, c.PhysRow, c.Bit) != c.ChargedVal {
				fails[i]++
				d.SetPhysBit(c.Bank, c.PhysRow, c.Bit, c.ChargedVal) // re-arm
			} else {
				survives[i]++
			}
		}
	}
	for i := range cells {
		if fails[i] > 0 && survives[i] > 0 {
			both++
		}
	}
	if both == 0 {
		t.Fatal("no cell exhibited both VRT states across 120 epochs")
	}
}

func TestTemperatureScaling(t *testing.T) {
	hot := denseParams()
	hot.TemperatureC = 85 // 4 decades of 10C -> retention / 16
	d, m := newSetup(hot, 8)
	cells := chargeAll(d, m)
	if len(cells) == 0 {
		t.Fatal("no weak cells")
	}
	c := cells[0]
	// At 85 C a cell with base retention R fails after R/16.
	interval := secToTime(c.BaseSec / 8) // > R/16, < R
	d.RefreshPhysRow(0, c.PhysRow, interval)
	if d.PhysBit(c.Bank, c.PhysRow, c.Bit) == c.ChargedVal {
		t.Fatal("hot cell did not decay at interval above scaled retention")
	}
}

// mcFailingFraction measures, by Monte Carlo, the fraction of weak
// cells decaying within tSec under the worst-case data pattern
// (adversarial neighbours for DPD cells), the quantity
// FractionFailingAt predicts analytically per total cell.
func mcFailingFraction(t *testing.T, p Params, seed uint64, tSec float64) float64 {
	t.Helper()
	g := dram.Geometry{Banks: 2, Rows: 256, Cols: 16}
	d := dram.NewDevice(g)
	m := NewModel(g, p, rng.New(seed))
	d.AttachFault(m)
	cells := m.Cells()
	if len(cells) == 0 {
		t.Fatal("no weak cells")
	}
	// Adversarial neighbours first, charged values second, so a weak
	// cell that happens to be another cell's neighbour keeps its own
	// charged value.
	for _, c := range cells {
		for _, nr := range []int{c.PhysRow - 1, c.PhysRow + 1} {
			if nr >= 0 && nr < g.Rows {
				d.SetPhysBit(c.Bank, nr, c.Bit, 1-c.ChargedVal)
			}
		}
	}
	for _, c := range cells {
		d.SetPhysBit(c.Bank, c.PhysRow, c.Bit, c.ChargedVal)
	}
	now := dram.Time(tSec * float64(dram.Second))
	for b := 0; b < g.Banks; b++ {
		for r := 0; r < g.Rows; r++ {
			d.RefreshPhysRow(b, r, now)
		}
	}
	decayed := 0
	for _, c := range cells {
		if d.PhysBit(c.Bank, c.PhysRow, c.Bit) != c.ChargedVal {
			decayed++
		}
	}
	return float64(decayed) / float64(len(cells))
}

// TestFractionFailingAtMatchesSimulation pins the analytic fleet
// prediction against Monte Carlo at 30/45/60 C and at an interval near
// the MinSec screening floor: the formula must fold in both the
// temperature scale and the floor, exactly as the simulation does.
func TestFractionFailingAtMatchesSimulation(t *testing.T) {
	p := Params{
		WeakFraction: 0.02,
		MedianSec:    0.6,
		Sigma:        0.8,
		MinSec:       0.15,
		DPDFraction:  0.4,
		DPDReduction: 0.5,
	}
	for _, tempC := range []float64{30, 45, 60} {
		pp := p
		pp.TemperatureC = tempC
		for _, tSec := range []float64{0.2, 0.5, 2.0} {
			analytic := pp.FractionFailingAt(tSec) / pp.WeakFraction
			mc := mcFailingFraction(t, pp, 0x517+uint64(tempC), tSec)
			if diff := math.Abs(analytic - mc); diff > 0.03 {
				t.Errorf("T=%v t=%vs: analytic %.4f vs Monte Carlo %.4f (diff %.4f)",
					tempC, tSec, analytic, mc, diff)
			}
		}
	}
	// The floor itself: with DPD disabled, below MinSec at nominal
	// temperature nothing can fail, however weak the lognormal tail
	// (DPD cells can still fail there, at floor × DPDReduction).
	pp := p
	pp.TemperatureC = 45
	pp.DPDFraction = 0
	if f := pp.FractionFailingAt(0.1); f != 0 {
		t.Errorf("interval below MinSec floor predicts failures: %v", f)
	}
	if mc := mcFailingFraction(t, pp, 0x518, 0.1); mc != 0 {
		t.Errorf("simulation decayed cells below the MinSec floor: %v", mc)
	}
}

// legacyCells replicates the seed sampler's draw loop — including its
// drop-on-collision bug — so the no-collision stream compatibility of
// the fixed sampler is pinned, not assumed.
func legacyCells(g dram.Geometry, p Params, seed uint64) []CellInfo {
	src := rng.New(seed)
	var out []CellInfo
	if p.WeakFraction <= 0 {
		return out
	}
	n := src.Binomial(g.TotalCells(), p.WeakFraction)
	seen := map[[3]int]bool{}
	for i := int64(0); i < n; i++ {
		c := CellInfo{
			Bank:    src.Intn(g.Banks),
			PhysRow: src.Intn(g.Rows),
			Bit:     src.Intn(g.BitsPerRow()),
			BaseSec: math.Max(p.MinSec, src.LogNormal(math.Log(p.MedianSec), p.Sigma)),
			DPD:     src.Bool(p.DPDFraction),
			VRT:     src.Bool(p.VRTFraction),
		}
		pos := [3]int{c.Bank, c.PhysRow, c.Bit}
		if seen[pos] {
			continue
		}
		seen[pos] = true
		if src.Bool(0.5) {
			c.ChargedVal = 1
		}
		if c.VRT {
			long := p.VRTLongDwellSec
			if long <= 0 {
				long = p.VRTDwellSec
			}
			vrtLong := src.Bool(long / (long + p.VRTDwellSec))
			src.Exponential(dwellFor(p, vrtLong))
		}
		out = append(out, c)
	}
	return out
}

// TestLegacyStreamUnchangedWithoutCollisions verifies the fixed
// sampler draws byte-identical populations to the seed sampler at
// seeds 1 and 5 whenever no collision occurs — the condition under
// which every legacy experiment table must stay bit-identical.
func TestLegacyStreamUnchangedWithoutCollisions(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 512, Cols: 16}
	for _, seed := range []uint64{1, 5} {
		legacy := legacyCells(g, DefaultParams(), seed)
		got := NewModel(g, DefaultParams(), rng.New(seed)).Cells()
		if len(legacy) != len(got) {
			t.Fatalf("seed %d: collision occurred at seed WeakFraction (legacy %d vs %d cells); pick another geometry",
				seed, len(legacy), len(got))
		}
		for i := range got {
			if got[i] != legacy[i] {
				t.Fatalf("seed %d cell %d: %+v != legacy %+v", seed, i, got[i], legacy[i])
			}
		}
	}
}

// TestCollisionResampled pins the duplicate-handling fix: a dense
// population where collisions are certain must still produce exactly
// the Binomial draw's worth of distinct weak cells, where the seed
// sampler silently undercounted.
func TestCollisionResampled(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 4, Cols: 1}
	p := denseParams()
	p.WeakFraction = 0.5
	seed := uint64(42)
	n := rng.New(seed).Binomial(g.TotalCells(), p.WeakFraction)
	m := NewModel(g, p, rng.New(seed))
	if int64(m.WeakCellCount()) != n {
		t.Fatalf("population %d cells, Binomial draw was %d", m.WeakCellCount(), n)
	}
	seen := map[[3]int]bool{}
	for _, c := range m.Cells() {
		pos := [3]int{c.Bank, c.PhysRow, c.Bit}
		if seen[pos] {
			t.Fatalf("duplicate cell at %v", pos)
		}
		seen[pos] = true
	}
	if legacy := legacyCells(g, p, seed); int64(len(legacy)) >= n {
		t.Fatalf("test is vacuous: the legacy sampler hit no collision (%d of %d)", len(legacy), n)
	}
}

func TestWeakRows(t *testing.T) {
	_, m := newSetup(denseParams(), 11)
	rows := map[int]bool{}
	for _, c := range m.Cells() {
		rows[c.PhysRow] = true
	}
	got := m.WeakRows(0)
	if len(got) != len(rows) {
		t.Fatalf("WeakRows returned %d rows, want %d", len(got), len(rows))
	}
	for i, r := range got {
		if !rows[r] {
			t.Fatalf("row %d not weak", r)
		}
		if i > 0 && got[i-1] >= r {
			t.Fatal("WeakRows not sorted")
		}
	}
}

func TestFractionFailingAt(t *testing.T) {
	p := DefaultParams()
	if p.FractionFailingAt(0) != 0 {
		t.Error("zero interval must give 0")
	}
	prev := 0.0
	for _, tt := range []float64{0.1, 0.5, 1, 2, 5, 20} {
		f := p.FractionFailingAt(tt)
		if f < prev {
			t.Fatalf("FractionFailingAt not monotone at %v", tt)
		}
		prev = f
	}
	if f := p.FractionFailingAt(1e6); f > p.WeakFraction*1.0000001 {
		t.Errorf("asymptote %v exceeds weak fraction %v", f, p.WeakFraction)
	}
}

func TestDeterminism(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 8}
	a := NewModel(g, DefaultParams(), rng.New(9))
	b := NewModel(g, DefaultParams(), rng.New(9))
	ca, cb := a.Cells(), b.Cells()
	if len(ca) != len(cb) {
		t.Fatal("same-seed populations differ in size")
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("cell %d differs: %+v vs %+v", i, ca[i], cb[i])
		}
	}
}

func TestResetCounters(t *testing.T) {
	d, m := newSetup(denseParams(), 10)
	chargeAll(d, m)
	for r := 0; r < 64; r++ {
		d.RefreshPhysRow(0, r, 100*dram.Second)
	}
	if m.Decays() == 0 {
		t.Skip("no decays this seed")
	}
	m.ResetCounters()
	if m.Decays() != 0 {
		t.Fatal("ResetCounters failed")
	}
}

// TestRefreshReachBoundsOrder checks the reach contract on the physics:
// an activation of row r at t1 and a refresh of row f at a later t2,
// applied in either order, may leave different bits or model state only
// when f lies within RefreshReach of r. Every cell is DPD-sensitive and
// decays within the tested times, so a row's decay reads bits its
// neighbours' decays flip; VRT is off, so nothing draws.
func TestRefreshReachBoundsOrder(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 12, Cols: 1}
	p := Params{WeakFraction: 0.25, MedianSec: 1e-4, Sigma: 0.5, MinSec: 1e-5,
		DPDFraction: 1, DPDReduction: 0.5, TemperatureC: 45}
	src := rng.New(4)
	fill := make([]uint64, g.Rows)
	seen := map[int]bool{}
	for trial := 0; trial < 2000; trial++ {
		r, f := src.Intn(g.Rows), src.Intn(g.Rows)
		if r == f {
			continue
		}
		t1 := dram.Time(1+src.Intn(150)) * dram.Microsecond
		t2 := t1 + dram.Time(1+src.Intn(50))*dram.Microsecond
		for i := range fill {
			fill[i] = src.Uint64()
		}
		apply := func(activateFirst bool) ([]byte, *Model, *dram.Device) {
			d := dram.NewDevice(g)
			m := NewModel(g, p, rng.New(3))
			d.AttachFault(m)
			for row, w := range fill {
				d.FillPhysRow(0, row, w)
			}
			if activateFirst {
				d.Activate(0, r, t1)
				d.RefreshPhysRow(0, f, t2)
			} else {
				d.RefreshPhysRow(0, f, t2)
				d.Activate(0, r, t1)
			}
			var w snapshot.Writer
			m.SaveState(&w)
			for row := 0; row < g.Rows; row++ {
				w.U64(d.PhysRowWords(0, row)[0])
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
		if reach := m.RefreshReach(d, 0, f, t2); dist > reach {
			t.Fatalf("activation of row %d at %d and refresh of row %d at %d do not commute, but the refresh's reach is %d",
				r, t1, f, t2, reach)
		}
	}
	if !seen[1] {
		t.Fatalf("no non-commuting pair at distance 1 (saw %v); the test is vacuous", seen)
	}
}

// TestRefreshReachNegativeWhenRefreshDraws pins the draw rule: a refresh
// that would advance a VRT cell draws from the stream activations draw
// from, so its reach is negative; a row without due VRT cells reaches 1.
func TestRefreshReachNegativeWhenRefreshDraws(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 2}
	p := denseParams()
	p.VRTFraction, p.VRTDwellSec = 1, 1e-3
	m := NewModel(g, p, rng.New(8))
	d := dram.NewDevice(g)
	d.AttachFault(m)
	rows := m.WeakRows(0)
	if len(rows) == 0 || len(rows) == g.Rows {
		t.Fatalf("%d weak rows of %d; the test needs both kinds", len(rows), g.Rows)
	}
	late := 10 * dram.Second
	if got := m.RefreshReach(d, 0, rows[0], late); got >= 0 {
		t.Errorf("refresh of VRT row %d long after its toggle: reach %d, want negative", rows[0], got)
	}
	if got := m.RefreshReach(d, 0, rows[0], 0); got != 1 {
		t.Errorf("refresh of VRT row %d at its last restore: reach %d, want 1", rows[0], got)
	}
	for r := 0; r < g.Rows; r++ {
		if !slices.Contains(rows, r) {
			if got := m.RefreshReach(d, 0, r, late); got != 1 {
				t.Errorf("refresh of row %d without weak cells: reach %d, want 1", r, got)
			}
			break
		}
	}
}
