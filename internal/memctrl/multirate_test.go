package memctrl

import (
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/raidr"
	"repro/internal/retention"
	"repro/internal/rng"
)

// smallGeom keeps retention windows short: 16 rows at group size 1
// means one window is 16 REF commands (~125 us), so multi-window
// schedules run in microseconds of simulated time.
func smallGeom() dram.Geometry { return dram.Geometry{Banks: 1, Rows: 16, Cols: 2} }

// TestMultiRateUniformPlanMatchesAutoRefresh: a plan with every row in
// the nominal bin must be bit-identical to the uniform auto-refresh
// engine — same rows refreshed, same stats, same energy.
func TestMultiRateUniformPlanMatchesAutoRefresh(t *testing.T) {
	g := smallGeom()
	build := func(vrr bool) (*dram.Device, *Controller) {
		dev := dram.NewDevice(g)
		c := New(dev, Config{})
		if vrr {
			plan := &raidr.Plan{BinOf: make([]int, g.Rows), Bins: []raidr.Bin{{Multiple: 1}}}
			c.Attach(NewMultiRate(plan))
		}
		return dev, c
	}
	devA, a := build(false)
	devB, b := build(true)
	horizon := dram.Time(64) * dram.Time(g.Rows) * devA.Timing.TREFI
	a.AdvanceTo(horizon)
	b.AdvanceTo(horizon)
	if devA.Stats != devB.Stats {
		t.Fatalf("device stats diverge:\nuniform    %+v\nmulti-rate %+v", devA.Stats, devB.Stats)
	}
	if a.Stats != b.Stats {
		t.Fatalf("controller stats diverge:\nuniform    %+v\nmulti-rate %+v", a.Stats, b.Stats)
	}
	for r := 0; r < g.Rows; r++ {
		if devA.LastRestore(0, r) != devB.LastRestore(0, r) {
			t.Fatalf("row %d restore time %d vs %d", r, devA.LastRestore(0, r), devB.LastRestore(0, r))
		}
	}
}

// TestMultiRateSchedule: over 8 retention windows, a weak row refreshes
// every window and slow-binned rows every 4th, with the refresh-time
// charge scaled to the rows actually refreshed.
func TestMultiRateSchedule(t *testing.T) {
	g := smallGeom()
	dev := dram.NewDevice(g)
	c := New(dev, Config{})
	vrr := NewMultiRate(raidr.NewPlan(g.Rows, map[int]bool{1: true}, 4))
	c.Attach(vrr)
	window := dram.Time(g.Rows) * dev.Timing.TREFI
	c.AdvanceTo(8 * window)
	// Weak row 1: refreshed 8 times; 15 strong rows: twice (windows 4, 8).
	wantRows := int64(8 + 15*2)
	if dev.Stats.RowRefreshes != wantRows {
		t.Fatalf("row refreshes = %d, want %d", dev.Stats.RowRefreshes, wantRows)
	}
	if vrr.RowRefreshes != wantRows {
		t.Fatalf("policy counted %d refreshes, want %d", vrr.RowRefreshes, wantRows)
	}
	if got, want := vrr.RowRefreshes+vrr.RowsSkipped, int64(8*g.Rows); got != want {
		t.Fatalf("scheduled rows = %d, want %d", got, want)
	}
	if s := vrr.SavedFraction(); s < 0.69 || s > 0.71 {
		t.Fatalf("saved fraction = %v, want ~0.70", s)
	}
	// The REF busy-time charge shrinks with the skipped rows: 38 of 128
	// scheduled rows refreshed.
	full := 8 * dram.Time(g.Rows) / dram.Time(dev.AutoRefreshGroupSize()) * dev.Timing.TRFC
	if c.Stats.RefreshTime >= full {
		t.Fatalf("refresh time %d not reduced from %d", c.Stats.RefreshTime, full)
	}
}

// retentionRig builds a controller over one bank whose weak retention
// cells, all holding their charged value, fail after about two of the
// controller's retention windows (one sweep of every row: g.Rows REFs)
// and survive one: 0.15 s and 0.08 s on a 64 ms window, scaled to it.
func retentionRig(g dram.Geometry, weakFraction float64, seed uint64) (*Controller, *retention.Model, dram.Time) {
	dev := dram.NewDevice(g)
	window := dram.Time(g.Rows) * dev.Timing.TREFI
	scale := float64(window) / float64(64*dram.Millisecond)
	m := retention.NewModel(g, retention.Params{
		WeakFraction: weakFraction,
		MedianSec:    0.15 * scale,
		Sigma:        0.1,
		MinSec:       0.08 * scale,
		VRTRatio:     1, VRTDwellSec: 1,
		TemperatureC: 45,
	}, rng.New(seed))
	dev.AttachFault(m)
	for _, cell := range m.Cells() {
		dev.SetPhysBit(cell.Bank, cell.PhysRow, cell.Bit, cell.ChargedVal)
	}
	return New(dev, Config{}), m, window
}

// advanceWindows steps c window by window through n retention windows,
// so each window's REFs restore rows at that window's end.
func advanceWindows(c *Controller, window dram.Time, n int) {
	for w := dram.Time(1); w <= dram.Time(n); w++ {
		c.AdvanceTo(w * window)
	}
}

// TestMultiRatePreventsWeakRowDecay: an oracle plan that bins every
// row holding a weak retention cell at the nominal rate loses no cell
// over 64 retention windows while refreshing every other row at 8x.
func TestMultiRatePreventsWeakRowDecay(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 4}
	c, m, window := retentionRig(g, 0.002, 1)
	weakRows := map[int]bool{}
	for _, cell := range m.Cells() {
		weakRows[cell.PhysRow] = true
	}
	vrr := NewMultiRate(raidr.NewPlan(g.Rows, weakRows, 8))
	c.Attach(vrr)
	advanceWindows(c, window, 64)
	if m.Decays() != 0 {
		t.Fatalf("oracle RAIDR plan decayed %d cells", m.Decays())
	}
	if vrr.RowsSkipped == 0 {
		t.Fatal("no refresh savings over all-nominal")
	}
}

// TestMultiRateMisbinnedRowDecays: a plan that knows no weak row bins
// every row slow — the escape E11 warns about — and the weak cells
// decay at 8x the window.
func TestMultiRateMisbinnedRowDecays(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 4}
	c, m, window := retentionRig(g, 0.05, 2)
	if m.WeakCellCount() == 0 {
		t.Fatal("no weak cells drawn; the check is vacuous")
	}
	c.Attach(NewMultiRate(raidr.NewPlan(g.Rows, nil, 8)))
	advanceWindows(c, window, 64)
	if m.Decays() == 0 {
		t.Fatal("misbinned weak rows did not decay at 8x window")
	}
}

// TestMultiRateExposure is E25's co-design caution on the real
// controller: a victim whose threshold exceeds one window's hammer
// budget is safe under the nominal schedule and flips once its row is
// binned slow, because the stretched restore gap accumulates pressure
// across windows.
func TestMultiRateExposure(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 2}
	for _, mult := range []int{1, 4} {
		dev := dram.NewDevice(g)
		dm := disturb.NewPlanted(g)
		// One window is 128 REFs = ~1 ms; a hammer pair costs 2*tRC =
		// 98 ns, so ~10.2k pairs fit per window. Threshold 1.3x above
		// one window's double-sided pressure.
		window := dram.Time(g.Rows) * dev.Timing.TREFI
		pairsPerWindow := int(uint64(window) / uint64(2*dev.Timing.TRC))
		threshold := float64(pairsPerWindow) * 2 * 1.3
		dm.InjectWeakCell(0, 60, 1, threshold, 1, 1, 1, 1)
		dev.AttachFault(dm)
		dev.SetPhysBit(0, 60, 1, 1)
		c := New(dev, Config{})
		c.Attach(NewMultiRate(raidr.NewPlan(g.Rows, nil, mult)))
		c.HammerPairsRanked(0, 0, 59, 61, 8*pairsPerWindow)
		flips := dm.TotalFlips()
		if mult == 1 && flips != 0 {
			t.Fatalf("nominal schedule leaked %d flips", flips)
		}
		if mult > 1 && flips == 0 {
			t.Fatalf("slow bin x%d did not expose the victim", mult)
		}
	}
}

// TestMultiRateComposesWithFrontier: the policy and a frontier tracker
// attach to one controller; Graphene keeps protecting the victim even
// while the slow schedule stretches the exposure window.
func TestMultiRateComposesWithFrontier(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 2}
	dev := dram.NewDevice(g)
	dm := disturb.NewPlanted(g)
	window := dram.Time(g.Rows) * dev.Timing.TREFI
	pairsPerWindow := int(uint64(window) / uint64(2*dev.Timing.TRC))
	threshold := float64(pairsPerWindow) * 2 * 1.3
	dm.InjectWeakCell(0, 60, 1, threshold, 1, 1, 1, 1)
	dev.AttachFault(dm)
	dev.SetPhysBit(0, 60, 1, 1)
	c := New(dev, Config{})
	c.Attach(NewMultiRate(raidr.NewPlan(g.Rows, nil, 4)))
	c.Attach(NewGraphene(8, int64(threshold), 1))
	c.HammerPairsRanked(0, 0, 59, 61, 8*pairsPerWindow)
	if dm.TotalFlips() != 0 {
		t.Fatalf("Graphene over multi-rate refresh leaked %d flips", dm.TotalFlips())
	}
	if c.Stats.MitRefreshes == 0 {
		t.Fatal("Graphene never fired; composition check is vacuous")
	}
}

// TestMultiRateRejectsMisconfiguration: invalid plans and double
// attachment panic instead of silently under-refreshing.
func TestMultiRateRejectsMisconfiguration(t *testing.T) {
	g := smallGeom()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("invalid plan", func() {
		NewMultiRate(&raidr.Plan{BinOf: make([]int, 4), Bins: []raidr.Bin{{Multiple: 2}}})
	})
	mustPanic("row mismatch", func() {
		c := New(dram.NewDevice(g), Config{})
		c.Attach(NewMultiRate(raidr.NewPlan(g.Rows/2, nil, 4)))
	})
	mustPanic("double policy", func() {
		c := New(dram.NewDevice(g), Config{})
		c.Attach(NewMultiRate(raidr.NewPlan(g.Rows, nil, 4)))
		c.Attach(NewMultiRate(raidr.NewPlan(g.Rows, nil, 2)))
	})
	mustPanic("shared instance across controllers", func() {
		vrr := NewMultiRate(raidr.NewPlan(g.Rows, nil, 4))
		New(dram.NewDevice(g), Config{}).Attach(vrr)
		New(dram.NewDevice(g), Config{}).Attach(vrr)
	})
	mustPanic("SetBankPlan after attach", func() {
		c := New(dram.NewDevice(g), Config{})
		vrr := NewMultiRate(raidr.NewPlan(g.Rows, nil, 4))
		c.Attach(vrr)
		vrr.SetBankPlan(0, raidr.NewPlan(g.Rows, nil, 2))
	})
}

// TestMultiRatePerBankPlans: bank-plan overrides schedule each flat
// bank independently.
func TestMultiRatePerBankPlans(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 16, Cols: 2}
	dev := dram.NewDevice(g)
	c := New(dev, Config{})
	vrr := NewMultiRate(raidr.NewPlan(g.Rows, nil, 4))
	// Bank 1 runs all-nominal.
	uniform := &raidr.Plan{BinOf: make([]int, g.Rows), Bins: []raidr.Bin{{Multiple: 1}}}
	vrr.SetBankPlan(1, uniform)
	c.Attach(vrr)
	window := dram.Time(g.Rows) * dev.Timing.TREFI
	// Advance window by window: catch-up REFs all stamp the current
	// clock, so per-window stepping keeps restore times distinguishable.
	for w := dram.Time(1); w <= 5; w++ {
		c.AdvanceTo(w * window)
	}
	// Bank 0 (all slow x4): one refresh per row (window 4). Bank 1:
	// five per row (every window).
	if got, want := dev.Stats.RowRefreshes, int64(g.Rows*1+g.Rows*5); got != want {
		t.Fatalf("row refreshes = %d, want %d", got, want)
	}
	if dev.LastRestore(1, 3) <= dev.LastRestore(0, 3) {
		t.Fatal("nominal bank restored no later than slow bank")
	}
}
