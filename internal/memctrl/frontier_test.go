package memctrl

import (
	"bytes"
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/snapshot"
)

func TestGraphenePrevents(t *testing.T) {
	rig := newAttackRig(2000, false, Config{})
	rig.ctrl.Attach(NewGraphene(4, 2000, 1))
	rig.hammerPairs(50000)
	if rig.victimFlipped() {
		t.Fatal("Graphene failed to prevent a double-sided flip")
	}
	if rig.ctrl.Stats.MitRefreshes == 0 {
		t.Fatal("Graphene never refreshed a neighbour")
	}
}

// TestGrapheneHoldsAgainstManySided is the frontier contrast to
// TestTRRBypassedByManySided: the same 20-aggressor-pair pattern that
// starves a tiny TRR sampler cannot dilute a provisioned Misra-Gries
// tracker (entries sized for the active aggressor rows, Graphene's
// design rule — still a fraction of CRA's every-row table): every
// aggressor stays tracked and fires per trigger step, so the attack
// surfaces as refreshes instead of flips.
func TestGrapheneHoldsAgainstManySided(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 8}
	dev := dram.NewDevice(g)
	m := disturb.NewPlanted(g)
	victims := []int{}
	for v := 20; v <= 210; v += 10 {
		m.InjectWeakCell(0, v, 3, 1500, 1, 1, 1, 1)
		victims = append(victims, v)
	}
	dev.AttachFault(m)
	for _, v := range victims {
		dev.SetPhysBit(0, v, 3, 1)
	}
	ctrl := New(dev, Config{})
	ctrl.Attach(NewGraphene(44, 1500, 1))
	for i := 0; i < 4000; i++ {
		for _, v := range victims {
			ctrl.AccessRanked(0, Coord{Bank: 0, Row: v - 1, Col: 0}, false, 0)
			ctrl.AccessRanked(0, Coord{Bank: 0, Row: v + 1, Col: 0}, false, 0)
		}
	}
	for _, v := range victims {
		if dev.PhysBit(0, v, 3) != 1 {
			t.Fatalf("many-sided pattern flipped victim %d through Graphene", v)
		}
	}
	if ctrl.Stats.MitRefreshes == 0 {
		t.Fatal("Graphene never fired under the many-sided pattern")
	}
}

// TestGrapheneZeroEntries: a tracker with no slots sends every
// activation to the spillover and never refreshes, on the access path
// and in the hammer kernel alike, and its horizon is unbounded.
func TestGrapheneZeroEntries(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 4}
	fast := newHammerSystem(t, g, 61, true, 1)
	slow := newHammerSystem(t, g, 61, true, 1)
	gf, gs := NewGraphene(0, 1000, 1), NewGraphene(0, 1000, 1)
	fast.ctrl.Attach(gf)
	slow.ctrl.Attach(gs)
	for _, s := range []*hammerSystem{fast, slow} {
		s.ctrl.AccessRanked(0, Coord{Bank: 0, Row: 7}, false, 0)
	}
	fast.ctrl.HammerPairsRanked(0, 0, 40, 42, 2500)
	naiveHammerPairs(slow.ctrl, 0, 40, 42, 2500)
	compareSystems(t, fast, slow, "2,500 pairs")
	save := func(m *Graphene) []byte {
		var w snapshot.Writer
		m.SaveState(&w)
		return w.Bytes()
	}
	if !bytes.Equal(save(gf), save(gs)) {
		t.Fatal("kernel and access loop leave different Graphene state")
	}
	if spill := gf.tables[0].spill; spill != 5001 {
		t.Fatalf("spillover %d, want 5001", spill)
	}
	if fast.ctrl.Stats.MitRefreshes != 0 {
		t.Fatalf("%d mitigation refreshes, want 0", fast.ctrl.Stats.MitRefreshes)
	}
	if kc := fast.ctrl.KernelCounters(); kc.Batched < 4500 {
		t.Fatalf("only %d of 5,000 accesses in closed form (%+v)", kc.Batched, kc)
	}
}

func TestTWiCePrevents(t *testing.T) {
	rig := newAttackRig(2000, false, Config{})
	rig.ctrl.Attach(NewTWiCe(2000, 1))
	rig.hammerPairs(50000)
	if rig.victimFlipped() {
		t.Fatal("TWiCe failed to prevent a double-sided flip")
	}
	if rig.ctrl.Stats.MitRefreshes == 0 {
		t.Fatal("TWiCe never refreshed a neighbour")
	}
}

// TestTWiCePrunesBenignRows pins the pruning contract: rows that are
// not on pace to reach the trigger fall out of the table within a few
// checkpoints, so the peak live-table size stays far below CRA's
// every-row table while hot aggressors stay tracked.
func TestTWiCePrunesBenignRows(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 8}
	dev := dram.NewDevice(g)
	ctrl := New(dev, Config{})
	tw := NewTWiCe(2000, 1)
	tw.WindowREFs = 64 // survival pace: count >= 1000*life/64
	ctrl.Attach(tw)
	// Two hot aggressors hammered continuously, with a one-off touch of
	// a distinct cold row between bursts.
	for i := 0; i < 200; i++ {
		for k := 0; k < 40; k++ {
			ctrl.AccessRanked(0, Coord{Bank: 0, Row: 100, Col: 0}, false, 0)
			ctrl.AccessRanked(0, Coord{Bank: 0, Row: 102, Col: 0}, false, 0)
		}
		ctrl.AccessRanked(0, Coord{Bank: 0, Row: (i * 7) % 97, Col: 0}, false, 0)
	}
	if tw.PeakEntries() >= 97 {
		t.Fatalf("TWiCe never pruned: peak %d entries", tw.PeakEntries())
	}
	if tw.StorageBits() >= NewCRA(2000, 1, g.Rows).StorageBits() {
		t.Fatalf("TWiCe storage %d bits not below CRA's table %d",
			tw.StorageBits(), NewCRA(2000, 1, g.Rows).StorageBits())
	}
	live := 0
	for _, e := range tw.tables[0] {
		if e.row == 100 || e.row == 102 {
			live++
		}
	}
	if live != 2 {
		t.Fatalf("hot aggressors pruned: %d of 2 still tracked", live)
	}
}

// TestRefreshScalingStacks: two attached scalings multiply, and a
// controller with none runs at the nominal rate.
func TestRefreshScalingStacks(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 2}
	c := New(dram.NewDevice(g), Config{})
	if c.RefreshMultiplier() != 1 || c.RefreshPeriod() != c.Rank(0).Timing.TREFI {
		t.Fatalf("bare controller: multiplier %v period %d, want 1 and tREFI", c.RefreshMultiplier(), c.RefreshPeriod())
	}
	c.Attach(NewRefreshScaling(2))
	c.Attach(NewRefreshScaling(2))
	if c.RefreshMultiplier() != 4 {
		t.Fatalf("stacked multiplier = %v, want 4", c.RefreshMultiplier())
	}
	want := dram.Time(float64(c.Rank(0).Timing.RetentionWindow()) / 4)
	if c.RetentionWindow() != want {
		t.Fatalf("RetentionWindow = %d, want %d", c.RetentionWindow(), want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive factor did not panic")
		}
	}()
	NewRefreshScaling(0)
}

func TestFrontierStorageCosts(t *testing.T) {
	gr := NewGraphene(16, 100000, 8)
	if gr.StorageBits() != 8*(16*(32+20)+20) {
		t.Fatalf("Graphene storage = %d bits", gr.StorageBits())
	}
	if rs := NewRefreshScaling(7); rs.StorageBits() != 0 {
		t.Fatal("RefreshScaling must be stateless")
	}
	tw := NewTWiCe(100000, 2)
	if tw.StorageBits() != 0 {
		t.Fatal("TWiCe must charge nothing before any entry is allocated")
	}
}
