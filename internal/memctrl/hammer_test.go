package memctrl

// Equivalence tests for Controller.HammerPairsRanked, the two-row call
// of the hammer kernel: the batched sweep must be bit-identical to the
// naive AccessRanked loop — same timing, same auto-refresh
// interleaving, same stats, same energy, same fault physics. The
// many-row kernel under every mitigation, ECC and remap is fuzzed in
// kernel_test.go.

import (
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/retention"
	"repro/internal/rng"
)

// hammerSystem is one device+controller with disturbance (and
// optionally retention) physics for the twin comparison.
type hammerSystem struct {
	dev  *dram.Device
	ctrl *Controller
	dm   *disturb.Model
}

func newHammerSystem(t *testing.T, g dram.Geometry, seed uint64, withRetention bool, mult float64) *hammerSystem {
	t.Helper()
	dev := dram.NewDevice(g)
	p := disturb.DefaultParams()
	p.WeakCellFraction = 2e-3
	p.ThresholdMedian = 3000
	p.MinThreshold = 400
	p.Dist2Fraction = 0.2
	dm := disturb.NewModel(g, p, rng.New(seed))
	dev.AttachFault(dm)
	if withRetention {
		rp := retention.DefaultParams()
		rp.WeakFraction = 2e-3 // dense enough that hammered rows hold cells
		rm := retention.NewModel(g, rp, rng.New(seed^0x9e3779b9))
		dev.AttachFault(rm)
	}
	ctrl := New(dev, Config{})
	if mult != 1 {
		ctrl.Attach(NewRefreshScaling(mult))
	}
	for r := 0; r < g.Rows; r++ {
		pat := uint64(0xaaaaaaaaaaaaaaaa)
		if r%2 == 1 {
			pat = 0x5555555555555555
		}
		dev.FillPhysRow(0, r, pat)
	}
	return &hammerSystem{dev: dev, ctrl: ctrl, dm: dm}
}

// compareSystems requires bit-identical controller time, stats, energy
// and memory contents.
func compareSystems(t *testing.T, a, b *hammerSystem, ctx string) {
	t.Helper()
	if a.ctrl.Now() != b.ctrl.Now() {
		t.Fatalf("%s: now: batched %d, naive %d", ctx, a.ctrl.Now(), b.ctrl.Now())
	}
	if a.ctrl.Stats != b.ctrl.Stats {
		t.Fatalf("%s: controller stats:\nbatched %+v\nnaive   %+v", ctx, a.ctrl.Stats, b.ctrl.Stats)
	}
	if a.dev.Stats != b.dev.Stats {
		t.Fatalf("%s: device stats:\nbatched %+v\nnaive   %+v", ctx, a.dev.Stats, b.dev.Stats)
	}
	if a.dm.TotalFlips() != b.dm.TotalFlips() {
		t.Fatalf("%s: flips: batched %d, naive %d", ctx, a.dm.TotalFlips(), b.dm.TotalFlips())
	}
	g := a.dev.Geom
	for bank := 0; bank < g.Banks; bank++ {
		if a.dev.OpenRow(bank) != b.dev.OpenRow(bank) {
			t.Fatalf("%s: open row bank %d: batched %d, naive %d", ctx, bank, a.dev.OpenRow(bank), b.dev.OpenRow(bank))
		}
		for row := 0; row < g.Rows; row++ {
			wa, wb := a.dev.PhysRowWords(bank, row), b.dev.PhysRowWords(bank, row)
			for c := range wa {
				if wa[c] != wb[c] {
					t.Fatalf("%s: bank %d row %d col %d: batched %#x, naive %#x", ctx, bank, row, c, wa[c], wb[c])
				}
			}
			if a.dev.LastRestore(bank, row) != b.dev.LastRestore(bank, row) {
				t.Fatalf("%s: lastRestore bank %d row %d: batched %d, naive %d",
					ctx, bank, row, a.dev.LastRestore(bank, row), b.dev.LastRestore(bank, row))
			}
		}
	}
}

func naiveHammerPairs(c *Controller, bank, rowA, rowB, pairs int) {
	coA := Coord{Bank: bank, Row: rowA}
	coB := Coord{Bank: bank, Row: rowB}
	for i := 0; i < pairs; i++ {
		c.AccessRanked(0, coA, false, 0)
		c.AccessRanked(0, coB, false, 0)
	}
}

func TestHammerPairsMatchesAccessLoop(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 4}
	for _, tc := range []struct {
		name          string
		withRetention bool
		mult          float64
	}{
		{"disturb-only", false, 1},
		{"with-retention", true, 1},
		{"refresh-2x", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast := newHammerSystem(t, g, 11, tc.withRetention, tc.mult)
			slow := newHammerSystem(t, g, 11, tc.withRetention, tc.mult)
			// Sweep several victims with bursts long enough to span
			// many auto-refresh commands (one REF per ~159 accesses).
			for v := 1; v < g.Rows-1; v += 9 {
				fast.ctrl.HammerPairsRanked(0, 0, v-1, v+1, 2000)
				naiveHammerPairs(slow.ctrl, 0, v-1, v+1, 2000)
			}
			if fast.ctrl.Stats.AutoRefreshes == 0 {
				t.Fatal("no auto-refresh during sweep; test is vacuous")
			}
			if fast.dm.TotalFlips() == 0 {
				t.Fatal("no flips during sweep; test is vacuous")
			}
			// An attached RefreshScaling is passive: it must not push
			// the kernel off its closed-form path.
			if fast.ctrl.KernelCounters().Batched == 0 {
				t.Fatal("no batched accesses; the kernel stepped the whole sweep")
			}
			compareSystems(t, fast, slow, tc.name)
		})
	}
}

func TestHammerPairsWithRemap(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 4}
	build := func() *hammerSystem {
		s := newHammerSystem(t, g, 21, false, 1)
		s.dev.SetRemap(dram.RandomRemap(g.Rows, 0.3, rng.New(5)))
		return s
	}
	fast, slow := build(), build()
	for v := 1; v < g.Rows-1; v += 17 {
		fast.ctrl.HammerPairsRanked(0, 0, v-1, v+1, 1500)
		naiveHammerPairs(slow.ctrl, 0, v-1, v+1, 1500)
	}
	compareSystems(t, fast, slow, "remapped")
}

func TestHammerPairsWithMitigationFallsBack(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 4}
	build := func() *hammerSystem {
		s := newHammerSystem(t, g, 31, false, 1)
		s.ctrl.Attach(NewPARA(0.02, InDRAM, nil, rng.New(77)))
		return s
	}
	fast, slow := build(), build()
	for v := 1; v < g.Rows-1; v += 13 {
		fast.ctrl.HammerPairsRanked(0, 0, v-1, v+1, 800)
		naiveHammerPairs(slow.ctrl, 0, v-1, v+1, 800)
	}
	// With PARA attached the kernel runs its quiet stretches in closed
	// form and steps the activations it acts on; every RNG draw and
	// refresh must match the access loop.
	compareSystems(t, fast, slow, "PARA attached")
	if fast.ctrl.Stats.MitRefreshes == 0 {
		t.Fatal("PARA never fired; test is vacuous")
	}
}

func TestHammerPairsDegenerateCases(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 2}
	fast := newHammerSystem(t, g, 41, false, 1)
	slow := newHammerSystem(t, g, 41, false, 1)
	// Same row on both sides: row hits, no conflicts.
	fast.ctrl.HammerPairsRanked(0, 0, 7, 7, 100)
	naiveHammerPairs(slow.ctrl, 0, 7, 7, 100)
	// Zero pairs: no-op.
	fast.ctrl.HammerPairsRanked(0, 0, 1, 3, 0)
	compareSystems(t, fast, slow, "degenerate")
}
