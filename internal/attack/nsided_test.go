package attack

import (
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/rng"
)

func TestNSidedPatternShape(t *testing.T) {
	aggr := NSidedAggressors(10, 4)
	want := []int{10, 12, 14, 16}
	for i, r := range want {
		if aggr[i] != r {
			t.Fatalf("aggressors = %v, want %v", aggr, want)
		}
	}
	vict := NSidedVictims(10, 4)
	wantV := []int{11, 13, 15}
	for i, r := range wantV {
		if vict[i] != r {
			t.Fatalf("victims = %v, want %v", vict, wantV)
		}
	}
	decoys := DecoyRows(64, 3)
	if len(decoys) != 3 || decoys[0] != 62 || decoys[1] != 60 || decoys[2] != 58 {
		t.Fatalf("decoys = %v", decoys)
	}
}

// TestNSidedTwoSidedMatchesHammerPairs pins the hot-path reuse: the
// decoy-free two-sided kernel must be bit-identical to the batched
// HammerPairsRanked sweep — stats, clock and flips.
func TestNSidedTwoSidedMatchesHammerPairs(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 4}
	build := func() (*memctrl.Controller, *disturb.Model) {
		dev := dram.NewDevice(g)
		m := disturb.NewPlanted(g)
		m.InjectWeakCell(0, 61, 7, 2000, 1, 1, 1, 1)
		dev.AttachFault(m)
		dev.SetPhysBit(0, 61, 7, 1)
		return memctrl.New(dev, memctrl.Config{}), m
	}
	a, dmA := build()
	b, dmB := build()
	a.HammerPairsRanked(0, 0, 60, 62, 5000)
	NSidedRanked(b, 0, 0, NSidedAggressors(60, 2), nil, 5000)
	if a.Stats != b.Stats || a.Now() != b.Now() {
		t.Fatalf("2-sided NSided diverged from HammerPairs:\n%+v t=%d\n%+v t=%d",
			a.Stats, a.Now(), b.Stats, b.Now())
	}
	if dmA.TotalFlips() != dmB.TotalFlips() || dmA.TotalFlips() == 0 {
		t.Fatalf("flips %d vs %d", dmA.TotalFlips(), dmB.TotalFlips())
	}
}

// nsidedRig builds a bank with one injected victim per interior even
// row (the rows the odd-anchored N-sided probes sandwich), all with
// the same threshold, behind a TRR sampler — the setting where
// sidedness decides success: an aggressively sampling but
// capacity-limited sampler holds a double-sided pair perfectly (its
// two slots always contain the two aggressors at each REF) yet holds
// only the last two samples of a wide pattern, leaving most victims
// unrefreshed.
func nsidedRig(entries int, sampleP float64, threshold float64) (*memctrl.Controller, *dram.Device) {
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 4}
	dev := dram.NewDevice(g)
	m := disturb.NewPlanted(g)
	for v := 4; v < g.Rows-8; v += 2 {
		m.InjectWeakCell(0, v, 1, threshold, 1, 1, 1, 1)
	}
	dev.AttachFault(m)
	ctrl := memctrl.New(dev, memctrl.Config{})
	ctrl.Attach(memctrl.NewTRR(entries, sampleP, rng.New(11)))
	return ctrl, dev
}

// TestAdaptiveNSidedDefeatsSampler runs the adaptive probe against a
// small TRR sampler and checks (a) the probe is deterministic, (b) the
// chosen sidedness actually flips victims while the classic
// double-sided probe is held, reproducing the TRRespass observation.
func TestAdaptiveNSidedDefeatsSampler(t *testing.T) {
	run := func() (int, []SidednessProbe) {
		ctrl, _ := nsidedRig(2, 0.1, 300)
		s := &AdaptiveStrategy{Sweep: []int{2, 4, 8, 16}, Decoys: 2, Budget: 120000}
		s.Probe(Target{Ctrl: ctrl, Pattern: 0xaaaaaaaaaaaaaaaa})
		return s.BestSides(), s.Probes()
	}
	best, probes := run()
	best2, probes2 := run()
	if best != best2 || len(probes) != len(probes2) {
		t.Fatalf("adaptive probe nondeterministic: %d vs %d", best, best2)
	}
	for i := range probes {
		if probes[i] != probes2[i] {
			t.Fatalf("probe %d differs across runs: %+v vs %+v", i, probes[i], probes2[i])
		}
	}
	if best <= 2 {
		t.Fatalf("adaptive attacker chose %d sides against a 2-entry sampler; probes %+v", best, probes)
	}
	byS := map[int]int{}
	for _, p := range probes {
		byS[p.Sides] = p.Flips
	}
	if byS[best] == 0 {
		t.Fatalf("winning sidedness flipped nothing: %+v", probes)
	}
	if byS[2] >= byS[best] {
		t.Fatalf("double-sided (%d flips) not beaten by %d-sided (%d flips)", byS[2], best, byS[best])
	}
}

// TestCrossBankNSidedShardInvariant proves the campaign kernel is
// bit-identical across worker counts, like CrossBankHammer.
func TestCrossBankNSidedShardInvariant(t *testing.T) {
	topo := dram.Topology{Channels: 2, Ranks: 2, Geom: dram.Geometry{Banks: 2, Rows: 64, Cols: 2}}
	build := func() (*memctrl.MemorySystem, []*disturb.Model) {
		var dms []*disturb.Model
		devs := make([][]*dram.Device, topo.Channels)
		for ch := 0; ch < topo.Channels; ch++ {
			for rk := 0; rk < topo.Ranks; rk++ {
				dev := dram.NewDevice(topo.Geom)
				p := disturb.DefaultParams()
				p.ThresholdMedian = 1500
				p.MinThreshold = 500
				p.WeakCellFraction = 2e-2
				dm := disturb.NewModel(topo.Geom, p, rng.New(5+uint64(ch*topo.Ranks+rk)))
				dev.AttachFault(dm)
				for b := 0; b < topo.Geom.Banks; b++ {
					for r := 0; r < topo.Geom.Rows; r++ {
						dev.FillPhysRow(b, r, 0xaaaaaaaaaaaaaaaa)
					}
				}
				devs[ch] = append(devs[ch], dev)
				dms = append(dms, dm)
			}
		}
		return memctrl.NewSystem(devs, memctrl.RowInterleaved{Topo: topo}, memctrl.Config{}), dms
	}
	var bases []memctrl.Loc
	for ch := 0; ch < topo.Channels; ch++ {
		for rk := 0; rk < topo.Ranks; rk++ {
			for b := 0; b < topo.Geom.Banks; b++ {
				for _, row := range []int{9, 25, 41} {
					bases = append(bases, memctrl.Loc{Channel: ch, Rank: rk, Bank: b, Row: row})
				}
			}
		}
	}
	serial, serialDMs := build()
	sharded, shardedDMs := build()
	CrossBankNSided(serial, bases, 4, 2, 6000, 1)
	CrossBankNSided(sharded, bases, 4, 2, 6000, 4)
	var flips int64
	for i := range serialDMs {
		if a, b := serialDMs[i].TotalFlips(), shardedDMs[i].TotalFlips(); a != b {
			t.Fatalf("device %d flips %d vs %d", i, a, b)
		}
		flips += serialDMs[i].TotalFlips()
	}
	if flips == 0 {
		t.Fatal("campaign flipped nothing; invariance test is vacuous")
	}
	for ch := 0; ch < topo.Channels; ch++ {
		a, b := serial.Controller(ch), sharded.Controller(ch)
		if a.Stats != b.Stats || a.Now() != b.Now() {
			t.Fatalf("channel %d diverged", ch)
		}
	}
}
