package attack

import (
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/rng"
)

// rig builds a 1-bank device with explicitly injected weak cells.
type rig struct {
	ctrl *memctrl.Controller
	dist *disturb.Model
	dev  *dram.Device
}

func newRig(rows int, inject func(m *disturb.Model)) *rig {
	g := dram.Geometry{Banks: 1, Rows: rows, Cols: 4}
	dev := dram.NewDevice(g)
	m := disturb.NewPlanted(g)
	inject(m)
	dev.AttachFault(m)
	ctrl := memctrl.New(dev, memctrl.Config{})
	return &rig{ctrl: ctrl, dist: m, dev: dev}
}

func TestDoubleSidedFlipsInjectedCell(t *testing.T) {
	r := newRig(64, func(m *disturb.Model) {
		m.InjectWeakCell(0, 30, 5, 1000, 1, 1, 1, 1)
	})
	r.dev.SetPhysBit(0, 30, 5, 1)
	r.ctrl.HammerPairsRanked(0, 0, 29, 31, 2000)
	if r.dev.PhysBit(0, 30, 5) != 0 {
		t.Fatal("double-sided hammer missed the victim")
	}
}

func TestSingleSidedSlowerThanDoubleSided(t *testing.T) {
	// With per-side weight 1 each, double-sided accumulates 2 units
	// per pair while single-sided accumulates 1: a threshold of 1500
	// is reachable by 1000 double pairs but not 1000 single pairs.
	mk := func() *rig {
		r := newRig(64, func(m *disturb.Model) {
			m.InjectWeakCell(0, 30, 5, 1500, 1, 1, 1, 1)
		})
		r.dev.SetPhysBit(0, 30, 5, 1)
		return r
	}
	rd := mk()
	rd.ctrl.HammerPairsRanked(0, 0, 29, 31, 1000)
	if rd.dev.PhysBit(0, 30, 5) != 0 {
		t.Fatal("double-sided should have flipped at 1000 pairs")
	}
	rs := mk()
	rs.ctrl.HammerPairsRanked(0, 0, 29, 60, 1000)
	if rs.dev.PhysBit(0, 30, 5) != 1 {
		t.Fatal("single-sided flipped despite sub-threshold pressure")
	}
}

func TestManySidedTouchesAllVictims(t *testing.T) {
	victims := []int{10, 20, 30, 40}
	r := newRig(64, func(m *disturb.Model) {
		for _, v := range victims {
			m.InjectWeakCell(0, v, 1, 500, 1, 1, 1, 1)
		}
	})
	for _, v := range victims {
		r.dev.SetPhysBit(0, v, 1, 1)
	}
	var aggrs []int
	for _, v := range victims {
		aggrs = append(aggrs, v-1, v+1)
	}
	r.ctrl.HammerRowsRanked(0, 0, aggrs, 600)
	for _, v := range victims {
		if r.dev.PhysBit(0, v, 1) != 0 {
			t.Fatalf("victim %d survived many-sided attack", v)
		}
	}
}

// oneBankSystem is the single-bank setting on the system API: one
// channel, one rank, one bank of the given rows under row
// interleaving, where flat frame i is row i.
func oneBankSystem(rows int, inject func(m *disturb.Model)) *memctrl.MemorySystem {
	topo := dram.SingleChannel(dram.Geometry{Banks: 1, Rows: rows, Cols: 4})
	return sysRig(topo, memctrl.RowInterleaved{Topo: topo}, false, func(_ int, m *disturb.Model) { inject(m) })
}

func TestScanFindsInjectedTemplates(t *testing.T) {
	ms := oneBankSystem(32, func(m *disturb.Model) {
		m.InjectWeakCell(0, 10, 7, 800, 1, 1, 1, 1)  // true-cell: flips under all-ones
		m.InjectWeakCell(0, 20, 99, 800, 0, 1, 1, 1) // anti-cell: invisible under all-ones
	})
	tmpl := ScanSystem(ms, ^uint64(0), 1200, 1)
	if len(tmpl) != 1 {
		t.Fatalf("found %d templates, want exactly 1 (anti-cell invisible under 0xff)", len(tmpl))
	}
	got := tmpl[0]
	if got.Victim.Bank != 0 || got.Victim.Row != 10 || got.Bit != 7 || got.From != 1 {
		t.Fatalf("template = %+v", got)
	}
	p := ms.Policy()
	if below, above := p.Decode(got.AggrBelow), p.Decode(got.AggrAbove); below.Row != 9 || above.Row != 11 {
		t.Fatalf("aggressors = %d/%d", below.Row, above.Row)
	}
}

func TestScanZeroPatternFindsAntiCells(t *testing.T) {
	ms := oneBankSystem(32, func(m *disturb.Model) {
		m.InjectWeakCell(0, 20, 99, 800, 0, 1, 1, 1)
	})
	tmpl := ScanSystem(ms, 0, 1200, 1)
	if len(tmpl) != 1 || tmpl[0].From != 0 {
		t.Fatalf("anti-cell scan failed: %+v", tmpl)
	}
}

func TestScanCleanDeviceFindsNothing(t *testing.T) {
	ms := oneBankSystem(32, func(m *disturb.Model) {})
	if tmpl := ScanSystem(ms, ^uint64(0), 500, 1); len(tmpl) != 0 {
		t.Fatalf("clean device produced %d templates", len(tmpl))
	}
}

func TestMakePTE(t *testing.T) {
	pte := MakePTE(0x12345)
	if pte&PTEValid == 0 || pte&PTEWritable == 0 {
		t.Fatal("flags missing")
	}
	if pte&PFNMask != 0x12345 {
		t.Fatalf("PFN = %x", pte&PFNMask)
	}
	if MakePTE(1<<25)&PFNMask != 0 {
		t.Fatal("PFN not masked")
	}
}

func TestPrivEscSucceedsOnVulnerableDevice(t *testing.T) {
	// Weak cell in the PFN field (bit 3 of PTE slot 0) of row 15.
	ms := oneBankSystem(64, func(m *disturb.Model) {
		m.InjectWeakCell(0, 15, 3, 800, 1, 1, 1, 1)
	})
	cfg := SysPrivEscConfig{
		SprayFraction: 0.5, PairsPerAttempt: 1200,
		MaxPlacements: 60, Workers: 1,
	}
	res := RunPrivEscSystem(ms, cfg, rng.New(7))
	if res.TemplatesFound == 0 || !res.UsableTemplate {
		t.Fatalf("templating failed: %+v", res)
	}
	if !res.FlipInduced {
		t.Fatalf("no flip induced: %+v", res)
	}
	if !res.Escalated {
		t.Fatalf("escalation failed despite flips: %+v", res)
	}
}

func TestPrivEscDeterministicPlacementGuaranteesFlip(t *testing.T) {
	// With a single placement allowed, Drammer-style deterministic
	// placement always lands the page table on the victim frame, so a
	// flip is always induced; probabilistic spraying at 10% usually
	// misses the victim frame on one try.
	mk := func(det bool, seed uint64) SysPrivEscResult {
		ms := oneBankSystem(64, func(m *disturb.Model) {
			m.InjectWeakCell(0, 15, 3, 800, 1, 1, 1, 1)
		})
		return RunPrivEscSystem(ms, SysPrivEscConfig{
			SprayFraction: 0.1, PairsPerAttempt: 1200,
			MaxPlacements: 1, Deterministic: det, Workers: 1,
		}, rng.New(seed))
	}
	if det := mk(true, 3); !det.FlipInduced {
		t.Fatalf("deterministic placement induced no flip: %+v", det)
	}
	misses := 0
	for seed := uint64(0); seed < 10; seed++ {
		if r := mk(false, seed); !r.FlipInduced {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("random 10%% spray never missed in 10 single-placement tries; placement model broken")
	}
}

func TestPrivEscFailsOnInvulnerableDevice(t *testing.T) {
	ms := oneBankSystem(64, func(m *disturb.Model) {})
	res := RunPrivEscSystem(ms, SysPrivEscConfig{
		SprayFraction: 0.5, PairsPerAttempt: 500, MaxPlacements: 5, Workers: 1,
	}, rng.New(9))
	if res.TemplatesFound != 0 || res.Escalated {
		t.Fatalf("escalated on invulnerable device: %+v", res)
	}
}

func TestPrivEscFailsUnderPARA(t *testing.T) {
	ms := oneBankSystem(64, func(m *disturb.Model) {
		m.InjectWeakCell(0, 15, 3, 800, 1, 1, 1, 1)
	})
	ms.Controller(0).Attach(memctrl.NewPARA(0.05, memctrl.InDRAM, nil, rng.New(11)))
	res := RunPrivEscSystem(ms, SysPrivEscConfig{
		SprayFraction: 0.5, PairsPerAttempt: 1200, MaxPlacements: 20, Workers: 1,
	}, rng.New(13))
	if res.Escalated {
		t.Fatalf("escalated despite PARA: %+v", res)
	}
}

func TestCrossVMBreachesIsolation(t *testing.T) {
	ms := oneBankSystem(64, func(m *disturb.Model) {
		// Victim rows 19 and 40 sit just outside the attacker range
		// [20, 40); their aggressors include attacker rows 20 and 39.
		m.InjectWeakCell(0, 19, 8, 1000, 1, 1, 1, 1)
		m.InjectWeakCell(0, 40, 9, 1000, 1, 1, 1, 1)
	})
	res := RunCrossVMSystem(ms, SysCrossVMConfig{FrameLo: 20, FrameHi: 40, Pairs: 2500, VictimPattern: ^uint64(0)})
	if res.AttackerRows != 20 || res.ContestedRows != 0 {
		t.Fatalf("row split %d/%d/%d, want 20 attacker rows, none contested",
			res.AttackerRows, res.VictimRows, res.ContestedRows)
	}
	if res.VictimFlips == 0 {
		t.Fatal("no victim corruption; VM isolation held unexpectedly")
	}
}

func TestCrossVMCleanDeviceNoFlips(t *testing.T) {
	ms := oneBankSystem(64, func(m *disturb.Model) {})
	res := RunCrossVMSystem(ms, SysCrossVMConfig{FrameLo: 20, FrameHi: 40, Pairs: 1000, VictimPattern: 0xaaaaaaaaaaaaaaaa})
	if res.VictimFlips != 0 {
		t.Fatalf("phantom flips: %d", res.VictimFlips)
	}
}
