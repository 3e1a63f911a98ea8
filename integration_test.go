package repro

// Cross-module integration tests: each test exercises an end-to-end
// story through several packages, complementing the per-package unit
// tests.

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/memctrl"
	"repro/internal/modules"
	"repro/internal/rng"
	"repro/internal/softmc"
	"repro/internal/workload"
)

// pick2013 returns a vulnerable 2013-class module with thresholds
// scaled for fast simulation.
func pick2013(t *testing.T, scale float64) modules.Module {
	t.Helper()
	for _, m := range Population(1) {
		if m.Year == 2013 && m.Vulnerable() {
			m.Vuln.MinThreshold /= scale
			m.Vuln.ThresholdMedian /= scale
			return m
		}
	}
	t.Fatal("no 2013 module")
	return modules.Module{}
}

func TestIntegrationRetentionSafeUnderAutoRefresh(t *testing.T) {
	// The controller's auto-refresh engine must keep every
	// pattern-independent weak cell alive at the nominal rate. Cells
	// with data-pattern-dependent retention may still fail in-spec
	// when their neighbours hold adversarial data — that is the
	// paper's screening-escape phenomenon (E11), not a refresh bug —
	// so the assertion covers the non-DPD population.
	m := pick2013(t, 1)
	s := core.Build(&m, core.Options{Topology: dram.SingleChannel(dram.Geometry{Banks: 1, Rows: 512, Cols: 8})})
	dev, rm := s.Mem.Device(0, 0), s.Retentions[0][0]
	for _, c := range rm.Cells() {
		dev.SetPhysBit(c.Bank, c.PhysRow, c.Bit, c.ChargedVal)
	}
	s.Mem.Controller(0).AdvanceTo(1 * dram.Second)
	for _, c := range rm.Cells() {
		if c.DPD {
			continue
		}
		if dev.PhysBit(c.Bank, c.PhysRow, c.Bit) != c.ChargedVal {
			t.Fatalf("non-DPD cell %+v decayed under nominal auto-refresh", c)
		}
	}
}

func TestIntegrationRetentionFailsWithoutRefresh(t *testing.T) {
	m := pick2013(t, 1)
	s := core.Build(&m, core.Options{
		Topology:       dram.SingleChannel(dram.Geometry{Banks: 1, Rows: 512, Cols: 8}),
		DisableRefresh: true,
	})
	dev, ctrl, rm := s.Mem.Device(0, 0), s.Mem.Controller(0), s.Retentions[0][0]
	cells := rm.Cells()
	if len(cells) == 0 {
		t.Skip("no weak retention cells in this instantiation")
	}
	for _, c := range cells {
		dev.SetPhysBit(c.Bank, c.PhysRow, c.Bit, c.ChargedVal)
	}
	ctrl.AdvanceTo(100 * dram.Second)
	// Touch every row so lazy decay is applied and locked in.
	for r := 0; r < 512; r++ {
		dev.RefreshPhysRow(0, r, ctrl.Now())
	}
	if rm.Decays() == 0 {
		t.Fatal("no decays after 100 s without refresh")
	}
}

func TestIntegrationTemplatingMatchesGroundTruth(t *testing.T) {
	// Every template the attacker finds must correspond to a real
	// weak cell (no phantom flips), linking attack.ScanSystem, memctrl
	// and disturb.
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 4}
	dev := dram.NewDevice(g)
	dm := disturb.NewPlanted(g)
	weak := map[[2]int]bool{}
	for _, w := range []struct{ row, bit int }{{20, 5}, {40, 77}, {60, 130}} {
		dm.InjectWeakCell(0, w.row, w.bit, 900, 1, 1, 1, 1)
		weak[[2]int{w.row, w.bit}] = true
	}
	dev.AttachFault(dm)
	topo := dram.SingleChannel(g)
	ms := memctrl.NewSystem([][]*dram.Device{{dev}}, memctrl.RowInterleaved{Topo: topo}, memctrl.Config{})
	templates := attack.ScanSystem(ms, ^uint64(0), 1500, 1)
	if len(templates) != len(weak) {
		t.Fatalf("found %d templates, want %d", len(templates), len(weak))
	}
	for _, tm := range templates {
		if !weak[[2]int{tm.Victim.Row, tm.Bit}] {
			t.Fatalf("phantom template %+v", tm)
		}
	}
}

func TestIntegrationSECDEDStopsSingleBitHammer(t *testing.T) {
	// A system-level ECC story: hammer flips one bit in a victim word;
	// SECDED recovers the data on read-out.
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 4}
	dev := dram.NewDevice(g)
	dm := disturb.NewPlanted(g)
	dm.InjectWeakCell(0, 30, 7, 800, 1, 1, 1, 1)
	dev.AttachFault(dm)
	ctrl := memctrl.New(dev, memctrl.Config{})
	data := uint64(0xfeedfacecafef00d) | (1 << 7) // charged at the weak bit
	ctrl.AccessRanked(0, memctrl.Coord{Bank: 0, Row: 30, Col: 0}, true, data)
	ctrl.HammerPairsRanked(0, 0, 29, 31, 2000)
	got, _ := ctrl.AccessRanked(0, memctrl.Coord{Bank: 0, Row: 30, Col: 0}, false, 0)
	if got == data {
		t.Fatal("hammer did not flip the stored word")
	}
	// The stored word: corrupted data bits, with the check bits of the
	// written data held in a separate device the hammer did not touch.
	decoded, outcome := ecc.ClassifyData(data, got)
	if outcome != ecc.Corrected || decoded != data {
		t.Fatalf("SECDED failed to recover: outcome=%v", outcome)
	}
}

func TestIntegrationSoftMCAgreesWithController(t *testing.T) {
	// The same hammer dose expressed as controller accesses and as a
	// SoftMC program must flip the same injected victim.
	run := func(useSoftMC bool) bool {
		g := dram.Geometry{Banks: 1, Rows: 64, Cols: 4}
		dev := dram.NewDevice(g)
		dm := disturb.NewPlanted(g)
		dm.InjectWeakCell(0, 30, 9, 1000, 1, 1, 1, 1)
		dev.AttachFault(dm)
		dev.SetPhysBit(0, 30, 9, 1)
		if useSoftMC {
			e := softmc.NewEngine(dev, 0)
			e.Run(softmc.HammerProgram(0, 29, 31, 1200))
		} else {
			ctrl := memctrl.New(dev, memctrl.Config{DisableRefresh: true})
			ctrl.HammerPairsRanked(0, 0, 29, 31, 1200)
		}
		return dev.PhysBit(0, 30, 9) == 0
	}
	if !run(false) || !run(true) {
		t.Fatal("controller path and SoftMC path disagree on the same hammer dose")
	}
}

func TestIntegrationWorkloadsLeaveDataIntactOnCleanModule(t *testing.T) {
	// Memory isolation holds on an invulnerable module: a write-heavy
	// random workload over a device with retention+refresh running
	// must read back exactly what it wrote (checked via shadow copy).
	var clean modules.Module
	for _, m := range Population(1) {
		if !m.Vulnerable() {
			clean = m
			break
		}
	}
	s := core.Build(&clean, core.Options{Topology: dram.SingleChannel(dram.Geometry{Banks: 2, Rows: 128, Cols: 8})})
	src := rng.New(11)
	shadow := map[uint64]uint64{}
	gen := workload.NewFlatRandom(s.Mem.Policy(), 0.5, src)
	for i := 0; i < 30000; i++ {
		a := gen.NextFlat()
		if a.Write {
			s.Mem.Access(a.Addr, true, a.Data)
			shadow[a.Addr] = a.Data
		} else if want, ok := shadow[a.Addr]; ok {
			got, _ := s.Mem.Access(a.Addr, false, 0)
			if got != want {
				t.Fatalf("isolation violated at %+v: got %x want %x", s.Mem.Policy().Decode(a.Addr), got, want)
			}
		}
	}
}

func TestIntegrationCrossVMThenMitigated(t *testing.T) {
	m := pick2013(t, 50)
	run := func(para bool) int {
		s := core.Build(&m, core.Options{Topology: dram.SingleChannel(dram.Geometry{Banks: 1, Rows: 256, Cols: 8})})
		if para {
			s.AttachPARA(0.02, memctrl.InDRAM, rng.New(13))
		}
		// One bank of 256 rows: flat frame i is row i, so the attacker
		// owns rows [64, 192) and hammers rows 64 and 191.
		res := attack.RunCrossVMSystem(s.Mem, attack.SysCrossVMConfig{
			FrameLo: 64, FrameHi: 192, Pairs: 40000, VictimPattern: ^uint64(0),
		})
		return res.VictimFlips
	}
	unprotected := run(false)
	if unprotected == 0 {
		t.Skip("no boundary victims in this instantiation")
	}
	if protectedFlips := run(true); protectedFlips != 0 {
		t.Fatalf("PARA left %d cross-VM flips", protectedFlips)
	}
}
