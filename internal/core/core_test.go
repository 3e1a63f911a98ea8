package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/modules"
	"repro/internal/rng"
)

func vulnerableModule(t *testing.T) *modules.Module {
	t.Helper()
	pop := modules.Population(1)
	for i := range pop {
		if pop[i].Year == 2013 && pop[i].Vulnerable() {
			return &pop[i]
		}
	}
	t.Fatal("no vulnerable 2013 module")
	return nil
}

func TestBuildDefaults(t *testing.T) {
	s := Build(vulnerableModule(t), Options{})
	if s.Topo != dram.SingleChannel(DefaultGeom()) || s.Mem.Device(0, 0).Geom != DefaultGeom() {
		t.Fatal("default geometry not applied")
	}
	if s.Mem.Controller(0) == nil || s.Disturbs[0][0] == nil || s.Retentions[0][0] == nil {
		t.Fatal("incomplete system")
	}
}

func TestBuildWithRemap(t *testing.T) {
	s := Build(vulnerableModule(t), Options{RemapFraction: 0.1})
	rt := s.Mem.Device(0, 0).Remap()
	if slices.Equal(rt.PhysSlice(), dram.IdentityRemap(rt.Rows()).PhysSlice()) {
		t.Fatal("remap fraction ignored")
	}
}

func TestAttachPARAWithSPD(t *testing.T) {
	s := Build(vulnerableModule(t), Options{RemapFraction: 0.1})
	para := s.AttachPARA(0.01, memctrl.InControllerWithSPD, rng.New(1))
	if para.Oracle == nil {
		t.Fatal("SPD oracle not wired")
	}
	if len(s.Mem.Controller(0).Mitigations()) != 1 {
		t.Fatal("mitigation not attached")
	}
}

func TestPARAFailureProbabilityBounds(t *testing.T) {
	if got := PARAFailureProbability(0, 1000); got != 1 {
		t.Errorf("p=0 should never protect: %v", got)
	}
	if got := PARAFailureProbability(2, 1000); got != 0 {
		t.Errorf("p=2 always refreshes both sides: %v", got)
	}
	q := PARAFailureProbability(0.001, 139000)
	// (1-0.0005)^139000 = e^{-69.5} ~ 6e-31.
	if q > 1e-29 || q < 1e-32 {
		t.Errorf("PARA(0.001) escape probability = %v, want ~6e-31", q)
	}
}

func TestPARAFailureProbabilityMonotone(t *testing.T) {
	prev := 1.0
	for _, p := range []float64{0.0001, 0.001, 0.01, 0.1} {
		q := PARAFailureProbability(p, 139000)
		if q >= prev {
			t.Fatalf("escape probability not decreasing at p=%v", p)
		}
		prev = q
	}
}

func TestPARABeatsHardDisks(t *testing.T) {
	// The paper's headline: PARA with small p gives far better
	// reliability than hard disks. Max activation rate ~ 1/tRC.
	actRate := 1e9 / 49.0
	years := PARAExpectedYearsToFailure(0.001, 139000, actRate)
	if years < 1e6*HardDiskMTTFYears {
		t.Fatalf("PARA MTTF %v years not >> disk %v years", years, HardDiskMTTFYears)
	}
}

func TestPARAInfiniteWhenImpossible(t *testing.T) {
	if !math.IsInf(PARAExpectedYearsToFailure(2, 1000, 1e7), 1) {
		t.Fatal("certain refresh should give infinite MTTF")
	}
}

func TestRefreshBurdenGrowsWithDensity(t *testing.T) {
	tm := dram.DefaultTiming()
	en := dram.DefaultEnergy()
	prevLoss, prevPower := -1.0, -1.0
	for _, rows := range []int{8192, 32768, 131072, 524288} {
		b := ComputeRefreshBurden(tm, en, 8, rows, 1)
		if b.ThroughputLossFrac <= prevLoss {
			t.Fatalf("throughput loss not growing at %d rows", rows)
		}
		if b.RefreshPowerW <= prevPower {
			t.Fatalf("refresh power not growing at %d rows", rows)
		}
		prevLoss, prevPower = b.ThroughputLossFrac, b.RefreshPowerW
	}
}

func TestRefreshBurdenMultiplierScales(t *testing.T) {
	tm := dram.DefaultTiming()
	en := dram.DefaultEnergy()
	b1 := ComputeRefreshBurden(tm, en, 8, 65536, 1)
	b7 := ComputeRefreshBurden(tm, en, 8, 65536, 7)
	ratio := b7.ThroughputLossFrac / b1.ThroughputLossFrac
	if ratio < 6.9 || ratio > 7.1 {
		t.Fatalf("7x refresh multiplier scaled loss by %v", ratio)
	}
}

func TestRefreshBurdenCapped(t *testing.T) {
	tm := dram.DefaultTiming()
	en := dram.DefaultEnergy()
	b := ComputeRefreshBurden(tm, en, 8, 1<<24, 100)
	if b.ThroughputLossFrac > 1 {
		t.Fatal("loss fraction above 1")
	}
}

func TestFITConversion(t *testing.T) {
	if FITFromMTTFYears(math.Inf(1)) != 0 {
		t.Fatal("infinite MTTF should be 0 FIT")
	}
	// 114 years ~ 1e6 hours -> 1000 FIT.
	fit := FITFromMTTFYears(114)
	if fit < 900 || fit > 1100 {
		t.Fatalf("FIT(114y) = %v, want ~1000", fit)
	}
}

// TestBuildTopologyShape checks the shape of a multi-channel build
// (one controller per channel, one fault-model pair per device) and
// that its devices draw independent physics substreams.
func TestBuildTopologyShape(t *testing.T) {
	topo := dram.Topology{Channels: 2, Ranks: 2, Geom: dram.Geometry{Banks: 2, Rows: 64, Cols: 4}}
	s := Build(vulnerableModule(t), Options{Topology: topo, Mapping: "xor"})
	if s.Mem.Channels() != 2 || len(s.Disturbs) != 2 || len(s.Disturbs[0]) != 2 || len(s.Retentions[1]) != 2 {
		t.Fatalf("topology shape wrong: %d channels, %d disturb channels", s.Mem.Channels(), len(s.Disturbs))
	}
	if s.Mem.Policy().Name() != "xor-bank-hash" {
		t.Fatalf("mapping not applied: %s", s.Mem.Policy().Name())
	}
	// Devices must draw independent physics substreams.
	if s.Disturbs[0][0].WeakCellCount() == 0 {
		t.Fatal("no weak cells on device 0; substream test is vacuous")
	}
	same := true
	for ch := range s.Disturbs {
		for rk := range s.Disturbs[ch] {
			if ch == 0 && rk == 0 {
				continue
			}
			if s.Disturbs[ch][rk].WeakCellCount() != s.Disturbs[0][0].WeakCellCount() {
				same = false
			}
		}
	}
	if same {
		t.Fatal("all devices have identical weak-cell counts; substreams look cloned")
	}
}
