package attack

import (
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/rng"
)

// sysRig builds a multi-channel system under the given policy with
// explicitly injected weak cells; withECC attaches SECDED(72,64) to
// every controller.
func sysRig(topo dram.Topology, policy memctrl.MappingPolicy, withECC bool,
	inject func(ch int, m *disturb.Model)) *memctrl.MemorySystem {
	devs := make([][]*dram.Device, topo.Channels)
	for ch := 0; ch < topo.Channels; ch++ {
		for rk := 0; rk < topo.Ranks; rk++ {
			dev := dram.NewDevice(topo.Geom)
			m := disturb.NewPlanted(topo.Geom)
			if inject != nil {
				inject(ch, m)
			}
			dev.AttachFault(m)
			devs[ch] = append(devs[ch], dev)
		}
	}
	cfg := memctrl.Config{}
	if withECC {
		cfg.ECC = memctrl.ECCConfig{Kind: memctrl.ECCSECDED72}
	}
	return memctrl.NewSystem(devs, policy, cfg)
}

// privescTopo is small enough to scan quickly and has a power-of-two
// flat frame count (2ch x 1rk x 1bank x 64rows x 4cols -> 128 frames),
// so Drammer massaging is available.
var privescTopo = dram.Topology{Channels: 2, Ranks: 1, Geom: dram.Geometry{Banks: 1, Rows: 64, Cols: 4}}

// pfnWeakCell puts one weak cell in the PFN field (bit 3 of PTE slot
// 0) of channel 0 row 15 — the system-scale mirror of the legacy
// privesc rig.
func pfnWeakCell(ch int, m *disturb.Model) {
	if ch == 0 {
		m.InjectWeakCell(0, 15, 3, 800, 1, 1, 1, 1)
	}
}

func TestSysPrivEscEscalatesOnVulnerableTopology(t *testing.T) {
	policy, err := memctrl.PolicyByName("row", privescTopo)
	if err != nil {
		t.Fatal(err)
	}
	ms := sysRig(privescTopo, policy, false, pfnWeakCell)
	res := RunPrivEscSystem(ms, SysPrivEscConfig{
		SprayFraction: 0.5, PairsPerAttempt: 1200, MaxPlacements: 60, Workers: 2,
	}, rng.New(7))
	if res.TemplatesFound == 0 || !res.UsableTemplate {
		t.Fatalf("templating failed: %+v", res)
	}
	if !res.Escalated {
		t.Fatalf("escalation failed: %+v", res)
	}
	if res.Verdict != VerdictExploitable || !res.Verdict.Exploitable() {
		t.Fatalf("verdict %v, want EXPLOITABLE", res.Verdict)
	}
}

// TestSysPrivEscDeterministicAcrossRunsAndShards is the determinism
// audit pinned: for every mapping policy, the whole-campaign result is
// identical run-to-run at the same seed and invariant under the
// templating pass's worker count.
func TestSysPrivEscDeterministicAcrossRunsAndShards(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		for _, policy := range memctrl.Policies(privescTopo) {
			run := func(workers int) SysPrivEscResult {
				ms := sysRig(privescTopo, policy, false, pfnWeakCell)
				return RunPrivEscSystem(ms, SysPrivEscConfig{
					SprayFraction: 0.5, PairsPerAttempt: 1200, MaxPlacements: 8,
					Deterministic: true, Workers: workers,
				}, rng.New(seed))
			}
			a, b, sharded := run(1), run(1), run(4)
			if a != b {
				t.Fatalf("seed %d %s: run-to-run diverged:\n%+v\n%+v", seed, policy.Name(), a, b)
			}
			if a != sharded {
				t.Fatalf("seed %d %s: worker count leaked into result:\n%+v\n%+v",
					seed, policy.Name(), a, sharded)
			}
			if !a.FlipInduced {
				t.Fatalf("seed %d %s: deterministic placement induced no flip: %+v",
					seed, policy.Name(), a)
			}
		}
	}
}

// TestSysPrivEscECCCorrectedIsNotExploit pins the ECC-aware verdict:
// under SECDED a single-bit template flip is corrected on the read
// path, the attacker never sees a usable template, and the verdict is
// ecc-corrected — explicitly not exploitable.
func TestSysPrivEscECCCorrectedIsNotExploit(t *testing.T) {
	policy, err := memctrl.PolicyByName("row", privescTopo)
	if err != nil {
		t.Fatal(err)
	}
	ms := sysRig(privescTopo, policy, true, pfnWeakCell)
	res := RunPrivEscSystem(ms, SysPrivEscConfig{
		SprayFraction: 0.5, PairsPerAttempt: 1200, MaxPlacements: 10, Workers: 1,
	}, rng.New(7))
	if res.Escalated || res.UsableTemplate {
		t.Fatalf("SECDED should have corrected the single-bit template: %+v", res)
	}
	if res.ECCCorrected == 0 {
		t.Fatalf("no corrected events recorded; the rig never flipped: %+v", res)
	}
	if res.Verdict != VerdictECCCorrected || res.Verdict.Exploitable() {
		t.Fatalf("verdict %v, want ecc-corrected (not exploitable)", res.Verdict)
	}
}

func TestSysCrossVMBreachesIsolation(t *testing.T) {
	policy, err := memctrl.PolicyByName("row", privescTopo)
	if err != nil {
		t.Fatal(err)
	}
	// Under row-interleaved mapping with one bank, channel 0's rows
	// are the first 64 frames of the flat space; the attacker VM takes
	// frames [20, 40) == channel 0 rows [20, 40). Victim rows 19 and
	// 40 sit just outside, sandwiched by attacker-owned aggressors.
	ms := sysRig(privescTopo, policy, false, func(ch int, m *disturb.Model) {
		if ch == 0 {
			m.InjectWeakCell(0, 19, 8, 1000, 1, 1, 1, 1)
			m.InjectWeakCell(0, 40, 9, 1000, 1, 1, 1, 1)
		}
	})
	res := RunCrossVMSystem(ms, SysCrossVMConfig{
		FrameLo: 20, FrameHi: 40, Pairs: 2500, VictimPattern: ^uint64(0), Workers: 2,
	})
	if res.AttackerRows != 20 || res.ContestedRows != 0 {
		t.Fatalf("row-interleaved ownership wrong: %+v", res)
	}
	if res.VictimFlips == 0 {
		t.Fatalf("no victim corruption; isolation held unexpectedly: %+v", res)
	}
	if res.Verdict != VerdictExploitable {
		t.Fatalf("verdict %v, want EXPLOITABLE", res.Verdict)
	}
}

// TestSysCrossVMDeterministicAcrossShards checks the covictim chain is
// bit-identical across worker counts under every policy.
func TestSysCrossVMDeterministicAcrossShards(t *testing.T) {
	for _, policy := range memctrl.Policies(privescTopo) {
		run := func(workers int) SysCrossVMResult {
			ms := sysRig(privescTopo, policy, false, func(ch int, m *disturb.Model) {
				m.InjectWeakCell(0, 19, 8, 1000, 1, 1, 1, 1)
				m.InjectWeakCell(0, 40, 9, 1000, 1, 1, 1, 1)
			})
			return RunCrossVMSystem(ms, SysCrossVMConfig{
				FrameLo: 20, FrameHi: 40, Pairs: 2500, VictimPattern: ^uint64(0), Workers: workers,
			})
		}
		a, b, sharded := run(1), run(1), run(4)
		if a != b {
			t.Fatalf("%s: run-to-run diverged:\n%+v\n%+v", policy.Name(), a, b)
		}
		if a != sharded {
			t.Fatalf("%s: worker count leaked into result:\n%+v\n%+v", policy.Name(), a, sharded)
		}
	}
}

// TestSysCrossVMECCVerdicts pins the ECC-aware cross-VM verdicts on
// the same topology: a single-bit flip in the victim's rows is
// corrected (no breach, not exploitable); a nibble-packed triple is
// silently miscorrected by SECDED — the ECCploit outcome, which counts
// as exploitable even though plain corruption also shows.
func TestSysCrossVMECCVerdicts(t *testing.T) {
	policy, err := memctrl.PolicyByName("row", privescTopo)
	if err != nil {
		t.Fatal(err)
	}
	run := func(inject func(ch int, m *disturb.Model)) SysCrossVMResult {
		ms := sysRig(privescTopo, policy, true, inject)
		return RunCrossVMSystem(ms, SysCrossVMConfig{
			FrameLo: 20, FrameHi: 40, Pairs: 2500, VictimPattern: ^uint64(0), Workers: 1,
		})
	}
	corrected := run(func(ch int, m *disturb.Model) {
		if ch == 0 {
			m.InjectWeakCell(0, 19, 8, 1000, 1, 1, 1, 1)
		}
	})
	if corrected.VictimFlips != 0 || corrected.ECCCorrected == 0 {
		t.Fatalf("single-bit flip not corrected: %+v", corrected)
	}
	if corrected.Verdict != VerdictECCCorrected || corrected.Verdict.Exploitable() {
		t.Fatalf("verdict %v, want ecc-corrected (not exploitable)", corrected.Verdict)
	}
	silent := run(func(ch int, m *disturb.Model) {
		if ch == 0 {
			for _, bit := range []int{64, 65, 66} {
				m.InjectWeakCell(0, 19, bit, 1000, 1, 1, 1, 1)
			}
		}
	})
	if silent.VictimFlips == 0 || silent.ECCSilent == 0 {
		t.Fatalf("triple flip not silently miscorrected: %+v", silent)
	}
	if silent.Verdict != VerdictECCSilent || !silent.Verdict.Exploitable() {
		t.Fatalf("verdict %v, want ECC-SILENT (exploitable)", silent.Verdict)
	}
}

// TestSysCrossVMContestedUnderChannelInterleaving reproduces the
// mapping finding: under cache-line channel interleaving a contiguous
// flat allocation narrower than the interleave period owns no full
// row — every touched row is contested, the attacker has nothing safe
// to hammer, and the verdict is mitigated by layout alone.
func TestSysCrossVMContestedUnderChannelInterleaving(t *testing.T) {
	topo := dram.Topology{Channels: 2, Ranks: 1, Geom: dram.Geometry{Banks: 1, Rows: 32, Cols: 16}}
	policy, err := memctrl.PolicyByName("channel", topo)
	if err != nil {
		t.Fatal(err)
	}
	ms := sysRig(topo, policy, false, func(ch int, m *disturb.Model) {
		m.InjectWeakCell(0, 9, 3, 500, 1, 1, 1, 1)
	})
	// One frame is one row-sized page of the flat space; under this
	// policy its cache lines split across both channels, each claiming
	// only half a row's columns.
	res := RunCrossVMSystem(ms, SysCrossVMConfig{
		FrameLo: 8, FrameHi: 9, Pairs: 2000, VictimPattern: ^uint64(0), Workers: 2,
	})
	if res.AttackerRows != 0 || res.ContestedRows == 0 {
		t.Fatalf("expected fully contested ownership, got %+v", res)
	}
	if res.HammerPairs != 0 || res.VictimFlips != 0 {
		t.Fatalf("attacker hammered without owning a full row: %+v", res)
	}
	if res.Verdict != VerdictMitigated {
		t.Fatalf("verdict %v, want mitigated", res.Verdict)
	}
}

// TestVerdictClassification pins the verdict lattice and its strings.
func TestVerdictClassification(t *testing.T) {
	cases := []struct {
		breach                      bool
		corrected, detected, silent int64
		want                        Verdict
		str                         string
		exploitable                 bool
	}{
		{false, 0, 0, 0, VerdictMitigated, "mitigated", false},
		{false, 3, 0, 0, VerdictECCCorrected, "ecc-corrected", false},
		{false, 3, 2, 0, VerdictECCDetected, "ecc-detected", false},
		{true, 0, 0, 0, VerdictExploitable, "EXPLOITABLE", true},
		{true, 1, 1, 2, VerdictECCSilent, "ECC-SILENT", true},
	}
	for _, c := range cases {
		got := classifyVerdict(c.breach, c.corrected, c.detected, c.silent)
		if got != c.want || got.String() != c.str || got.Exploitable() != c.exploitable {
			t.Fatalf("classifyVerdict(%v,%d,%d,%d) = %v/%q/%v, want %v/%q/%v",
				c.breach, c.corrected, c.detected, c.silent,
				got, got.String(), got.Exploitable(), c.want, c.str, c.exploitable)
		}
	}
}
