package attack

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/memctrl"
)

// buildHuntSystem is a 2-channel rig with known clusters: ch0 carries
// a nibble-packed triple (SECDED-miscorrected, chipkill-corrected) and
// a lone single-bit cell; ch1 carries a four-nibble quad (silent past
// both capability models).
func buildHuntSystem(withECC bool) *memctrl.MemorySystem {
	topo := dram.Topology{Channels: 2, Ranks: 1, Geom: dram.Geometry{Banks: 2, Rows: 64, Cols: 4}}
	devs := make([][]*dram.Device, topo.Channels)
	for ch := 0; ch < topo.Channels; ch++ {
		dev := dram.NewDevice(topo.Geom)
		dm := disturb.NewPlanted(topo.Geom)
		if ch == 0 {
			for _, bit := range []int{64 + 0, 64 + 1, 64 + 2} {
				dm.InjectWeakCell(0, 21, bit, 2000, 1, 1, 1, 1)
			}
			dm.InjectWeakCell(1, 33, 130, 2000, 1, 1, 1, 1)
		} else {
			for _, bit := range []int{0, 17, 33, 50} {
				dm.InjectWeakCell(1, 42, bit, 2000, 1, 1, 1, 1)
			}
		}
		dev.AttachFault(dm)
		devs[ch] = []*dram.Device{dev}
	}
	policy, err := memctrl.PolicyByName("row", topo)
	if err != nil {
		panic(err)
	}
	cfg := memctrl.Config{}
	if withECC {
		cfg.ECC = memctrl.ECCConfig{Kind: memctrl.ECCSECDED72}
	}
	return memctrl.NewSystem(devs, policy, cfg)
}

func TestECCHuntFindsInjectedClusters(t *testing.T) {
	findings, singles := MiscorrectionHunt(buildHuntSystem(false), ^uint64(0), 1500, 1)
	if len(findings) != 2 {
		t.Fatalf("hunt found %d multi-flip words, want 2 (triple + quad)", len(findings))
	}
	if singles != 1 {
		t.Fatalf("hunt counted %d single-flip words, want 1", singles)
	}
	triple, quad := findings[0], findings[1]
	if triple.Victim.Channel != 0 || triple.Victim.Row != 21 || triple.Victim.Col != 1 {
		t.Fatalf("first finding at %+v, want ch0 row 21 col 1", triple.Victim)
	}
	if !sort.IntsAreSorted(triple.Bits) || !reflect.DeepEqual(triple.Bits, []int{0, 1, 2}) {
		t.Fatalf("triple bits = %v, want sorted {0,1,2}", triple.Bits)
	}
	if !triple.SilentUnderSECDED() {
		t.Fatalf("nibble-packed triple classified %v under SECDED, want miscorrect", triple.SECDED)
	}
	if triple.Chipkill != ecc.Corrected {
		t.Fatalf("one-symbol triple classified %v under chipkill, want corrected", triple.Chipkill)
	}
	if triple.InDRAM != ecc.Miscorrect {
		t.Fatalf("triple classified %v under the on-die model, want miscorrect", triple.InDRAM)
	}
	if quad.Victim.Channel != 1 || quad.Victim.Row != 42 || quad.Victim.Col != 0 {
		t.Fatalf("second finding at %+v, want ch1 row 42 col 0", quad.Victim)
	}
	if quad.Chipkill != ecc.Miscorrect {
		t.Fatalf("four-nibble quad classified %v under chipkill, want miscorrect", quad.Chipkill)
	}
	if quad.SECDED != ecc.Detected {
		t.Fatalf("even-weight quad classified %v under SECDED, want detected", quad.SECDED)
	}
}

// TestECCHuntWorkerInvariant pins the sharding contract: any worker
// count returns the identical finding list in channel-major order.
func TestECCHuntWorkerInvariant(t *testing.T) {
	ref, refSingles := MiscorrectionHunt(buildHuntSystem(false), ^uint64(0), 1500, 1)
	for _, workers := range []int{2, 4} {
		got, gotSingles := MiscorrectionHunt(buildHuntSystem(false), ^uint64(0), 1500, workers)
		if !reflect.DeepEqual(got, ref) || gotSingles != refSingles {
			t.Fatalf("hunt differs at %d workers:\n got %+v (%d singles)\nwant %+v (%d singles)",
				workers, got, gotSingles, ref, refSingles)
		}
	}
}

func TestECCHuntPanicsWithECCOn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("hunt accepted an ECC-protected system")
		}
	}()
	MiscorrectionHunt(buildHuntSystem(true), ^uint64(0), 100, 1)
}
