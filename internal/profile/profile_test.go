package profile

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/retention"
	"repro/internal/rng"
)

func setup(p retention.Params, seed uint64) (*dram.Device, *retention.Model) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 8}
	dev := dram.NewDevice(g)
	m := retention.NewModel(g, p, rng.New(seed))
	dev.AttachFault(m)
	return dev, m
}

func baseParams() retention.Params {
	return retention.Params{
		WeakFraction: 0.01,
		MedianSec:    1.0,
		Sigma:        0.5,
		MinSec:       0.07,
		DPDReduction: 0.3,
		VRTRatio:     50,
		VRTDwellSec:  20,
		TemperatureC: 45,
	}
}

func keyset(cells []retention.CellInfo) map[CellKey]bool {
	out := map[CellKey]bool{}
	for _, c := range cells {
		out[CellKey{c.Bank, c.PhysRow, c.Bit}] = true
	}
	return out
}

func TestProfilerFindsPlainWeakCells(t *testing.T) {
	p := baseParams()
	dev, m := setup(p, 1)
	if m.WeakCellCount() == 0 {
		t.Fatal("no weak cells")
	}
	prof := New(dev, 0, 0)
	// Interval of 30 s: nearly every weak cell (median 1 s) decays.
	found := prof.Campaign(StandardPatterns(), 30*dram.Second, 1)
	truth := keyset(m.Cells())
	hits := 0
	for k := range found {
		if truth[k] {
			hits++
		}
	}
	if hits < len(truth)*8/10 {
		t.Fatalf("profiling found %d/%d weak cells", hits, len(truth))
	}
}

func TestProfilerNoFalsePositives(t *testing.T) {
	dev, m := setup(baseParams(), 2)
	prof := New(dev, 0, 0)
	found := prof.Campaign(StandardPatterns(), 30*dram.Second, 1)
	truth := keyset(m.Cells())
	for k := range found {
		if !truth[k] {
			t.Fatalf("false positive at %+v", k)
		}
	}
}

func TestSolidPatternsMissDPDCells(t *testing.T) {
	p := baseParams()
	p.DPDFraction = 1 // every weak cell is pattern-dependent
	p.MedianSec = 3
	p.Sigma = 0.2
	dev, m := setup(p, 3)
	if m.WeakCellCount() == 0 {
		t.Fatal("no weak cells")
	}
	// Test interval chosen between reduced retention (~0.9s) and base
	// retention (~3s): cells only fail when DPD is engaged.
	interval := dram.Time(1.5 * float64(dram.Second))
	profSolid := New(dev, 0, 0)
	solid := profSolid.Campaign(SolidOnly(), interval, 1)
	profFull := New(dev, 0, profSolid.Clock())
	full := profFull.Campaign(StandardPatterns(), interval, 1)
	if len(solid) >= len(full) {
		t.Fatalf("solid patterns found %d, full battery %d; DPD cells should hide from solid",
			len(solid), len(full))
	}
	if len(full) == 0 {
		t.Fatal("full battery found nothing")
	}
}

func TestMoreRoundsCatchMoreVRTCells(t *testing.T) {
	p := baseParams()
	p.WeakFraction = 0.02
	p.VRTFraction = 1
	p.VRTRatio = 100
	p.VRTDwellSec = 120 // long dwells: one round sees one state
	p.MedianSec = 1
	p.Sigma = 0.2
	dev, m := setup(p, 4)
	if m.WeakCellCount() == 0 {
		t.Fatal("no weak cells")
	}
	interval := 5 * dram.Second
	prof := New(dev, 0, 0)
	one := len(prof.Campaign(StandardPatterns(), interval, 1))
	prof2 := New(dev, 0, prof.Clock())
	many := len(prof2.Campaign(StandardPatterns(), interval, 12))
	if many <= one {
		t.Fatalf("12 rounds (%d found) did not beat 1 round (%d); VRT cells should toggle in",
			many, one)
	}
}

func TestCampaignDeterministicGivenSameState(t *testing.T) {
	dev, _ := setup(baseParams(), 5)
	prof := New(dev, 0, 0)
	a := prof.Campaign(SolidOnly(), 10*dram.Second, 1)
	if len(a) == 0 {
		t.Skip("nothing found")
	}
	// Re-running from a fresh identical device finds the same cells.
	dev2, _ := setup(baseParams(), 5)
	b := New(dev2, 0, 0).Campaign(SolidOnly(), 10*dram.Second, 1)
	if len(a) != len(b) {
		t.Fatalf("same-seed campaigns differ: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("cell %+v found only once", k)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	dev, _ := setup(baseParams(), 6)
	prof := New(dev, 0, 100)
	prof.Campaign(SolidOnly(), dram.Second, 2)
	// 2 rounds x 2 patterns x 2 parities x 1s.
	want := dram.Time(100) + 8*dram.Second
	if prof.Clock() != want {
		t.Fatalf("clock = %d, want %d", prof.Clock(), want)
	}
}

// multiBankSetup builds one device with several banks and a dense
// VRT-free population (no random draws during decay, so bank-local
// results compose exactly).
func multiBankSetup(seed uint64) (*dram.Device, *retention.Model) {
	g := dram.Geometry{Banks: 4, Rows: 64, Cols: 4}
	p := baseParams()
	p.WeakFraction = 0.02
	dev := dram.NewDevice(g)
	m := retention.NewModel(g, p, rng.New(seed))
	dev.AttachFault(m)
	return dev, m
}

// TestDeviceWideCampaignCoversAllBanks: NewDevice profiles every bank
// in one pass; with no VRT randomness the result must equal the union
// of independent single-bank campaigns.
func TestDeviceWideCampaignCoversAllBanks(t *testing.T) {
	dev, m := multiBankSetup(7)
	banksWithCells := map[int]bool{}
	for _, c := range m.Cells() {
		banksWithCells[c.Bank] = true
	}
	if len(banksWithCells) < 2 {
		t.Skip("population concentrated in one bank; pick another seed")
	}
	interval := 30 * dram.Second
	whole := NewDevice(dev, 0).Campaign(StandardPatterns(), interval, 1)
	union := map[CellKey]bool{}
	dev2, _ := multiBankSetup(7)
	for b := 0; b < dev2.Geom.Banks; b++ {
		for k := range New(dev2, b, 0).Campaign(StandardPatterns(), interval, 1) {
			union[k] = true
		}
	}
	if len(whole) != len(union) {
		t.Fatalf("device-wide found %d, per-bank union %d", len(whole), len(union))
	}
	foundBanks := map[int]bool{}
	for k := range whole {
		if !union[k] {
			t.Fatalf("cell %+v found only device-wide", k)
		}
		foundBanks[k.Bank] = true
	}
	for b := range banksWithCells {
		if !foundBanks[b] {
			t.Fatalf("bank %d has weak cells but none were found", b)
		}
	}
}

// buildSystem wires a topology of devices with independent retention
// populations behind a row-interleaved memory system.
func buildSystem(t *testing.T, topo dram.Topology, p retention.Params, seed uint64) (*memctrl.MemorySystem, [][]*retention.Model) {
	t.Helper()
	models := make([][]*retention.Model, topo.Channels)
	ms, err := memctrl.Assemble(topo, "row", memctrl.Config{DisableRefresh: true}, func(ch, rk int, dev *dram.Device) {
		m := retention.NewModel(topo.Geom, p, rng.Sub(seed, uint64(ch*topo.Ranks+rk)))
		dev.AttachFault(m)
		models[ch] = append(models[ch], m)
	})
	if err != nil {
		t.Fatal(err)
	}
	return ms, models
}

func systemParams() retention.Params {
	p := baseParams()
	p.WeakFraction = 0.02
	p.VRTFraction = 0.2
	p.VRTRatio = 40
	p.VRTDwellSec = 30
	return p
}

// TestCampaignSystemFindsCellsOnEveryDevice: the topology-wide
// campaign reaches every channel, rank and bank.
func TestCampaignSystemFindsCellsOnEveryDevice(t *testing.T) {
	topo := dram.Topology{Channels: 3, Ranks: 2, Geom: dram.Geometry{Banks: 2, Rows: 64, Cols: 4}}
	ms, models := buildSystem(t, topo, systemParams(), 11)
	found := CampaignSystem(ms, StandardPatterns(), 30*dram.Second, 2, 0, 1)
	if len(found) == 0 {
		t.Fatal("topology-wide campaign found nothing")
	}
	perDevice := map[[2]int]int{}
	for k := range found {
		perDevice[[2]int{k.Channel, k.Rank}]++
	}
	for ch := 0; ch < topo.Channels; ch++ {
		for rk := 0; rk < topo.Ranks; rk++ {
			if models[ch][rk].WeakCellCount() > 0 && perDevice[[2]int{ch, rk}] == 0 {
				t.Fatalf("ch%d/rk%d has %d weak cells but none were found",
					ch, rk, models[ch][rk].WeakCellCount())
			}
		}
	}
}

// TestCampaignSystemShardInvariant: the sharded topology-wide campaign
// is bit-identical to serial execution — same found set, same decay
// counters on every device — for every worker count (run under -race
// in CI, which also proves the shards share no state).
func TestCampaignSystemShardInvariant(t *testing.T) {
	topo := dram.Topology{Channels: 4, Ranks: 2, Geom: dram.Geometry{Banks: 2, Rows: 64, Cols: 4}}
	type outcome struct {
		found  []SystemKey
		decays []int64
	}
	run := func(workers int) outcome {
		ms, models := buildSystem(t, topo, systemParams(), 13)
		found := CampaignSystem(ms, StandardPatterns(), 20*dram.Second, 3, 0, workers)
		var decays []int64
		for _, rms := range models {
			for _, m := range rms {
				decays = append(decays, m.Decays())
			}
		}
		return outcome{found: SortedKeys(found), decays: decays}
	}
	serial := run(1)
	if len(serial.found) == 0 {
		t.Fatal("campaign found nothing; the invariance check is vacuous")
	}
	for _, workers := range []int{2, 4, 7} {
		sharded := run(workers)
		if len(sharded.found) != len(serial.found) {
			t.Fatalf("workers=%d found %d cells, serial %d", workers, len(sharded.found), len(serial.found))
		}
		for i := range serial.found {
			if sharded.found[i] != serial.found[i] {
				t.Fatalf("workers=%d: found set diverges at %d: %+v vs %+v",
					workers, i, sharded.found[i], serial.found[i])
			}
		}
		for i := range serial.decays {
			if sharded.decays[i] != serial.decays[i] {
				t.Fatalf("workers=%d: decay counter %d differs: %d vs %d",
					workers, i, sharded.decays[i], serial.decays[i])
			}
		}
	}
}

// TestProfilerCampaignDeterministic mirrors the retention determinism
// test at the profiling layer: two fresh same-seed devices produce
// identical found sets and identical decay counts, VRT draws included.
func TestProfilerCampaignDeterministic(t *testing.T) {
	p := systemParams()
	run := func() (map[CellKey]bool, int64) {
		g := dram.Geometry{Banks: 2, Rows: 64, Cols: 4}
		dev := dram.NewDevice(g)
		m := retention.NewModel(g, p, rng.New(17))
		dev.AttachFault(m)
		found := NewDevice(dev, 0).Campaign(StandardPatterns(), 20*dram.Second, 4)
		return found, m.Decays()
	}
	a, da := run()
	b, db := run()
	if da != db {
		t.Fatalf("decay counts differ: %d vs %d", da, db)
	}
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("found sets differ or empty: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("cell %+v found in run A only", k)
		}
	}
}
