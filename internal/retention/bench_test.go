package retention

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// The decay hot path in isolation: a profiling-shaped refresh storm
// (whole-device sweeps at advancing times) over a bank slab with a
// realistic sparse weak-cell population, where almost every row
// restore finds nothing to decay. Flat is the production model through
// the batched bank sweep; FlatPerRow isolates the map→slice gain with
// per-row dispatch; Reference is the seed's map-indexed model.
func benchDecayStorm(b *testing.B, kind string) {
	g := dram.Geometry{Banks: 4, Rows: 2048, Cols: 8}
	p := DefaultParams()
	p.WeakFraction = 1e-4
	p.VRTFraction = 0 // no RNG consumption: every variant does identical work
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := dram.NewDevice(g)
		var decays func() int64
		switch kind {
		case "reference":
			m := NewReference(g, p, rng.New(1))
			d.AttachFault(m)
			decays = m.Decays
		default:
			m := NewModel(g, p, rng.New(1))
			d.AttachFault(m)
			decays = m.Decays
		}
		b.StartTimer()
		now := dram.Time(0)
		for sweep := 0; sweep < 24; sweep++ {
			now += 3 * dram.Second
			for bank := 0; bank < g.Banks; bank++ {
				if kind == "flat" {
					d.RefreshBankAll(bank, now)
				} else {
					for r := 0; r < g.Rows; r++ {
						d.RefreshPhysRow(bank, r, now)
					}
				}
			}
		}
		if decays() < 0 {
			b.Fatal("impossible") // keep the decay counter live
		}
	}
}

func BenchmarkDecayStormFlat(b *testing.B)       { benchDecayStorm(b, "flat") }
func BenchmarkDecayStormFlatPerRow(b *testing.B) { benchDecayStorm(b, "flat-per-row") }
func BenchmarkDecayStormReference(b *testing.B)  { benchDecayStorm(b, "reference") }

// BenchmarkLoadState restores one retention model of perfbench
// hammer-campaign's rig geometry (128 rows of 8 words) from its
// checkpoint. The campaign's modules keep DefaultParams' sparse tail;
// the weak fraction is raised to 2e-3 here so the cell records, not
// the header, dominate.
func BenchmarkLoadState(b *testing.B) {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 8}
	p := DefaultParams()
	p.WeakFraction = 2e-3
	m := NewModel(g, p, rng.New(1))
	var w snapshot.Writer
	m.SaveState(&w)
	payload := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.LoadState(snapshot.NewReader(payload)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewModel builds one model of perfbench hammer-campaign's rig
// shape: 128 rows of 8 words under DefaultParams, a population of a
// cell or two. miss draws from a stream state never seen before, so it
// samples, indexes and fills the population memo; hit rebuilds one
// spec, as a rebuilt rig does, and shares the memo's population.
func BenchmarkNewModel(b *testing.B) {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 8}
	p := DefaultParams()
	seed := uint64(1 << 40)
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seed++
			NewModel(g, p, rng.New(seed))
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewModel(g, p, rng.New(1))
		}
	})
}
