package disturb

// Benchmarks for the hammer hot path, comparing three generations of
// the same sweep:
//
//   - Reference: the seed implementation — map-indexed lookups,
//     per-activation dispatch (the "old" loop).
//   - Flat: the flat-index model driven per-activation.
//   - Batched: the flat-index model driven through the batched
//     Device.HammerCycle API.
//
// All three execute identical device command sequences; see
// equiv_test.go for the proof that they produce identical physics.

import (
	"fmt"
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// benchGeom matches the E3 spot-check scale.
var benchGeom = dram.Geometry{Banks: 1, Rows: 512, Cols: 8}

func benchParams() Params {
	p := DefaultParams()
	p.ThresholdMedian /= 10
	p.MinThreshold /= 10
	return p
}

const benchPairs = 2000

func newBenchDevice(f dram.FaultModel) *dram.Device {
	d := dram.NewDevice(benchGeom)
	d.AttachFault(f)
	for r := 0; r < benchGeom.Rows; r++ {
		pat := uint64(0xaaaaaaaaaaaaaaaa)
		if r%2 == 1 {
			pat = 0x5555555555555555
		}
		d.FillPhysRow(0, r, pat)
	}
	return d
}

// sweepPerActivation double-side hammers every 8th victim with
// explicit per-activation commands, the seed's loop shape.
func sweepPerActivation(d *dram.Device) {
	now := dram.Time(0)
	for v := 1; v < benchGeom.Rows-1; v += 8 {
		for i := 0; i < benchPairs; i++ {
			d.Activate(0, v-1, now)
			d.Precharge(0)
			now += 49
			d.Activate(0, v+1, now)
			d.Precharge(0)
			now += 49
		}
	}
}

// sweepBatched performs the equivalent sweep through closed-page
// Device.HammerCycle bursts.
func sweepBatched(d *dram.Device) {
	now := dram.Time(0)
	for v := 1; v < benchGeom.Rows-1; v += 8 {
		hammerCycle(d, dram.Cycle{Rows: []int{v - 1, v + 1}, N: 2 * benchPairs, Start: now, Period: 49, ClosedPage: true})
		now += 2 * benchPairs * 49
	}
}

func BenchmarkHammerSweepReferenceMaps(b *testing.B) {
	d := newBenchDevice(NewReference(benchGeom, benchParams(), rng.New(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepPerActivation(d)
	}
}

func BenchmarkHammerSweepFlatIndex(b *testing.B) {
	d := newBenchDevice(NewModel(benchGeom, benchParams(), rng.New(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepPerActivation(d)
	}
}

func BenchmarkHammerSweepBatched(b *testing.B) {
	d := newBenchDevice(NewModel(benchGeom, benchParams(), rng.New(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepBatched(d)
	}
}

func BenchmarkHammerNPerActivate(b *testing.B) {
	d := newBenchDevice(NewModel(benchGeom, benchParams(), rng.New(1)))
	b.ReportAllocs()
	b.ResetTimer()
	now := dram.Time(0)
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			d.Activate(0, 100, now)
			d.Precharge(0)
			now += 49
		}
	}
}

func BenchmarkHammerNBatched(b *testing.B) {
	d := newBenchDevice(NewModel(benchGeom, benchParams(), rng.New(1)))
	b.ReportAllocs()
	b.ResetTimer()
	now := dram.Time(0)
	for i := 0; i < b.N; i++ {
		hammerCycle(d, dram.Cycle{Rows: []int{100}, N: 1000, Start: now, Period: 49, ClosedPage: true})
		now += 1000 * 49
	}
}

// BenchmarkOnActivateBenign activates uniformly random rows — benign
// traffic, no hammering — on the 4-bank x 256-row x 16-col geometry of
// the benign traffic benchmark at a 2e-3 weak-cell fraction and real
// hammer thresholds. One op is one OnActivate.
func BenchmarkOnActivateBenign(b *testing.B) {
	g := dram.Geometry{Banks: 4, Rows: 256, Cols: 16}
	p := DefaultParams()
	p.WeakCellFraction = 2e-3
	d := dram.NewDevice(g)
	m := NewModel(g, p, rng.New(1))
	for bank := 0; bank < g.Banks; bank++ {
		for r := 0; r < g.Rows; r++ {
			d.FillPhysRow(bank, r, 0xaaaaaaaaaaaaaaaa)
		}
	}
	src := rng.New(2)
	acts := make([][2]int, 4096)
	for i := range acts {
		acts[i] = [2]int{src.Intn(g.Banks), src.Intn(g.Rows)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := acts[i&(len(acts)-1)]
		m.OnActivate(d, a[0], a[1], dram.Time(i)*49)
	}
}

// BenchmarkOnHammerCycle applies one k-row burst the way the device
// dispatches it, HammerHorizon then OnHammerCycle, over aggressors two
// rows apart at the 2e-3 weak-cell fraction perfbench's campaign rigs
// use. A burst is 160 activations, about one refresh interval at tRC;
// pressure is cleared every 256 bursts, long before any unscaled
// threshold is reached, so every iteration does the same work.
func BenchmarkOnHammerCycle(b *testing.B) {
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 8}
	p := DefaultParams()
	p.WeakCellFraction = 2e-3
	for _, k := range []int{2, 6, 126} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			d := dram.NewDevice(g)
			m := NewModel(g, p, rng.New(1))
			rows := make([]int, k)
			for i := range rows {
				rows[i] = 2 + 2*i
				d.FillPhysRow(0, rows[i], 0x5555555555555555)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%256 == 255 {
					m.OnRefreshBankBatch(d, 0, 0)
				}
				m.HammerHorizon(d, 0, rows, 0, 49)
				m.OnHammerCycle(d, 0, rows, 160, 0, 49)
			}
			if m.TotalFlips() != 0 {
				b.Fatalf("%d flips: iterations differ in work", m.TotalFlips())
			}
		})
	}
}

// BenchmarkLoadState restores one disturb model of perfbench
// hammer-campaign's rig shape (see campaignParams) from a mid-campaign
// checkpoint. in-place restores onto the model's own physics, as a
// rebuilt rig does, so only pressures and flip flags are written;
// rebuild alternates between checkpoints of two different populations,
// so every restore stages and re-indexes the store.
func BenchmarkLoadState(b *testing.B) {
	checkpoint := func(m *Model) []byte {
		d := dram.NewDevice(campaignGeom)
		d.AttachFault(m)
		for r := 1; r+1 < campaignGeom.Rows; r += 9 {
			hammerCycle(d, dram.Cycle{Rows: []int{r - 1, r + 1}, N: 2000, Period: 49, ClosedPage: true})
		}
		return saveBytes(m)
	}
	bench := func(b *testing.B, m *Model, payloads ...[]byte) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.LoadState(snapshot.NewReader(payloads[i%len(payloads)])); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("in-place", func(b *testing.B) {
		m := NewModel(campaignGeom, campaignParams(), rng.New(1))
		bench(b, m, checkpoint(m))
	})
	b.Run("rebuild", func(b *testing.B) {
		m := NewModel(campaignGeom, campaignParams(), rng.New(1))
		other := checkpoint(NewModel(campaignGeom, campaignParams(), rng.New(2)))
		bench(b, m, checkpoint(m), other)
	})
}

// BenchmarkNewModel builds one model at hammer-campaign's rig shape
// (see campaignParams). miss draws from a stream state never seen
// before, so it samples, indexes and fills the population memo; hit
// rebuilds one spec, as a rebuilt rig does, and clones from the memo.
func BenchmarkNewModel(b *testing.B) {
	p := campaignParams()
	seed := uint64(1 << 40)
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seed++
			NewModel(campaignGeom, p, rng.New(seed))
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewModel(campaignGeom, p, rng.New(1))
		}
	})
}
