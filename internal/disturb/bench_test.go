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
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
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
