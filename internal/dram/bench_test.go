package dram

import (
	"testing"

	"repro/internal/snapshot"
)

// BenchmarkLoadState restores one device of perfbench hammer-campaign's
// rig geometry from its checkpoint, the per-cell restore a campaign
// pays four times.
func BenchmarkLoadState(b *testing.B) {
	g := Geometry{Banks: 1, Rows: 128, Cols: 8}
	d := NewDevice(g)
	for r := 0; r < g.Rows; r++ {
		d.FillPhysRow(0, r, uint64(r)*0x0101010101010101)
	}
	d.Activate(0, 5, 100)
	var w snapshot.Writer
	d.SaveState(&w)
	payload := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.LoadState(snapshot.NewReader(payload)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewDevice builds one device of perfbench hammer-campaign's
// rig geometry, as every rebuilt rig does four times.
func BenchmarkNewDevice(b *testing.B) {
	g := Geometry{Banks: 1, Rows: 128, Cols: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewDevice(g)
	}
}
