package memctrl

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/snapshot"
)

// BenchmarkECCLoadState restores the ECC shadow of one channel of
// perfbench traffic-mixed's system (2 ranks of 4 banks of 256 rows of
// 16 words, 256 KiB of shadow words) from its checkpoint, as every
// restored pass does once per channel.
func BenchmarkECCLoadState(b *testing.B) {
	g := dram.Geometry{Banks: 4, Rows: 256, Cols: 16}
	l := newECCLayer(ECCConfig{Kind: ECCSECDED72}, g, 2)
	for ri, banks := range l.shadow {
		for bi, words := range banks {
			for i := range words {
				words[i] = uint64(ri<<40|bi<<32|i) * 0x9e3779b97f4a7c15
			}
		}
	}
	var w snapshot.Writer
	l.SaveState(&w)
	payload := w.Bytes()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.LoadState(snapshot.NewReader(payload)); err != nil {
			b.Fatal(err)
		}
	}
}
