package memctrl

import (
	"fmt"
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/retention"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// BenchmarkECCLoadState restores the ECC shadow of one channel of
// perfbench traffic-mixed's system (2 ranks of 4 banks of 256 rows of
// 16 words, 256 KiB of shadow words) from its checkpoint, as every
// restored pass does once per channel.
func BenchmarkECCLoadState(b *testing.B) {
	g := dram.Geometry{Banks: 4, Rows: 256, Cols: 16}
	l := newECCLayer(ECCConfig{Kind: ECCSECDED72}, g, 2)
	src := rng.New(1)
	for _, banks := range l.shadow {
		for _, words := range banks {
			for i := range words {
				words[i] = src.Uint64()
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

// BenchmarkSystemAccess drives a fixed, pre-drawn benign mix through
// MemorySystem.Access under each policy, on perfbench traffic-mixed's
// shape: a 4ch x 2rk SECDED system with refresh on, and 40% Zipf-hot
// rows, 40% uniform random words (a quarter of them writes) and 20% a
// sequential stream. One op is one Access, decode included.
func BenchmarkSystemAccess(b *testing.B) {
	topo := dram.Topology{Channels: 4, Ranks: 2, Geom: dram.Geometry{Banks: 4, Rows: 256, Cols: 16}}
	type req struct {
		addr  uint64
		write bool
	}
	for _, p := range Policies(topo) {
		src := rng.New(1)
		zipf := rng.NewZipf(src, topo.TotalRows(), 1.1)
		reqs := make([]req, 4096)
		seq := uint64(0)
		for i := range reqs {
			switch u := src.Float64(); {
			case u < 0.4:
				flat := zipf.Next()
				l := Loc{Col: src.Intn(topo.Geom.Cols), Channel: flat % topo.Channels}
				flat /= topo.Channels
				l.Rank, flat = flat%topo.Ranks, flat/topo.Ranks
				l.Bank, l.Row = flat%topo.Geom.Banks, flat/topo.Geom.Banks
				reqs[i] = req{addr: p.Encode(l)}
			case u < 0.8:
				reqs[i] = req{addr: src.Uint64n(p.Bytes()) &^ 7, write: src.Bool(0.25)}
			default:
				reqs[i] = req{addr: seq}
				seq = (seq + 8) % p.Bytes()
			}
		}
		b.Run(p.Name(), func(b *testing.B) {
			ms := NewSystem(buildTopo(topo), p, Config{ECC: ECCConfig{Kind: ECCSECDED72}})
			var sink uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := reqs[i&(len(reqs)-1)]
				v, _ := ms.Access(r.addr, r.write, uint64(i))
				sink += v
			}
			benchSink = int(sink)
		})
	}
}

// BenchmarkHammerRowsRanked times the hammer kernel under no
// mitigation, PARA, TRR and Graphene (perfbench hammer-campaign's
// settings) on a 1-bank, 128-row rank with densified disturbance and
// default retention physics. One op is one call that spans ~30 REFs:
// 2,500 rounds of a double-sided pair, or 1,000 rounds of four
// aggressors and two decoys. graphene-storm refills its table before
// each call with five rows far hotter than the cycle's, so the six
// cycle rows churn through three free slots: an exchange storm.
func BenchmarkHammerRowsRanked(b *testing.B) {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 8}
	for _, mit := range []struct {
		name  string
		make  func() Mitigation
		storm bool
	}{
		{"none", nil, false},
		{"para", func() Mitigation { return NewPARA(0.01, InDRAM, nil, rng.New(11)) }, false},
		{"trr", func() Mitigation { return NewTRR(4, 0.05, rng.New(12)) }, false},
		{"graphene", func() Mitigation { return NewGraphene(8, 1000, 1) }, false},
		{"graphene-storm", func() Mitigation { return NewGraphene(8, 1000, 1) }, true},
	} {
		for _, shape := range []struct {
			rows   []int
			rounds int
		}{
			{[]int{40, 42}, 2500},
			{[]int{40, 42, 44, 46, 100, 102}, 1000},
		} {
			if mit.storm && len(shape.rows) < 6 {
				continue
			}
			b.Run(fmt.Sprintf("%s/%d-rows", mit.name, len(shape.rows)), func(b *testing.B) {
				dev := dram.NewDevice(g)
				dp := disturb.DefaultParams()
				dp.WeakCellFraction, dp.ThresholdMedian, dp.MinThreshold = 2e-3, 3000, 400
				dev.AttachFault(disturb.NewModel(g, dp, rng.New(1)))
				dev.AttachFault(retention.NewModel(g, retention.DefaultParams(), rng.New(2)))
				for r := 0; r < g.Rows; r++ {
					dev.FillPhysRow(0, r, 0x5555555555555555<<(r%2))
				}
				c := New(dev, Config{})
				var m Mitigation
				if mit.make != nil {
					m = mit.make()
					c.Attach(m)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mit.storm {
						fillGrapheneStorm(m.(*Graphene), 0)
					}
					c.HammerRowsRanked(0, 0, shape.rows, shape.rounds)
				}
			})
		}
	}
}
