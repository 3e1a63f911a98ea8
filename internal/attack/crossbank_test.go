package attack

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/modules"
)

func crossbankModule(t testing.TB) modules.Module {
	t.Helper()
	pop := modules.Population(1)
	for i := range pop {
		if pop[i].Year == 2013 && pop[i].Vulnerable() {
			return pop[i].ScaleForSmallArray(100, 30, 2e-3)
		}
	}
	t.Fatal("no vulnerable 2013 module")
	return modules.Module{}
}

// TestAdjacentAddrs checks the probe against every policy: the
// returned addresses must decode to the same channel/rank/bank with
// rows one below and one above, and edge rows must be rejected.
func TestAdjacentAddrs(t *testing.T) {
	topo := dram.Topology{Channels: 2, Ranks: 2, Geom: dram.Geometry{Banks: 4, Rows: 32, Cols: 8}}
	for _, p := range memctrl.Policies(topo) {
		for _, l := range []memctrl.Loc{
			{Channel: 0, Rank: 0, Bank: 0, Row: 1},
			{Channel: 1, Rank: 0, Bank: 3, Row: 15},
			{Channel: 1, Rank: 1, Bank: 2, Row: 30},
		} {
			below, above, ok := AdjacentAddrs(p, p.Encode(l))
			if !ok {
				t.Fatalf("%s: probe rejected interior row %+v", p.Name(), l)
			}
			lo, hi := p.Decode(below), p.Decode(above)
			want := l
			want.Col = 0
			want.Row = l.Row - 1
			if lo != want {
				t.Fatalf("%s: below of %+v = %+v", p.Name(), l, lo)
			}
			want.Row = l.Row + 1
			if hi != want {
				t.Fatalf("%s: above of %+v = %+v", p.Name(), l, hi)
			}
		}
		for _, edge := range []int{0, topo.Geom.Rows - 1} {
			if _, _, ok := AdjacentAddrs(p, p.Encode(memctrl.Loc{Row: edge})); ok {
				t.Fatalf("%s: probe accepted edge row %d", p.Name(), edge)
			}
		}
	}
}

// TestScanSystemFindsFlipsUnderEveryPolicy runs the topology-wide
// templating scan under each mapping policy: because the probe goes
// through the policy, every policy must find the identical physical
// flip population.
func TestScanSystemFindsFlipsUnderEveryPolicy(t *testing.T) {
	m := crossbankModule(t)
	topo := dram.Topology{Channels: 2, Ranks: 1, Geom: dram.Geometry{Banks: 2, Rows: 48, Cols: 4}}
	var victims [][]memctrl.Loc
	for _, mapping := range []string{"row", "channel", "xor"} {
		mm := m
		s := core.Build(&mm, core.Options{Topology: topo, Mapping: mapping})
		tpl := ScanSystem(s.Mem, 0xaaaaaaaaaaaaaaaa, 9000, 1)
		if len(tpl) == 0 {
			t.Fatalf("%s: scan found no flips; test is vacuous", mapping)
		}
		var locs []memctrl.Loc
		for _, f := range tpl {
			locs = append(locs, f.Victim)
		}
		victims = append(victims, locs)
	}
	if !reflect.DeepEqual(victims[0], victims[1]) || !reflect.DeepEqual(victims[0], victims[2]) {
		t.Fatal("policies disagree on the physical flip population")
	}
}

// TestScanSystemShardingDeterministic proves the scan returns the
// identical template list for every worker count.
func TestScanSystemShardingDeterministic(t *testing.T) {
	m := crossbankModule(t)
	topo := dram.Topology{Channels: 4, Ranks: 1, Geom: dram.Geometry{Banks: 2, Rows: 48, Cols: 4}}
	var runs [][]SysFlipTemplate
	for _, workers := range []int{1, 4} {
		mm := m
		s := core.Build(&mm, core.Options{Topology: topo})
		runs = append(runs, ScanSystem(s.Mem, 0xaaaaaaaaaaaaaaaa, 9000, workers))
	}
	if len(runs[0]) == 0 {
		t.Fatal("scan found no flips; test is vacuous")
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("sharded scan diverged: %d vs %d templates", len(runs[0]), len(runs[1]))
	}
}

// TestCrossBankHammerMatchesSequential checks the cross-bank kernel
// against per-victim sequential hammering on a twin system.
func TestCrossBankHammerMatchesSequential(t *testing.T) {
	m := crossbankModule(t)
	topo := dram.Topology{Channels: 2, Ranks: 2, Geom: dram.Geometry{Banks: 2, Rows: 64, Cols: 4}}
	victims := EnumerateVictims(topo, 9, 16)
	fill := func(s *core.System) {
		for ch := 0; ch < topo.Channels; ch++ {
			for rk := 0; rk < topo.Ranks; rk++ {
				dev := s.Mem.Device(ch, rk)
				for b := 0; b < topo.Geom.Banks; b++ {
					for r := 0; r < topo.Geom.Rows; r++ {
						pat := uint64(0xaaaaaaaaaaaaaaaa)
						if r%2 == 1 {
							pat = 0x5555555555555555
						}
						dev.FillPhysRow(b, r, pat)
					}
				}
			}
		}
	}
	mm1, mm2 := m, m
	parallel := core.Build(&mm1, core.Options{Topology: topo})
	serial := core.Build(&mm2, core.Options{Topology: topo})
	fill(parallel)
	fill(serial)
	CrossBankHammer(parallel.Mem, victims, 9000, 4)
	for _, v := range victims {
		serial.Mem.Controller(v.Channel).HammerPairsRanked(v.Rank, v.Bank, v.Row-1, v.Row+1, 9000)
	}
	if a, b := parallel.TotalFlips(), serial.TotalFlips(); a != b || a == 0 {
		t.Fatalf("flips: cross-bank %d, sequential %d", a, b)
	}
}

// BenchmarkScanSystem templates one system of perfbench hammer-campaign
// set-up's shape: a densified 2013-class module on 2 channels x 2
// ranks of 1 bank x 128 rows x 8 words, 2,500 pairs per victim row, on
// one worker. One op is one ScanSystem call on a freshly built system
// (the build is not timed).
func BenchmarkScanSystem(b *testing.B) {
	mod := crossbankModule(b)
	topo := dram.Topology{Channels: 2, Ranks: 2, Geom: dram.Geometry{Banks: 1, Rows: 128, Cols: 8}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ms, err := memctrl.Assemble(topo, "row", memctrl.Config{}, func(ch, rk int, dev *dram.Device) {
			mod.Attach(dev, 0, ch*topo.Ranks+rk)
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ScanSystem(ms, 0x5555555555555555, 2500, 1)
	}
}
