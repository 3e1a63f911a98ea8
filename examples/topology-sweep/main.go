// Example topology-sweep shows the multi-channel stack end to end:
// build one module as three different topologies, route the identical
// flat-address stream through each mapping policy, probe physical
// adjacency the way a DRAMA-style attacker must, and run a cross-bank
// hammer campaign with channels sharded across workers.
package main

import (
	"fmt"
	"runtime"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/modules"
	"repro/internal/rng"
	"repro/internal/workload"
)

func main() {
	pop := modules.Population(1)
	var mod *modules.Module
	for i := range pop {
		if pop[i].Year == 2013 && pop[i].Vulnerable() {
			mod = &pop[i]
			break
		}
	}
	m := mod.ScaleForSmallArray(100, 30, 2e-3)

	g := dram.Geometry{Banks: 4, Rows: 128, Cols: 16}
	topo := dram.Topology{Channels: 2, Ranks: 2, Geom: g}

	// 1. The same flat-address stream under each policy: only the
	// decode changes, so locality and bank pressure shift.
	fmt.Println("== identical random stream, three mappings ==")
	for _, mapping := range []string{"row", "channel", "xor"} {
		s := core.Build(&m, core.Options{Topology: topo, Mapping: mapping})
		gen := workload.NewFlatRandom(s.Mem.Policy(), 0.3, rng.New(7))
		lat := workload.RunSystem(s.Mem, gen, 30000)
		agg := s.Mem.AggregateStats()
		fmt.Printf("%-20s mean latency %6.2f ns, row hits %4.1f%%\n",
			s.Mem.Policy().Name(), lat, 100*float64(agg.RowHits)/float64(agg.Accesses))
	}

	// 2. The adjacency probe: where do the aggressor rows of one victim
	// address live in the flat address space under each mapping?
	fmt.Println("\n== adjacency probe for one victim address ==")
	for _, mapping := range []string{"row", "channel", "xor"} {
		p, err := memctrl.PolicyByName(mapping, topo)
		if err != nil {
			panic(err)
		}
		victim := p.Encode(memctrl.Loc{Channel: 1, Rank: 0, Bank: 2, Row: 64})
		below, above, _ := attack.AdjacentAddrs(p, victim)
		fmt.Printf("%-20s victim %#08x  aggressors %#08x %#08x (spread %d bytes)\n",
			p.Name(), victim, below, above, int64(above)-int64(below))
	}

	// 3. Cross-bank hammering with channel-sharded simulation.
	fmt.Println("\n== cross-bank hammer, channels sharded across workers ==")
	s := core.Build(&m, core.Options{Topology: topo})
	for ch := 0; ch < topo.Channels; ch++ {
		for rk := 0; rk < topo.Ranks; rk++ {
			dev := s.Mem.Device(ch, rk)
			for b := 0; b < g.Banks; b++ {
				for r := 0; r < g.Rows; r++ {
					pat := uint64(0xaaaaaaaaaaaaaaaa)
					if r%2 == 1 {
						pat = 0x5555555555555555
					}
					dev.FillPhysRow(b, r, pat)
				}
			}
		}
	}
	victims := attack.EnumerateVictims(topo, 9, 8)
	attack.CrossBankHammer(s.Mem, victims, 9000, runtime.GOMAXPROCS(0))
	fmt.Printf("%d victims hammered across %s: %d bit flips, %d activations\n",
		len(victims), topo, s.TotalFlips(), s.Mem.AggregateDeviceStats().Activates)
}
