// Mitigation-frontier sweeps the full defence roster — first
// generation (refresh scaling, PARA, CRA, TRR) and second generation
// (Graphene top-k, TWiCe pruned counters) — against both the classic
// double-sided attack and an adaptive TRRespass-style N-sided
// attacker, printing the security-vs-overhead Pareto table the
// paper's arms-race framing calls for. The experiment-grade versions
// are E40-E44 (cmd/experiments -run E40,E41,E42,E43,E44).
package main

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/modules"
	"repro/internal/rng"
)

func module() modules.Module {
	pop := modules.Population(1)
	for i := range pop {
		if pop[i].Year == 2013 {
			m := pop[i]
			m.Vuln.MinThreshold /= 50
			m.Vuln.ThresholdMedian /= 50
			return m
		}
	}
	panic("no 2013 module")
}

func main() {
	m := module()
	g := dram.Geometry{Banks: 1, Rows: 1024, Cols: 8}

	type defence struct {
		name   string
		attach func(s *core.System)
	}
	threshold := func(s *core.System) int64 { return int64(s.Disturbs[0][0].MinThreshold()) }
	defences := []defence{
		{"none", nil},
		{"refresh x2", func(s *core.System) { s.Mem.Controller(0).Attach(memctrl.NewRefreshScaling(2)) }},
		{"refresh x7", func(s *core.System) { s.Mem.Controller(0).Attach(memctrl.NewRefreshScaling(7)) }},
		{"PARA p=0.01", func(s *core.System) { s.AttachPARA(0.01, memctrl.InDRAM, rng.New(3)) }},
		{"CRA", func(s *core.System) { s.Mem.Controller(0).Attach(memctrl.NewCRA(threshold(s), 1, g.Rows)) }},
		{"TRR 8-entry", func(s *core.System) { s.Mem.Controller(0).Attach(memctrl.NewTRR(8, 0.01, rng.New(4))) }},
		{"Graphene 24-entry", func(s *core.System) {
			s.Mem.Controller(0).Attach(memctrl.NewGraphene(24, threshold(s), 1))
		}},
		{"TWiCe", func(s *core.System) { s.Mem.Controller(0).Attach(memctrl.NewTWiCe(threshold(s), 1)) }},
	}

	attacks := []struct {
		name string
		run  func(c *memctrl.Controller)
	}{
		{"double-sided", func(c *memctrl.Controller) {
			for v := 17; v < g.Rows-33; v += 16 {
				c.HammerPairsRanked(0, 0, v-1, v+1, 12000)
			}
		}},
		{"8-sided+decoys", func(c *memctrl.Controller) {
			decoys := attack.DecoyRows(g.Rows, 4)
			for v := 17; v+16 < g.Rows-33; v += 32 {
				attack.NSidedRanked(c, 0, 0, attack.NSidedAggressors(v, 8), decoys, 6000)
			}
		}},
	}

	fmt.Println("== mitigation frontier: flips / storage / refresh+mitigation overhead ==")
	fmt.Printf("%-18s %-16s %10s %12s %12s %14s\n",
		"defence", "attack", "flips", "storage bits", "mit.refresh", "REF commands")
	for _, d := range defences {
		for _, a := range attacks {
			s := core.Build(&m, core.Options{Topology: dram.SingleChannel(g)})
			if d.attach != nil {
				d.attach(s)
			}
			for r := 0; r < g.Rows; r++ {
				s.Mem.Device(0, 0).FillPhysRow(0, r, 0xaaaaaaaaaaaaaaaa)
			}
			c := s.Mem.Controller(0)
			a.run(c)
			var bits int64
			for _, mit := range c.Mitigations() {
				bits += mit.StorageBits()
			}
			fmt.Printf("%-18s %-16s %10d %12d %12d %14d\n",
				d.name, a.name, s.TotalFlips(), bits, c.Stats.MitRefreshes, c.Stats.AutoRefreshes)
		}
	}
	fmt.Println("\nreading: every defence buys its security margin with a different currency —")
	fmt.Println("refresh scaling pays REF energy, CRA pays a full counter table, TRR pays little")
	fmt.Println("and loses to wide patterns, Graphene/TWiCe pay top-k/pruned tables and hold;")
	fmt.Println("the adaptive sweep is E44, the full Pareto tables are E40-E43")
}
