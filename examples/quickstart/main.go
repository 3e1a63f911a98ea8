// Quickstart: build a simulated memory system from a 2013-class DRAM
// module, hammer it through the memory controller, watch bits flip in
// rows the program never wrote, then enable PARA and watch the flips
// disappear. This is the paper's whole argument in forty lines.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/modules"
	"repro/internal/rng"
)

func main() {
	// A 2013-class module: the most vulnerable year in the study.
	// Thresholds are scaled down 50x so this demo runs in seconds.
	pop := modules.Population(1)
	var m modules.Module
	for i := range pop {
		if pop[i].Year == 2013 {
			m = pop[i]
			break
		}
	}
	m.Vuln.MinThreshold /= 50
	m.Vuln.ThresholdMedian /= 50

	run := func(withPARA bool) int64 {
		s := core.Build(&m, core.Options{Topology: dram.SingleChannel(dram.Geometry{Banks: 1, Rows: 512, Cols: 8})})
		if withPARA {
			s.AttachPARA(0.01, memctrl.InDRAM, rng.New(42))
		}
		// The "victim" fills its memory.
		for addr := uint64(0); addr < s.Topo.Bytes(); addr += 8 {
			s.Mem.Access(addr, true, ^uint64(0))
		}
		// The attacker repeatedly opens two rows. It never writes.
		// Reads alone violate memory isolation on vulnerable DRAM.
		for v := 9; v < 503; v += 16 {
			s.Mem.Controller(0).HammerPairsRanked(0, 0, v-1, v+1, 30000)
		}
		return s.TotalFlips()
	}

	fmt.Println("== RowHammer quickstart ==")
	flips := run(false)
	fmt.Printf("without mitigation: %d bits flipped in rows the attacker never touched\n", flips)
	flipsPARA := run(true)
	fmt.Printf("with PARA (p=0.01): %d bits flipped\n", flipsPARA)
	if flips > 0 && flipsPARA == 0 {
		fmt.Println("PARA eliminated the vulnerability at negligible cost — the paper's proposed long-term fix")
	}
}
