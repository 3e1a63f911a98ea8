// Softmc-lab demonstrates the programmable command-level testing
// infrastructure (the simulated analogue of SoftMC, HPCA 2017) that
// the paper credits for the DRAM studies: raw ACT/PRE/RD/WR/REF
// instruction streams with loops, used here to run a retention test
// and a RowHammer test that no standard controller could express.
package main

import (
	"fmt"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/retention"
	"repro/internal/rng"
	"repro/internal/softmc"
)

func main() {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 8}
	dev := dram.NewDevice(g)

	// Attach real failure physics: a retention-weak population and an
	// injected RowHammer victim.
	ret := retention.NewModel(g, retention.Params{
		WeakFraction: 0.01, MedianSec: 1.5, Sigma: 0.4, MinSec: 0.3,
		VRTRatio: 1, VRTDwellSec: 1, TemperatureC: 45,
	}, rng.New(1))
	dev.AttachFault(ret)
	dist := disturb.NewPlanted(g)
	dist.InjectWeakCell(0, 64, 13, 50_000, 1, 1, 1, 1)
	dev.AttachFault(dist)
	dev.SetPhysBit(0, 64, 13, 1)

	eng := softmc.NewEngine(dev, 0)
	fmt.Println("== SoftMC-style command-level DRAM lab ==")

	// Test 1: retention. Write a pattern, wait 10 s with refresh
	// fenced off, read back.
	fmt.Println("\n-- retention test: WR pattern, WAIT 10s, RD --")
	prog := softmc.RetentionProgram(0, 40, g.Cols, ^uint64(0), 10_000_000_000)
	res := eng.Run(prog)
	flips := 0
	for _, w := range res.Reads {
		for d := ^w; d != 0; d &= d - 1 {
			flips++
		}
	}
	fmt.Printf("   %d instructions executed, %d retention failures in row 40\n",
		res.Cycles, flips)

	// Scan a few rows the same way.
	total := 0
	for row := 0; row < 16; row++ {
		r := eng.Run(softmc.RetentionProgram(0, row, g.Cols, ^uint64(0), 10_000_000_000))
		for _, w := range r.Reads {
			for d := ^w; d != 0; d &= d - 1 {
				total++
			}
		}
	}
	fmt.Printf("   16-row scan: %d weak cells found\n", total)

	// Test 2: RowHammer at the exact tRC-limited rate.
	fmt.Println("\n-- RowHammer test: (ACT 63, PRE, ACT 65, PRE) x 60000 --")
	before := dev.PhysBit(0, 64, 13)
	hammerStart := eng.Now()
	hres := eng.Run(softmc.HammerProgram(0, 63, 65, 60000))
	after := dev.PhysBit(0, 64, 13)
	fmt.Printf("   %d activations in %.2f ms (tRC-limited)\n",
		2*60000, float64(hres.EndTime-hammerStart)/1e6)
	fmt.Printf("   victim bit (row 64, bit 13): %d -> %d\n", before, after)
	if after != before {
		fmt.Println("   disturbance error induced by a pure command sequence —")
		fmt.Println("   the paper's point: this test needs controller-level programmability")
	}
}
