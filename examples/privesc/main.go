// Privesc walks the full Project-Zero-style exploitation chain on the
// simulated system: scan for flip templates, spray page-table pages,
// steer one onto the victim frame, hammer, and check whether the
// corrupted page-table entry now points into another page table —
// which on a real system hands the attacker a writable mapping of a
// page table, and with it the kernel.
//
// It is the fixed single-bank walk-through, with and without PARA, of
// the same chain (attack.RunPrivEscSystem) that `rowhammer -mode
// privesc` drives over configurable topologies, mapping policies and
// ECC. On this one-bank row-interleaved system a physical frame is a
// row, the setting of the original exploit.
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

func build(withPARA bool) *core.System {
	pop := modules.Population(1)
	var m modules.Module
	for i := range pop {
		if pop[i].Year == 2013 {
			m = pop[i]
			break
		}
	}
	// Scaled thresholds and a densified weak population keep the demo
	// fast; the structure of the attack is unchanged.
	m.Vuln.MinThreshold /= 100
	m.Vuln.ThresholdMedian /= 100
	m.Vuln.WeakCellFraction *= 30
	s := core.Build(&m, core.Options{Topology: dram.SingleChannel(dram.Geometry{Banks: 1, Rows: 256, Cols: 8})})
	if withPARA {
		s.AttachPARA(0.02, memctrl.InDRAM, rng.New(7))
	}
	return s
}

func campaign(label string, withPARA bool) {
	s := build(withPARA)
	res := attack.RunPrivEscSystem(s.Mem, attack.SysPrivEscConfig{
		SprayFraction:   0.4,
		PairsPerAttempt: 12000,
		MaxPlacements:   25,
		Workers:         1,
	}, rng.New(99))
	fmt.Printf("-- %s --\n", label)
	fmt.Printf("  flip templates found:   %d\n", res.TemplatesFound)
	fmt.Printf("  usable (hits PTE PFN):  %v\n", res.UsableTemplate)
	fmt.Printf("  memory placements:      %d\n", res.Placements)
	fmt.Printf("  hammer pairs spent:     %d\n", res.HammerPairs)
	fmt.Printf("  PTE corrupted:          %v\n", res.FlipInduced)
	fmt.Printf("  KERNEL COMPROMISED:     %v\n\n", res.Escalated)
}

func main() {
	fmt.Println("== user-level privilege escalation via RowHammer ==")
	fmt.Println("(simulated page tables in simulated DRAM; user-level accesses only)")
	campaign("vulnerable 2013-class system", false)
	campaign("same system with PARA p=0.02", true)
}
