// Retention-profiler demonstrates why DRAM retention testing is
// fundamentally hard — the paper's Section III-A1: data-pattern
// dependent cells hide from the wrong test pattern, and VRT cells can
// escape any finite number of profiling rounds, so "some retention
// errors can easily slip into the field". The second half scales the
// same campaign to a multi-channel topology through the sharded
// system profiler (profile.CampaignSystem).
package main

import (
	"fmt"
	"runtime"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/profile"
	"repro/internal/retention"
	"repro/internal/rng"
)

func main() {
	p := retention.Params{
		WeakFraction: 0.005,
		MedianSec:    2.0,
		Sigma:        0.7,
		MinSec:       0.3,
		DPDFraction:  0.4,
		DPDReduction: 0.35,
		VRTFraction:  0.25,
		VRTRatio:     60,
		VRTDwellSec:  90,
		TemperatureC: 45,
	}
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 8}
	dev := dram.NewDevice(g)
	model := retention.NewModel(g, p, rng.New(3))
	dev.AttachFault(model)

	truth := model.Cells()
	dpd, vrt := 0, 0
	for _, c := range truth {
		if c.DPD {
			dpd++
		}
		if c.VRT {
			vrt++
		}
	}
	fmt.Println("== DRAM retention profiling ==")
	fmt.Printf("ground truth: %d weak cells (%d data-pattern dependent, %d VRT)\n\n",
		len(truth), dpd, vrt)

	interval := dram.Time(2 * 512 * float64(dram.Millisecond)) // 2x margin over a 512 ms plan
	campaigns := []struct {
		name     string
		patterns []profile.Pattern
		rounds   int
	}{
		{"solid patterns, 1 round", profile.SolidOnly(), 1},
		{"full battery,  1 round", profile.StandardPatterns(), 1},
		{"full battery,  4 rounds", profile.StandardPatterns(), 4},
		{"full battery, 16 rounds", profile.StandardPatterns(), 16},
	}
	prof := profile.New(dev, 0, 0)
	for _, c := range campaigns {
		found := prof.Campaign(c.patterns, interval, c.rounds)
		fmt.Printf("%-26s found %3d cells\n", c.name, len(found))
	}
	fmt.Println("\neach step finds more — but VRT dwell times are memoryless (exponential),")
	fmt.Println("so no finite campaign guarantees catching a VRT cell in its leaky state.")
	fmt.Println("the paper's conclusion: profiling must be online and continuous, a")
	fmt.Println("capability that requires an intelligent, reconfigurable memory controller.")

	// --- The same campaign at topology scale ---
	topo := dram.Topology{Channels: 4, Ranks: 2, Geom: g}
	total := 0
	ms, err := memctrl.Assemble(topo, "row", memctrl.Config{DisableRefresh: true}, func(ch, rk int, d *dram.Device) {
		m := retention.NewModel(g, p, rng.Sub(3, uint64(ch*topo.Ranks+rk)))
		d.AttachFault(m)
		total += m.WeakCellCount()
	})
	if err != nil {
		panic(err)
	}
	workers := runtime.GOMAXPROCS(0)
	fmt.Printf("\n== the same campaign across a %s topology (%d weak cells, %d workers) ==\n",
		topo, total, workers)
	for _, c := range campaigns {
		found := profile.CampaignSystem(ms, c.patterns, interval, c.rounds, 0, workers)
		fmt.Printf("%-26s found %4d cells across %d devices\n", c.name, len(found), topo.Devices())
	}
	fmt.Println("\nchannels profile in parallel (bit-identical to serial execution), which is")
	fmt.Println("what lets an intelligent controller keep profiling online, fleet-wide.")
}
