package exp

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/modules"
	"repro/internal/rng"
	"repro/internal/stats"
)

func init() {
	register("E1", "RowHammer error rate vs manufacture date (Figure 1)",
		"Fig. 1: errors per 1e9 cells, 129 modules, vendors A/B/C, 2008-2014", runE1)
	register("E2", "Module vulnerability census",
		"\"110 of 129 modules\", \"all 2012-2013 vulnerable\", \"earliest 2010\"", runE2)
	register("E3", "Errors vs hammer count",
		"ISCA'14: no errors below per-module threshold (~139K), growth beyond", runE3)
	register("E4", "Errors vs refresh rate multiplier",
		"\"refresh rate needs to be increased by 7X to eliminate all errors\"", runE4)
	register("E6", "PARA effectiveness (analytic + Monte Carlo)",
		"\"PARA ... much higher reliability guarantees than modern hard disks\"", runE6)
	register("E10", "Refresh burden vs device density",
		"\"DRAM refresh is already a significant burden\"", runE10)
}

// runE1 regenerates Figure 1: one row per module with its sampled
// error rate under the standard maximum-rate double-sided test.
func runE1(env Env) *stats.Table {
	pop := modules.Population(env.Seed)
	test := modules.DefaultStandardTest()
	src := rng.New(env.Seed ^ 0xf1)
	t := stats.NewTable("E1: RowHammer errors per 1e9 cells vs manufacture date (Fig. 1)",
		"year", "vendor", "module", "errors/1e9")
	type agg struct {
		sum, n float64
		max    float64
	}
	byYear := map[int]*agg{}
	for i := range pop {
		m := &pop[i]
		e := m.ErrorsPer1e9(test, src)
		t.AddRowf(m.Year, m.Vendor.String(), m.ID, e)
		a := byYear[m.Year]
		if a == nil {
			a = &agg{}
			byYear[m.Year] = a
		}
		a.sum += e
		a.n++
		if e > a.max {
			a.max = e
		}
	}
	years := make([]int, 0, len(byYear))
	for y := range byYear {
		years = append(years, y)
	}
	sort.Ints(years)
	for _, y := range years {
		a := byYear[y]
		t.AddNote("year %d: mean %.3g max %.3g errors/1e9", y, a.sum/a.n, a.max)
	}
	t.AddNote("paper shape: zero pre-2010, rising to 1e5-1e6 by 2012-2013, dip in 2014")
	return t
}

// runE2 reproduces the census claims.
func runE2(env Env) *stats.Table {
	pop := modules.Population(env.Seed)
	c := modules.TakeCensus(pop)
	t := stats.NewTable("E2: module vulnerability census",
		"year", "modules", "vulnerable")
	years := make([]int, 0, len(c.ByYear))
	for y := range c.ByYear {
		years = append(years, y)
	}
	sort.Ints(years)
	for _, y := range years {
		e := c.ByYear[y]
		t.AddRowf(y, e[0], e[1])
	}
	t.AddNote("total %d modules, %d vulnerable (paper: 129, 110)", c.Total, c.Vulnerable)
	t.AddNote("earliest vulnerable year: %d (paper: 2010)", c.EarliestVuln)
	return t
}

// pickModule returns a vulnerable module of the requested year.
func pickModule(pop []modules.Module, year int) *modules.Module {
	for i := range pop {
		if pop[i].Year == year && pop[i].Vulnerable() {
			return &pop[i]
		}
	}
	panic(fmt.Sprintf("exp: no vulnerable module of year %d", year))
}

// runE3 sweeps hammer count: analytic expected error rate for the
// three recent module classes plus a simulated spot check.
func runE3(env Env) *stats.Table {
	pop := modules.Population(env.Seed)
	t := stats.NewTable("E3: errors per 1e9 cells vs hammer count (double-sided pairs/window)",
		"pairs", "2012-class", "2013-class", "2014-class")
	m12 := pickModule(pop, 2012)
	m13 := pickModule(pop, 2013)
	m14 := pickModule(pop, 2014)
	for _, pairs := range []float64{25e3, 50e3, 100e3, 200e3, 400e3, 650e3} {
		row := make([]float64, 3)
		for i, m := range []*modules.Module{m12, m13, m14} {
			row[i] = m.Vuln.FractionFlippableAt(pairs) * 1e9
		}
		t.AddRowf(pairs, row[0], row[1], row[2])
	}
	// Simulated spot check: instantiate the 2013 module scaled small
	// and hammer a few victims at two counts.
	scaled := *m13
	scaled.Vuln.MinThreshold /= 10
	scaled.Vuln.ThresholdMedian /= 10
	g := dram.Geometry{Banks: 1, Rows: 512, Cols: 8}
	low, high := int64(0), int64(0)
	for i, pairs := range []int{8000, 80000} {
		sys := core.Build(&scaled, core.Options{Geom: g})
		for r := 0; r < g.Rows; r++ {
			pat := uint64(0xaaaaaaaaaaaaaaaa)
			if r%2 == 1 {
				pat = 0x5555555555555555
			}
			sys.Devices[0][0].FillPhysRow(0, r, pat)
		}
		for v := 1; v < g.Rows-1; v += 8 {
			sys.Mem.Controller(0).HammerPairsRanked(0, 0, v-1, v+1, pairs)
		}
		if i == 0 {
			low = sys.TotalFlips()
		} else {
			high = sys.TotalFlips()
		}
	}
	t.AddNote("simulated spot check (thresholds scaled /10): %d flips at 8k pairs, %d at 80k pairs", low, high)
	t.AddNote("paper shape: zero below threshold, superlinear growth beyond")
	return t
}

// runE4 sweeps the refresh-rate multiplier, the paper's immediate
// solution, and finds where the last module goes error-free.
func runE4(env Env) *stats.Table {
	pop := modules.Population(env.Seed)
	test := modules.DefaultStandardTest()
	src := rng.New(env.Seed ^ 0xe4)
	t := stats.NewTable("E4: errors vs refresh-rate multiplier (population of 129)",
		"multiplier", "clean modules", "total errors/1e9 (sum)")
	for _, mult := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 10} {
		scaledTest := modules.StandardTest{PairsPerWindow: test.PairsPerWindow / mult}
		clean := 0
		total := 0.0
		for i := range pop {
			e := pop[i].ErrorsPer1e9(scaledTest, src)
			if e == 0 {
				clean++
			}
			total += e
		}
		t.AddRowf(mult, clean, total)
	}
	worst := 0.0
	for i := range pop {
		if m := pop[i].RefreshMultiplierToEliminate(test); m > worst {
			worst = m
		}
	}
	t.AddNote("multiplier eliminating all errors on the worst module: %.1fx (paper: ~7x)", worst)
	t.AddNote("overheads of this solution are quantified in E10")
	return t
}

// runE6 tabulates PARA's analytic guarantees and validates the model
// with a Monte Carlo at toy scale where the escape probability is
// large enough to measure.
func runE6(env Env) *stats.Table {
	t := stats.NewTable("E6: PARA failure probability and MTTF vs p",
		"p", "escape prob/attempt", "MTTF (years)", "FIT")
	actRate := float64(dram.Second) / float64(dram.DefaultTiming().TRC)
	threshold := 139e3
	for _, p := range []float64{0.0001, 0.0005, 0.001, 0.005, 0.01} {
		q := core.PARAFailureProbability(p, threshold)
		years := core.PARAExpectedYearsToFailure(p, threshold, actRate)
		t.AddRowf(p, q, years, core.FITFromMTTFYears(years))
	}
	// Monte Carlo at toy scale: threshold 500, p=0.004 gives
	// (1-0.002)^500 ~ 0.3675 escape probability.
	src := rng.New(env.Seed ^ 0xe6)
	const trials = 200000
	toyP, toyThr := 0.004, 500
	escapes := 0
	for i := 0; i < trials; i++ {
		escaped := true
		for k := 0; k < toyThr; k++ {
			if src.Bool(toyP / 2) {
				escaped = false
				break
			}
		}
		if escaped {
			escapes++
		}
	}
	mc := float64(escapes) / trials
	an := core.PARAFailureProbability(toyP, float64(toyThr))
	t.AddNote("Monte Carlo validation at toy scale: measured %.4f vs analytic %.4f", mc, an)
	t.AddNote("hard disk MTTF reference: ~%d years; PARA p>=0.001 exceeds it by >20 orders of magnitude", core.HardDiskMTTFYears)
	return t
}

// runE10 computes the refresh burden across densities, the cost
// context for the refresh-rate solution.
func runE10(env Env) *stats.Table {
	t := stats.NewTable("E10: refresh burden vs density",
		"rows/bank", "capacity-class", "loss@1x", "loss@7x", "power@1x (W)", "power@7x (W)")
	tm := dram.DefaultTiming()
	en := dram.DefaultEnergy()
	labels := map[int]string{
		8192: "1Gb", 16384: "2Gb", 32768: "4Gb", 65536: "8Gb",
		131072: "16Gb", 262144: "32Gb", 524288: "64Gb",
	}
	for _, rows := range []int{8192, 16384, 32768, 65536, 131072, 262144, 524288} {
		b1 := core.ComputeRefreshBurden(tm, en, 8, rows, 1)
		b7 := core.ComputeRefreshBurden(tm, en, 8, rows, 7)
		t.AddRow(
			fmt.Sprintf("%d", rows), labels[rows],
			fmt.Sprintf("%.2f%%", 100*b1.ThroughputLossFrac),
			fmt.Sprintf("%.2f%%", 100*b7.ThroughputLossFrac),
			fmt.Sprintf("%.3f", b1.RefreshPowerW),
			fmt.Sprintf("%.3f", b7.RefreshPowerW),
		)
	}
	t.AddNote("paper context: refresh overhead grows with density; a 7x refresh-rate fix multiplies it")
	return t
}
