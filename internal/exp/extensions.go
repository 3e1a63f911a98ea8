package exp

import (
	"fmt"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/fieldstudy"
	"repro/internal/ftl"
	"repro/internal/memctrl"
	"repro/internal/raidr"
	"repro/internal/rng"
	"repro/internal/stats"
)

func init() {
	register("E24", "Fleet-scale field study (DSN'15-class)",
		"Section III: \"large-scale field studies ... show both DRAM and NAND flash are becoming less reliable\"", runE24)
	register("E25", "RAIDR refresh savings vs RowHammer exposure",
		"refresh burden [68] + the co-design caution: \"ensure no new vulnerabilities open up due to the solutions developed\"", runE25)
	register("E26", "Ablation: PARA refresh radius",
		"design choice: a radius-1 refresher leaves the distance-2 victim population exposed", runE26)
	register("E27", "Ablation: data-pattern dependence strength",
		"ISCA'14 data pattern dependence of disturbance errors", runE27)
	register("E28", "Ablation: TRR sampling probability",
		"design choice: sampler capture rate vs protection", runE28)
	register("E29", "Ablation: RFR phase contributions",
		"design choice: read-retry sweep vs fast/slow-leaker classification", runE29)
}

// runE24: the fleet Monte Carlo reproducing the field studies'
// density, concentration and UE findings.
func runE24(env Env) *stats.Table {
	res := fieldstudy.Run(fieldstudy.DefaultConfig(), rng.New(env.Seed^0x24))
	t := stats.NewTable("E24: one-year fleet simulation (16k DIMMs, three density generations)",
		"density", "DIMMs", "CE/DIMM-month", "DIMMs with CE", "top-1% CE share", "UE/1000 DIMM-months")
	for _, c := range res.Classes {
		t.AddRow(c.Label, fmt.Sprintf("%d", c.DIMMs),
			fmt.Sprintf("%.4f", c.CEPerDIMMMonth),
			fmt.Sprintf("%.1f%%", 100*c.FracDIMMsWithCE),
			fmt.Sprintf("%.0f%%", 100*c.Top1PctShare),
			fmt.Sprintf("%.2f", c.UEPerThousandDIMMMonth))
	}
	t.AddNote("field-study signatures: rates grow with density; errors concentrate in few DIMMs; UEs rare but present")
	return t
}

// runE25: RAIDR saves refresh, but slow bins stretch the RowHammer
// window — quantify both sides of the co-design trade.
func runE25(env Env) *stats.Table {
	t := stats.NewTable("E25: RAIDR slow-bin multiple vs refresh savings and RowHammer exposure",
		"slow multiple", "refresh ops saved", "victim flips")
	// One injected victim whose threshold is just above what an
	// attacker fits into one nominal window, so nominal refresh
	// protects it and any slow bin exposes it.
	window := 64 * dram.Millisecond
	trc := dram.DefaultTiming().TRC
	pairsPerWindow := int(uint64(window) / uint64(2*trc)) // ~650k
	threshold := float64(pairsPerWindow) * 2 * 1.3        // beyond one window's reach
	for _, mult := range []int{1, 2, 4, 8} {
		g := dram.Geometry{Banks: 1, Rows: 128, Cols: 4}
		dev := dram.NewDevice(g)
		dm := disturb.NewModel(g, disturb.Invulnerable(), rng.New(env.Seed))
		dm.InjectWeakCell(0, 60, 5, threshold, 1, 1, 1, 1)
		dev.AttachFault(dm)
		dev.SetPhysBit(0, 60, 5, 1)
		plan := raidr.NewPlan(g.Rows, nil, mult) // victim binned strong (the escape case)
		if mult == 1 {
			plan = raidr.NewPlan(g.Rows, nil, 1)
		}
		eng := raidr.NewEngine(dev, 0, plan, window)
		// Attack: hammer rows 59 and 61 closed-page at full rate for
		// eight windows; RAIDR refreshes per plan at each
		// nominal-window boundary. Activation times only move restore
		// clocks: the disturb model reads no timestamps and no
		// retention model is attached.
		rows := []int{59, 61}
		acts := 2 * pairsPerWindow
		now := dram.Time(0)
		for w := 0; w < 8; w++ {
			for done := 0; done < acts; {
				done += dev.HammerCycle(dram.Cycle{
					Rows: rows, Pos: done % 2, N: acts - done,
					Start: now + dram.Time(done)*trc, Period: trc, ClosedPage: true,
				})
			}
			now += dram.Time(acts) * trc
			eng.Step(now)
		}
		saved := plan.SavedFraction()
		t.AddRow(fmt.Sprintf("%d", mult),
			fmt.Sprintf("%.1f%%", 100*saved),
			fmt.Sprintf("%d", dm.TotalFlips()))
	}
	t.AddNote("threshold set 1.3x beyond one window's maximum double-sided pressure:")
	t.AddNote("nominal refresh protects; every slow bin >= 2x exposes the victim — Section IV's caution made concrete")
	return t
}

// runE26: PARA radius 1 leaves distance-2 victims unprotected.
func runE26(env Env) *stats.Table {
	t := stats.NewTable("E26: PARA refresh radius vs residual flips",
		"radius", "dist-1 victim flips", "dist-2 victim flips")
	for _, radius := range []int{1, 2} {
		g := dram.Geometry{Banks: 1, Rows: 128, Cols: 4}
		dev := dram.NewDevice(g)
		dm := disturb.NewModel(g, disturb.Invulnerable(), rng.New(env.Seed))
		// Victims at distance 1 and 2 from the hammered pair around 60.
		dm.InjectWeakCell(0, 60, 3, 2000, 1, 1, 1, 1) // dist-1 victim
		dm.InjectWeakCell(0, 63, 4, 2000, 1, 2, 1, 1) // dist-2 victim of row 61
		dev.AttachFault(dm)
		dev.SetPhysBit(0, 60, 3, 1)
		dev.SetPhysBit(0, 63, 4, 1)
		ctrl := memctrl.New(dev, memctrl.Config{})
		para := memctrl.NewPARA(0.03, memctrl.InDRAM, nil, rng.New(env.Seed^uint64(radius)))
		para.Radius = radius
		ctrl.Attach(para)
		ctrl.HammerPairsRanked(0, 0, 59, 61, 50000)
		d1 := 1 - int(dev.PhysBit(0, 60, 3))
		d2 := 1 - int(dev.PhysBit(0, 63, 4))
		t.AddRowf(radius, d1, d2)
	}
	t.AddNote("expected: radius 1 protects only the adjacent victim; radius 2 protects both")
	return t
}

// runE27: disturbance rate vs aggressor data pattern at several DPD
// strengths.
func runE27(env Env) *stats.Table {
	t := stats.NewTable("E27: flips vs aggressor data pattern and DPD factor",
		"DPD factor", "opposite-pattern flips", "same-pattern flips")
	for _, dpd := range []float64{1.0, 0.5, 0.25, 0.05} {
		count := func(aggPattern uint64) int64 {
			p := disturb.Params{
				WeakCellFraction: 0.01,
				ThresholdMedian:  4000,
				ThresholdSigma:   0.3,
				MinThreshold:     2000,
				DPDFactor:        dpd,
				SecondSideMin:    1, SecondSideMax: 1,
			}
			g := dram.Geometry{Banks: 1, Rows: 128, Cols: 8}
			dev := dram.NewDevice(g)
			m := disturb.NewModel(g, p, rng.New(env.Seed^0x27))
			dev.AttachFault(m)
			for r := 0; r < g.Rows; r++ {
				dev.FillPhysRow(0, r, 0xffffffffffffffff)
			}
			for v := 1; v < g.Rows-1; v += 4 {
				dev.FillPhysRow(0, v-1, aggPattern)
				dev.FillPhysRow(0, v+1, aggPattern)
			}
			ctrl := memctrl.New(dev, memctrl.Config{})
			for v := 1; v < g.Rows-1; v += 4 {
				ctrl.HammerPairsRanked(0, 0, v-1, v+1, 3000)
			}
			return m.TotalFlips()
		}
		t.AddRowf(dpd, count(0), count(^uint64(0)))
	}
	t.AddNote("rowstripe (opposite) maximizes coupling; the gap between columns is the DPD signature")
	return t
}

// runE28: TRR capture probability sweep against a fixed double-sided
// attack.
func runE28(env Env) *stats.Table {
	t := stats.NewTable("E28: TRR sampling probability vs protection (8-entry sampler, 19 victims)",
		"sample probability", "victims flipped")
	for _, p := range []float64{0, 0.0005, 0.002, 0.01, 0.05} {
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
		if p > 0 {
			ctrl.Attach(memctrl.NewTRR(8, p, rng.New(env.Seed^uint64(p*1e4))))
		}
		ctrl.HammerRowsRanked(0, 0, pairRows(victims), 4000)
		flipped := 0
		for _, v := range victims {
			if dev.PhysBit(0, v, 3) != 1 {
				flipped++
			}
		}
		t.AddRowf(p, flipped)
	}
	t.AddNote("capture rate is the TRR design knob: too low and aggressors slip between REFs")
	return t
}

// runE29: RFR with each phase disabled, isolating their contributions.
func runE29(env Env) *stats.Table {
	t := stats.NewTable("E29: RFR phase ablation (P/E 12000, 2-year retention)",
		"configuration", "errors before", "errors after")
	ecc := ftl.DefaultECC()
	// Full RFR.
	full := ftl.RunRFR(agedFlashBlock(env.Seed, 12000, 24*365*2), 0, ecc, ftl.DefaultRFRConfig())
	// Sweep only: ExtraShift 0 neutralizes phase 2 (both classification
	// reads use the same references, so no cell is reclassified).
	sweepCfg := ftl.DefaultRFRConfig()
	sweepCfg.ExtraShift = 0
	sweepOnly := ftl.RunRFR(agedFlashBlock(env.Seed, 12000, 24*365*2), 0, ecc, sweepCfg)
	// Classification only: the sweep is pinned to offset zero.
	classCfg := ftl.DefaultRFRConfig()
	classCfg.SweepOffsets = []float64{0}
	classOnly := ftl.RunRFR(agedFlashBlock(env.Seed, 12000, 24*365*2), 0, ecc, classCfg)
	t.AddRowf("full RFR", full.ErrorsBefore, full.ErrorsAfter)
	t.AddRowf("sweep only", sweepOnly.ErrorsBefore, sweepOnly.ErrorsAfter)
	t.AddRowf("classification only", classOnly.ErrorsBefore, classOnly.ErrorsAfter)
	t.AddNote("the global reference sweep does the heavy lifting; per-cell classification trims the fast-leaker tail")
	return t
}
