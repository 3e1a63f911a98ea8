package exp

import (
	"fmt"
	"math/bits"

	"repro/internal/dram"
	"repro/internal/profile"
	"repro/internal/retention"
	"repro/internal/rng"
	"repro/internal/stats"
)

func init() {
	register("E11", "Retention profiling difficulty (DPD + VRT escapes)",
		"\"some retention errors can easily slip into the field because of the difficulty of retention time testing\"", runE11)
	register("E12", "VRT failures vs ECC scrubbing in the field",
		"AVATAR-class solution space the paper cites for VRT", runE12)
	register("E23", "Online profiling for multi-rate refresh (co-design extension)",
		"Section IV: intelligent controllers profiling DRAM online", runE23)
}

// retentionTestbed builds a device with a dense weak-cell population
// whose DPD and VRT knobs the experiments exercise.
func retentionTestbed(p retention.Params, seed uint64) (*dram.Device, *retention.Model) {
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 8}
	dev := dram.NewDevice(g)
	m := retention.NewModel(g, p, rng.New(seed))
	dev.AttachFault(m)
	return dev, m
}

// runE11: profile with different campaigns at a margin interval, then
// count weak cells the campaign missed that can fail at the target
// operating interval — the cells that "slip into the field".
func runE11(seed uint64) *stats.Table {
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
	// Operating plan: run rows at 8x the nominal window (RAIDR-style
	// savings), i.e. 512 ms. Profiling uses 2x margin: 1024 ms.
	operating := dram.Time(512 * float64(dram.Millisecond))
	margin := 2 * operating

	t := stats.NewTable("E11: weak cells found vs profiling campaign (target interval 512 ms, margin 2x)",
		"campaign", "found", "at-risk cells", "escapes")
	type campaign struct {
		name     string
		patterns []profile.Pattern
		rounds   int
	}
	campaigns := []campaign{
		{"solid x1", profile.SolidOnly(), 1},
		{"full battery x1", profile.StandardPatterns(), 1},
		{"full battery x4", profile.StandardPatterns(), 4},
		{"full battery x16", profile.StandardPatterns(), 16},
	}
	for _, c := range campaigns {
		dev, m := retentionTestbed(p, seed^0x11)
		// Ground truth: cells that can fail at the operating interval
		// under worst conditions (DPD engaged, VRT short state).
		atRisk := map[profile.CellKey]bool{}
		opSec := float64(operating) / float64(dram.Second)
		for _, ci := range m.Cells() {
			worst := ci.BaseSec
			if ci.DPD {
				worst *= p.DPDReduction
			}
			if worst < opSec {
				atRisk[profile.CellKey{Bank: ci.Bank, PhysRow: ci.PhysRow, Bit: ci.Bit}] = true
			}
		}
		prof := profile.New(dev, 0, 0)
		found := prof.Campaign(c.patterns, margin, c.rounds)
		escapes := 0
		//repro:unordered commutative membership count over a set; order cannot change the total
		for k := range atRisk {
			if !found[k] {
				escapes++
			}
		}
		t.AddRow(c.name, fmt.Sprintf("%d", len(found)),
			fmt.Sprintf("%d", len(atRisk)), fmt.Sprintf("%d", escapes))
	}
	t.AddNote("escapes shrink with better patterns and more rounds but do not reach zero: VRT is memoryless")
	return t
}

// runE12 simulates a field deployment with VRT cells and compares
// failure accumulation without ECC, with SECDED only, and with
// SECDED plus periodic scrubbing.
func runE12(seed uint64) *stats.Table {
	p := retention.Params{
		WeakFraction: 0.01,
		MedianSec:    0.4, // short-state retention below the field interval
		Sigma:        0.4,
		MinSec:       0.2,
		DPDFraction:  0,
		VRTFraction:  1,
		VRTRatio:     40, // long state safe, short state fails
		// Asymmetric dwell: cells are retentive most of the time and
		// leak in rare, short episodes — the property that makes VRT
		// failures intermittent in the field.
		VRTDwellSec:     4,
		VRTLongDwellSec: 300,
		TemperatureC:    45,
	}
	fieldInterval := dram.Time(1 * float64(dram.Second)) // aggressive multi-rate plan
	const epochs = 400

	type policy struct {
		name       string
		eccOn      bool
		scrubEvery int // epochs; 0 = never
	}
	policies := []policy{
		{"no ECC", false, 0},
		{"SECDED, no scrub", true, 0},
		{"SECDED + scrub/8", true, 8},
		{"SECDED + scrub/1", true, 1},
	}
	t := stats.NewTable("E12: uncorrected word-failures over 400 field epochs (VRT population)",
		"policy", "failed words", "corrected events")
	for _, pol := range policies {
		dev, m := retentionTestbed(p, seed^0x12)
		_ = m
		g := dev.Geom
		// Reference data: all ones.
		for r := 0; r < g.Rows; r++ {
			dev.FillPhysRow(0, r, ^uint64(0))
		}
		now := dram.Time(0)
		for r := 0; r < g.Rows; r++ {
			dev.RefreshPhysRow(0, r, now)
		}
		failures := 0
		corrected := 0
		failedWord := map[[2]int]bool{}
		for e := 0; e < epochs; e++ {
			now += fieldInterval
			for r := 0; r < g.Rows; r++ {
				dev.RefreshPhysRow(0, r, now)
			}
			for r := 0; r < g.Rows; r++ {
				words := dev.PhysRowWords(0, r)
				for wi, w := range words {
					flips := bits.OnesCount64(^w)
					if flips == 0 {
						continue
					}
					key := [2]int{r, wi}
					if !pol.eccOn {
						if !failedWord[key] {
							failedWord[key] = true
							failures++
						}
						continue
					}
					scrubNow := pol.scrubEvery > 0 && e%pol.scrubEvery == 0
					switch {
					case flips == 1 && scrubNow:
						// ECC corrects; the scrubber writes back the
						// corrected word, re-arming the cell.
						words[wi] = ^uint64(0)
						corrected++
					case flips == 1:
						corrected++ // corrected on read, error remains in cell
					default:
						if !failedWord[key] {
							failedWord[key] = true
							failures++
						}
					}
				}
			}
		}
		t.AddRow(pol.name, fmt.Sprintf("%d", failures), fmt.Sprintf("%d", corrected))
	}
	t.AddNote("expected: without scrubbing, single VRT errors linger until a second flip joins -> multi-bit failure;")
	t.AddNote("frequent scrubbing keeps words at <=1 concurrent error, the AVATAR argument")
	return t
}

// runE23: the co-design payoff experiment — profile, bin rows by
// retention, refresh strong rows less often, and account both the
// refresh savings and the escapes that slipped past profiling.
func runE23(seed uint64) *stats.Table {
	p := retention.Params{
		WeakFraction: 0.004,
		MedianSec:    1.5,
		Sigma:        0.6,
		MinSec:       0.3,
		DPDFraction:  0.4,
		DPDReduction: 0.35,
		VRTFraction:  0.1,
		VRTRatio:     50,
		VRTDwellSec:  120,
		TemperatureC: 45,
	}
	slow := dram.Time(512 * float64(dram.Millisecond)) // 8x window for strong rows
	t := stats.NewTable("E23: multi-rate refresh from online profiling",
		"profiling", "weak rows", "refresh ops saved", "field escapes")
	for _, full := range []bool{false, true} {
		dev, m := retentionTestbed(p, seed^0x23)
		pats := profile.SolidOnly()
		name := "solid x1"
		if full {
			pats = profile.StandardPatterns()
			name = "full battery x4"
		}
		rounds := 1
		if full {
			rounds = 4
		}
		prof := profile.New(dev, 0, 0)
		found := prof.Campaign(pats, 2*slow, rounds)
		weakRows := map[int]bool{}
		//repro:unordered set-to-set projection; weakRows membership is order-independent
		for k := range found {
			weakRows[k.PhysRow] = true
		}
		// Refresh ops saved: strong rows refresh at 1/8 the rate.
		rows := dev.Geom.Rows
		strong := rows - len(weakRows)
		savedFrac := float64(strong) * (1 - 0.125) / float64(rows)
		// Field escapes: at-risk cells in rows binned as strong.
		escapes := 0
		opSec := float64(slow) / float64(dram.Second)
		for _, ci := range m.Cells() {
			worst := ci.BaseSec
			if ci.DPD {
				worst *= p.DPDReduction
			}
			if worst < opSec && !weakRows[ci.PhysRow] {
				escapes++
			}
		}
		t.AddRow(name, fmt.Sprintf("%d", len(weakRows)),
			fmt.Sprintf("%.1f%%", 100*savedFrac), fmt.Sprintf("%d", escapes))
	}
	t.AddNote("the co-design trade: better profiling costs test time but cuts escapes at equal savings")
	return t
}
