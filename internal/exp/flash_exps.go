package exp

import (
	"fmt"
	"math"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/rng"
	"repro/internal/stats"
)

func init() {
	register("E13", "Flash RBER breakdown vs P/E cycles",
		"\"the dominant source of errors in flash memory are data retention errors\"", runE13)
	register("E14", "Flash Correct-and-Refresh lifetime",
		"\"performing refresh in an adaptive manner greatly improves the lifetime\"", runE14)
	register("E15", "Read disturb growth and per-cell variation",
		"DSN'15: read disturb widespread, wide variation in cell susceptibility", runE15)
	register("E16", "Retention Failure Recovery",
		"\"Retention Failure Recovery leads to significant reductions in bit error rate\"", runE16)
	register("E17", "Neighbor-cell assisted correction",
		"\"one can probabilistically correct ... by knowing the values of cells in the neighboring page\"", runE17)
	register("E18", "Two-step programming vulnerability and mitigation",
		"HPCA'17: exploit partially-programmed cells; mitigations increase lifetime by 16%", runE18)
}

// agedFlashBlock builds a worn block with one programmed wordline aged
// by the given number of hours — the shared fixture of the recovery
// experiments.
func agedFlashBlock(seed uint64, pe int, ageHours float64) *flash.Block {
	b := flash.NewBlock(flash.DefaultParams(), 4, 2048, rng.New(seed^uint64(pe)))
	b.CycleWear(pe)
	b.Erase()
	src := rng.New(seed ^ 0xab)
	lsb, msb := flashPages(src, 32)
	b.ProgramFull(0, lsb, msb)
	b.AdvanceHours(ageHours)
	return b
}

func flashPages(src *rng.Stream, words int) ([]uint64, []uint64) {
	a := make([]uint64, words)
	b := make([]uint64, words)
	for i := range a {
		a[i] = src.Uint64()
		b[i] = src.Uint64()
	}
	return a, b
}

// runE13: at each wear level, measure RBER fresh, after a year of
// retention, after heavy reads, and with an interfering neighbour —
// showing retention dominating at high P/E.
func runE13(env Env) *stats.Table {
	t := stats.NewTable("E13: RBER by error source vs P/E cycles",
		"P/E", "program (fresh)", "+1y retention", "+50k reads", "+interference")
	p := flash.DefaultParams()
	for _, pe := range []int{0, 1000, 3000, 6000, 10000} {
		measure := func(mod func(b *flash.Block)) float64 {
			b := flash.NewBlock(p, 4, 2048, rng.New(env.Seed^uint64(pe)))
			b.CycleWear(pe)
			b.Erase()
			src := rng.New(env.Seed ^ 0x13)
			lsb, msb := flashPages(src, 32)
			b.ProgramFull(0, lsb, msb)
			if mod != nil {
				mod(b)
			}
			return b.RBER(0)
		}
		fresh := measure(nil)
		retention := measure(func(b *flash.Block) { b.AdvanceHours(24 * 365) })
		reads := measure(func(b *flash.Block) { b.StressReads(50000) })
		interf := measure(func(b *flash.Block) {
			zero := make([]uint64, 32)
			ones := make([]uint64, 32)
			for i := range ones {
				ones[i] = ^uint64(0)
			}
			b.ProgramFull(1, zero, ones) // all-P3 aggressor
		})
		t.AddRowf(pe, fresh, retention, reads, interf)
	}
	t.AddNote("expected: the retention column dominates total error rate at high P/E (DATE'12 finding)")
	return t
}

// runE14: lifetime comparison between no refresh and FCR variants.
func runE14(env Env) *stats.Table {
	p := flash.DefaultParams()
	e := ftl.DefaultECC()
	cfg := ftl.DefaultLifetimeConfig()
	t := stats.NewTable("E14: drive lifetime under FCR (5 P/E per day workload, 1y retention spec)",
		"policy", "tolerated P/E", "lifetime (days)", "vs baseline", "refresh wear")
	base := ftl.BaselineLifetime(p, e, cfg, rng.New(env.Seed^0x14))
	rows := []ftl.LifetimeResult{base}
	for _, days := range []float64{90, 30, 7, 1} {
		r := ftl.FCRLifetime(p, e, cfg, days, rng.New(env.Seed^0x14))
		r.Policy = fmt.Sprintf("FCR every %.0fd", days)
		rows = append(rows, r)
	}
	rows = append(rows, ftl.AdaptiveFCRLifetime(p, e, cfg, rng.New(env.Seed^0x14)))
	for _, r := range rows {
		t.AddRow(r.Policy, fmt.Sprintf("%d", r.Endurance),
			fmt.Sprintf("%.0f", r.LifetimeDays),
			fmt.Sprintf("%.1fx", r.LifetimeDays/base.LifetimeDays),
			fmt.Sprintf("%.2f%%", 100*r.RefreshWearFrac))
	}
	t.AddNote("expected: FCR multiplies lifetime; adaptive FCR matches the best fixed rate without its constant wear")
	return t
}

// runE15: RBER vs read count plus the susceptibility-variation
// statistics that enable both recovery and attack.
func runE15(env Env) *stats.Table {
	t := stats.NewTable("E15: read disturb vs read count (P/E 4000)",
		"reads", "RBER")
	p := flash.DefaultParams()
	b := flash.NewBlock(p, 4, 2048, rng.New(env.Seed^0x15))
	b.CycleWear(4000)
	b.Erase()
	src := rng.New(env.Seed ^ 0x51)
	lsb, msb := flashPages(src, 32)
	b.ProgramFull(0, lsb, msb)
	prevReads := int64(0)
	for _, reads := range []int64{0, 50000, 100000, 250000, 500000, 1000000} {
		b.StressReads(reads - prevReads)
		prevReads = reads
		t.AddRowf(reads, b.RBER(0))
	}
	// Per-cell susceptibility variation, the DSN'15 observation: the
	// lognormal sigma implies an order of magnitude between p10/p90.
	s := p.RDSigma
	q := func(z float64) float64 { return math.Exp(z * s) }
	t.AddNote("per-cell susceptibility quantiles (x median): p10=%.2f p50=1.00 p90=%.2f p99=%.2f",
		q(-1.2816), q(1.2816), q(2.3263))
	t.AddNote("expected: RBER grows superlinearly with reads; wide cell variation (>5x p10..p99)")
	return t
}

// runE16: RFR on pages at several wear/age corners.
func runE16(env Env) *stats.Table {
	t := stats.NewTable("E16: retention failure recovery (RFR)",
		"P/E", "age", "errors before", "errors after", "reduction", "ECC-recovered")
	e := ftl.DefaultECC()
	for _, corner := range []struct {
		pe  int
		yrs float64
	}{{8000, 1}, {10000, 1}, {12000, 2}, {14000, 2}} {
		b := flash.NewBlock(flash.DefaultParams(), 4, 2048, rng.New(env.Seed^uint64(corner.pe)))
		b.CycleWear(corner.pe)
		b.Erase()
		src := rng.New(env.Seed ^ 0x16)
		lsb, msb := flashPages(src, 32)
		b.ProgramFull(0, lsb, msb)
		b.AdvanceHours(24 * 365 * corner.yrs)
		res := ftl.RunRFR(b, 0, e, ftl.DefaultRFRConfig())
		red := "n/a"
		if res.ErrorsBefore > 0 {
			red = fmt.Sprintf("%.0f%%", 100*(1-float64(res.ErrorsAfter)/float64(res.ErrorsBefore)))
		}
		t.AddRow(fmt.Sprintf("%d", corner.pe), fmt.Sprintf("%.0fy", corner.yrs),
			fmt.Sprintf("%d", res.ErrorsBefore), fmt.Sprintf("%d", res.ErrorsAfter),
			red, fmt.Sprintf("%v", res.Recovered))
	}
	t.AddNote("mechanism: read-retry reference sweep + fast/slow leaker classification across a timed re-read")
	return t
}

// runE17: NAC on interference-dominated pages across wear.
func runE17(env Env) *stats.Table {
	t := stats.NewTable("E17: neighbor-cell assisted correction (NAC)",
		"P/E", "errors before", "errors after", "reduction")
	p := flash.DefaultParams()
	p.Gamma = 0.08 // interference-dominated regime
	for _, pe := range []int{4000, 6000, 8000} {
		b := flash.NewBlock(p, 4, 2048, rng.New(env.Seed^uint64(pe)^0x17))
		b.CycleWear(pe)
		b.Erase()
		src := rng.New(env.Seed ^ 0x71)
		lsb, msb := flashPages(src, 32)
		b.ProgramFull(0, lsb, msb)
		zero := make([]uint64, 32)
		ones := make([]uint64, 32)
		for i := range ones {
			ones[i] = ^uint64(0)
		}
		b.ProgramFull(1, zero, ones)
		res := ftl.RunNAC(b, 0, p.Gamma)
		red := "n/a"
		if res.ErrorsBefore > 0 {
			red = fmt.Sprintf("%.0f%%", 100*(1-float64(res.ErrorsAfter)/float64(res.ErrorsBefore)))
		}
		t.AddRow(fmt.Sprintf("%d", pe), fmt.Sprintf("%d", res.ErrorsBefore),
			fmt.Sprintf("%d", res.ErrorsAfter), red)
	}
	t.AddNote("mechanism: one read per neighbor state with interference-compensated references, composed per cell")
	return t
}

// runE18: two-step programming exploit severity vs attacker read
// budget, the buffered-LSB mitigation, and its lifetime payoff.
func runE18(env Env) *stats.Table {
	t := stats.NewTable("E18: two-step programming corruption vs attacker reads (P/E 3000)",
		"attacker reads", "corrupted bits (unmitigated)", "corrupted bits (buffered LSB)")
	p := flash.DefaultParams()
	refs := p.NominalRefs()
	for _, reads := range []int64{0, 250000, 500000, 1000000, 2000000} {
		run := func(buffered bool) int {
			b := flash.NewBlock(p, 4, 2048, rng.New(env.Seed^uint64(reads)))
			b.CycleWear(3000)
			b.Erase()
			src := rng.New(env.Seed ^ 0x18)
			lsb, msb := flashPages(src, 32)
			b.ProgramLSB(0, lsb)
			b.StressReads(reads)
			if buffered {
				b.ProgramMSB(0, msb, refs, lsb)
			} else {
				b.ProgramMSB(0, msb, refs, nil)
			}
			return flash.CountBitErrors(b.ReadLSB(0, refs), lsb) +
				flash.CountBitErrors(b.ReadMSB(0, refs), msb)
		}
		t.AddRowf(reads, run(false), run(true))
	}
	// Lifetime payoff: eliminating the internal intermediate read lets
	// the programming algorithm spend its pulse budget on tighter
	// final distributions; the HPCA'17 mitigations buy ~16% lifetime.
	// We model the reclaimed margin as a 10% reduction in programming
	// noise (calibrated; see EXPERIMENTS.md) and measure the endurance
	// effect through the same lifetime probe as E14.
	e := ftl.DefaultECC()
	cfg := ftl.DefaultLifetimeConfig()
	baseEnd := ftl.MaxEnduranceAtAge(p, e, cfg, cfg.RetentionSpecDays*24, rng.New(env.Seed^0x81))
	mit := p
	mit.Sigma0 *= 0.90
	mitEnd := ftl.MaxEnduranceAtAge(mit, e, cfg, cfg.RetentionSpecDays*24, rng.New(env.Seed^0x81))
	t.AddNote("lifetime: baseline endurance %d P/E, mitigated %d P/E (%+.0f%%; paper: +16%%)",
		baseEnd, mitEnd, 100*(float64(mitEnd)/float64(baseEnd)-1))
	t.AddNote("expected: corruption grows with attacker reads; buffered-LSB mitigation stays near zero")
	return t
}
