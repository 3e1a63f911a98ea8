package exp

// Flash/PCM-at-scale experiments (E60, E62, E63): the flash stack
// promoted from single-block demos to SSD topologies on the
// word-parallel hot path. E60 maps the RBER/lifetime frontier (ECC
// strength x FCR period x read disturb) across the dies of a
// flash.Topology; E62 scales the E20 PCM write-attack tournament
// to a fleet of arrays; E63 runs a flash wear field study across a
// die fleet alongside E52's DRAM fleet. All three shard across
// Env.Shards workers and their tables are worker-count invariant by
// construction (per-die substreams, slot-indexed results, fixed-order
// merges).

import (
	"fmt"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/pcm"
	"repro/internal/rng"
	"repro/internal/stats"
)

func init() {
	register("E60", "SSD-scale RBER/lifetime frontier: ECC strength x FCR period x read disturb (die-sharded)",
		"Section IV flash scaling: ECC and refresh as the controller levers against retention and disturb errors", runE60)
	register("E62", "Fleet-scale PCM write-attack tournament: start-gap vs randomized across a die fleet",
		"Section III emerging memories: endurance attacks at fleet scale, beyond E20's single array", runE62)
	register("E63", "Flash wear field study across a die fleet (die-sharded)",
		"Section III field studies: NAND fleets age like DRAM fleets — alongside E52's ~1M-DIMM study", runE63)
}

// e60Topology is the shared die fleet of the scale experiments: big
// enough that sharding matters, small enough that the bisection-heavy
// frontier stays in experiment-suite budget.
func e60Topology() flash.Topology {
	return flash.Topology{Dies: 4, Planes: 2, BlocksPerPlane: 256}
}

// e60LifetimeConfig shrinks the probe block so the frontier's ~12
// bisection probes per (spec, die) stay cheap.
func e60LifetimeConfig() ftl.LifetimeConfig {
	cfg := ftl.DefaultLifetimeConfig()
	cfg.ProbeWLs = 1
	cfg.ProbeCells = 4096
	return cfg
}

// runE60 sweeps the three controller levers the paper's flash story
// turns on — ECC strength, refresh (FCR) period, and read-disturb
// exposure — and reports the endurance bound and resulting lifetime
// at every grid point, aggregated across the topology's dies.
func runE60(env Env) *stats.Table {
	topo := e60Topology()
	cfg := e60LifetimeConfig()
	p := flash.DefaultParams()
	var specs []ftl.FrontierSpec
	for _, tcorr := range []int{20, 40} {
		for _, period := range []float64{365, 30, 7} {
			for _, stress := range []int64{0, 30000} {
				specs = append(specs, ftl.FrontierSpec{
					ECC:         ftl.ECC{CodewordBits: 8192, T: tcorr},
					PeriodDays:  period,
					StressReads: stress,
				})
			}
		}
	}
	points := ftl.EnduranceFrontier(p, cfg, topo, specs, env.Seed^0x60, env.Shards)
	t := stats.NewTable(fmt.Sprintf("E60: RBER/lifetime frontier on %s (per-die endurance bounds)", topo),
		"ECC t/1KB", "FCR period", "stress reads", "mean endurance", "die min..max", "lifetime days")
	for _, pt := range points {
		t.AddRow(fmt.Sprintf("%d", pt.Spec.ECC.T),
			fmt.Sprintf("%.0f d", pt.Spec.PeriodDays),
			fmt.Sprintf("%d", pt.Spec.StressReads),
			fmt.Sprintf("%.0f", pt.MeanEndurance),
			fmt.Sprintf("%d..%d", pt.MinEndurance, pt.MaxEndurance),
			fmt.Sprintf("%.0f", pt.LifetimeDays))
	}
	t.AddNote("expected: endurance rises with shorter FCR periods and stronger ECC, falls under read disturb;")
	t.AddNote("per-die substreams make every row a pure function of the seed for any shard count")
	return t
}

// runE62 is E20 at fleet scale: the single-hot-line write attack runs
// against a fleet of arrays per scheme, reporting the spread of
// writes-to-failure that one array cannot show.
func runE62(env Env) *stats.Table {
	cfg := pcm.DefaultFleetConfig()
	res := pcm.RunFleetTournament(cfg, env.Seed^0x62, env.Shards)
	t := stats.NewTable(fmt.Sprintf("E62: PCM write-attack tournament (%d arrays/scheme, %d lines, %.0e endurance)",
		cfg.Arrays, cfg.Lines, cfg.MeanEndurance),
		"scheme", "mean writes to failure", "fleet min", "fleet max", "mean fraction of ideal")
	for _, s := range res {
		t.AddRow(s.Scheme,
			fmt.Sprintf("%.0f", s.MeanWrites),
			fmt.Sprintf("%d", s.MinWrites),
			fmt.Sprintf("%d", s.MaxWrites),
			fmt.Sprintf("%.1f%%", 100*s.MeanFracIdeal))
	}
	t.AddNote("expected: E20's ordering survives fleet statistics — start-gap gains orders of magnitude over")
	t.AddNote("no leveling on every array, and randomization holds near the ideal bound fleet-wide")
	return t
}

// runE63 is the flash counterpart of E52's DRAM fleet study: a fleet
// of dies in three wear classes, each die probed for post-retention
// RBER and decodability from its own substream.
func runE63(env Env) *stats.Table {
	topo := flash.Topology{Dies: 96, Planes: 2, BlocksPerPlane: 128}
	p := flash.DefaultParams()
	e := ftl.DefaultECC()
	classes := []struct {
		label string
		pe    int
	}{
		{"fresh (2k P/E)", 2000},
		{"mid-life (15k P/E)", 15000},
		{"worn (35k P/E)", 35000},
	}
	const cells = 2048
	const retentionDays = 30
	type dieOut struct {
		rber   [3]float64
		failed [3]bool
	}
	outs := make([]dieOut, topo.Dies)
	topo.ShardDies(env.Seed^0x63, env.Shards, func(die int, src *rng.Stream) {
		words := cells / 64
		lsb := make([]uint64, words)
		msb := make([]uint64, words)
		refs := p.NominalRefs()
		for ci, cl := range classes {
			b := flash.NewBlock(p, 1, cells, src.Split())
			b.CycleWear(cl.pe)
			b.Erase()
			for i := range lsb {
				lsb[i] = src.Uint64()
				msb[i] = src.Uint64()
			}
			b.ProgramFull(0, lsb, msb)
			b.AdvanceHours(retentionDays * 24)
			outs[die].rber[ci] = b.RBER(0)
			ok := e.Evaluate(b.ReadLSBInto(0, refs, lsb), b.TruthLSB(0)).OK() &&
				e.Evaluate(b.ReadMSBInto(0, refs, msb), b.TruthMSB(0)).OK()
			outs[die].failed[ci] = !ok
		}
	})
	t := stats.NewTable(fmt.Sprintf("E63: flash wear field study (%s, %d-day retention)", topo, retentionDays),
		"wear class", "mean RBER", "max RBER", "dies failing ECC")
	for ci, cl := range classes {
		var sum, max float64
		failed := 0
		for d := range outs {
			r := outs[d].rber[ci]
			sum += r
			if r > max {
				max = r
			}
			if outs[d].failed[ci] {
				failed++
			}
		}
		t.AddRow(cl.label,
			fmt.Sprintf("%.2e", sum/float64(topo.Dies)),
			fmt.Sprintf("%.2e", max),
			fmt.Sprintf("%d/%d", failed, topo.Dies))
	}
	t.AddNote("expected: RBER grows with the wear class and the worn tail is what ECC provisioning must cover —")
	t.AddNote("the NAND half of the field-study story E52 tells for DRAM, on the same sharded substream engine")
	return t
}
