// Command rowhammer is the simulated analogue of the original
// user-level RowHammer test program: it instantiates a module class as
// a (possibly multi-channel, multi-rank) topology, hammers rows in
// every bank of every device through the memory controllers, and
// reports every bit flip it induces, with optional mitigation enabled
// to watch flips disappear. The -mapping flag selects the address
// mapping policy, which changes which flat addresses an attacker would
// have to touch but not the physical adjacency the attack exploits.
//
// Usage:
//
//	rowhammer [-year 2013] [-pairs 30000]
//	          [-mode double|single|many|nsided|adaptive|privesc|crossvm|tournament]
//	          [-mitigation none|para|cra|trr|anvil|graphene|twice|refresh2|refresh7|raidr4|raidr8]
//	          [-sides N] [-decoys N] [-seed N] [-strategy name]
//	          [-channels 1] [-ranks 1] [-mapping row|channel|xor]
//	          [-shards N] [-ecc none|secded|indram|chipkill] [-scrub N]
//
// -mode nsided runs the TRRespass-style N-sided pattern (-sides
// aggressors plus -decoys sampler-burning decoy rows per bank region);
// -mode adaptive first probes the sidedness sweep on channel 0 and
// then attacks the whole topology with the winner.
//
// The three system modes run whole exploit chains instead of a raw
// hammer sweep, and close with a single RESULT verdict line
// (EXPLOITABLE / mitigated / ECC-aware outcomes): -mode privesc walks
// the mapping-aware page-table-spray escalation chain; -mode crossvm
// gives the attacker the middle half of the flat physical space and
// asks whether it can flip bits in the co-tenant's rows; -mode
// tournament runs one attacker strategy (-strategy double, single,
// nsided, adaptive or refsync) through the templating + hammer-cell
// pipeline of E82 and reports time-to-first-exploitable-flip.
//
// -ecc puts an ECC layer on every channel's read path, so the report
// splits the induced flips into corrected / detected / silent words —
// the deployed system's view of the attack rather than the raw flip
// count. -scrub N adds a patrol scrubber walking N words per REF
// (requires -ecc).
//
// -mitigation raidr4/raidr8 is not a defence: it attaches the
// controller-integrated multi-rate refresh policy with every row in
// the 4x/8x slow bin (the maximum-savings RAIDR plan with no weak-row
// knowledge), so the run measures how much a stretched refresh
// schedule amplifies the attack — E51's co-design caution from the
// command line.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/modules"
	"repro/internal/raidr"
	"repro/internal/rng"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rowhammer:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	// Everything below core.Build validates its inputs by panicking
	// (simulator-internal contract violations). Flag-derived values are
	// validated up front so a bad invocation gets a one-line message;
	// this net converts anything that still slips through into the same
	// instead of a stack trace.
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("internal panic: %v", p)
		}
	}()
	year := flag.Int("year", 2013, "module class year (2008-2014)")
	pairs := flag.Int("pairs", 30000, "hammer pairs (or N-sided rounds) per victim")
	mode := flag.String("mode", "double",
		"hammer mode: double, single, many, nsided, adaptive, privesc, crossvm, tournament")
	mitigation := flag.String("mitigation", "none",
		"mitigation: none, para, cra, trr, anvil, graphene, twice, refresh2, refresh7, raidr4, raidr8")
	sides := flag.Int("sides", 4, "aggressor rows per N-sided region (nsided mode)")
	decoys := flag.Int("decoys", 2, "decoy rows per bank (nsided/adaptive modes)")
	strategy := flag.String("strategy", "double",
		"attacker strategy for -mode tournament: double, single, nsided, adaptive, refsync")
	seed := flag.Uint64("seed", 1, "simulation seed")
	channels := flag.Int("channels", 1, "number of channels")
	ranks := flag.Int("ranks", 1, "ranks per channel")
	mapping := flag.String("mapping", "row", "address mapping policy: row, channel, xor")
	shards := flag.Int("shards", 0, "channel-shard worker count (0 = serial)")
	eccName := flag.String("ecc", "none", "ECC configuration: none, secded, indram, chipkill")
	scrub := flag.Int("scrub", 0, "patrol scrub words per REF (requires -ecc)")
	flag.Parse()
	if (*mode == "nsided" || *mode == "adaptive") && *sides < 2 {
		return fmt.Errorf("-sides %d: an N-sided pattern needs at least 2 aggressors", *sides)
	}
	if *mode == "tournament" {
		if _, err := attack.NewStrategy(*strategy); err != nil {
			return fmt.Errorf("-strategy %q: %w", *strategy, err)
		}
	}
	if *decoys < 0 {
		return fmt.Errorf("-decoys %d must be non-negative", *decoys)
	}
	if *pairs < 1 {
		return fmt.Errorf("-pairs %d must be positive", *pairs)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards %d must be non-negative", *shards)
	}
	eccCfg, err := memctrl.ECCByName(*eccName)
	if err != nil {
		return fmt.Errorf("-ecc %q: %w", *eccName, err)
	}
	if *scrub < 0 {
		return fmt.Errorf("-scrub %d must be non-negative", *scrub)
	}
	if *scrub > 0 && eccCfg.Kind == memctrl.ECCNone {
		return fmt.Errorf("-scrub %d needs an ECC layer to repair against; pass -ecc", *scrub)
	}

	pop := modules.Population(*seed)
	var mod *modules.Module
	for i := range pop {
		if pop[i].Year == *year {
			mod = &pop[i]
			break
		}
	}
	if mod == nil {
		return fmt.Errorf("no module of year %d", *year)
	}
	// Scale thresholds so a CLI run finishes in seconds; the
	// full-scale numbers come from the analytic model (see E3/E4).
	m := mod.ScaleForSmallArray(50, 1, 0)
	topo := dram.Topology{
		Channels: *channels,
		Ranks:    *ranks,
		Geom:     dram.Geometry{Banks: 1, Rows: 1024, Cols: 8},
	}
	// Validate the flag-derived topology and mapping before core.Build,
	// which (by simulator-internal contract) panics on bad input.
	if err := topo.Validate(); err != nil {
		return fmt.Errorf("bad topology (-channels %d -ranks %d): %w", *channels, *ranks, err)
	}
	if _, err := memctrl.PolicyByName(*mapping, topo); err != nil {
		return fmt.Errorf("-mapping %q: %w", *mapping, err)
	}
	s := core.Build(&m, core.Options{Topology: topo, Mapping: *mapping, ECC: eccCfg})
	g := topo.Geom
	threshold := int64(s.Disturbs[0][0].MinThreshold())
	attachEach := func(build func(ch int) memctrl.Mitigation) {
		for ch := 0; ch < topo.Channels; ch++ {
			s.Mem.Controller(ch).Attach(build(ch))
		}
	}
	switch *mitigation {
	case "none":
	case "refresh2", "refresh7":
		factor := 2.0
		if *mitigation == "refresh7" {
			factor = 7
		}
		attachEach(func(int) memctrl.Mitigation { return memctrl.NewRefreshScaling(factor) })
	case "para":
		s.AttachPARAEachChannel(0.01, rng.New(*seed^2))
	case "cra":
		attachEach(func(int) memctrl.Mitigation {
			return memctrl.NewCRA(threshold, topo.Ranks*g.Banks, g.Rows)
		})
	case "trr":
		trrSrc := rng.New(*seed ^ 3)
		attachEach(func(int) memctrl.Mitigation { return memctrl.NewTRR(8, 0.01, trrSrc.Split()) })
	case "graphene":
		attachEach(func(int) memctrl.Mitigation {
			// Provision the table for the widest in-flight pattern the
			// CLI can generate plus its decoys; adaptive mode sweeps up
			// to 16 sides regardless of -sides.
			widest := *sides
			if *mode == "adaptive" && widest < 16 {
				widest = 16
			}
			entries := 2 * (widest + *decoys)
			if entries < 8 {
				entries = 8
			}
			return memctrl.NewGraphene(entries, threshold, topo.Ranks*g.Banks)
		})
	case "twice":
		attachEach(func(int) memctrl.Mitigation {
			return memctrl.NewTWiCe(threshold, topo.Ranks*g.Banks)
		})
	case "anvil":
		attachEach(func(int) memctrl.Mitigation { return memctrl.NewANVIL() })
	case "raidr4", "raidr8":
		mult := 4
		if *mitigation == "raidr8" {
			mult = 8
		}
		attachEach(func(int) memctrl.Mitigation {
			return memctrl.NewMultiRate(raidr.NewPlan(g.Rows, nil, mult))
		})
	default:
		return fmt.Errorf("unknown mitigation %q", *mitigation)
	}
	if *scrub > 0 {
		attachEach(func(int) memctrl.Mitigation { return memctrl.NewScrubber(*scrub) })
	}

	weak := 0
	for _, dms := range s.Disturbs {
		for _, dm := range dms {
			weak += dm.WeakCellCount()
		}
	}
	fmt.Printf("module %s (year %d, vendor %s), vulnerable=%v, weak cells=%d\n",
		m.ID, m.Year, m.Vendor, m.Vulnerable(), weak)
	fmt.Printf("topology=%s mapping=%s mode=%s pairs=%d mitigation=%s ecc=%s scrub=%d\n",
		topo, s.Mem.Policy().Name(), *mode, *pairs, *mitigation, eccCfg.Kind, *scrub)

	// The system modes run whole exploit chains with their own memory
	// preparation and reporting; the raw hammer sweep below never runs.
	switch *mode {
	case "privesc", "crossvm", "tournament":
		return runSystemMode(s, topo, *mode, *strategy, *pairs, *shards, *seed)
	}

	// Fill memory with a checkerboard so both true- and anti-cells sit
	// in their charged state somewhere, as the original test program's
	// pattern passes do. Writes go through each channel's controller.
	s.Mem.ShardChannels(*shards, func(ch int, c *memctrl.Controller) {
		for rk := 0; rk < topo.Ranks; rk++ {
			for b := 0; b < g.Banks; b++ {
				for r := 0; r < g.Rows; r++ {
					pattern := uint64(0xaaaaaaaaaaaaaaaa)
					if r%2 == 1 {
						pattern = 0x5555555555555555
					}
					for col := 0; col < g.Cols; col++ {
						c.AccessRanked(rk, memctrl.Coord{Bank: b, Row: r, Col: col}, true, pattern)
					}
				}
			}
		}
	})

	victims := attack.EnumerateVictims(topo, 17, 16)
	switch *mode {
	case "double":
		attack.CrossBankHammer(s.Mem, victims, *pairs, *shards)
	case "single":
		s.Mem.ShardChannels(*shards, func(ch int, c *memctrl.Controller) {
			for _, v := range victims {
				if v.Channel == ch {
					c.HammerPairsRanked(v.Rank, v.Bank, v.Row, (v.Row+g.Rows/2)%g.Rows, *pairs)
				}
			}
		})
	case "many":
		var rows []int
		for v := 17; v < g.Rows-1; v += 16 {
			rows = append(rows, v-1, v+1)
		}
		s.Mem.ShardChannels(*shards, func(ch int, c *memctrl.Controller) {
			for rk := 0; rk < topo.Ranks; rk++ {
				for b := 0; b < g.Banks; b++ {
					c.HammerRowsRanked(rk, b, rows, *pairs)
				}
			}
		})
	case "nsided":
		attack.CrossBankNSided(s.Mem, nsidedBases(topo, *sides, *decoys), *sides, *decoys, *pairs, *shards)
	case "adaptive":
		adaptive := &attack.AdaptiveStrategy{Sweep: []int{2, 4, 8, 16}, Decoys: *decoys, Budget: 120000}
		adaptive.Probe(attack.Target{Ctrl: s.Mem.Controller(0), Pattern: 0xaaaaaaaaaaaaaaaa})
		best := adaptive.BestSides()
		for _, p := range adaptive.Probes() {
			fmt.Printf("probe: %2d-sided -> %d flips (%d activations)\n", p.Sides, p.Flips, p.Activations)
		}
		fmt.Printf("adaptive attacker chose %d sides\n", best)
		attack.CrossBankNSided(s.Mem, nsidedBases(topo, best, *decoys), best, *decoys, *pairs, *shards)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	// With ECC on, sweep all of memory back through the controllers the
	// way a verification pass (or the next reader) would: the ECC layer
	// classifies every corrupted word, so the report can split the raw
	// flips into corrected / detected / silent.
	if eccCfg.Kind != memctrl.ECCNone {
		s.Mem.ShardChannels(*shards, func(ch int, c *memctrl.Controller) {
			for rk := 0; rk < topo.Ranks; rk++ {
				for b := 0; b < g.Banks; b++ {
					for r := 0; r < g.Rows; r++ {
						for col := 0; col < g.Cols; col++ {
							c.AccessRanked(rk, memctrl.Coord{Bank: b, Row: r, Col: col}, false, 0)
						}
					}
				}
			}
		})
	}

	reportResults(s, eccCfg.Kind != memctrl.ECCNone)
	return nil
}

// runSystemMode drives the three whole-chain modes against the built
// system and closes with the one-line RESULT verdict. All three go
// through the ordinary controller access path under whatever
// mitigation and ECC the flags attached.
func runSystemMode(s *core.System, topo dram.Topology, mode, strategyName string, pairs, shards int, seed uint64) error {
	frames := int(topo.Bytes() / (uint64(topo.Geom.Cols) * 8))
	switch mode {
	case "privesc":
		res := attack.RunPrivEscSystem(s.Mem, attack.SysPrivEscConfig{
			SprayFraction:   0.5,
			PairsPerAttempt: pairs,
			MaxPlacements:   25,
			// Drammer massaging needs a power-of-two frame count;
			// fall back to probabilistic placement otherwise.
			Deterministic: frames&(frames-1) == 0,
			Workers:       shards,
		}, rng.New(seed^0x9E))
		fmt.Printf("templates=%d usable=%v placements=%d hammer pairs=%d pte-flip=%v escalated=%v\n",
			res.TemplatesFound, res.UsableTemplate, res.Placements, res.HammerPairs,
			res.FlipInduced, res.Escalated)
		if res.ECCCorrected+res.ECCDetected+res.ECCSilent > 0 {
			fmt.Printf("ecc words: corrected=%d detected=%d silent=%d\n",
				res.ECCCorrected, res.ECCDetected, res.ECCSilent)
		}
		fmt.Printf("RESULT: %s\n", res.Verdict)
	case "crossvm":
		res := attack.RunCrossVMSystem(s.Mem, attack.SysCrossVMConfig{
			FrameLo: frames / 4, FrameHi: 3 * frames / 4,
			Pairs: pairs, VictimPattern: ^uint64(0), Workers: shards,
		})
		fmt.Printf("rows: attacker=%d victim=%d contested=%d; hammer pairs=%d victim flips=%d\n",
			res.AttackerRows, res.VictimRows, res.ContestedRows, res.HammerPairs, res.VictimFlips)
		if res.ECCCorrected+res.ECCDetected+res.ECCSilent > 0 {
			fmt.Printf("ecc words: corrected=%d detected=%d silent=%d\n",
				res.ECCCorrected, res.ECCDetected, res.ECCSilent)
		}
		fmt.Printf("RESULT: %s\n", res.Verdict)
	case "tournament":
		strat, err := attack.NewStrategy(strategyName)
		if err != nil {
			return err
		}
		const pattern = uint64(0xaaaaaaaaaaaaaaaa)
		victims := attack.TemplateVictims(s.Mem, pattern, pairs, shards, 8)
		fmt.Printf("templated victim rows: %d (cap 8)\n", len(victims))
		cell := attack.RunTournamentCell(s.Mem, strat, victims, pattern, 600, 8)
		fmt.Printf("strategy=%s sides=%d rounds=%d flips=%d\n",
			cell.Strategy, cell.Sides, cell.Rounds, cell.Flips)
		if cell.Exploited {
			fmt.Printf("RESULT: EXPLOITABLE — first flip after %d device ticks\n", cell.TimeToExploit)
		} else {
			fmt.Println("RESULT: mitigated — no exploitable flip within budget")
		}
	}
	return nil
}

// nsidedBases anchors one N-sided region per hammered stretch of every
// bank, spacing regions so neighbouring patterns do not overlap and
// reserving the top of each bank for the decoy rows (DecoyRows packs
// them downward from rows-2 in steps of 2) plus a 2-row coupling gap,
// so decoys never press a pattern victim.
func nsidedBases(topo dram.Topology, sides, decoys int) []memctrl.Loc {
	stride := 2*sides + 2
	if stride < 16 {
		stride = 16
	}
	reserve := 2*decoys + 4
	if reserve < 16 {
		reserve = 16
	}
	var bases []memctrl.Loc
	for ch := 0; ch < topo.Channels; ch++ {
		for rk := 0; rk < topo.Ranks; rk++ {
			for b := 0; b < topo.Geom.Banks; b++ {
				for v := 9; v+2*sides < topo.Geom.Rows-reserve; v += stride {
					bases = append(bases, memctrl.Loc{Channel: ch, Rank: rk, Bank: b, Row: v})
				}
			}
		}
	}
	return bases
}

func reportResults(s *core.System, eccOn bool) {
	dstats := s.Mem.AggregateDeviceStats()
	fmt.Printf("activations issued: %d\n", dstats.Activates)
	fmt.Printf("bit flips induced:  %d\n", s.TotalFlips())
	agg := s.Mem.AggregateStats()
	fmt.Printf("mitigation refreshes: %d\n", agg.MitRefreshes)
	if eccOn {
		fmt.Printf("ecc words: corrected=%d detected=%d silent=%d\n",
			agg.ECCCorrected, agg.ECCDetected, agg.ECCSilent)
		var scanned, repairs int64
		for ch := 0; ch < s.Topo.Channels; ch++ {
			for _, m := range s.Mem.Controller(ch).Mitigations() {
				if sc, ok := m.(*memctrl.Scrubber); ok {
					scanned += sc.WordsScanned
					repairs += sc.Repairs
				}
			}
		}
		if scanned > 0 || repairs > 0 {
			fmt.Printf("scrubber: scanned=%d repaired=%d\n", scanned, repairs)
		}
		switch {
		case agg.ECCSilent > 0:
			fmt.Println("RESULT: SILENT CORRUPTION — ECC miscorrected or missed attacker flips")
		case agg.ECCDetected > 0:
			fmt.Println("RESULT: detected-uncorrectable errors — attack visible, data lost")
		case s.TotalFlips() > 0:
			fmt.Println("RESULT: all induced flips corrected by ECC")
		default:
			fmt.Println("RESULT: no flips observed")
		}
		return
	}
	if s.TotalFlips() > 0 {
		fmt.Println("RESULT: VULNERABLE — memory isolation violated")
	} else {
		fmt.Println("RESULT: no flips observed")
	}
}
