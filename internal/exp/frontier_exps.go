package exp

// Frontier experiments (E40-E44): the security-vs-overhead Pareto
// sweep the paper's arms-race framing calls for. Every mitigation —
// first generation (refresh scaling, PARA, CRA, TRR, ANVIL) and second
// generation (Graphene top-k, TWiCe pruned counters) — is placed on
// the same three axes (residual flips, storage bits, refresh/mitigation
// energy) under the same attacks, including the adaptive many-sided
// attacker that defeats sampler-capacity defences. The topology sweep
// (E42) runs per-channel mitigation instances on the channel-sharded
// hot path and is bit-identical for every Env.Shards value.

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/modules"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("E40", "Mitigation frontier: flips vs storage vs energy",
		"Section II-C as an arms race: every solution trades a security margin for storage or refresh overhead", runE40)
	register("E41", "Sampler-capacity defences vs many-sided sidedness sweep",
		"discussion: DDR4 TRR \"might continue\" to be vulnerable — TRRespass-style sidedness x decoys", runE41)
	register("E42", "Mitigation frontier across topologies (channel-sharded)",
		"Section IV: the reconfigurable controller must protect every channel it drives", runE42)
	register("E43", "Refresh-rate scaling frontier",
		"\"the simplest solution is to increase the refresh rate\" — the easiest but costliest fix", runE43)
	register("E44", "Adaptive N-sided attacker vs the frontier",
		"arms-race extension: the attacker probes sidedness the way TRRespass does and picks the winner", runE44)
}

// frontierDefense is one point on the mitigation frontier: a name, an
// attach step, and how to read its storage cost back.
type frontierDefense struct {
	name   string
	attach func(s *core.System, ch int)
	bits   func(s *core.System) int64
}

// frontierBanks returns the flat bank count per channel of a system.
func frontierBanks(topo dram.Topology) int { return topo.Ranks * topo.Geom.Banks }

// attachedBits sums StorageBits over channel 0's mitigations (every
// channel carries an identical instance).
func attachedBits(s *core.System) int64 {
	var total int64
	for _, m := range s.Mem.Controller(0).Mitigations() {
		total += m.StorageBits()
	}
	return total
}

// frontierDefenses is the shared defence roster of the Pareto sweeps.
// seed feeds the per-defence random streams; every defence attaches
// one independent instance per channel so the sweeps stay bit-identical
// under channel sharding. grapheneEntries sizes the top-k table —
// Graphene's guarantee holds only when the table covers the rows that
// can reach the trigger per window (its design sizing rule), so each
// sweep provisions for its own attack.
func frontierDefenses(seed uint64, topo dram.Topology, threshold int64, grapheneEntries int) []frontierDefense {
	banks := frontierBanks(topo)
	rows := topo.Geom.Rows
	return []frontierDefense{
		{"none", nil, func(*core.System) int64 { return 0 }},
		{"refresh-x2", func(s *core.System, ch int) {
			s.Mem.Controller(ch).Attach(memctrl.NewRefreshScaling(2))
		}, attachedBits},
		{"refresh-x7", func(s *core.System, ch int) {
			s.Mem.Controller(ch).Attach(memctrl.NewRefreshScaling(7))
		}, attachedBits},
		{"PARA p=0.01", func(s *core.System, ch int) {
			s.Mem.Controller(ch).Attach(memctrl.NewPARA(0.01, memctrl.InDRAM, nil, rng.New(seed^uint64(0xA40+ch))))
		}, attachedBits},
		{"CRA", func(s *core.System, ch int) {
			s.Mem.Controller(ch).Attach(memctrl.NewCRA(threshold, banks, rows))
		}, attachedBits},
		{"TRR 8-entry", func(s *core.System, ch int) {
			s.Mem.Controller(ch).Attach(memctrl.NewTRR(8, 0.01, rng.New(seed^uint64(0xB40+ch))))
		}, attachedBits},
		{fmt.Sprintf("Graphene %d-entry", grapheneEntries), func(s *core.System, ch int) {
			s.Mem.Controller(ch).Attach(memctrl.NewGraphene(grapheneEntries, threshold, banks))
		}, attachedBits},
		{"TWiCe", func(s *core.System, ch int) {
			s.Mem.Controller(ch).Attach(memctrl.NewTWiCe(threshold, banks))
		}, attachedBits},
	}
}

// runE40 is the core Pareto table: one identical double-sided attack
// plus one identical benign stream against every defence, reporting
// the three frontier axes side by side. The paper's verdict extends to
// the second generation: Graphene buys TRR's placement with CRA-class
// guarantees at top-k storage; TWiCe prunes CRA's table; refresh
// scaling pays in REF energy for every protected row.
func runE40(env Env) *stats.Table {
	pop := modules.Population(env.Seed)
	topo := dram.SingleChannel(dram.Geometry{Banks: 1, Rows: 1024, Cols: 8})
	t := stats.NewTable("E40: mitigation frontier (2013-class module, thresholds scaled /50)",
		"solution", "residual flips", "storage bits", "mit refreshes", "REF commands", "energy overhead")

	build := func() *core.System {
		m := *pickModule(pop, 2013)
		m.Vuln.MinThreshold /= 50
		m.Vuln.ThresholdMedian /= 50
		return core.Build(&m, core.Options{Topology: topo})
	}
	// The untouched first build doubles as the threshold probe and the
	// unmitigated row's system (build() is a pure function of the seed).
	base := build()
	threshold := int64(base.Disturbs[0][0].MinThreshold())
	var baseEnergy float64
	for i, d := range frontierDefenses(env.Seed, topo, threshold, 8) {
		s := base
		if i > 0 {
			s = build()
		}
		if d.attach != nil {
			d.attach(s, 0)
		}
		c := s.Mem.Controller(0)
		for v := 17; v < topo.Geom.Rows-1; v += 16 {
			attack.NSidedRanked(c, 0, 0, attack.NSidedAggressors(v-1, 2), nil, 12000)
		}
		workload.RunSystem(s.Mem, workload.NewFlatZipfRows(s.Mem.Policy(), 1.1, rng.New(env.Seed^0xbe)), 40000)
		energy := c.EnergyPJ()
		if i == 0 {
			baseEnergy = energy
		}
		t.AddRow(d.name,
			fmt.Sprintf("%d", s.TotalFlips()),
			fmt.Sprintf("%d", d.bits(s)),
			fmt.Sprintf("%d", c.Stats.MitRefreshes),
			fmt.Sprintf("%d", c.Stats.AutoRefreshes),
			fmt.Sprintf("%+.2f%%", 100*(energy/baseEnergy-1)))
	}
	t.AddNote("identical double-sided attack (63 victims x 12k pairs) + identical Zipf tail per row;")
	t.AddNote("Pareto axes: flips (security), storage bits (hardware), energy overhead (refresh+mitigation);")
	t.AddNote("expected: refresh scaling pays REF energy, CRA pays storage, Graphene/TWiCe sit between")
	return t
}

// nsidedDefense is one defence of the sidedness sweep, built fresh per
// cell so every (defence, sidedness) pair faces identical state.
type nsidedDefense struct {
	name   string
	attach func(c *memctrl.Controller)
}

// runE41 sweeps attacker sidedness and decoy count against the
// capacity-limited trackers, driving the attack as one many-row
// hammer cycle of aggressors then decoys. TRR's sampler dilutes as the pattern widens;
// Graphene's spillover and TWiCe's exact counts convert the same
// pressure into refresh overhead instead of flips.
func runE41(env Env) *stats.Table {
	t := stats.NewTable("E41: victims flipped (of 15) vs sidedness and decoys, fixed 90k-activation budget",
		"defence", "sides", "decoys", "flips", "mit refreshes")
	defenses := []nsidedDefense{
		{"TRR 2-entry", func(c *memctrl.Controller) {
			c.Attach(memctrl.NewTRR(2, 0.1, rng.New(env.Seed^0xE41)))
		}},
		{"Graphene 4-entry", func(c *memctrl.Controller) {
			c.Attach(memctrl.NewGraphene(4, 300, 1))
		}},
		{"Graphene 20-entry", func(c *memctrl.Controller) {
			c.Attach(memctrl.NewGraphene(20, 300, 1))
		}},
		{"TWiCe", func(c *memctrl.Controller) {
			c.Attach(memctrl.NewTWiCe(300, 1))
		}},
	}
	for _, d := range defenses {
		for _, sides := range []int{2, 4, 8, 16} {
			for _, decoys := range []int{0, 4} {
				g := dram.Geometry{Banks: 1, Rows: 128, Cols: 4}
				dev := dram.NewDevice(g)
				dm := disturb.NewModel(g, disturb.Invulnerable(), rng.New(env.Seed^uint64(sides*8+decoys)))
				base := 31
				victims := attack.NSidedVictims(base, 16)
				for _, v := range victims {
					dm.InjectWeakCell(0, v, 1, 300, 1, 1, 1, 1)
				}
				dev.AttachFault(dm)
				for _, v := range victims {
					dev.SetPhysBit(0, v, 1, 1)
				}
				ctrl := memctrl.New(dev, memctrl.Config{})
				d.attach(ctrl)
				// 90k accesses of the aggressors-then-decoys cycle: whole
				// rounds, then the leading rows of one more.
				rows := append(attack.NSidedAggressors(base, sides), attack.DecoyRows(g.Rows, decoys)...)
				ctrl.HammerRowsRanked(0, 0, rows, 90000/len(rows))
				ctrl.HammerRowsRanked(0, 0, rows[:90000%len(rows)], 1)
				flipped := 0
				for _, v := range victims {
					if dev.PhysBit(0, v, 1) != 1 {
						flipped++
					}
				}
				t.AddRow(d.name, fmt.Sprintf("%d", sides), fmt.Sprintf("%d", decoys),
					fmt.Sprintf("%d", flipped), fmt.Sprintf("%d", ctrl.Stats.MitRefreshes))
			}
		}
	}
	t.AddNote("15 injected victims (threshold 300) interleave a 16-aggressor chain; narrower patterns")
	t.AddNote("press fewer of them. expected: TRR leaks as sides exceed its capacity; Graphene holds")
	t.AddNote("only while its table covers the active rows (the sizing rule: 20 entries hold the full")
	t.AddNote("16+4 pattern, 4 entries churn); TWiCe's exact counts convert all pressure to refreshes")
	return t
}

// runE42 attaches every frontier defence per channel across topologies
// and runs the same cross-bank N-sided campaign, sharded across
// Env.Shards workers — the table is bit-identical for every worker count
// (the acceptance contract of the whole frontier family).
func runE42(env Env) *stats.Table {
	pop := modules.Population(env.Seed)
	m := scaleForTopo(*pickModule(pop, 2013))
	g := dram.Geometry{Banks: 2, Rows: 96, Cols: 4}
	t := stats.NewTable("E42: frontier across topologies (4-sided cross-bank campaign, thresholds scaled /100)",
		"topology", "defence", "flips", "mit refreshes", "storage bits")
	// Densify beyond scaleForTopo so the unmitigated campaign draws
	// blood: the frontier is only visible against nonzero baselines.
	m.Vuln.MinThreshold /= 4
	m.Vuln.ThresholdMedian /= 4
	for _, topo := range []dram.Topology{
		{Channels: 1, Ranks: 1, Geom: g},
		{Channels: 2, Ranks: 2, Geom: g},
	} {
		scratch := m
		scratch.Seed = m.Seed + env.Seed
		threshold := int64(core.Build(&scratch, core.Options{Topology: topo}).Disturbs[0][0].MinThreshold())
		// 16 entries cover the campaign's 14 active rows per bank
		// (3 bases x 4 aggressors + 2 decoys).
		for _, d := range frontierDefenses(env.Seed, topo, threshold, 16) {
			mm := m
			mm.Seed = m.Seed + env.Seed
			s := core.Build(&mm, core.Options{Topology: topo})
			if d.attach != nil {
				for ch := 0; ch < topo.Channels; ch++ {
					d.attach(s, ch)
				}
			}
			var bases []memctrl.Loc
			for ch := 0; ch < topo.Channels; ch++ {
				for rk := 0; rk < topo.Ranks; rk++ {
					for b := 0; b < topo.Geom.Banks; b++ {
						for _, row := range []int{9, 33, 57} {
							bases = append(bases, memctrl.Loc{Channel: ch, Rank: rk, Bank: b, Row: row})
						}
					}
				}
			}
			attack.CrossBankNSided(s.Mem, bases, 4, 2, 4000, env.Shards)
			t.AddRow(topo.String(), d.name,
				fmt.Sprintf("%d", s.TotalFlips()),
				fmt.Sprintf("%d", s.Mem.AggregateStats().MitRefreshes),
				fmt.Sprintf("%d", int64(topo.Channels)*d.bits(s)))
		}
	}
	t.AddNote("one independent defence instance per channel; channels shard across -shards workers;")
	t.AddNote("expected: tables identical for every shard count, protection independent of topology")
	return t
}

// runE43 traces the refresh-scaling cost curve with deterministic
// injected victims: the factor at which flips vanish is the
// elimination multiplier, and the REF-command, busy-time and energy
// columns are its price — the paper's "easiest but costliest" verdict
// as one table.
func runE43(env Env) *stats.Table {
	t := stats.NewTable("E43: refresh-rate scaling frontier (9 victims, threshold 150k activations)",
		"factor", "victims flipped", "REF commands", "refresh time %", "energy overhead")
	var baseEnergy float64
	for i, factor := range []float64{1, 1.5, 2, 4, 8} {
		g := dram.Geometry{Banks: 1, Rows: 1024, Cols: 8}
		dev := dram.NewDevice(g)
		dm := disturb.NewModel(g, disturb.Invulnerable(), rng.New(env.Seed^uint64(i)))
		victims := []int{}
		for v := 101; v <= 901; v += 100 {
			dm.InjectWeakCell(0, v, 3, 150000, 1, 1, 1, 1)
			victims = append(victims, v)
		}
		dev.AttachFault(dm)
		for _, v := range victims {
			dev.SetPhysBit(0, v, 3, 1)
		}
		ctrl := memctrl.New(dev, memctrl.Config{})
		if factor != 1 {
			ctrl.Attach(memctrl.NewRefreshScaling(factor))
		}
		for _, v := range victims {
			ctrl.HammerPairsRanked(0, 0, v-1, v+1, 130000)
		}
		flipped := 0
		for _, v := range victims {
			if dev.PhysBit(0, v, 3) != 1 {
				flipped++
			}
		}
		energy := ctrl.EnergyPJ()
		if i == 0 {
			baseEnergy = energy
		}
		busy := float64(ctrl.Stats.RefreshTime) / float64(ctrl.Now())
		t.AddRow(fmt.Sprintf("x%g", factor),
			fmt.Sprintf("%d", flipped),
			fmt.Sprintf("%d", ctrl.Stats.AutoRefreshes),
			fmt.Sprintf("%.2f%%", 100*busy),
			fmt.Sprintf("%+.2f%%", 100*(energy/baseEnergy-1)))
	}
	t.AddNote("150k-activation victims take ~7.8 ms of hammering per flip; the x1 sweep refreshes each")
	t.AddNote("row every ~8 ms and loses, higher factors win. expected: flips vanish as the factor grows")
	t.AddNote("while REF count and energy climb linearly — the easiest but costliest point of E40's frontier")
	return t
}

// runE44 sends the adaptive attacker against each capacity-limited
// defence: probe the sidedness sweep on one bank, then attack a fresh
// twin bank with the winner. The chosen sidedness is itself the
// result: it reveals each defence's capacity from the outside, the
// way TRRespass fingerprints TRR implementations.
func runE44(env Env) *stats.Table {
	t := stats.NewTable("E44: adaptive N-sided attacker vs the frontier (probe budget 120k activations)",
		"defence", "chosen sides", "probe flips @2", "probe flips @best", "main-attack flips")
	defenses := []nsidedDefense{
		{"TRR 2-entry", func(c *memctrl.Controller) {
			c.Attach(memctrl.NewTRR(2, 0.1, rng.New(env.Seed^0xE44)))
		}},
		{"TRR 8-entry", func(c *memctrl.Controller) {
			c.Attach(memctrl.NewTRR(8, 0.1, rng.New(env.Seed^0xF44)))
		}},
		{"Graphene 2-entry (undersized)", func(c *memctrl.Controller) {
			c.Attach(memctrl.NewGraphene(2, 300, 2))
		}},
		{"Graphene 20-entry", func(c *memctrl.Controller) {
			c.Attach(memctrl.NewGraphene(20, 300, 2))
		}},
		{"TWiCe", func(c *memctrl.Controller) {
			c.Attach(memctrl.NewTWiCe(300, 2))
		}},
	}
	for _, d := range defenses {
		g := dram.Geometry{Banks: 2, Rows: 256, Cols: 4}
		dev := dram.NewDevice(g)
		dm := disturb.NewModel(g, disturb.Invulnerable(), rng.New(env.Seed^0xAD))
		// Bank 1 holds the main-attack victims; bank 0 is the probe
		// scratchpad: the adaptive kernel stripes its own data over
		// odd-anchored regions there, so every even row it can sandwich
		// carries the same weak cell as the main victims.
		for v := 2; v <= 140; v += 2 {
			dm.InjectWeakCell(0, v, 1, 300, 1, 1, 1, 1)
		}
		base := 31
		victims := attack.NSidedVictims(base, 16)
		for _, v := range victims {
			dm.InjectWeakCell(1, v, 1, 300, 1, 1, 1, 1)
		}
		dev.AttachFault(dm)
		for _, v := range victims {
			dev.SetPhysBit(1, v, 1, 1)
		}
		ctrl := memctrl.New(dev, memctrl.Config{})
		d.attach(ctrl)
		adaptive := &attack.AdaptiveStrategy{Sweep: []int{2, 4, 8, 16}, Decoys: 2, Budget: 120000}
		adaptive.Probe(attack.Target{Ctrl: ctrl, Pattern: 0xaaaaaaaaaaaaaaaa})
		best, probes := adaptive.BestSides(), adaptive.Probes()
		var at2, atBest int
		for _, p := range probes {
			if p.Sides == 2 {
				at2 = p.Flips
			}
			if p.Sides == best {
				atBest = p.Flips
			}
		}
		attack.NSidedRanked(ctrl, 0, 1, attack.NSidedAggressors(base, best), attack.DecoyRows(g.Rows, 2), 90000/(best+2))
		flipped := 0
		for _, v := range victims {
			if dev.PhysBit(1, v, 1) != 1 {
				flipped++
			}
		}
		t.AddRow(d.name, fmt.Sprintf("%d", best),
			fmt.Sprintf("%d", at2), fmt.Sprintf("%d", atBest),
			fmt.Sprintf("%d", flipped))
	}
	t.AddNote("the probe reads victims back through the controller — user-level powers only;")
	t.AddNote("expected: the attacker widens its pattern against capacity-starved trackers (small TRR")
	t.AddNote("samplers, undersized Graphene) and gains nothing against provisioned Graphene or TWiCe,")
	t.AddNote("whose counts it cannot dilute — the arms race reduced to one table")
	return t
}
