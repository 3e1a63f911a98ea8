package exp

// Topology experiments (E30+): how address-mapping policy and
// channel/rank shape change locality, attack surface and mitigation
// overhead — the dimension the paper's reconfigurable-controller
// argument needs and the original single-channel stack could not
// express. All of them run through core.Build topologies and the
// memctrl.MemorySystem, and the heavier ones shard their independent
// channels across Env.Shards workers (bit-identical to serial execution
// by construction; memctrl's TestShardedExecutionBitIdentical proves
// it).

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/modules"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("E30", "Mapping-policy locality: latency and row hits by workload",
		"\"the memory controller can be configured\" — mapping is the first knob (Section IV)", runE30)
	register("E31", "Templating attack success across topologies and mapping policies",
		"DRAMA/Drammer: exploitation hinges on recovering the physical address mapping", runE31)
	register("E32", "PARA overhead across topologies",
		"\"low performance overhead\" claim re-examined on multi-channel systems (Section IV-C)", runE32)
}

// topoGeom is the small multi-bank geometry the topology experiments
// share: enough banks for interleaving to matter, small enough to scan.
func topoGeom() dram.Geometry { return dram.Geometry{Banks: 4, Rows: 128, Cols: 16} }

// scaleForTopo densifies a vulnerable module the way E21 does so a
// small simulated array holds usable weak cells within CLI-scale
// hammer budgets.
func scaleForTopo(m modules.Module) modules.Module {
	return m.ScaleForSmallArray(100, 30, 2e-3)
}

// runE30 drives the identical flat-address streams through every
// mapping policy on a 2-channel 2-rank topology: the policy alone
// decides which channel, rank and bank each address lands on, so
// locality (row-hit rate) and mean latency swing between policies.
func runE30(env Env) *stats.Table {
	pop := modules.Population(env.Seed)
	// Any 2009 module: all are invulnerable, and this is a locality
	// experiment — physics never fires.
	var mod *modules.Module
	for i := range pop {
		if pop[i].Year == 2009 {
			mod = &pop[i]
			break
		}
	}
	topo := dram.Topology{Channels: 2, Ranks: 2, Geom: topoGeom()}
	t := stats.NewTable("E30: mean access latency (ns) and row-hit rate by mapping policy (2ch x 2rk)",
		"workload", "policy", "latency ns", "row hits %")

	workloads := []string{"sequential", "strided-4KiB", "random", "zipf-rows"}
	for wi, wname := range workloads {
		for pi, pname := range []string{"row", "channel", "xor"} {
			s := core.Build(mod, core.Options{Topology: topo, Mapping: pname})
			p := s.Mem.Policy()
			src := rng.New(env.Seed + uint64(wi*8+pi+1))
			var gen workload.FlatGenerator
			switch wname {
			case "sequential":
				gen = workload.NewFlatSequential(p)
			case "strided-4KiB":
				gen = workload.NewFlatStrided(p, 4096)
			case "random":
				gen = workload.NewFlatRandom(p, 0.3, src)
			default:
				gen = workload.NewFlatZipfRows(p, 1.1, src)
			}
			lat := workload.RunSystem(s.Mem, gen, 40000)
			agg := s.Mem.AggregateStats()
			t.AddRow(wname, p.Name(),
				fmt.Sprintf("%.2f", lat),
				fmt.Sprintf("%.1f", 100*float64(agg.RowHits)/float64(agg.Accesses)))
		}
	}
	t.AddNote("identical flat-address streams per workload; only the decode changes")
	t.AddNote("expected: row-interleaving maximizes sequential row hits; cache-line channel")
	t.AddNote("interleaving trades row locality for channel parallelism; XOR hashing spreads conflicts")
	return t
}

// runE31 runs the policy-aware templating scan (attack.ScanSystem,
// which derives aggressor rows through the mapping rather than
// assuming flat-address adjacency) across topologies and policies. The
// per-device flip populations differ between topologies because every
// device draws its own RNG substream; what the table shows is that
// templating keeps working under every mapping once the attacker
// probes adjacency through the policy.
func runE31(env Env) *stats.Table {
	pop := modules.Population(env.Seed)
	m := scaleForTopo(*pickModule(pop, 2013))
	g := dram.Geometry{Banks: 2, Rows: 64, Cols: 4}
	t := stats.NewTable("E31: templating scan through the mapping policy (2013-class, thresholds scaled /100)",
		"topology", "policy", "weak cells", "templates", "victim rows")

	topos := []dram.Topology{
		{Channels: 1, Ranks: 1, Geom: g},
		{Channels: 2, Ranks: 1, Geom: g},
		{Channels: 2, Ranks: 2, Geom: g},
	}
	for _, topo := range topos {
		for _, pname := range []string{"row", "channel", "xor"} {
			mm := m
			mm.Seed = m.Seed + env.Seed
			s := core.Build(&mm, core.Options{Topology: topo, Mapping: pname})
			weak := 0
			for _, dms := range s.Disturbs {
				for _, dm := range dms {
					weak += dm.WeakCellCount()
				}
			}
			tpl := attack.ScanSystem(s.Mem, 0xaaaaaaaaaaaaaaaa, 9000, env.Shards)
			victims := map[memctrl.Loc]bool{}
			for _, f := range tpl {
				v := f.Victim
				v.Col = 0
				victims[v] = true
			}
			t.AddRow(topo.String(), pname,
				fmt.Sprintf("%d", weak),
				fmt.Sprintf("%d", len(tpl)),
				fmt.Sprintf("%d", len(victims)))
		}
	}
	t.AddNote("aggressors located via attack.AdjacentAddrs through the active policy;")
	t.AddNote("expected: same topology finds the same flips under every policy — adjacency is")
	t.AddNote("physical, the mapping only changes which flat addresses reach it")
	return t
}

// runE32 measures PARA's performance cost as the topology grows: one
// independent in-DRAM PARA per channel, Zipf-hot traffic spread by the
// row-interleaved policy, overhead = latency vs the unprotected twin.
func runE32(env Env) *stats.Table {
	pop := modules.Population(env.Seed)
	mod := pickModule(pop, 2013)
	g := topoGeom()
	t := stats.NewTable("E32: PARA p=0.02 overhead by topology (zipf-rows traffic, row-interleaved)",
		"topology", "base ns", "PARA ns", "overhead %", "mit refreshes")

	topos := []dram.Topology{
		{Channels: 1, Ranks: 1, Geom: g},
		{Channels: 2, Ranks: 1, Geom: g},
		{Channels: 2, Ranks: 2, Geom: g},
		{Channels: 4, Ranks: 2, Geom: g},
	}
	for ti, topo := range topos {
		run := func(para bool) (float64, int64) {
			s := core.Build(mod, core.Options{Topology: topo})
			if para {
				s.AttachPARAEachChannel(0.02, rng.New(env.Seed^uint64(ti*2+3)))
			}
			gen := workload.NewFlatZipfRows(s.Mem.Policy(), 1.1, rng.New(env.Seed+uint64(ti+1)))
			lat := workload.RunSystem(s.Mem, gen, 60000)
			return lat, s.Mem.AggregateStats().MitRefreshes
		}
		base, _ := run(false)
		prot, mit := run(true)
		t.AddRow(topo.String(),
			fmt.Sprintf("%.2f", base),
			fmt.Sprintf("%.2f", prot),
			fmt.Sprintf("%.2f", 100*(prot-base)/base),
			fmt.Sprintf("%d", mit))
	}
	t.AddNote("per-channel PARA instances with independent random streams; overhead stays")
	t.AddNote("flat as channels scale because each channel pays only for its own activations")
	return t
}
