package exp

// Retention-at-scale experiments (E50-E52): the profiling /
// variable-rate-refresh stack promoted from the seed's one-bank demos
// to the full topology engine. E50 profiles whole channel/rank
// topologies through the sharded campaign; E51 measures the
// controller-integrated RAIDR policy's refresh savings against the
// RowHammer exposure a naive flat-address attacker extracts under each
// mapping policy; E52 scales the fleet Monte Carlo to ~1M DIMMs on the
// block-sharded engine. All three shard across Env.Shards workers and
// their tables are worker-count invariant by construction.

import (
	"fmt"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/fieldstudy"
	"repro/internal/memctrl"
	"repro/internal/profile"
	"repro/internal/raidr"
	"repro/internal/retention"
	"repro/internal/rng"
	"repro/internal/stats"
)

func init() {
	register("E50", "Topology-wide profiling coverage vs pattern battery (channel-sharded)",
		"Section IV: online profiling as a controller capability — now over every bank of every channel", runE50)
	register("E51", "Controller-integrated RAIDR: refresh savings vs naive-attacker exposure per mapping policy",
		"refresh burden [68] on the real controller + DRAMA: exposure depends on recovering the mapping", runE51)
	register("E52", "Fleet-scale field study at ~1M DIMMs (block-sharded)",
		"Section III field studies, three orders of magnitude beyond E24's 16k-DIMM fleet", runE52)
}

// scaleRetentionParams is the dense E11-class retention population the
// topology profiling experiments use.
func scaleRetentionParams() retention.Params {
	return retention.Params{
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
}

// retentionSystem builds a topology of devices carrying independent
// retention populations (per-device substreams) and no disturbance.
func retentionSystem(topo dram.Topology, p retention.Params, seed uint64) (*memctrl.MemorySystem, [][]*retention.Model) {
	models := make([][]*retention.Model, topo.Channels)
	ms, err := memctrl.Assemble(topo, "row", memctrl.Config{DisableRefresh: true}, func(ch, rk int, dev *dram.Device) {
		m := retention.NewModel(topo.Geom, p, rng.Sub(seed, uint64(ch*topo.Ranks+rk)))
		dev.AttachFault(m)
		models[ch] = append(models[ch], m)
	})
	if err != nil {
		panic(err)
	}
	return ms, models
}

// runE50 is E11 promoted to whole topologies: the same campaign
// batteries profile every bank of every rank of every channel through
// the sharded system campaign, and the at-risk cells the battery
// missed — on any device of the system — are the cells that would slip
// into the field.
func runE50(env Env) *stats.Table {
	p := scaleRetentionParams()
	operating := dram.Time(512 * float64(dram.Millisecond))
	margin := 2 * operating
	opSec := float64(operating) / float64(dram.Second)
	g := dram.Geometry{Banks: 2, Rows: 128, Cols: 8}

	t := stats.NewTable("E50: topology-wide profiling coverage (target interval 512 ms, margin 2x)",
		"topology", "campaign", "weak cells", "found", "at-risk", "escapes")
	type campaign struct {
		name     string
		patterns []profile.Pattern
		rounds   int
	}
	campaigns := []campaign{
		{"solid x1", profile.SolidOnly(), 1},
		{"full battery x1", profile.StandardPatterns(), 1},
		{"full battery x4", profile.StandardPatterns(), 4},
	}
	for _, topo := range []dram.Topology{
		{Channels: 1, Ranks: 1, Geom: g},
		{Channels: 2, Ranks: 2, Geom: g},
	} {
		for _, c := range campaigns {
			ms, models := retentionSystem(topo, p, env.Seed^0x50)
			weak := 0
			atRisk := map[profile.SystemKey]bool{}
			for ch, rms := range models {
				for rk, m := range rms {
					weak += m.WeakCellCount()
					for _, ci := range m.Cells() {
						worst := ci.BaseSec
						if ci.DPD {
							worst *= p.DPDReduction
						}
						if worst < opSec {
							atRisk[profile.SystemKey{Channel: ch, Rank: rk,
								Cell: profile.CellKey{Bank: ci.Bank, PhysRow: ci.PhysRow, Bit: ci.Bit}}] = true
						}
					}
				}
			}
			found := profile.CampaignSystem(ms, c.patterns, margin, c.rounds, 0, env.Shards)
			escapes := 0
			//repro:unordered commutative membership count over a set; order cannot change the total
			for k := range atRisk {
				if !found[k] {
					escapes++
				}
			}
			t.AddRow(topo.String(), c.name,
				fmt.Sprintf("%d", weak), fmt.Sprintf("%d", len(found)),
				fmt.Sprintf("%d", len(atRisk)), fmt.Sprintf("%d", escapes))
		}
	}
	t.AddNote("per-device weak-cell substreams; campaigns sharded across channels (worker-count invariant);")
	t.AddNote("expected: escapes shrink with better batteries at every topology but never reach zero (VRT),")
	t.AddNote("and larger topologies leak proportionally more absolute escapes — the fleet-scale risk")
	return t
}

// runE51 attaches the controller-integrated multi-rate refresh policy
// to every channel and sends a naive attacker — one who assumes the
// default row-interleaved mapping — against each actual mapping
// policy. Savings are mapping-independent; exposure is not: the
// stretched refresh gap is exploitable exactly when the attacker's
// address guess lands adjacent to the victim, the DRAMA observation on
// the co-design trade of E25.
func runE51(env Env) *stats.Table {
	g := dram.Geometry{Banks: 2, Rows: 128, Cols: 4}
	topo := dram.Topology{Channels: 2, Ranks: 1, Geom: g}
	rowPolicy, err := memctrl.PolicyByName("row", topo)
	if err != nil {
		panic(err)
	}
	timing := dram.DefaultTiming()
	// One retention window sweeps all 128 rows: 128 REFs. A naive
	// double-sided pair costs two row cycles, and the victim's
	// threshold sits 1.3x above one window's worth of pressure: safe at
	// the nominal rate, exposed once its bin stretches the restore gap.
	window := dram.Time(g.Rows) * timing.TREFI
	pairsPerWindow := int(uint64(window) / uint64(2*timing.TRC))
	threshold := float64(pairsPerWindow) * 2 * 1.3

	t := stats.NewTable("E51: controller-RAIDR savings vs naive flat-address attacker exposure",
		"mapping policy", "slow multiple", "refresh rows saved", "victim flips")
	for _, pname := range []string{"row", "channel", "xor"} {
		for _, mult := range []int{1, 2, 8} {
			var dms []*disturb.Model
			ms := plantedSystem(topo, pname, memctrl.Config{}, func(ch, rk int, m *disturb.Model) {
				// One victim per device, bank 0 row 60.
				m.InjectWeakCell(0, 60, 1, threshold, 1, 1, 1, 1)
				dms = append(dms, m)
			})
			var vrrs []*memctrl.MultiRateRefresh
			for ch := 0; ch < topo.Channels; ch++ {
				ms.Device(ch, 0).SetPhysBit(0, 60, 1, 1)
				vrr := memctrl.NewMultiRate(raidr.NewPlan(g.Rows, nil, mult))
				ms.Controller(ch).Attach(vrr)
				vrrs = append(vrrs, vrr)
			}
			// The naive attacker: flat addresses of the victim's
			// neighbours under the row-interleaved guess, hammered
			// through whatever policy the controller actually runs.
			var addrs []uint64
			for ch := 0; ch < topo.Channels; ch++ {
				addrs = append(addrs,
					rowPolicy.Encode(memctrl.Loc{Channel: ch, Bank: 0, Row: 59}),
					rowPolicy.Encode(memctrl.Loc{Channel: ch, Bank: 0, Row: 61}))
			}
			for p := 0; p < 8*pairsPerWindow; p++ {
				for _, a := range addrs {
					ms.Access(a, false, 0)
				}
			}
			var flips int64
			for _, dm := range dms {
				flips += dm.TotalFlips()
			}
			var refreshed, skipped int64
			for _, vrr := range vrrs {
				refreshed += vrr.RowRefreshes
				skipped += vrr.RowsSkipped
			}
			saved := 0.0
			if refreshed+skipped > 0 {
				saved = float64(skipped) / float64(refreshed+skipped)
			}
			t.AddRow(ms.Policy().Name(), fmt.Sprintf("%d", mult),
				fmt.Sprintf("%.1f%%", 100*saved), fmt.Sprintf("%d", flips))
		}
	}
	t.AddNote("threshold 1.3x one window's double-sided pressure; savings are mapping-independent, exposure")
	t.AddNote("is not: the row-guess attacker flips the slow-binned victim only under row interleaving —")
	t.AddNote("channel interleaving scatters the pair and the XOR bank hash re-routes it to the wrong bank")
	return t
}

// runE52 scales E24's fleet Monte Carlo to ~1M DIMMs on the
// block-sharded engine: the field-study signatures must persist at
// three orders of magnitude more DIMMs, and the table is bit-identical
// for every Env.Shards value.
func runE52(env Env) *stats.Table {
	cfg := fieldstudy.DefaultConfig()
	cfg.Classes = []fieldstudy.DensityClass{
		{Label: "1Gb", RateScale: 1.0, DIMMs: 300_000},
		{Label: "2Gb", RateScale: 2.2, DIMMs: 350_000},
		{Label: "4Gb", RateScale: 4.5, DIMMs: 350_000},
	}
	classes := fieldstudy.RunSharded(cfg, env.Seed^0x52, env.Shards)
	t := stats.NewTable("E52: one-year fleet simulation at 1M DIMMs (block-sharded Monte Carlo)",
		"density", "DIMMs", "CE/DIMM-month", "DIMMs with CE", "top-1% CE share", "UE/1000 DIMM-months")
	for _, c := range classes {
		t.AddRow(c.Label, fmt.Sprintf("%d", c.DIMMs),
			fmt.Sprintf("%.4f", c.CEPerDIMMMonth),
			fmt.Sprintf("%.1f%%", 100*c.FracDIMMsWithCE),
			fmt.Sprintf("%.0f%%", 100*c.Top1PctShare),
			fmt.Sprintf("%.2f", c.UEPerThousandDIMMMonth))
	}
	t.AddNote("fixed 8192-DIMM blocks with per-block substreams: results are a pure function of the seed,")
	t.AddNote("identical for every worker count; expected: E24's signatures hold at 62x its fleet size")
	return t
}
