package exp

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/modules"
	"repro/internal/rng"
	"repro/internal/stats"
)

func init() {
	register("E21", "End-to-end privilege escalation feasibility",
		"\"a user-level attack that exploits RowHammer to gain kernel privileges\" (Project Zero)", runE21)
}

// runE21 runs the full exploit chain against module classes of
// different years, plus one PARA-protected configuration, reporting
// success rates over repeated trials.
func runE21(env Env) *stats.Table {
	pop := modules.Population(env.Seed)
	t := stats.NewTable("E21: privilege-escalation campaign outcomes (5 trials each, thresholds scaled /100)",
		"configuration", "templates found", "flips induced", "escalations")
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 8}

	type config struct {
		name string
		year int
		vuln bool
		para bool
	}
	configs := []config{
		{"2009-class (invulnerable)", 2009, false, false},
		{"2011-class", 2011, true, false},
		{"2013-class", 2013, true, false},
		{"2013-class + PARA p=0.02", 2013, true, true},
	}
	for _, cfg := range configs {
		var m modules.Module
		if cfg.vuln {
			// Densify so the small array holds usable weak cells.
			m = pickModule(pop, cfg.year).ScaleForSmallArray(100, 30, 2e-3)
		} else {
			for i := range pop {
				if pop[i].Year == cfg.year && !pop[i].Vulnerable() {
					m = pop[i]
					break
				}
			}
		}
		var templates, flips, wins int
		for trial := 0; trial < 5; trial++ {
			mm := m
			mm.Seed = m.Seed + uint64(trial)
			s := core.Build(&mm, core.Options{Topology: dram.SingleChannel(g)})
			if cfg.para {
				s.AttachPARA(0.02, memctrl.InDRAM, rng.New(env.Seed+uint64(trial)))
			}
			res := attack.RunPrivEscSystem(s.Mem, attack.SysPrivEscConfig{
				SprayFraction: 0.4, PairsPerAttempt: 12000,
				MaxPlacements: 25, Workers: 1,
			}, rng.New(env.Seed^uint64(trial*7+1)))
			templates += res.TemplatesFound
			if res.FlipInduced {
				flips++
			}
			if res.Escalated {
				wins++
			}
		}
		t.AddRow(cfg.name, fmt.Sprintf("%d", templates),
			fmt.Sprintf("%d/5", flips), fmt.Sprintf("%d/5", wins))
	}
	t.AddNote("expected: invulnerable and PARA-protected systems never escalate; vulnerable classes do")
	return t
}
