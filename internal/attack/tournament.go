package attack

// The attacker-vs-mitigation tournament's per-cell machinery. One
// tournament cell is one Strategy turned loose on one restored memory
// system (same templated snapshot for every strategy in the group —
// the experiments restore the memory system's controller, mitigation
// and device state instead of paying the templating pass once per
// cell) and measures time-to-first-exploitable-flip in simulated time. The
// round-robin over mitigations, mapping policies and strategies lives
// in the experiment layer (E81-E84); this file owns what happens
// inside a cell so the CLI, examples and experiments run the same
// attack.

import (
	"repro/internal/dram"
	"repro/internal/memctrl"
)

// TemplateVictims runs the mapping-aware templating pass and returns
// the distinct victim rows it found flips in, in deterministic
// channel-major template order, capped at max (0 = no cap). This is
// the shared reconnaissance step tournament groups snapshot after:
// every strategy cell restores the same templated memory system
// (controllers, mitigations, ECC shadows, device cells and clocks; the
// fault models' disturbance pressure restarts at rest) and aims at the
// same victims.
func TemplateVictims(ms *memctrl.MemorySystem, pattern uint64, pairsPerRow, workers, max int) []memctrl.Loc {
	templates := ScanSystem(ms, pattern, pairsPerRow, workers)
	seen := make(map[memctrl.Loc]bool, len(templates))
	var victims []memctrl.Loc
	for _, tm := range templates {
		v := tm.Victim
		v.Col = 0
		if seen[v] {
			continue
		}
		seen[v] = true
		victims = append(victims, v)
		if max > 0 && len(victims) >= max {
			break
		}
	}
	return victims
}

// TournamentCell is one cell's outcome: a strategy against a restored
// system.
type TournamentCell struct {
	// Strategy is the attacker's Name().
	Strategy string
	// Exploited reports whether the attacker observed a flip within
	// budget.
	Exploited bool
	// TimeToExploit is the simulated time from the restore point to
	// the first observed flip (zero when not exploited).
	TimeToExploit dram.Time
	// Rounds is the hammer-round budget actually spent.
	Rounds int64
	// Flips is the flipped bit count at first detection.
	Flips int
	// Sides is the pattern the strategy committed to (Plan after
	// Probe) — the adaptive attacker's chosen sidedness shows up
	// here.
	Sides int
}

// RunTournamentCell drives one strategy against a restored system:
// Probe on channel 0 (reconnaissance under the live defence), then
// round-robin hammer slices over the victim rows — roundsPerSlice
// rounds per victim per slice, observing after every victim — until a
// flip is observed or maxSlices slices are spent. All simulated time
// the attacker burns (probing, hammering, idling against the refresh
// schedule) counts toward TimeToExploit.
func RunTournamentCell(ms *memctrl.MemorySystem, strat Strategy, victims []memctrl.Loc,
	pattern uint64, roundsPerSlice, maxSlices int) TournamentCell {
	cell := TournamentCell{Strategy: strat.Name()}
	start := ms.Now()
	if len(victims) == 0 {
		return cell
	}
	strat.Probe(Target{Ctrl: ms.Controller(0), Rank: 0, Bank: 0, Pattern: pattern})
	cell.Sides = strat.Plan().Sides
	// The victims hold the target pattern (the templating pass
	// repaired them to its own stripe; rewrite for self-containment).
	for _, v := range victims {
		writeRowRanked(ms.Controller(v.Channel), v.Rank, v.Bank, v.Row, pattern)
	}
	for slice := 0; slice < maxSlices; slice++ {
		for _, v := range victims {
			tgt := Target{Ctrl: ms.Controller(v.Channel), Rank: v.Rank, Bank: v.Bank, Pattern: pattern}
			strat.HammerRound(tgt, v.Row, roundsPerSlice)
			cell.Rounds += int64(roundsPerSlice)
			if flips := strat.Observe(tgt, v.Row); flips > 0 {
				cell.Exploited = true
				cell.Flips = flips
				cell.TimeToExploit = ms.Now() - start
				return cell
			}
		}
	}
	return cell
}
