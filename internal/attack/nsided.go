package attack

// TRRespass-style adaptive many-sided hammering. Sampler-based
// in-DRAM defences (TRR) stand or fall on their capacity: an attacker
// who spreads activations over more aggressor rows than the sampler
// holds — and burns the remaining slots with decoy rows that have no
// victim worth protecting — dilutes the defence until some victim sees
// full pressure. The kernels here express that strategy over the
// simulated stack: a parameterized N-sided pattern, a decoy schedule,
// a topology-wide campaign on the channel-sharded hot path, and an
// adaptive probe that discovers the cheapest winning sidedness the way
// TRRespass sweeps patterns on real DIMMs — by trying them and reading
// the victims back, powers any user-level program has.

import (
	"repro/internal/memctrl"
)

// NSidedAggressors returns the aggressor rows of an N-sided pattern
// anchored at base: sides rows spaced two apart (base, base+2, ...),
// sandwiching sides-1 victim rows between them. sides=2 is the classic
// double-sided pair around victim base+1.
func NSidedAggressors(base, sides int) []int {
	rows := make([]int, sides)
	for i := range rows {
		rows[i] = base + 2*i
	}
	return rows
}

// NSidedVictims returns the victim rows between the aggressors of
// NSidedAggressors(base, sides).
func NSidedVictims(base, sides int) []int {
	rows := make([]int, sides-1)
	for i := range rows {
		rows[i] = base + 2*i + 1
	}
	return rows
}

// DecoyRows returns count decoy rows for a bank of the given row
// count, packed downward from the top edge with a one-row gap so no
// two decoys sandwich a common victim. Decoys exist purely to occupy
// sampler or tracker slots; callers keep victims away from the top of
// the bank.
func DecoyRows(rows, count int) []int {
	out := make([]int, 0, count)
	for r := rows - 2; r > 0 && len(out) < count; r -= 2 {
		out = append(out, r)
	}
	return out
}

// NSidedRanked hammers the aggressor rows in round-robin for the given
// number of rounds, visiting every decoy row once per round after the
// aggressors. Every access row-conflicts (distinct rows in one bank),
// so each is an activation, matching the pair kernels' behaviour. It
// is one Controller.HammerRowsRanked call over the aggressors followed
// by the decoys.
func NSidedRanked(c *memctrl.Controller, rank, bank int, aggressors, decoys []int, rounds int) {
	var buf [16]int
	rows := append(append(buf[:0], aggressors...), decoys...)
	c.HammerRowsRanked(rank, bank, rows, rounds)
}

// CrossBankNSided runs the N-sided pattern anchored at every base
// location across the topology, sharding the independent channels
// across up to workers goroutines exactly like CrossBankHammer
// (bit-identical to a serial run for every worker count). decoys rows
// per bank are taken from the top of the bank via DecoyRows.
func CrossBankNSided(ms *memctrl.MemorySystem, bases []memctrl.Loc, sides, decoys, rounds, workers int) {
	byChan := make([][]memctrl.Loc, ms.Channels())
	for _, b := range bases {
		byChan[b.Channel] = append(byChan[b.Channel], b)
	}
	rows := ms.Topology().Geom.Rows
	ms.ShardChannels(workers, func(ch int, c *memctrl.Controller) {
		for _, b := range byChan[ch] {
			NSidedRanked(c, b.Rank, b.Bank, NSidedAggressors(b.Row, sides), DecoyRows(rows, decoys), rounds)
		}
	})
}

// SidednessProbe is one probe outcome of the adaptive attacker.
type SidednessProbe struct {
	// Sides is the probed aggressor count.
	Sides int
	// Flips is how many victim bits the probe flipped (read back
	// through the controller, as a user-level attacker would).
	Flips int
	// Activations is the probe's activation budget actually spent.
	Activations int64
}

// AdaptiveNSided is the adaptive attacker: it probes each candidate
// sidedness on its own disjoint region of the bank — row-striping the
// victims, hammering with an equal activation budget, reading the
// victims back — and returns the winning sidedness (most flips; ties
// go to fewer sides, which costs fewer activations per victim row)
// plus the full probe record. budget is the per-probe activation
// budget; decoys rows ride along in every round without counting
// against the comparison (they are part of the pattern under test).
//
// Probe regions are packed from row 1 upward, 2*sides(max)+2 rows
// apart, so every probe faces the defence with fresh victims, and
// successive probes are separated by one idle retention window so each
// pattern meets the defence's steady state rather than the previous
// probe's leftover tracker contents — the TRRespass discipline of
// testing patterns across refresh windows. Everything the probe does
// goes through the ordinary access path (hammering, reading, waiting):
// no simulator-side knowledge leaks into the decision.
// It panics when the bank cannot hold the probe regions plus the decoy
// rows: the bank needs 1 + len(sweep)*(2*max(sweep)+2) rows at the
// bottom and 2*decoys+2 rows at the top.
// It delegates to AdaptiveStrategy.Probe (the strategy form of this
// attacker); the equivalence test in strategy_test.go pins the
// delegation bit-for-bit against a verbatim copy of the seed-era
// probe loop.
func AdaptiveNSided(c *memctrl.Controller, rank, bank int, sweep []int, decoys, budget int, pattern uint64) (int, []SidednessProbe) {
	s := &AdaptiveStrategy{Sweep: sweep, Decoys: decoys, Budget: budget}
	s.Probe(Target{Ctrl: c, Rank: rank, Bank: bank, Pattern: pattern})
	return s.BestSides(), s.Probes()
}
