package attack

// The attacker strategy layer. The Strategy interface expresses every
// hammer pattern as one four-phase behaviour — probe (reconnaissance
// under the live defence), plan (commit to a pattern), hammer-round
// (spend activation budget at a victim), and observe (read the victim
// back, user-level powers only) — with explicit serializable state, so
// a half-run attacker checkpoints and resumes exactly like the rest of
// the simulator. The tournament driver (tournament.go, experiments
// E81-E84) pits every Strategy against every mitigation and mapping
// policy from one templated snapshot; the strategy tests pin each
// fixed-pattern strategy's row choice against a literal
// HammerPairsRanked or NSidedRanked call.

import (
	"fmt"
	"math/bits"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/snapshot"
)

// Target names where a strategy aims: one bank of one rank behind one
// controller, and the data pattern the victim rows hold (flips are
// observed as diffs against it).
type Target struct {
	Ctrl    *memctrl.Controller
	Rank    int
	Bank    int
	Pattern uint64
}

// Plan is the pattern a strategy has committed to: how many aggressor
// rows it drives per round and how many decoy rows ride along to
// dilute capacity-limited trackers.
type Plan struct {
	Sides  int
	Decoys int
}

// Strategy is one attacker behaviour against a target bank.
//
// Probe runs reconnaissance through the ordinary access path and
// commits the plan (a no-op for fixed-pattern strategies). Plan
// reports the committed pattern. HammerRound spends `rounds` rounds
// of the pattern on a victim row; Observe reads the victim back and
// returns how many bits differ from the target pattern. SaveState and
// LoadState serialize the strategy's mutable state with the snapshot
// codec, so an in-flight attacker rides a checkpoint like every other
// stateful component.
type Strategy interface {
	Name() string
	Probe(t Target)
	Plan() Plan
	HammerRound(t Target, victimRow, rounds int)
	Observe(t Target, victimRow int) int
	SaveState(w *snapshot.Writer)
	LoadState(r *snapshot.Reader) error
}

// StrategyNames lists the registered strategy names in rank order of
// NewStrategy's switch — the roster the CLI and tournament iterate.
func StrategyNames() []string {
	return []string{"double", "single", "nsided", "adaptive", "refsync"}
}

// NewStrategy builds a registered strategy by name with its default
// parameters (the CLI's sizing; experiments construct parameterized
// instances directly).
func NewStrategy(name string) (Strategy, error) {
	switch name {
	case "double":
		return &DoubleSidedStrategy{}, nil
	case "single":
		return &SingleSidedStrategy{}, nil
	case "nsided":
		return &NSidedDecoyStrategy{Sides: 4, Decoys: 2}, nil
	case "adaptive":
		return &AdaptiveStrategy{Sweep: []int{2, 4, 8, 16}, Decoys: 2, Budget: 120000}, nil
	case "refsync":
		return &RefreshSyncStrategy{Sides: 2}, nil
	}
	return nil, fmt.Errorf("attack: unknown strategy %q (have %v)", name, StrategyNames())
}

// observeRow is the shared Observe body: read the victim row through
// the controller and count bits differing from the target pattern —
// exactly what a user-level attacker sees (an ECC layer on the read
// path filters corrected flips out of this count).
func observeRow(t Target, victimRow int) int {
	flips := 0
	for _, w := range readRowRanked(t.Ctrl, t.Rank, t.Bank, victimRow) {
		flips += bits.OnesCount64(w ^ t.Pattern)
	}
	return flips
}

// nsidedBaseFor anchors an N-sided pattern so victimRow is one of its
// victims: base starts at victimRow-1 (victim sandwiched by the first
// aggressor pair) and shifts down in steps of 2 — keeping victimRow on
// a victim position — until the top aggressor fits in the bank.
func nsidedBaseFor(victimRow, sides, rows int) int {
	base := victimRow - 1
	if base < 0 {
		base = 0
	}
	for base >= 2 && base+2*(sides-1) > rows-1 {
		base -= 2
	}
	return base
}

// --- Double-sided ---

// DoubleSidedStrategy is the classic pair attack as a Strategy: the
// two rows sandwiching the victim, no reconnaissance, no decoys. Its
// HammerRound hammers victimRow-1 against victimRow+1 (pinned by
// TestDoubleSidedStrategyMatchesLegacy).
type DoubleSidedStrategy struct{}

// Name implements Strategy.
func (*DoubleSidedStrategy) Name() string { return "double" }

// Probe implements Strategy (no reconnaissance).
func (*DoubleSidedStrategy) Probe(Target) {}

// Plan implements Strategy.
func (*DoubleSidedStrategy) Plan() Plan { return Plan{Sides: 2} }

// HammerRound implements Strategy.
func (*DoubleSidedStrategy) HammerRound(t Target, victimRow, rounds int) {
	t.Ctrl.HammerPairsRanked(t.Rank, t.Bank, victimRow-1, victimRow+1, rounds)
}

// Observe implements Strategy.
func (*DoubleSidedStrategy) Observe(t Target, victimRow int) int { return observeRow(t, victimRow) }

// SaveState implements Strategy (stateless; the tag alone keeps the
// codec framed).
func (*DoubleSidedStrategy) SaveState(w *snapshot.Writer) { w.Tag("strat.double") }

// LoadState implements Strategy.
func (*DoubleSidedStrategy) LoadState(r *snapshot.Reader) error {
	r.Tag("strat.double")
	return r.Err()
}

// --- Single-sided ---

// SingleSidedStrategy is the original test program's pattern as a
// Strategy: the row above the victim hammered against a distant dummy
// row (half a bank away), which forces row-buffer conflicts without
// pressing the victim's other side.
type SingleSidedStrategy struct{}

// Name implements Strategy.
func (*SingleSidedStrategy) Name() string { return "single" }

// Probe implements Strategy (no reconnaissance).
func (*SingleSidedStrategy) Probe(Target) {}

// Plan implements Strategy.
func (*SingleSidedStrategy) Plan() Plan { return Plan{Sides: 1} }

// HammerRound implements Strategy.
func (*SingleSidedStrategy) HammerRound(t Target, victimRow, rounds int) {
	rows := t.Ctrl.Rank(0).Geom.Rows
	aggr := victimRow + 1
	dummy := (victimRow + rows/2) % rows
	t.Ctrl.HammerPairsRanked(t.Rank, t.Bank, aggr, dummy, rounds)
}

// Observe implements Strategy.
func (*SingleSidedStrategy) Observe(t Target, victimRow int) int { return observeRow(t, victimRow) }

// SaveState implements Strategy (stateless).
func (*SingleSidedStrategy) SaveState(w *snapshot.Writer) { w.Tag("strat.single") }

// LoadState implements Strategy.
func (*SingleSidedStrategy) LoadState(r *snapshot.Reader) error {
	r.Tag("strat.single")
	return r.Err()
}

// --- N-sided with decoy scheduling ---

// NSidedDecoyStrategy is the TRRespass-style fixed pattern as a
// Strategy: Sides aggressors sandwiching the victim plus Decoys
// sampler-burning rows from the top of the bank in every round.
type NSidedDecoyStrategy struct {
	Sides  int
	Decoys int
}

// Name implements Strategy.
func (s *NSidedDecoyStrategy) Name() string { return fmt.Sprintf("nsided-%d+%d", s.Sides, s.Decoys) }

// Probe implements Strategy (the pattern is fixed configuration).
func (*NSidedDecoyStrategy) Probe(Target) {}

// Plan implements Strategy.
func (s *NSidedDecoyStrategy) Plan() Plan { return Plan{Sides: s.Sides, Decoys: s.Decoys} }

// HammerRound implements Strategy.
func (s *NSidedDecoyStrategy) HammerRound(t Target, victimRow, rounds int) {
	rows := t.Ctrl.Rank(0).Geom.Rows
	base := nsidedBaseFor(victimRow, s.Sides, rows)
	NSidedRanked(t.Ctrl, t.Rank, t.Bank,
		NSidedAggressors(base, s.Sides), DecoyRows(rows, s.Decoys), rounds)
}

// Observe implements Strategy.
func (s *NSidedDecoyStrategy) Observe(t Target, victimRow int) int { return observeRow(t, victimRow) }

// SaveState implements Strategy.
func (s *NSidedDecoyStrategy) SaveState(w *snapshot.Writer) {
	w.Tag("strat.nsided")
	w.Int(s.Sides)
	w.Int(s.Decoys)
}

// LoadState implements Strategy.
func (s *NSidedDecoyStrategy) LoadState(r *snapshot.Reader) error {
	r.Tag("strat.nsided")
	sides := r.Int()
	decoys := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	s.Sides = sides
	s.Decoys = decoys
	return nil
}

// --- Adaptive (TRRespass probe-and-commit) ---

// AdaptiveStrategy is the adaptive attacker as a Strategy: Probe runs
// the sidedness sweep of the seed-era adaptive N-sided attacker —
// pinned bit-identical to a verbatim copy of the seed loop by
// TestAdaptiveNSidedMatchesStrategy — and commits to the winning
// sidedness; HammerRound then drives the winner with the configured
// decoys. Until Probe has run, the plan falls back to double-sided.
type AdaptiveStrategy struct {
	// Sweep, Decoys and Budget configure the probe: candidate
	// sidednesses, decoy rows per round, and the per-probe activation
	// budget.
	Sweep  []int
	Decoys int
	Budget int

	probed bool
	best   int
	probes []SidednessProbe
}

// Name implements Strategy.
func (*AdaptiveStrategy) Name() string { return "adaptive" }

// BestSides returns the committed sidedness (0 before Probe).
func (s *AdaptiveStrategy) BestSides() int { return s.best }

// Probes returns the probe record (nil before Probe).
func (s *AdaptiveStrategy) Probes() []SidednessProbe { return s.probes }

// Probe implements Strategy: it probes each candidate sidedness on
// its own disjoint region of the target bank — row-striping the
// victims, hammering with an equal activation budget, reading the
// victims back — and commits to the winner (most flips; ties go to
// fewer sides, which costs fewer activations per victim row). Budget
// is the per-probe activation budget; the decoy rows ride along in
// every round without counting against the comparison (they are part
// of the pattern under test).
//
// Probe regions are packed from row 1 upward, 2*max(Sweep)+2 rows
// apart, so every probe faces the defence with fresh victims, and
// successive probes are separated by one idle retention window so each
// pattern meets the defence's steady state rather than the previous
// probe's leftover tracker contents — the TRRespass discipline of
// testing patterns across refresh windows. Everything the probe does
// goes through the ordinary access path (hammering, reading, waiting):
// no simulator-side knowledge leaks into the decision. It panics when
// the bank cannot hold the probe regions plus the decoy rows: the bank
// needs 1 + len(Sweep)*(2*max(Sweep)+2) rows at the bottom and
// 2*Decoys+2 rows at the top.
func (s *AdaptiveStrategy) Probe(t Target) {
	c, rank, bank, pattern := t.Ctrl, t.Rank, t.Bank, t.Pattern
	maxSides := 0
	for _, sd := range s.Sweep {
		if sd > maxSides {
			maxSides = sd
		}
	}
	rows := c.Rank(0).Geom.Rows
	if need := 1 + len(s.Sweep)*(2*maxSides+2) + 2*s.Decoys + 2; rows < need {
		panic(fmt.Sprintf("attack: adaptive probe needs %d rows for sweep %v with %d decoys; bank has %d",
			need, s.Sweep, s.Decoys, rows))
	}
	decoyRows := DecoyRows(rows, s.Decoys)
	probes := make([]SidednessProbe, 0, len(s.Sweep))
	base := 1
	bestSides, bestFlips := 0, -1
	for _, sides := range s.Sweep {
		aggr := NSidedAggressors(base, sides)
		victims := NSidedVictims(base, sides)
		for _, a := range aggr {
			writeRowRanked(c, rank, bank, a, ^pattern)
		}
		for _, v := range victims {
			writeRowRanked(c, rank, bank, v, pattern)
		}
		rounds := s.Budget / (sides + s.Decoys)
		NSidedRanked(c, rank, bank, aggr, decoyRows, rounds)
		flips := 0
		for _, v := range victims {
			for _, w := range readRowRanked(c, rank, bank, v) {
				flips += bits.OnesCount64(w ^ pattern)
			}
		}
		probes = append(probes, SidednessProbe{
			Sides:       sides,
			Flips:       flips,
			Activations: int64(rounds * (sides + s.Decoys)),
		})
		if flips > bestFlips {
			bestFlips, bestSides = flips, sides
		}
		base += 2*maxSides + 2
		c.AdvanceTo(c.Now() + c.Rank(0).Timing.RetentionWindow())
	}
	s.probed = true
	s.best = bestSides
	s.probes = probes
}

// Plan implements Strategy.
func (s *AdaptiveStrategy) Plan() Plan {
	if !s.probed || s.best < 2 {
		return Plan{Sides: 2, Decoys: s.Decoys}
	}
	return Plan{Sides: s.best, Decoys: s.Decoys}
}

// HammerRound implements Strategy: the committed pattern, anchored so
// victimRow is one of its victims.
func (s *AdaptiveStrategy) HammerRound(t Target, victimRow, rounds int) {
	p := s.Plan()
	rows := t.Ctrl.Rank(0).Geom.Rows
	base := nsidedBaseFor(victimRow, p.Sides, rows)
	NSidedRanked(t.Ctrl, t.Rank, t.Bank,
		NSidedAggressors(base, p.Sides), DecoyRows(rows, p.Decoys), rounds)
}

// Observe implements Strategy.
func (s *AdaptiveStrategy) Observe(t Target, victimRow int) int { return observeRow(t, victimRow) }

// SaveState implements Strategy: configuration and the committed
// probe record both persist, so a restored attacker resumes with the
// sidedness it already paid the probe budget for.
func (s *AdaptiveStrategy) SaveState(w *snapshot.Writer) {
	w.Tag("strat.adaptive")
	w.Ints(s.Sweep)
	w.Int(s.Decoys)
	w.Int(s.Budget)
	w.Bool(s.probed)
	w.Int(s.best)
	w.U64(uint64(len(s.probes)))
	for _, p := range s.probes {
		w.Int(p.Sides)
		w.Int(p.Flips)
		w.I64(p.Activations)
	}
}

// LoadState implements Strategy.
func (s *AdaptiveStrategy) LoadState(r *snapshot.Reader) error {
	r.Tag("strat.adaptive")
	sweep := r.Ints()
	decoys := r.Int()
	budget := r.Int()
	probed := r.Bool()
	best := r.Int()
	n := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	probes := make([]SidednessProbe, n)
	for i := range probes {
		probes[i] = SidednessProbe{Sides: r.Int(), Flips: r.Int(), Activations: r.I64()}
	}
	if err := r.Err(); err != nil {
		return err
	}
	s.Sweep = sweep
	s.Decoys = decoys
	s.Budget = budget
	s.probed = probed
	s.best = best
	s.probes = probes
	return nil
}

// --- Refresh-synchronized ---

// RefreshSyncStrategy is the SMASH/Blacksmith-style timing attacker
// as a Strategy: it aligns every hammer burst to the controller's
// refresh schedule — advancing idle to the next REF boundary, then
// bursting for at most one tREFI so no REF (and no REF-driven
// tracker action) lands mid-burst. On real hardware the attacker
// infers the schedule from REF latency spikes; here it reads the same
// quantity from the controller's public timing accessors.
type RefreshSyncStrategy struct {
	// Sides is the aggressor count of the burst pattern.
	Sides int
	// Bursts counts REF-aligned bursts issued (mutable state; it
	// persists so a resumed attacker reports a faithful total).
	Bursts int64
}

// Name implements Strategy.
func (*RefreshSyncStrategy) Name() string { return "refsync" }

// Probe implements Strategy: the schedule is read per burst, not
// probed up front.
func (*RefreshSyncStrategy) Probe(Target) {}

// Plan implements Strategy.
func (s *RefreshSyncStrategy) Plan() Plan { return Plan{Sides: s.Sides} }

// HammerRound implements Strategy.
func (s *RefreshSyncStrategy) HammerRound(t Target, victimRow, rounds int) {
	c := t.Ctrl
	rows := c.Rank(0).Geom.Rows
	base := nsidedBaseFor(victimRow, s.Sides, rows)
	aggr := NSidedAggressors(base, s.Sides)
	costPerRound := c.Rank(0).Timing.TRC * dram.Time(s.Sides)
	if costPerRound < 1 {
		costPerRound = 1
	}
	done := 0
	for done < rounds {
		// Align: advancing to the due time services the REF, so the
		// burst starts on a freshly reset refresh engine.
		c.AdvanceTo(c.NextRefreshDue())
		burst := int(c.RefreshPeriod() / costPerRound)
		if burst < 1 {
			burst = 1
		}
		if burst > rounds-done {
			burst = rounds - done
		}
		NSidedRanked(c, t.Rank, t.Bank, aggr, nil, burst)
		s.Bursts++
		done += burst
	}
}

// Observe implements Strategy.
func (s *RefreshSyncStrategy) Observe(t Target, victimRow int) int { return observeRow(t, victimRow) }

// SaveState implements Strategy.
func (s *RefreshSyncStrategy) SaveState(w *snapshot.Writer) {
	w.Tag("strat.refsync")
	w.Int(s.Sides)
	w.I64(s.Bursts)
}

// LoadState implements Strategy.
func (s *RefreshSyncStrategy) LoadState(r *snapshot.Reader) error {
	r.Tag("strat.refsync")
	sides := r.Int()
	bursts := r.I64()
	if err := r.Err(); err != nil {
		return err
	}
	s.Sides = sides
	s.Bursts = bursts
	return nil
}
