package attack

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// legacyAdaptiveNSided is a verbatim test-only copy of the seed-era
// AdaptiveNSided body, kept here as the reference AdaptiveStrategy.Probe
// is pinned bit-identical against. Only its controller accessors
// moved (c.Rank(0) for the retired rank-0 Map and Device) and its
// popcount became bits.OnesCount64. Do not
// "fix" or restyle this function: its whole value is that it never
// changes.
func legacyAdaptiveNSided(c *memctrl.Controller, rank, bank int, sweep []int, decoys, budget int, pattern uint64) (int, []SidednessProbe) {
	maxSides := 0
	for _, s := range sweep {
		if s > maxSides {
			maxSides = s
		}
	}
	rows := c.Rank(0).Geom.Rows
	if need := 1 + len(sweep)*(2*maxSides+2) + 2*decoys + 2; rows < need {
		panic(fmt.Sprintf("attack: AdaptiveNSided needs %d rows for sweep %v with %d decoys; bank has %d",
			need, sweep, decoys, rows))
	}
	decoyRows := DecoyRows(rows, decoys)
	probes := make([]SidednessProbe, 0, len(sweep))
	base := 1
	bestSides, bestFlips := 0, -1
	for _, sides := range sweep {
		aggr := NSidedAggressors(base, sides)
		victims := NSidedVictims(base, sides)
		for _, a := range aggr {
			writeRowRanked(c, rank, bank, a, ^pattern)
		}
		for _, v := range victims {
			writeRowRanked(c, rank, bank, v, pattern)
		}
		rounds := budget / (sides + decoys)
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
			Activations: int64(rounds * (sides + decoys)),
		})
		if flips > bestFlips {
			bestFlips, bestSides = flips, sides
		}
		base += 2*maxSides + 2
		c.AdvanceTo(c.Now() + c.Rank(0).Timing.RetentionWindow())
	}
	return bestSides, probes
}

// TestAdaptiveNSidedMatchesStrategy pins AdaptiveStrategy.Probe to the
// seed-era adaptive N-sided body — same winner, same probe transcript,
// same controller stats and clock.
func TestAdaptiveNSidedMatchesStrategy(t *testing.T) {
	legacyCtrl, _ := nsidedRig(2, 0.1, 300)
	stratCtrl, _ := nsidedRig(2, 0.1, 300)
	sweep := []int{2, 4, 8, 16}
	bestL, probesL := legacyAdaptiveNSided(legacyCtrl, 0, 0, sweep, 2, 120000, 0xaaaaaaaaaaaaaaaa)
	s := &AdaptiveStrategy{Sweep: sweep, Decoys: 2, Budget: 120000}
	s.Probe(Target{Ctrl: stratCtrl, Rank: 0, Bank: 0, Pattern: 0xaaaaaaaaaaaaaaaa})
	bestS, probesS := s.BestSides(), s.Probes()
	if bestL != bestS {
		t.Fatalf("best sides: legacy %d, strategy %d", bestL, bestS)
	}
	if !reflect.DeepEqual(probesL, probesS) {
		t.Fatalf("probe transcripts diverged:\nlegacy   %+v\nstrategy %+v", probesL, probesS)
	}
	if legacyCtrl.Stats != stratCtrl.Stats || legacyCtrl.Now() != stratCtrl.Now() {
		t.Fatalf("controller state diverged:\nlegacy   %+v t=%d\nstrategy %+v t=%d",
			legacyCtrl.Stats, legacyCtrl.Now(), stratCtrl.Stats, stratCtrl.Now())
	}
}

// probePolicyRig builds a one-controller system under the given
// mapping policy with the nsidedRig fault pattern, seeded by seed.
func probePolicyRig(policy memctrl.MappingPolicy, topo dram.Topology, seed uint64) *memctrl.MemorySystem {
	dev := dram.NewDevice(topo.Geom)
	m := disturb.NewModel(topo.Geom, disturb.Invulnerable(), rng.New(seed))
	for v := 4; v < topo.Geom.Rows-8; v += 2 {
		m.InjectWeakCell(0, v, 1, 300, 1, 1, 1, 1)
	}
	dev.AttachFault(m)
	devs := [][]*dram.Device{{dev}}
	ms := memctrl.NewSystem(devs, policy, memctrl.Config{})
	ms.Controller(0).Attach(memctrl.NewTRR(2, 0.1, rng.New(seed+10)))
	return ms
}

// TestAdaptiveProbeDeterministicAcrossPolicies checks the satellite
// contract: the adaptive probe transcript is a pure function of the
// seed — identical across repeated runs and across all three mapping
// policies (the probe drives ranked coordinates directly, so the flat
// address map must not leak into it), at seeds 1 and 5.
func TestAdaptiveProbeDeterministicAcrossPolicies(t *testing.T) {
	topo := dram.Topology{Channels: 1, Ranks: 1, Geom: dram.Geometry{Banks: 1, Rows: 256, Cols: 4}}
	for _, seed := range []uint64{1, 5} {
		var wantBest int
		var wantProbes []SidednessProbe
		for i, policy := range memctrl.Policies(topo) {
			for run := 0; run < 2; run++ {
				ms := probePolicyRig(policy, topo, seed)
				s := &AdaptiveStrategy{Sweep: []int{2, 4, 8, 16}, Decoys: 2, Budget: 120000}
				s.Probe(Target{Ctrl: ms.Controller(0), Rank: 0, Bank: 0, Pattern: 0xaaaaaaaaaaaaaaaa})
				if i == 0 && run == 0 {
					wantBest, wantProbes = s.BestSides(), s.Probes()
					if wantBest == 0 || len(wantProbes) != 4 {
						t.Fatalf("seed %d: degenerate reference transcript best=%d probes=%+v",
							seed, wantBest, wantProbes)
					}
					continue
				}
				if s.BestSides() != wantBest || !reflect.DeepEqual(s.Probes(), wantProbes) {
					t.Fatalf("seed %d policy %s run %d: transcript diverged\nwant best=%d %+v\ngot  best=%d %+v",
						seed, policy.Name(), run, wantBest, wantProbes, s.BestSides(), s.Probes())
				}
			}
		}
	}
}

// TestDoubleSidedStrategyMatchesLegacy pins DoubleSidedStrategy's
// HammerRound bit-identical to a literal hammer of the two rows
// sandwiching the victim.
func TestDoubleSidedStrategyMatchesLegacy(t *testing.T) {
	legacyCtrl, _ := nsidedRig(2, 0.1, 300)
	stratCtrl, _ := nsidedRig(2, 0.1, 300)
	legacyCtrl.HammerPairsRanked(0, 0, 59, 61, 5000)
	s := &DoubleSidedStrategy{}
	s.HammerRound(Target{Ctrl: stratCtrl, Pattern: 0xaaaaaaaaaaaaaaaa}, 60, 5000)
	if legacyCtrl.Stats != stratCtrl.Stats || legacyCtrl.Now() != stratCtrl.Now() {
		t.Fatalf("double-sided diverged:\nlegacy   %+v t=%d\nstrategy %+v t=%d",
			legacyCtrl.Stats, legacyCtrl.Now(), stratCtrl.Stats, stratCtrl.Now())
	}
	if p := s.Plan(); p.Sides != 2 {
		t.Fatalf("double-sided plan = %+v", p)
	}
}

// TestSingleSidedStrategyMatchesLegacy pins SingleSidedStrategy's
// HammerRound bit-identical to a literal hammer of the seed-era
// single-sided row choice: the aggressor above the victim against a
// dummy half a bank away.
func TestSingleSidedStrategyMatchesLegacy(t *testing.T) {
	legacyCtrl, _ := nsidedRig(2, 0.1, 300)
	stratCtrl, _ := nsidedRig(2, 0.1, 300)
	rows := legacyCtrl.Rank(0).Geom.Rows
	victim := 60
	legacyCtrl.HammerPairsRanked(0, 0, victim+1, (victim+rows/2)%rows, 5000)
	s := &SingleSidedStrategy{}
	s.HammerRound(Target{Ctrl: stratCtrl, Pattern: 0xaaaaaaaaaaaaaaaa}, victim, 5000)
	if legacyCtrl.Stats != stratCtrl.Stats || legacyCtrl.Now() != stratCtrl.Now() {
		t.Fatalf("single-sided diverged:\nlegacy   %+v t=%d\nstrategy %+v t=%d",
			legacyCtrl.Stats, legacyCtrl.Now(), stratCtrl.Stats, stratCtrl.Now())
	}
}

// TestNSidedDecoyStrategyMatchesLegacy pins NSidedDecoyStrategy's
// HammerRound bit-identical to a literal N-sided hammer of the
// seed-era row choice: four aggressors from the row below the victim
// and two decoys. Both twins are armed with the charged pattern first
// so the round flips bits, and every row's device words must agree.
func TestNSidedDecoyStrategyMatchesLegacy(t *testing.T) {
	const pattern = 0xaaaaaaaaaaaaaaaa
	legacyCtrl, legacyDev := nsidedRig(2, 0.1, 300)
	stratCtrl, stratDev := nsidedRig(2, 0.1, 300)
	rows := legacyCtrl.Rank(0).Geom.Rows
	for r := 0; r < rows; r++ {
		writeRowRanked(legacyCtrl, 0, 0, r, pattern)
		writeRowRanked(stratCtrl, 0, 0, r, pattern)
	}
	victim := 60
	NSidedRanked(legacyCtrl, 0, 0, NSidedAggressors(victim-1, 4), DecoyRows(rows, 2), 5000)
	s := &NSidedDecoyStrategy{Sides: 4, Decoys: 2}
	s.HammerRound(Target{Ctrl: stratCtrl, Pattern: pattern}, victim, 5000)
	if legacyCtrl.Stats != stratCtrl.Stats || legacyCtrl.Now() != stratCtrl.Now() {
		t.Fatalf("nsided diverged:\nlegacy   %+v t=%d\nstrategy %+v t=%d",
			legacyCtrl.Stats, legacyCtrl.Now(), stratCtrl.Stats, stratCtrl.Now())
	}
	flips := 0
	for r := 0; r < rows; r++ {
		lw, sw := legacyDev.PhysRowWords(0, r), stratDev.PhysRowWords(0, r)
		for i := range lw {
			if lw[i] != sw[i] {
				t.Fatalf("row %d word %d: legacy %#x, strategy %#x", r, i, lw[i], sw[i])
			}
			flips += bits.OnesCount64(lw[i] ^ pattern)
		}
	}
	if flips == 0 {
		t.Fatal("no flips; equivalence test is vacuous")
	}
}

// TestNewStrategyRoster checks the registry: every listed name builds,
// reports a Name consistent with its roster entry, and unknown names
// are rejected.
func TestNewStrategyRoster(t *testing.T) {
	for _, name := range StrategyNames() {
		s, err := NewStrategy(name)
		if err != nil {
			t.Fatalf("NewStrategy(%q): %v", name, err)
		}
		if name == "nsided" {
			if s.Name() != "nsided-4+2" {
				t.Fatalf("nsided default Name = %q", s.Name())
			}
			continue
		}
		if s.Name() != name {
			t.Fatalf("NewStrategy(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := NewStrategy("rowpress"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestStrategyStateRoundTrip drives every strategy mid-attack, saves
// it, loads into a fresh instance, and checks the restored attacker
// serializes to identical bytes (the snapshot-codec idempotence
// contract) — and, for the adaptive attacker, that the committed
// sidedness survives the trip.
func TestStrategyStateRoundTrip(t *testing.T) {
	for _, name := range StrategyNames() {
		s, err := NewStrategy(name)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, _ := nsidedRig(2, 0.1, 300)
		tgt := Target{Ctrl: ctrl, Pattern: 0xaaaaaaaaaaaaaaaa}
		if a, ok := s.(*AdaptiveStrategy); ok {
			a.Probe(tgt)
		}
		s.HammerRound(tgt, 60, 200)
		var w snapshot.Writer
		s.SaveState(&w)
		fresh, err := NewStrategy(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.LoadState(snapshot.NewReader(w.Bytes())); err != nil {
			t.Fatalf("%s: LoadState: %v", name, err)
		}
		var w2 snapshot.Writer
		fresh.SaveState(&w2)
		if !reflect.DeepEqual(w.Bytes(), w2.Bytes()) {
			t.Fatalf("%s: save/load/save not idempotent (%d vs %d bytes)",
				name, len(w.Bytes()), len(w2.Bytes()))
		}
		if a, ok := s.(*AdaptiveStrategy); ok {
			restored := fresh.(*AdaptiveStrategy)
			if restored.BestSides() != a.BestSides() || !reflect.DeepEqual(restored.Probes(), a.Probes()) {
				t.Fatalf("adaptive restore lost the probe: %d/%+v vs %d/%+v",
					a.BestSides(), a.Probes(), restored.BestSides(), restored.Probes())
			}
		}
		if rs, ok := s.(*RefreshSyncStrategy); ok {
			if rs.Bursts == 0 {
				t.Fatal("refsync issued no bursts; round-trip test is vacuous")
			}
			if got := fresh.(*RefreshSyncStrategy).Bursts; got != rs.Bursts {
				t.Fatalf("refsync burst count lost: %d vs %d", rs.Bursts, got)
			}
		}
	}
}

// TestStrategyLoadRejectsWrongTag checks the codec framing: a
// strategy must refuse a checkpoint written by a different strategy.
func TestStrategyLoadRejectsWrongTag(t *testing.T) {
	var w snapshot.Writer
	(&DoubleSidedStrategy{}).SaveState(&w)
	if err := (&RefreshSyncStrategy{Sides: 2}).LoadState(snapshot.NewReader(w.Bytes())); err == nil {
		t.Fatal("refsync loaded a double-sided checkpoint")
	}
}

// TestRefreshSyncAlignsToRefresh checks the timing attacker's core
// behaviour: every burst begins exactly at a refresh boundary, and the
// requested round budget is spent in full.
func TestRefreshSyncAlignsToRefresh(t *testing.T) {
	ctrl, _ := nsidedRig(2, 0.1, 300)
	s := &RefreshSyncStrategy{Sides: 2}
	before := ctrl.Stats
	s.HammerRound(Target{Ctrl: ctrl, Pattern: 0xaaaaaaaaaaaaaaaa}, 60, 5000)
	if s.Bursts == 0 {
		t.Fatal("no bursts issued")
	}
	spent := ctrl.Stats.Accesses - before.Accesses
	if spent < 2*5000 {
		t.Fatalf("accesses spent %d < %d", spent, 2*5000)
	}
	// Each burst waits for (and thereby services) at least one REF, so
	// an aligned attacker forces at least bursts-1 refreshes.
	if refs := ctrl.Stats.AutoRefreshes - before.AutoRefreshes; refs < s.Bursts-1 {
		t.Fatalf("refreshes %d < bursts-1 %d: bursts not REF-aligned", refs, s.Bursts-1)
	}
}
