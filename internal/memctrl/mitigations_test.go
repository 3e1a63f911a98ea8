package memctrl

import (
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/rng"
	"repro/internal/spd"
)

// attackRig wires a device with one injected weak cell (victim at
// physical row 101, aggressors 100/102) behind a controller.
type attackRig struct {
	ctrl *Controller
	dist *disturb.Model
}

// newAttackRig builds the rig. remapVictim swaps the victim's logical
// address away from its physical position to model internal repair.
func newAttackRig(threshold float64, remapVictim bool, cfg Config) *attackRig {
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 8}
	dev := dram.NewDevice(g)
	if remapVictim {
		rt := dram.IdentityRemap(g.Rows)
		// Swap logical 101 <-> 200: physical row 101 is now addressed
		// by logical row 200.
		blob := spdSwapTable(rt, 101, 200)
		dev.SetRemap(blob)
	}
	m := disturb.NewPlanted(g)
	// Victim cell in physical row 101, charged value 1, both-side
	// coupling 1.0 so double-sided hammering counts 2 per pair.
	m.InjectWeakCell(0, 101, 17, threshold, 1, 1, 1, 1)
	dev.AttachFault(m)
	dev.SetPhysBit(0, 101, 17, 1) // charge the victim
	ctrl := New(dev, cfg)
	return &attackRig{ctrl: ctrl, dist: m}
}

func spdSwapTable(rt *dram.RemapTable, a, b int) *dram.RemapTable {
	phys := rt.PhysSlice()
	phys[a], phys[b] = phys[b], phys[a]
	out, err := dram.RemapFromPhysSlice(phys)
	if err != nil {
		panic(err)
	}
	return out
}

// hammerPairs performs n double-sided hammer pairs on logical rows
// 100 and 102.
func (r *attackRig) hammerPairs(n int) {
	for i := 0; i < n; i++ {
		r.ctrl.AccessRanked(0, Coord{Bank: 0, Row: 100, Col: 0}, false, 0)
		r.ctrl.AccessRanked(0, Coord{Bank: 0, Row: 102, Col: 0}, false, 0)
	}
}

func (r *attackRig) victimFlipped() bool {
	return r.ctrl.Rank(0).PhysBit(0, 101, 17) != 1
}

func TestHammerThroughControllerFlips(t *testing.T) {
	rig := newAttackRig(2000, false, Config{})
	rig.hammerPairs(3000)
	if !rig.victimFlipped() {
		t.Fatal("unmitigated double-sided hammering did not flip the victim")
	}
}

func TestAutoRefreshAloneInsufficient(t *testing.T) {
	// The nominal refresh rate cannot stop a fast hammer: threshold
	// 2000 pairs is reached in ~2000*2*~50ns = 200 us << 64 ms window.
	rig := newAttackRig(2000, false, Config{})
	rig.hammerPairs(3000)
	if !rig.victimFlipped() {
		t.Fatal("expected flip under nominal refresh")
	}
}

func TestHighRefreshMultiplierPrevents(t *testing.T) {
	// Make the threshold high enough that a strongly increased refresh
	// rate resets pressure in time. Window/multiplier must sweep the
	// victim before ~threshold pairs complete. With threshold 500k
	// pairs (~50 ms of hammering) a 4x refresh (16 ms window) wins.
	rig := newAttackRig(1e6, false, Config{})
	rig.ctrl.Attach(NewRefreshScaling(4))
	rig.hammerPairs(600000)
	if rig.victimFlipped() {
		t.Fatal("4x refresh did not prevent a 1M-threshold flip")
	}
}

func TestPARAInDRAMPrevents(t *testing.T) {
	rig := newAttackRig(2000, false, Config{})
	rig.ctrl.Attach(NewPARA(0.02, InDRAM, nil, rng.New(5)))
	rig.hammerPairs(50000)
	if rig.victimFlipped() {
		t.Fatal("PARA in DRAM failed to prevent flip")
	}
	if rig.ctrl.Stats.MitRefreshes == 0 {
		t.Fatal("PARA never refreshed a neighbour")
	}
}

func TestPARAControllerNoSPDWorksWithoutRemap(t *testing.T) {
	rig := newAttackRig(2000, false, Config{})
	rig.ctrl.Attach(NewPARA(0.02, InController, nil, rng.New(6)))
	rig.hammerPairs(50000)
	if rig.victimFlipped() {
		t.Fatal("controller-side PARA failed on identity-mapped device")
	}
}

func TestPARAControllerNoSPDFailsUnderRemap(t *testing.T) {
	// Physical victim 101 is logically addressed as 200. PARA without
	// SPD refreshes logical 99/101/103, whose physical rows are 99,
	// 200(!), 103 — never the true victim. The flip must occur: this
	// is the paper's argument for exposing adjacency via SPD.
	rig := newAttackRig(2000, true, Config{})
	rig.ctrl.Attach(NewPARA(0.05, InController, nil, rng.New(7)))
	rig.hammerPairs(5000)
	if !rig.victimFlipped() {
		t.Fatal("PARA without SPD unexpectedly protected a remapped victim")
	}
}

func TestPARAControllerWithSPDWorksUnderRemap(t *testing.T) {
	rig := newAttackRig(2000, true, Config{})
	blob := spd.Encode(rig.ctrl.Rank(0).Remap())
	rt, err := spd.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	rig.ctrl.Attach(NewPARA(0.02, InControllerWithSPD, spd.NewOracle(rt), rng.New(8)))
	rig.hammerPairs(50000)
	if rig.victimFlipped() {
		t.Fatal("PARA with SPD adjacency failed under remap")
	}
}

func TestCRAPrevents(t *testing.T) {
	rig := newAttackRig(2000, false, Config{})
	rig.ctrl.Attach(NewCRA(2000, 1, 256))
	rig.hammerPairs(50000)
	if rig.victimFlipped() {
		t.Fatal("CRA failed to prevent flip")
	}
}

// TestCRAThresholdRounding pins the trigger at the smallest count that
// is at least Threshold/2 — ceil, not truncating division, which fired
// one activation early on odd thresholds.
func TestCRAThresholdRounding(t *testing.T) {
	cases := []struct {
		threshold int64
		fireAt    int64 // activation count at which the first refresh fires
	}{
		{threshold: 10, fireAt: 5},
		{threshold: 11, fireAt: 6}, // truncation would fire at 5
		{threshold: 2, fireAt: 1},
		{threshold: 3, fireAt: 2},
		{threshold: 1999, fireAt: 1000},
		{threshold: 2000, fireAt: 1000},
	}
	for _, tc := range cases {
		g := dram.Geometry{Banks: 1, Rows: 64, Cols: 2}
		ctrl := New(dram.NewDevice(g), Config{DisableRefresh: true})
		cra := NewCRA(tc.threshold, 1, g.Rows)
		ctrl.Attach(cra)
		for n := int64(1); n <= tc.fireAt; n++ {
			// Alternate against a far dummy row so every access to row
			// 30 is an activation; the dummy must not fire first.
			ctrl.AccessRanked(0, Coord{Bank: 0, Row: 30, Col: 0}, false, 0)
			fired := ctrl.Stats.MitRefreshes > 0
			if n < tc.fireAt && fired {
				t.Fatalf("threshold %d: fired after %d activations, want %d",
					tc.threshold, n, tc.fireAt)
			}
			if n == tc.fireAt && !fired {
				t.Fatalf("threshold %d: no fire after %d activations", tc.threshold, n)
			}
			ctrl.AccessRanked(0, Coord{Bank: 0, Row: 60, Col: 0}, false, 0)
		}
	}
}

// TestCRAWindowDerivedFromRefreshConfig pins the counter-reset window:
// the REF commands per retention window under the controller's
// effective refresh rate, derived from the controller rather than the
// old hardcoded 8192 that silently shrank the window m-fold whenever
// CRA was combined with an m× refresh multiplier.
func TestCRAWindowDerivedFromRefreshConfig(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 2}
	for _, tc := range []struct {
		mult float64
		want int64
	}{
		{mult: 1, want: 8192},
		{mult: 2, want: 16384},
		{mult: 4, want: 32768},
	} {
		ctrl := New(dram.NewDevice(g), Config{})
		ctrl.Attach(NewRefreshScaling(tc.mult))
		if got := ctrl.RefsPerRetentionWindow(); got != tc.want {
			t.Fatalf("mult %v: RefsPerRetentionWindow = %d, want %d", tc.mult, got, tc.want)
		}
		cra := NewCRA(1000, 1, g.Rows)
		ctrl.Attach(cra)
		ctrl.AdvanceTo(ctrl.Rank(0).Timing.TREFI + 1)
		if cra.WindowREFs != tc.want {
			t.Fatalf("mult %v: derived WindowREFs = %d, want %d", tc.mult, cra.WindowREFs, tc.want)
		}
	}
	// A count built up before the window boundary must not survive it.
	ctrl := New(dram.NewDevice(g), Config{})
	cra := NewCRA(1000, 1, g.Rows)
	cra.WindowREFs = 16 // pinned windows override the derivation
	ctrl.Attach(cra)
	for i := 0; i < 400; i++ {
		ctrl.AccessRanked(0, Coord{Bank: 0, Row: 30, Col: 0}, false, 0)
		ctrl.AccessRanked(0, Coord{Bank: 0, Row: 90, Col: 0}, false, 0)
	}
	if ctrl.Stats.MitRefreshes != 0 {
		t.Fatalf("CRA fired below trigger: %d refreshes", ctrl.Stats.MitRefreshes)
	}
	if cra.WindowREFs != 16 {
		t.Fatalf("explicit WindowREFs overwritten to %d", cra.WindowREFs)
	}
	// Idle across the pinned window, then rebuild the same sub-trigger
	// count: had the 400-count survived, the total (800 >= 500) fires.
	ctrl.AdvanceTo(ctrl.Now() + 17*ctrl.Rank(0).Timing.TREFI)
	for i := 0; i < 400; i++ {
		ctrl.AccessRanked(0, Coord{Bank: 0, Row: 30, Col: 0}, false, 0)
		ctrl.AccessRanked(0, Coord{Bank: 0, Row: 90, Col: 0}, false, 0)
	}
	if ctrl.Stats.MitRefreshes != 0 {
		t.Fatalf("count survived the reset window: %d refreshes", ctrl.Stats.MitRefreshes)
	}
}

// TestPARABlastRadiusContract pins the blast-radius contract: NewPARA
// defaults to radius 2, whose triggered refresh covers the distance-1
// and distance-2 neighbours on the drawn side, while radius 1 (the
// E26 ablation knob) touches only distance 1.
func TestPARABlastRadiusContract(t *testing.T) {
	trace := func(radius int) map[int]bool {
		g := dram.Geometry{Banks: 1, Rows: 64, Cols: 2}
		dev := dram.NewDevice(g)
		rec := &refreshRecorder{}
		dev.AttachFault(rec)
		ctrl := New(dev, Config{DisableRefresh: true})
		para := NewPARA(2, InDRAM, nil, rng.New(3)) // P=2: both sides fire every time
		if para.Radius != 2 {
			t.Fatalf("NewPARA default Radius = %d, want 2 (blast-radius contract)", para.Radius)
		}
		para.Radius = radius
		ctrl.Attach(para)
		ctrl.AccessRanked(0, Coord{Bank: 0, Row: 30, Col: 0}, false, 0)
		rows := map[int]bool{}
		for _, e := range rec.events {
			rows[e.physRow] = true
		}
		return rows
	}
	full := trace(2)
	for _, want := range []int{28, 29, 31, 32} {
		if !full[want] {
			t.Fatalf("radius-2 PARA did not refresh row %d: %v", want, full)
		}
	}
	ablated := trace(1)
	if !ablated[29] || !ablated[31] || ablated[28] || ablated[32] {
		t.Fatalf("radius-1 ablation refreshed wrong rows: %v", ablated)
	}
}

func TestCRAStorageCost(t *testing.T) {
	cra := NewCRA(100000, 8, 65536)
	if cra.StorageBits() != 8*65536*20 {
		t.Fatalf("storage = %d bits", cra.StorageBits())
	}
	para := NewPARA(0.001, InDRAM, nil, rng.New(1))
	if para.StorageBits() != 0 {
		t.Fatal("PARA must be stateless")
	}
}

// refreshRecorder is a FaultModel that records every row-refresh event
// with its timestamp. The controller charges mitigations' neighbour
// refreshes sequentially (each advances the clock by tRC), so the
// recorded sequence exposes the order in which a mitigation walks its
// state — the quantity the TRR determinism contract pins.
type refreshRecorder struct {
	events []refreshEvent
}

type refreshEvent struct {
	bank, physRow int
	at            dram.Time
}

func (r *refreshRecorder) Name() string                                            { return "refresh-recorder" }
func (r *refreshRecorder) OnActivate(d *dram.Device, bank, row int, now dram.Time) {}
func (r *refreshRecorder) OnRefresh(d *dram.Device, bank, row int, now dram.Time) {
	r.events = append(r.events, refreshEvent{bank: bank, physRow: row, at: now})
}

// trrRefreshTrace runs one fixed TRR scenario — fill the sampler with
// distinct aggressors, then let one REF drain it — and returns the
// refresh-event sequence plus the controller stats.
func trrRefreshTrace() ([]refreshEvent, Stats, dram.Time) {
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 8}
	dev := dram.NewDevice(g)
	rec := &refreshRecorder{}
	dev.AttachFault(rec)
	ctrl := New(dev, Config{})
	// SampleP 1 so every activation lands in the sampler; 8 distinct
	// aggressor rows fill all 8 slots before the first REF drains them.
	ctrl.Attach(NewTRR(8, 1, rng.New(42)))
	for i := 0; i < 8; i++ {
		ctrl.AccessRanked(0, Coord{Bank: 0, Row: 10 + 10*i, Col: 0}, false, 0)
	}
	ctrl.AdvanceTo(ctrl.Rank(0).Timing.TREFI + 1)
	return rec.events, ctrl.Stats, ctrl.Now()
}

// TestTRRRefreshOrderDeterministic is the regression test for the TRR
// sampler-iteration bug: draining the sampler in Go map order made the
// neighbour-refresh sequence — and therefore the per-row time and
// energy charging — vary run to run at a fixed seed. The trace must be
// bit-identical across repeated runs; slots drain in slot order.
func TestTRRRefreshOrderDeterministic(t *testing.T) {
	base, baseStats, baseNow := trrRefreshTrace()
	if len(base) == 0 {
		t.Fatal("scenario recorded no refreshes; test is vacuous")
	}
	for run := 1; run <= 4; run++ {
		got, gotStats, gotNow := trrRefreshTrace()
		if gotStats != baseStats || gotNow != baseNow {
			t.Fatalf("run %d: stats diverged: %+v t=%d vs %+v t=%d",
				run, gotStats, gotNow, baseStats, baseNow)
		}
		if len(got) != len(base) {
			t.Fatalf("run %d: %d refresh events vs %d", run, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("run %d: refresh event %d = %+v, want %+v (nondeterministic sampler order)",
					run, i, got[i], base[i])
			}
		}
	}
}

func TestTRRPreventsDoubleSided(t *testing.T) {
	rig := newAttackRig(20000, false, Config{})
	rig.ctrl.Attach(NewTRR(4, 0.01, rng.New(9)))
	rig.hammerPairs(200000)
	if rig.victimFlipped() {
		t.Fatal("TRR failed against a two-aggressor attack")
	}
}

func TestTRRBypassedByManySided(t *testing.T) {
	// A many-sided pattern with far more aggressors than sampler
	// entries dilutes sampling enough that some victim sees full
	// pressure. Build 20 aggressor pairs around 20 victims and a tiny
	// sampler that refreshes only what it caught.
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 8}
	dev := dram.NewDevice(g)
	m := disturb.NewPlanted(g)
	victims := []int{}
	for v := 20; v <= 210; v += 10 {
		m.InjectWeakCell(0, v, 3, 1500, 1, 1, 1, 1)
		victims = append(victims, v)
	}
	dev.AttachFault(m)
	for _, v := range victims {
		dev.SetPhysBit(0, v, 3, 1)
	}
	ctrl := New(dev, Config{})
	ctrl.Attach(NewTRR(2, 0.005, rng.New(10)))
	for i := 0; i < 4000; i++ {
		for _, v := range victims {
			ctrl.AccessRanked(0, Coord{Bank: 0, Row: v - 1, Col: 0}, false, 0)
			ctrl.AccessRanked(0, Coord{Bank: 0, Row: v + 1, Col: 0}, false, 0)
		}
	}
	flipped := 0
	for _, v := range victims {
		if dev.PhysBit(0, v, 3) != 1 {
			flipped++
		}
	}
	if flipped == 0 {
		t.Fatal("many-sided attack failed to bypass a 2-entry TRR sampler")
	}
}

func TestANVILDetectsHammering(t *testing.T) {
	rig := newAttackRig(1e12, false, Config{}) // threshold unreachable; we test detection only
	anvil := NewANVIL()
	rig.ctrl.Attach(anvil)
	rig.hammerPairs(20000)
	if anvil.Detections == 0 {
		t.Fatal("ANVIL never detected the hammer pattern")
	}
	if !anvil.Flagged(0, 100) && !anvil.Flagged(0, 102) {
		t.Fatal("ANVIL flagged neither aggressor row")
	}
}

func TestANVILQuietOnUniformTraffic(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 8}
	dev := dram.NewDevice(g)
	ctrl := New(dev, Config{})
	anvil := NewANVIL()
	ctrl.Attach(anvil)
	src := rng.New(11)
	for i := 0; i < 50000; i++ {
		ctrl.AccessRanked(0, Coord{Bank: 0, Row: src.Intn(256), Col: 0}, false, 0)
	}
	if anvil.Detections != 0 {
		t.Fatalf("ANVIL false-positived %d times on uniform traffic", anvil.Detections)
	}
}

func TestMitigationNames(t *testing.T) {
	src := rng.New(1)
	names := map[string]bool{}
	for _, m := range []Mitigation{
		NewPARA(0.01, InController, nil, src),
		NewPARA(0.01, InControllerWithSPD, nil, src),
		NewPARA(0.01, InDRAM, nil, src),
		NewCRA(1000, 1, 10),
		NewTRR(4, 0.01, src),
		NewANVIL(),
		NewGraphene(4, 1000, 1),
		NewTWiCe(1000, 1),
		NewRefreshScaling(2),
	} {
		if m.Name() == "" || names[m.Name()] {
			t.Fatalf("duplicate or empty mitigation name %q", m.Name())
		}
		names[m.Name()] = true
	}
}
