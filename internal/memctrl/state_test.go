package memctrl

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/raidr"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// stateRig is a full mitigated controller over a disturb-modelled
// device — the shape mid-campaign checkpoints must capture exactly.
type stateRig struct {
	ctrl  *Controller
	model *disturb.Model
}

// newStateRig builds an identically configured rig from a seed; the
// construction path is the deterministic "rebuild from spec" half of a
// restore.
func newStateRig(seed uint64, attach func(src *rng.Stream) []Mitigation) *stateRig {
	g := dram.Geometry{Banks: 2, Rows: 512, Cols: 8}
	p := disturb.DefaultParams()
	p.WeakCellFraction = 5e-4
	p.ThresholdMedian = 30e3
	p.MinThreshold = 10e3
	src := rng.New(seed)
	dev := dram.NewDevice(g)
	model := disturb.NewModel(g, p, src.Split())
	dev.AttachFault(model)
	ctrl := New(dev, Config{})
	for _, m := range attach(src.Split()) {
		ctrl.Attach(m)
	}
	for b := 0; b < g.Banks; b++ {
		for r := 0; r < g.Rows; r++ {
			dev.FillPhysRow(b, r, 0xffffffffffffffff)
		}
	}
	return &stateRig{ctrl: ctrl, model: model}
}

// drive runs a deterministic mixed workload: hammer pairs across rows
// plus scattered accesses, with refresh interleaved by the controller.
func (rig *stateRig) drive(pairsPerSite int) {
	for b := 0; b < 2; b++ {
		for r := 10; r < 500; r += 37 {
			rig.ctrl.HammerPairsRanked(0, b, r-1, r+1, pairsPerSite)
		}
	}
	for i := 0; i < 2000; i++ {
		rig.ctrl.AccessRanked(0, Coord{Bank: 1, Row: i * 32 % 512}, i%3 == 0, uint64(i))
	}
}

func fullRoster(src *rng.Stream) []Mitigation {
	return []Mitigation{
		NewPARA(0.0005, InDRAM, nil, src.Split()),
		NewCRA(40e3, 2, 512),
		NewTRR(6, 0.01, src.Split()),
		NewANVIL(),
		NewGraphene(8, 40e3, 2),
		NewTWiCe(40e3, 2),
	}
}

// TestControllerStateRoundTripBitIdentical pins the core checkpoint
// guarantee at the controller layer: a campaign over a fully mitigated
// controller checkpointed mid-run and resumed into a freshly built rig
// finishes bit-identical (stats, clocks, flips, cell contents) to the
// uninterrupted run.
func TestControllerStateRoundTripBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		ref := newStateRig(seed, fullRoster)
		ref.drive(3000)
		ref.drive(3000)

		a := newStateRig(seed, fullRoster)
		a.drive(3000)
		var cw, mw snapshot.Writer
		a.ctrl.SaveState(&cw)
		a.model.SaveState(&mw)

		b := newStateRig(seed, fullRoster)
		if err := b.ctrl.LoadState(snapshot.NewReader(cw.Bytes())); err != nil {
			t.Fatalf("seed %d: controller LoadState: %v", seed, err)
		}
		if err := b.model.LoadState(snapshot.NewReader(mw.Bytes())); err != nil {
			t.Fatalf("seed %d: model LoadState: %v", seed, err)
		}
		b.drive(3000)

		if b.ctrl.Stats != ref.ctrl.Stats {
			t.Fatalf("seed %d: controller stats differ after resume:\n got %+v\nwant %+v",
				seed, b.ctrl.Stats, ref.ctrl.Stats)
		}
		if b.ctrl.Now() != ref.ctrl.Now() {
			t.Fatalf("seed %d: clock %d after resume, want %d", seed, b.ctrl.Now(), ref.ctrl.Now())
		}
		if b.ctrl.Rank(0).Stats != ref.ctrl.Rank(0).Stats {
			t.Fatalf("seed %d: device stats differ after resume", seed)
		}
		if got, want := b.model.TotalFlips(), ref.model.TotalFlips(); got != want {
			t.Fatalf("seed %d: flips %d after resume, want %d", seed, got, want)
		}
		dev, devRef := b.ctrl.Rank(0), ref.ctrl.Rank(0)
		for bank := 0; bank < dev.Geom.Banks; bank++ {
			for r := 0; r < dev.Geom.Rows; r++ {
				w1, w2 := dev.PhysRowWords(bank, r), devRef.PhysRowWords(bank, r)
				for i := range w1 {
					if w1[i] != w2[i] {
						t.Fatalf("seed %d: cell mismatch bank %d row %d word %d", seed, bank, r, i)
					}
				}
			}
		}
	}
}

// TestMultiRateStateRoundTrip pins checkpoint/restore across the
// refresh-policy path: a MultiRateRefresh-driven controller restores
// its sweep position exactly.
func TestMultiRateStateRoundTrip(t *testing.T) {
	roster := func(src *rng.Stream) []Mitigation {
		weak := map[int]bool{10: true, 200: true}
		return []Mitigation{NewMultiRate(raidr.NewPlan(512, weak, 4))}
	}
	ref := newStateRig(3, roster)
	ref.drive(500)
	ref.drive(500)

	a := newStateRig(3, roster)
	a.drive(500)
	var cw snapshot.Writer
	a.ctrl.SaveState(&cw)

	b := newStateRig(3, roster)
	if err := b.ctrl.LoadState(snapshot.NewReader(cw.Bytes())); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	b.drive(500)

	if b.ctrl.Stats != ref.ctrl.Stats {
		t.Fatalf("controller stats differ after resume:\n got %+v\nwant %+v", b.ctrl.Stats, ref.ctrl.Stats)
	}
	mrB := b.ctrl.Mitigations()[0].(*MultiRateRefresh)
	mrRef := ref.ctrl.Mitigations()[0].(*MultiRateRefresh)
	if mrB.RowRefreshes != mrRef.RowRefreshes || mrB.RowsSkipped != mrRef.RowsSkipped || mrB.Sweep() != mrRef.Sweep() {
		t.Fatal("multi-rate refresh counters differ after resume")
	}
}

// TestControllerLoadStateRejectsRosterMismatch pins the typed error
// when the attached mitigations disagree with the checkpoint.
func TestControllerLoadStateRejectsRosterMismatch(t *testing.T) {
	a := newStateRig(1, fullRoster)
	a.drive(100)
	var cw snapshot.Writer
	a.ctrl.SaveState(&cw)

	b := newStateRig(1, func(src *rng.Stream) []Mitigation {
		return []Mitigation{NewANVIL()}
	})
	err := b.ctrl.LoadState(snapshot.NewReader(cw.Bytes()))
	if !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("want ErrMismatch, got %v", err)
	}
}

// TestSystemStateRoundTrip pins MemorySystem-level save/load across a
// multi-channel topology.
func TestSystemStateRoundTrip(t *testing.T) {
	build := func() *MemorySystem {
		topo := dram.Topology{Channels: 2, Ranks: 2, Geom: dram.Geometry{Banks: 2, Rows: 128, Cols: 4}}
		devs := make([][]*dram.Device, topo.Channels)
		for ch := range devs {
			for rk := 0; rk < topo.Ranks; rk++ {
				devs[ch] = append(devs[ch], dram.NewDevice(topo.Geom))
			}
		}
		return NewSystem(devs, RowInterleaved{Topo: topo}, Config{})
	}
	drive := func(ms *MemorySystem) {
		for i := 0; i < 5000; i++ {
			ms.Access(uint64(i)*512, i%2 == 0, uint64(i)*3)
		}
	}
	ref := build()
	drive(ref)
	drive(ref)

	a := build()
	drive(a)
	var w snapshot.Writer
	a.SaveState(&w)

	b := build()
	if err := b.LoadState(snapshot.NewReader(w.Bytes())); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	drive(b)

	if b.AggregateStats() != ref.AggregateStats() {
		t.Fatal("aggregate stats differ after resume")
	}
	if b.AggregateDeviceStats() != ref.AggregateDeviceStats() {
		t.Fatal("aggregate device stats differ after resume")
	}
}

// TestLoadStateRejectsHostileCounts feeds each mitigation decoder that
// sizes an allocation by a checkpoint count a payload whose count
// claims more elements than the bytes left can hold. Each must return
// ErrCorrupt, not panic or allocate, and leave the mitigation's saved
// state unchanged.
func TestLoadStateRejectsHostileCounts(t *testing.T) {
	rig := newStateRig(3, fullRoster)
	rig.drive(3000)
	var cra *CRA
	var anvil *ANVIL
	var twice *TWiCe
	for _, m := range rig.ctrl.mitigations {
		switch m := m.(type) {
		case *CRA:
			cra = m
		case *ANVIL:
			anvil = m
		case *TWiCe:
			twice = m
		}
	}
	if cra == nil || anvil == nil || twice == nil {
		t.Fatal("roster lacks CRA, ANVIL or TWiCe")
	}
	const hostile = 1 << 60
	for _, tc := range []struct {
		name  string
		mit   StatefulMitigation
		write func(w *snapshot.Writer)
	}{
		{"CRA counters", cra, func(w *snapshot.Writer) {
			w.Tag("mit.CRA")
			w.I64(0)
			w.I64(0)
			w.U64(hostile)
		}},
		{"ANVIL window", anvil, func(w *snapshot.Writer) {
			w.Tag("mit.ANVIL")
			w.I64(0)
			w.I64(0)
			w.U64(hostile)
		}},
		{"ANVIL flagged set", anvil, func(w *snapshot.Writer) {
			w.Tag("mit.ANVIL")
			w.I64(0)
			w.I64(0)
			w.U64(1)
			w.Int(0)
			w.Int(7)
			w.U64(hostile)
		}},
		{"TWiCe table entries", twice, func(w *snapshot.Writer) {
			w.Tag("mit.TWiCe")
			w.I64(0)
			w.I64(0)
			w.Int(0)
			w.U64(2) // the roster's TWiCe tracks two banks
			w.U64(hostile)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.mit
			var before, after, payload snapshot.Writer
			m.SaveState(&before)
			tc.write(&payload)
			// A few spare bytes, so the count, not a plain truncation,
			// is what the decoder must refuse.
			payload.U64(0)
			if err := m.LoadState(snapshot.NewReader(payload.Bytes())); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
			m.SaveState(&after)
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatal("failed load mutated the mitigation")
			}
		})
	}
}
