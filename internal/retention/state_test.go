package retention

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

func retentionParams() Params {
	p := DefaultParams()
	p.WeakFraction = 5e-4
	p.MedianSec = 0.5
	p.VRTFraction = 0.5 // heavy VRT so the draw stream is exercised
	p.VRTDwellSec = 2
	return p
}

func buildRetention(seed uint64) (*dram.Device, *Model) {
	g := dram.Geometry{Banks: 2, Rows: 128, Cols: 8}
	d := dram.NewDevice(g)
	m := NewModel(g, retentionParams(), rng.New(seed))
	d.AttachFault(m)
	for b := 0; b < g.Banks; b++ {
		for r := 0; r < g.Rows; r++ {
			d.FillPhysRow(b, r, 0xaaaaaaaaaaaaaaaa)
		}
	}
	return d, m
}

// refreshStorms advances simulated time across n long refresh
// intervals, letting cells decay and VRT state evolve (consuming
// ongoing stream draws).
func refreshStorms(d *dram.Device, start dram.Time, n int) dram.Time {
	now := start
	for i := 0; i < n; i++ {
		now += 3 * dram.Second
		for b := 0; b < d.Geom.Banks; b++ {
			d.RefreshBankAll(b, now)
		}
	}
	return now
}

func cellHash(d *dram.Device) uint64 {
	var h uint64 = 1469598103934665603
	for b := 0; b < d.Geom.Banks; b++ {
		for r := 0; r < d.Geom.Rows; r++ {
			for _, w := range d.PhysRowWords(b, r) {
				h = (h ^ w) * 1099511628211
			}
		}
	}
	return h
}

// TestModelStateRoundTripBitIdentical pins that a retention campaign
// checkpointed mid-run and resumed into a freshly built model finishes
// bit-identical to the uninterrupted run — including the VRT draw
// stream position, which keeps advancing after the checkpoint.
func TestModelStateRoundTripBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		dRef, mRef := buildRetention(seed)
		mid := refreshStorms(dRef, 0, 10)
		refreshStorms(dRef, mid, 10)

		dA, mA := buildRetention(seed)
		midA := refreshStorms(dA, 0, 10)
		var dw, mw snapshot.Writer
		dA.SaveState(&dw)
		mA.SaveState(&mw)

		dB, mB := buildRetention(seed)
		if err := dB.LoadState(snapshot.NewReader(dw.Bytes())); err != nil {
			t.Fatalf("seed %d: device LoadState: %v", seed, err)
		}
		if err := mB.LoadState(snapshot.NewReader(mw.Bytes())); err != nil {
			t.Fatalf("seed %d: model LoadState: %v", seed, err)
		}
		refreshStorms(dB, midA, 10)

		if mB.Decays() != mRef.Decays() {
			t.Fatalf("seed %d: decays %d after resume, want %d", seed, mB.Decays(), mRef.Decays())
		}
		if mB.Decays() == 0 {
			t.Fatalf("seed %d: campaign produced no decays; test is vacuous", seed)
		}
		if cellHash(dB) != cellHash(dRef) {
			t.Fatalf("seed %d: device contents differ after resume", seed)
		}
	}
}

func TestModelLoadStateRejectsParamMismatch(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 8}
	m := NewModel(g, retentionParams(), rng.New(1))
	var w snapshot.Writer
	m.SaveState(&w)
	other := retentionParams()
	other.TemperatureC = 60
	m2 := NewModel(g, other, rng.New(1))
	err := m2.LoadState(snapshot.NewReader(w.Bytes()))
	if !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("want ErrMismatch, got %v", err)
	}
}

// TestModelLoadStateRejectsHostileCellCount pins that a weak-cell count
// larger than the bytes left can hold is refused as corrupt before any
// allocation, and leaves the model unchanged.
func TestModelLoadStateRejectsHostileCellCount(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 8}
	m := NewModel(g, retentionParams(), rng.New(1))
	var w snapshot.Writer
	m.SaveState(&w)
	good := w.Bytes()
	if m.WeakCellCount() == 0 {
		t.Fatal("test needs a non-empty population")
	}
	// The count is the 8-byte word just before the cell records.
	at := len(good) - m.WeakCellCount()*encodedCellBytes - 8
	if at < 0 || binary.BigEndian.Uint64(good[at:]) != uint64(m.WeakCellCount()) {
		t.Fatalf("cell count not found at offset %d", at)
	}
	m2 := NewModel(g, retentionParams(), rng.New(2))
	var before snapshot.Writer
	m2.SaveState(&before)
	for _, n := range []uint64{1 << 60, ^uint64(0), uint64(m.WeakCellCount()) + 1} {
		bad := append([]byte(nil), good...)
		binary.BigEndian.PutUint64(bad[at:], n)
		if err := m2.LoadState(snapshot.NewReader(bad)); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("count %d: want ErrCorrupt, got %v", n, err)
		}
		var after snapshot.Writer
		m2.SaveState(&after)
		if !bytes.Equal(after.Bytes(), before.Bytes()) {
			t.Fatalf("count %d: failed load mutated the model", n)
		}
	}
	if err := m2.LoadState(snapshot.NewReader(good)); err != nil {
		t.Fatalf("intact snapshot refused: %v", err)
	}
}
