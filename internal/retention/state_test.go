package retention

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
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
// allocation, and leaves the model unchanged, even on a model whose
// physics differ from the checkpoint's; the intact checkpoint is
// refused there as a mismatch and restores onto its own physics.
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
	if err := m2.LoadState(snapshot.NewReader(good)); !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("intact snapshot of other physics: want ErrMismatch, got %v", err)
	}
	if err := NewModel(g, retentionParams(), rng.New(1)).LoadState(snapshot.NewReader(good)); err != nil {
		t.Fatalf("intact snapshot refused by its own physics: %v", err)
	}
}

// pinnedModel builds a retention model of perfbench hammer-campaign's
// rig geometry (one bank of 128 rows of 8 words) with a weak fraction
// dense enough to place dozens of cells, half of them VRT, and runs
// refresh storms over it so decays, VRT states and the stream position
// all move off their drawn values.
func pinnedModel(seed uint64) *Model {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 8}
	d := dram.NewDevice(g)
	m := NewModel(g, denseVRTParams(), rng.New(seed))
	d.AttachFault(m)
	for r := 0; r < g.Rows; r++ {
		d.FillPhysRow(0, r, 0xaaaaaaaaaaaaaaaa)
	}
	refreshStorms(d, 0, 6)
	return m
}

// TestModelSaveStateBytesPinned pins the checkpoint encoding of a
// hammer-campaign-shaped model after refresh storms: cells go out in
// draw order with their physics, VRT state and the stream position.
// The digests were recorded from the model that kept every cell as one
// record in draw order and indexed rows by pointer slices.
func TestModelSaveStateBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		seed   uint64
		cells  int
		decays int64
		sha    string
	}{
		{1, 362, 178, "6ccfba500ba400c18aa16d5d919018dc20f3ca1833911cf6d9260e089c13132a"},
		{5, 299, 142, "a3429edc83ffd624ff1044cee3effc91e865b211b42b5d8b74c4501b0594a39c"},
	} {
		m := pinnedModel(tc.seed)
		if m.WeakCellCount() != tc.cells || m.Decays() != tc.decays {
			t.Errorf("seed %d: %d cells and %d decays, want %d and %d", tc.seed, m.WeakCellCount(), m.Decays(), tc.cells, tc.decays)
		}
		var w snapshot.Writer
		m.SaveState(&w)
		if got := fmt.Sprintf("%x", sha256.Sum256(w.Bytes())); got != tc.sha {
			t.Errorf("seed %d: SaveState sha256 %s, want %s", tc.seed, got, tc.sha)
		}
	}
}

// FuzzRetentionLoadState feeds LoadState a mid-campaign checkpoint that
// the fuzzer overwrites with patch from byte at on and cuts to keep
// bytes. Each mutated payload is sealed in a container with a fresh
// footer and decoded from it, so the decoder, not the integrity check,
// sees the hostile bytes. The model it restores onto shares the memo's
// population. A load either fails and leaves the model's SaveState
// bytes unchanged, or succeeds and saves the bytes it read back byte
// for byte; it never panics, and it allocates at most twice the
// payload plus the row index and an error message, so no count in the
// payload can drive an allocation the payload does not pay for. The
// inputs stay small because the fuzzer minimizes every new one in time
// quadratic in its length.
func FuzzRetentionLoadState(f *testing.F) {
	const kind = "repro/retention-fuzz"
	g := dram.Geometry{Banks: 1, Rows: 16, Cols: 1}
	p := denseVRTParams()
	p.WeakFraction = 0.02
	src := NewModel(g, p, rng.New(3))
	d := attached(src)
	refreshStorms(d, 0, 4)
	if src.WeakCellCount() == 0 || src.Decays() == 0 {
		f.Fatal("the seed checkpoint has no cells or no decays")
	}
	good := saveBytes(src)
	cells := len(good) - src.WeakCellCount()*encodedCellBytes
	last := len(good) - encodedCellBytes
	f.Add(uint16(0), []byte(nil), uint16(len(good)))
	f.Add(uint16(0), []byte(nil), uint16(len(good)-3))
	f.Add(uint16(cells-8), []byte{0, 0, 0, 0, 0, 0, 0, 0xff}, uint16(len(good))) // the cell count
	f.Add(uint16(last+physBytes), []byte{2}, uint16(len(good)))                  // the last VRT state flag
	f.Add(uint16(cells-60), []byte{0}, uint16(len(good)))                        // the stream state
	// Other physics, refused as a mismatch: the last cell's row and
	// retention.
	f.Add(uint16(last+15), []byte{1}, uint16(len(good)))
	f.Add(uint16(last+24), []byte{0x40}, uint16(len(good)))
	// Other state, committed: the first cell's VRT state flag and the
	// last cell's next toggle.
	f.Add(uint16(cells+physBytes), []byte{1}, uint16(len(good)))
	f.Add(uint16(cells+physBytes), []byte{0}, uint16(len(good)))
	f.Add(uint16(last+physBytes+1), []byte{0, 0, 0, 0x10}, uint16(len(good)))
	f.Fuzz(func(t *testing.T, at uint16, patch []byte, keep uint16) {
		payload := bytes.Clone(good)
		copy(payload[int(at)%len(payload):], patch)
		payload = payload[:min(int(keep), len(payload))]
		container, err := snapshot.Encode(kind, 1, func(w *snapshot.Writer) error {
			w.Raw(payload)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := snapshot.Decode(container, kind, 1)
		if err != nil {
			t.Fatalf("re-footered container refused: %v", err)
		}
		m := NewModel(g, p, rng.New(3))
		before := saveBytes(m)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		start := ms.TotalAlloc
		err = m.LoadState(r)
		runtime.ReadMemStats(&ms)
		if alloc, bound := ms.TotalAlloc-start, uint64(2*len(payload)+4*(g.Banks*g.Rows+1)+4096); alloc > bound {
			t.Fatalf("LoadState of a %d-byte payload allocated %d bytes, over %d", len(payload), alloc, bound)
		}
		if err != nil {
			if !bytes.Equal(saveBytes(m), before) {
				t.Fatalf("failed load (%v) changed the model", err)
			}
			return
		}
		if !bytes.Equal(saveBytes(m), payload[:len(payload)-r.Remaining()]) {
			t.Fatal("SaveState after a successful load differs from the bytes it read")
		}
	})
}
