package disturb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// hammerHalf drives a deterministic mid-campaign workload: fill, then
// hammer a spread of row pairs hard enough to leave cells with partial
// pressure and some flips.
func hammerHalf(d *dram.Device, m *Model) {
	g := d.Geom
	for b := 0; b < g.Banks; b++ {
		for r := 0; r < g.Rows; r++ {
			d.FillPhysRow(b, r, 0xffffffffffffffff)
		}
	}
	now := dram.Time(0)
	for b := 0; b < g.Banks; b++ {
		for r := 2; r+2 < g.Rows; r += 7 {
			hammerCycle(d, dram.Cycle{Bank: b, Rows: []int{r}, N: 40_000, Start: now, Period: 50, ClosedPage: true})
			now += 40_000 * 50
		}
	}
}

func hammerRest(d *dram.Device) {
	g := d.Geom
	now := dram.Time(1 << 40)
	for b := 0; b < g.Banks; b++ {
		for r := 3; r+3 < g.Rows; r += 5 {
			hammerCycle(d, dram.Cycle{Bank: b, Rows: []int{r}, N: 120_000, Start: now, Period: 50, ClosedPage: true})
			now += 120_000 * 50
		}
	}
}

func deviceHash(d *dram.Device) uint64 {
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

func buildHammered(seed uint64) (*dram.Device, *Model) {
	g := dram.Geometry{Banks: 2, Rows: 256, Cols: 16}
	p := DefaultParams()
	p.WeakCellFraction = 2e-4
	p.ThresholdMedian = 60e3
	p.MinThreshold = 20e3
	d := dram.NewDevice(g)
	m := NewModel(g, p, rng.New(seed))
	d.AttachFault(m)
	hammerHalf(d, m)
	return d, m
}

// TestModelStateRoundTripBitIdentical pins that saving mid-campaign,
// restoring into a freshly built model, and finishing the campaign
// yields bit-identical flips and device contents to the uninterrupted
// run.
func TestModelStateRoundTripBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		// Uninterrupted reference.
		dRef, mRef := buildHammered(seed)
		hammerRest(dRef)

		// Checkpointed run: save mid-campaign, restore, finish.
		dA, mA := buildHammered(seed)
		var dw, mw snapshot.Writer
		dA.SaveState(&dw)
		mA.SaveState(&mw)

		dB, mB := buildHammered(seed) // rebuilt from spec, then overlaid
		if err := dB.LoadState(snapshot.NewReader(dw.Bytes())); err != nil {
			t.Fatalf("seed %d: device LoadState: %v", seed, err)
		}
		if err := mB.LoadState(snapshot.NewReader(mw.Bytes())); err != nil {
			t.Fatalf("seed %d: model LoadState: %v", seed, err)
		}
		hammerRest(dB)

		if mB.TotalFlips() != mRef.TotalFlips() {
			t.Fatalf("seed %d: flips %d after resume, want %d", seed, mB.TotalFlips(), mRef.TotalFlips())
		}
		if mB.TotalFlips() == 0 {
			t.Fatalf("seed %d: campaign produced no flips; test is vacuous", seed)
		}
		if deviceHash(dB) != deviceHash(dRef) {
			t.Fatalf("seed %d: device contents differ after resume", seed)
		}
		if dB.Stats != dRef.Stats {
			t.Fatalf("seed %d: device stats differ after resume", seed)
		}
	}
}

func TestModelLoadStateRejectsParamMismatch(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 8}
	m := NewModel(g, DefaultParams(), rng.New(1))
	var w snapshot.Writer
	m.SaveState(&w)
	other := DefaultParams()
	other.ThresholdMedian *= 2
	m2 := NewModel(g, other, rng.New(1))
	before := m2.WeakCellCount()
	err := m2.LoadState(snapshot.NewReader(w.Bytes()))
	if !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("want ErrMismatch, got %v", err)
	}
	if m2.WeakCellCount() != before {
		t.Fatal("failed load mutated the model")
	}
}

func saveBytes(m *Model) []byte {
	var w snapshot.Writer
	m.SaveState(&w)
	return w.Bytes()
}

// TestModelLoadStateReusesStoreBitIdentical loads a checkpoint into a
// model built from another seed — a population of a different size, so
// the store's slices are both reused and outgrown — and requires the
// source's SaveState bytes back and an identical rest of the campaign.
func TestModelLoadStateReusesStoreBitIdentical(t *testing.T) {
	for _, seeds := range [][2]uint64{{1, 5}, {5, 1}} {
		dA, mA := buildHammered(seeds[0])
		dB, mB := buildHammered(seeds[1])
		if mA.WeakCellCount() == mB.WeakCellCount() {
			t.Fatalf("seeds %v: equal populations; test needs different sizes", seeds)
		}
		var dw snapshot.Writer
		dA.SaveState(&dw)
		want := saveBytes(mA)
		if err := dB.LoadState(snapshot.NewReader(dw.Bytes())); err != nil {
			t.Fatalf("seeds %v: device LoadState: %v", seeds, err)
		}
		if err := mB.LoadState(snapshot.NewReader(want)); err != nil {
			t.Fatalf("seeds %v: model LoadState: %v", seeds, err)
		}
		if got := saveBytes(mB); !bytes.Equal(got, want) {
			t.Fatalf("seeds %v: SaveState after LoadState differs from the source's", seeds)
		}
		hammerRest(dA)
		hammerRest(dB)
		if mB.TotalFlips() != mA.TotalFlips() || deviceHash(dB) != deviceHash(dA) {
			t.Fatalf("seeds %v: resumed run diverged: flips %d vs %d", seeds, mB.TotalFlips(), mA.TotalFlips())
		}
		if !bytes.Equal(saveBytes(mB), saveBytes(mA)) {
			t.Fatalf("seeds %v: final states differ", seeds)
		}
	}
}

// TestModelLoadStateFailureLeavesStateUnchanged feeds LoadState broken
// checkpoints — a hostile cell count, an out-of-range cell late in the
// list, a truncation — and requires an error and unchanged SaveState
// bytes. Hostile counts must be refused before allocating.
func TestModelLoadStateFailureLeavesStateUnchanged(t *testing.T) {
	_, src := buildHammered(1)
	good := saveBytes(src)
	n := src.WeakCellCount()
	if n < 2 {
		t.Fatal("test needs at least two cells")
	}
	// The count is the 8-byte word just before the cell records; the
	// last record starts with its bank.
	at := len(good) - n*encodedCellBytes - 8
	if at < 0 || binary.BigEndian.Uint64(good[at:]) != uint64(n) {
		t.Fatalf("cell count not found at offset %d", at)
	}
	withCount := func(c uint64) []byte {
		b := append([]byte(nil), good...)
		binary.BigEndian.PutUint64(b[at:], c)
		return b
	}
	lastBank := append([]byte(nil), good...)
	binary.BigEndian.PutUint64(lastBank[len(good)-encodedCellBytes:], 99)
	_, m := buildHammered(5)
	before := saveBytes(m)
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"count 2^60", withCount(1 << 60)},
		{"count 2^64-1", withCount(^uint64(0))},
		{"count one too many", withCount(uint64(n) + 1)},
		{"last cell out of range", lastBank},
		{"truncated", good[:len(good)-1]},
	} {
		if err := m.LoadState(snapshot.NewReader(tc.payload)); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("%s: want ErrCorrupt, got %v", tc.name, err)
		}
		if !bytes.Equal(saveBytes(m), before) {
			t.Fatalf("%s: failed load mutated the model", tc.name)
		}
	}
}

// TestModelSaveStateBytesPinned pins the checkpoint encoding of a
// hammered model with injected cells: cells go out in insertion order
// whatever order the store keeps them in. The digests were recorded
// from the map-indexed model that wrote cells straight from its
// insertion-ordered list.
func TestModelSaveStateBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		seed  uint64
		cells int
		sha   string
	}{
		{1, 126, "b8e71916b8b4821c35e55c850b17912bbef792185032540ba3bbba82796dac56"},
		{5, 91, "1de2461a3bb3bfea448700c72ee315578074136e8c2594b8c21ffb720a35ac43"},
	} {
		_, m := buildHammered(tc.seed)
		m.InjectWeakCell(1, 7, 3, 500, 1, 1, 1, 0.5)
		m.InjectWeakCell(0, 200, 9, 800, 0, 2, 0.7, 1)
		if m.WeakCellCount() != tc.cells {
			t.Fatalf("seed %d: %d cells, want %d", tc.seed, m.WeakCellCount(), tc.cells)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(saveBytes(m))); got != tc.sha {
			t.Errorf("seed %d: SaveState sha256 %s, want %s", tc.seed, got, tc.sha)
		}
	}
}
