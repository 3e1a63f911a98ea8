package disturb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"unsafe"

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

// TestCellRecordSizes pins the per-cell footprint of the hot path: a
// model owns one 16-byte hammerState per cell, and an influence carries
// its victim's row, threshold, bit and charge in 32 bytes, so an
// activation reads only the state by slot.
func TestCellRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(hammerState{}); got != 16 {
		t.Errorf("hammerState is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(influence{}); got != 32 {
		t.Errorf("influence is %d bytes, want 32", got)
	}
}

// TestLoadStateInPlaceMatchesRebuild restores one mid-campaign
// checkpoint, with partial pressures and flips, onto a memo hit (the
// installed physics match, so only pressures and flags are written)
// and onto a model whose physics an injection changed (the store is
// rebuilt). Both must save the checkpoint's bytes and then run the
// rest of the campaign, per activation and batched, identically. Broken
// checkpoints must fail without touching the hit model, and one whose
// last cell carries other physics must rebuild, not half-apply.
func TestLoadStateInPlaceMatchesRebuild(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		pm := newPopMemo(memoBudget)
		g := dram.Geometry{Banks: 2, Rows: 256, Cols: 16}
		p := DefaultParams()
		p.WeakCellFraction = 2e-4
		p.ThresholdMedian = 60e3
		p.MinThreshold = 20e3
		dSrc := dram.NewDevice(g)
		src := pm.newModel(g, p, rng.New(seed))
		dSrc.AttachFault(src)
		hammerHalf(dSrc, src)
		pressed, flipped := 0, 0
		for _, c := range src.hammer {
			if c.pressure > 0 {
				pressed++
			}
			if c.flipped {
				flipped++
			}
		}
		if pressed == 0 || flipped == 0 {
			t.Fatalf("seed %d: %d cells under pressure, %d flipped at the checkpoint; test is vacuous", seed, pressed, flipped)
		}
		var dw snapshot.Writer
		dSrc.SaveState(&dw)
		ckpt := saveBytes(src)

		restored := func(ctx string, m *Model) *dram.Device {
			t.Helper()
			d := dram.NewDevice(g)
			d.AttachFault(m)
			if err := d.LoadState(snapshot.NewReader(dw.Bytes())); err != nil {
				t.Fatalf("seed %d %s: device LoadState: %v", seed, ctx, err)
			}
			if err := m.LoadState(snapshot.NewReader(ckpt)); err != nil {
				t.Fatalf("seed %d %s: LoadState: %v", seed, ctx, err)
			}
			if !bytes.Equal(saveBytes(m), ckpt) {
				t.Fatalf("seed %d %s: SaveState after LoadState differs from the checkpoint", seed, ctx)
			}
			return d
		}
		hit := pm.newModel(g, p, rng.New(seed))
		if !hit.shared {
			t.Fatalf("seed %d: second build is not a memo hit", seed)
		}
		dIn := restored("in place", hit)
		if !hit.shared {
			t.Fatalf("seed %d: restoring the installed physics rebuilt the store", seed)
		}
		injected := pm.newModel(g, p, rng.New(seed))
		injected.InjectWeakCell(0, 9, 4, 100, 1, 1, 1, 1)
		dRe := restored("rebuild", injected)
		if injected.shared {
			t.Fatalf("seed %d: rebuilt model still shares the memo's population", seed)
		}

		for _, d := range []*dram.Device{dIn, dRe} {
			for r := 0; r < 40; r++ {
				d.Activate(r%2, 3*r, dram.Time(1<<39)+dram.Time(r)*50)
				d.Precharge(r % 2)
			}
			hammerRest(d)
		}
		if hit.TotalFlips() != injected.TotalFlips() || deviceHash(dIn) != deviceHash(dRe) ||
			!bytes.Equal(saveBytes(hit), saveBytes(injected)) {
			t.Fatalf("seed %d: runs after an in-place and a rebuilt restore diverged: flips %d vs %d",
				seed, hit.TotalFlips(), injected.TotalFlips())
		}
		if hit.TotalFlips() == src.TotalFlips() {
			t.Fatalf("seed %d: no flips after the restore; test is vacuous", seed)
		}

		n := src.WeakCellCount()
		cells := len(ckpt) - n*encodedCellBytes
		mutated := func(i, off int, b byte) []byte {
			c := bytes.Clone(ckpt)
			c[cells+i*encodedCellBytes+off] = b
			return c
		}
		m := pm.newModel(g, p, rng.New(seed))
		before := saveBytes(m)
		for _, tc := range []struct {
			name    string
			payload []byte
		}{
			{"truncated inside the cells", ckpt[:cells+n/2*encodedCellBytes+5]},
			{"flip byte 2 in the first cell", mutated(0, encodedCellBytes-1, 2)},
			{"flip byte 2 in the last cell", mutated(n-1, encodedCellBytes-1, 2)},
		} {
			if err := m.LoadState(snapshot.NewReader(tc.payload)); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("seed %d %s: want ErrCorrupt, got %v", seed, tc.name, err)
			}
			if !bytes.Equal(saveBytes(m), before) || !m.shared {
				t.Fatalf("seed %d %s: failed load changed the model", seed, tc.name)
			}
		}
		// The last cell's threshold (its fourth field) halved: the
		// earlier cells match the installed physics, the last does not.
		other := bytes.Clone(ckpt)
		th := other[cells+(n-1)*encodedCellBytes+24:]
		binary.BigEndian.PutUint64(th, math.Float64bits(math.Float64frombits(binary.BigEndian.Uint64(th))/2))
		if err := m.LoadState(snapshot.NewReader(other)); err != nil {
			t.Fatalf("seed %d: other physics in the last cell: %v", seed, err)
		}
		if m.shared || !bytes.Equal(saveBytes(m), other) {
			t.Fatalf("seed %d: other physics in the last cell were not rebuilt in full", seed)
		}
	}
}

// FuzzDisturbLoadState feeds LoadState a valid checkpoint whose cell
// records the fuzzer overwrites with patch from byte at on and cuts to
// keep bytes, onto a model sharing the memo's population. A load either
// fails and leaves the model's SaveState bytes unchanged, or succeeds
// and saves the bytes it read back byte for byte; it never panics. The
// inputs stay small because the fuzzer minimizes every new one in time
// quadratic in its length.
func FuzzDisturbLoadState(f *testing.F) {
	g := dram.Geometry{Banks: 1, Rows: 16, Cols: 1}
	p := aggressiveParams()
	d := dram.NewDevice(g)
	src := NewModel(g, p, rng.New(3))
	d.AttachFault(src)
	for r := 0; r < g.Rows; r++ {
		d.FillPhysRow(0, r, 0xffffffffffffffff)
	}
	for r := 1; r+1 < g.Rows; r += 3 {
		hammerCycle(d, dram.Cycle{Rows: []int{r - 1, r + 1}, N: 1500, Period: 49, ClosedPage: true})
	}
	if src.TotalFlips() == 0 {
		f.Fatal("no flips in the seed checkpoint")
	}
	good := saveBytes(src)
	n := src.WeakCellCount()
	head := good[:len(good)-n*encodedCellBytes]
	cells := good[len(head):]
	last := uint16(len(cells) - encodedCellBytes)
	f.Add(uint16(0), []byte(nil), uint16(len(cells)))
	f.Add(uint16(0), []byte(nil), uint16(len(cells)-3))
	f.Add(uint16(len(cells)-1), []byte{2}, uint16(len(cells)))
	f.Add(last+15, []byte{1}, uint16(len(cells)))    // the last cell's row
	f.Add(last+24, []byte{0x40}, uint16(len(cells))) // the last cell's threshold
	// The last cell's distance at the largest int: it couples to no row.
	f.Add(last+32, []byte{0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint16(len(cells)))
	f.Fuzz(func(t *testing.T, at uint16, patch []byte, keep uint16) {
		body := bytes.Clone(cells)
		copy(body[int(at)%len(body):], patch)
		body = body[:min(int(keep), len(body))]
		payload := append(bytes.Clone(head), body...)
		m := NewModel(g, p, rng.New(3))
		before := saveBytes(m)
		r := snapshot.NewReader(payload)
		if err := m.LoadState(r); err != nil {
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
