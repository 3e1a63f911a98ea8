package dram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/snapshot"
)

// TestDeviceStateRoundTrip restores a device with a non-trivial remap,
// cells, clocks, stats and an open row onto one rebuilt with the same
// remap, which the restore keeps. A device of another remap refuses the
// checkpoint as a mismatch and keeps its table and its bytes.
func TestDeviceStateRoundTrip(t *testing.T) {
	g := Geometry{Banks: 2, Rows: 64, Cols: 8}
	d := NewDevice(g)
	// Non-trivial remap, cell contents, clocks, stats, and an open row.
	rt := IdentityRemap(g.Rows)
	rt.swap(3, 60)
	d.SetRemap(rt)
	for b := 0; b < g.Banks; b++ {
		for r := 0; r < g.Rows; r++ {
			d.FillPhysRow(b, r, uint64(b)<<32|uint64(r)*0x0101010101010101)
		}
	}
	d.Activate(0, 5, 100)
	d.Read(0, 2)
	d.Write(0, 3, 0xdead)
	d.Precharge(0)
	d.Activate(1, 7, 200)
	d.AutoRefresh(300)

	var w snapshot.Writer
	d.SaveState(&w)

	other := NewDevice(g)
	identity := other.Remap()
	var before snapshot.Writer
	other.SaveState(&before)
	if err := other.LoadState(snapshot.NewReader(w.Bytes())); !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("LoadState onto another remap: want ErrMismatch, got %v", err)
	}
	var after snapshot.Writer
	other.SaveState(&after)
	if other.Remap() != identity || !identity.IsIdentity() || !bytes.Equal(after.Bytes(), before.Bytes()) {
		t.Fatal("a refused restore changed the device or its remap table")
	}

	d2 := NewDevice(g)
	same, err := RemapFromPhysSlice(rt.PhysSlice())
	if err != nil {
		t.Fatal(err)
	}
	d2.SetRemap(same)
	if err := d2.LoadState(snapshot.NewReader(w.Bytes())); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if d2.Remap() != same {
		t.Fatal("restore onto an equal remap table replaced it")
	}
	if d2.Stats != d.Stats {
		t.Fatalf("stats mismatch: %+v vs %+v", d2.Stats, d.Stats)
	}
	if d2.OpenRow(0) != d.OpenRow(0) || d2.OpenRow(1) != d.OpenRow(1) {
		t.Fatal("open-row state mismatch")
	}
	if d2.refreshPtr != d.refreshPtr {
		t.Fatalf("refreshPtr %d vs %d", d2.refreshPtr, d.refreshPtr)
	}
	for b := 0; b < g.Banks; b++ {
		for r := 0; r < g.Rows; r++ {
			if d2.LastRestore(b, r) != d.LastRestore(b, r) {
				t.Fatalf("lastRestore mismatch at bank %d row %d", b, r)
			}
			w1, w2 := d.PhysRowWords(b, r), d2.PhysRowWords(b, r)
			for i := range w1 {
				if w1[i] != w2[i] {
					t.Fatalf("cell mismatch at bank %d row %d word %d", b, r, i)
				}
			}
		}
	}
}

func TestDeviceLoadStateRejectsGeometryMismatch(t *testing.T) {
	d := NewDevice(Geometry{Banks: 2, Rows: 64, Cols: 8})
	var w snapshot.Writer
	d.SaveState(&w)
	other := NewDevice(Geometry{Banks: 2, Rows: 128, Cols: 8})
	err := other.LoadState(snapshot.NewReader(w.Bytes()))
	if !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("want ErrMismatch, got %v", err)
	}
	// The mismatched load must not have touched the target.
	if other.Stats != (Stats{}) || other.OpenRow(0) != -1 {
		t.Fatal("failed load mutated the device")
	}
}

// TestDeviceLoadStateRejectsTruncation pins LoadState's
// validate-then-decode order on a multi-bank device: payloads cut at
// every bank boundary and in the middle of every bank's cell words, a
// remap table that covers too few rows, a refresh pointer that only a
// truncation to 32 bits would bring into range, a bad open row in the
// last bank and a wrong clock count must each return ErrCorrupt on
// every target, and a remap
// table that maps a physical row twice or names one out of range, like
// any table other than the device's, ErrMismatch. Each must leave the
// target's saved bytes unchanged, even though a valid decode writes
// straight into the device.
func TestDeviceLoadStateRejectsTruncation(t *testing.T) {
	g := Geometry{Banks: 3, Rows: 16, Cols: 4}
	src := NewDevice(g)
	for b := 0; b < g.Banks; b++ {
		for r := 0; r < g.Rows; r++ {
			src.FillPhysRow(b, r, uint64(b+1)<<40|uint64(r))
		}
	}
	src.Activate(2, 9, 500)
	src.AutoRefresh(900)
	var w snapshot.Writer
	src.SaveState(&w)
	full := w.Bytes()

	// The bank blocks are the payload's fixed-size tail: open row,
	// clock count, Rows clocks, Rows*Cols cell words.
	block := 16 + 8*g.Rows + 8*g.Rows*g.Cols
	first := len(full) - g.Banks*block
	if got := binary.BigEndian.Uint64(full[first+8:]); got != uint64(g.Rows) {
		t.Fatalf("bank 0 clock count %d at offset %d, want %d", got, first+8, g.Rows)
	}
	patched := func(off int, v uint64) []byte {
		b := append([]byte(nil), full...)
		binary.BigEndian.PutUint64(b[off:], v)
		return b
	}
	// The remap table's Rows entries sit just before the bank blocks,
	// after its length.
	remapAt := first - 8*g.Rows
	type load struct {
		payload []byte
		want    error
	}
	cases := map[string]load{
		"duplicate physical row in remap":   {patched(remapAt+8, 0), snapshot.ErrMismatch},
		"remap row out of range":            {patched(first-8, uint64(g.Rows)), snapshot.ErrMismatch},
		"remap shorter than the device":     {patched(remapAt-8, uint64(g.Rows-1)), snapshot.ErrCorrupt},
		"refresh pointer beyond 32 bits":    {patched(remapAt-16, 1<<32|3), snapshot.ErrCorrupt},
		"bad open row in last bank":         {patched(first+(g.Banks-1)*block, uint64(g.Rows)), snapshot.ErrCorrupt},
		"open row below -1 in first bank":   {patched(first, ^uint64(1)), snapshot.ErrCorrupt},
		"wrong clock count in middle bank":  {patched(first+block+8, uint64(g.Rows-1)), snapshot.ErrCorrupt},
		"huge clock count in last bank":     {patched(first+(g.Banks-1)*block+8, 1<<62), snapshot.ErrCorrupt},
		"one byte short of the last bank":   {full[:len(full)-1], snapshot.ErrCorrupt},
		"cut inside the first bank's clock": {full[:first+16+4], snapshot.ErrCorrupt},
		"cut inside the remap table":        {full[:remapAt+4], snapshot.ErrCorrupt},
	}
	for b := 0; b < g.Banks; b++ {
		cases[fmt.Sprintf("cut at the start of bank %d", b)] = load{full[:first+b*block], snapshot.ErrCorrupt}
		cases[fmt.Sprintf("cut mid-slab in bank %d", b)] = load{full[:first+b*block+16+8*g.Rows+4*g.Rows*g.Cols], snapshot.ErrCorrupt}
	}

	dst := NewDevice(g)
	for b := 0; b < g.Banks; b++ {
		for r := 0; r < g.Rows; r++ {
			dst.FillPhysRow(b, r, ^uint64(r))
		}
	}
	dst.Activate(0, 3, 100)
	dst.Write(0, 1, 0xbeef)
	var before snapshot.Writer
	dst.SaveState(&before)
	for name, tc := range cases {
		err := dst.LoadState(snapshot.NewReader(tc.payload))
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: want %v, got %v", name, tc.want, err)
		}
		var after snapshot.Writer
		dst.SaveState(&after)
		if !bytes.Equal(after.Bytes(), before.Bytes()) {
			t.Fatalf("%s: failed load mutated the device", name)
		}
	}
	// The untouched payload still loads.
	if err := dst.LoadState(snapshot.NewReader(full)); err != nil {
		t.Fatalf("full payload: %v", err)
	}
	var got snapshot.Writer
	dst.SaveState(&got)
	if !bytes.Equal(got.Bytes(), full) {
		t.Fatal("full payload did not restore the source device")
	}
}

// TestNewDeviceSharesIdentityRemap pins that devices of one row count
// share one read-only identity table, and that building a device
// allocates nothing for its remap: the device, its bank list and each
// bank's record, cells and clocks.
func TestNewDeviceSharesIdentityRemap(t *testing.T) {
	for _, g := range []Geometry{{Banks: 1, Rows: 128, Cols: 8}, {Banks: 4, Rows: 64, Cols: 2}} {
		a, b := NewDevice(g), NewDevice(g)
		if a.Remap() != b.Remap() || !a.Remap().IsIdentity() || a.Remap().Rows() != g.Rows {
			t.Fatalf("%+v: devices of one row count do not share an identity table", g)
		}
		if want := float64(2 + 3*g.Banks); testing.AllocsPerRun(20, func() { NewDevice(g) }) != want {
			t.Fatalf("%+v: NewDevice allocates other than %v times", g, want)
		}
	}
	if NewDevice(Geometry{Banks: 1, Rows: 32, Cols: 1}).Remap() == NewDevice(Geometry{Banks: 1, Rows: 64, Cols: 1}).Remap() {
		t.Fatal("devices of different row counts share a remap table")
	}
}

// TestSharedIdentityNeverWritten offers a checkpoint whose remap
// differs from the identity in one entry pair to a device holding the
// shared identity table, and installs a RandomRemap on another: the
// restore is refused as a mismatch and keeps the shared table, the
// RandomRemap is a table of its own, and the shared table stays the
// identity. An identity checkpoint keeps the shared table.
func TestSharedIdentityNeverWritten(t *testing.T) {
	g := Geometry{Banks: 1, Rows: 64, Cols: 2}
	shared := NewDevice(g).Remap()
	src := NewDevice(g)
	rt := IdentityRemap(g.Rows)
	rt.swap(3, 60)
	src.SetRemap(rt)
	var w snapshot.Writer
	src.SaveState(&w)

	dst := NewDevice(g)
	if err := dst.LoadState(snapshot.NewReader(w.Bytes())); !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("a restore of another remap: want ErrMismatch, got %v", err)
	}
	if dst.Remap() != shared || dst.PhysRow(3) != 3 {
		t.Fatal("a refused restore of another remap replaced the shared table")
	}
	rnd := NewDevice(g)
	rnd.SetRemap(RandomRemap(g.Rows, 0.5, rng.New(1)))
	if rnd.Remap() == shared || rnd.Remap().IsIdentity() {
		t.Fatal("RandomRemap returned the shared identity table")
	}
	if !shared.IsIdentity() || NewDevice(g).Remap() != shared {
		t.Fatal("the shared identity table was written or replaced")
	}

	var id snapshot.Writer
	NewDevice(g).SaveState(&id)
	if err := dst.LoadState(snapshot.NewReader(id.Bytes())); err != nil || dst.Remap() != shared {
		t.Fatalf("an identity checkpoint replaced the shared table (%v)", err)
	}
}
