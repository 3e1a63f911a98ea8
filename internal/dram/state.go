package dram

import "repro/internal/snapshot"

// SaveState serializes the device's mutable state: stats, the refresh
// pointer, the remap table, and per bank the open row, charge-restore
// clocks, and every cell bit. Geometry is written first so LoadState
// can refuse a checkpoint taken from a differently shaped device.
// Timing/energy constants and attached fault models are configuration,
// not state — a restored device is rebuilt from its spec and then
// overlaid with this state.
func (d *Device) SaveState(w *snapshot.Writer) {
	w.Tag("dram.Device")
	w.Int(d.Geom.Banks)
	w.Int(d.Geom.Rows)
	w.Int(d.Geom.Cols)
	w.I64(d.Stats.Activates)
	w.I64(d.Stats.Precharges)
	w.I64(d.Stats.Reads)
	w.I64(d.Stats.Writes)
	w.I64(d.Stats.RowRefreshes)
	w.F64(d.Stats.OpEnergyPJ)
	w.Int(d.refreshPtr)
	w.Ints(d.remap.PhysSlice())
	for _, bk := range d.banks {
		w.Int(bk.openPhysRow)
		w.U64(uint64(len(bk.lastRestore)))
		for _, t := range bk.lastRestore {
			w.U64(uint64(t))
		}
		// The whole bank slab, row-major: a dense dump of every cell.
		for _, word := range bk.cells {
			w.U64(word)
		}
	}
}

// LoadState restores state saved by SaveState into a device rebuilt
// from the same spec: same geometry and the same remap table, which is
// configuration (NewDevice's shared identity, or what SetRemap
// installed) and is only compared, never installed from a checkpoint.
// Every bank block has a fixed size, so the payload length and each
// bank's header (open row, clock count) are validated before anything
// is written; the clocks and cell words are then decoded straight into
// the device. On error the device is unchanged.
func (d *Device) LoadState(r *snapshot.Reader) error {
	r.Tag("dram.Device")
	g := Geometry{Banks: r.Int(), Rows: r.Int(), Cols: r.Int()}
	if err := r.Err(); err != nil {
		return err
	}
	if g != d.Geom {
		return snapshot.Mismatchf("checkpoint device geometry %+v, have %+v", g, d.Geom)
	}
	var st Stats
	st.Activates = r.I64()
	st.Precharges = r.I64()
	st.Reads = r.I64()
	st.Writes = r.I64()
	st.RowRefreshes = r.I64()
	st.OpEnergyPJ = r.F64()
	refreshPtr := r.Int()
	if n := r.Count(8); r.Err() == nil && n != g.Rows {
		return snapshot.Corruptf("remap table covers %d rows, device has %d", n, g.Rows)
	}
	for l, p := range d.remap.phys {
		if q := r.Int(); q != p && r.Err() == nil {
			return snapshot.Mismatchf("checkpoint remaps logical row %d to %d, device to %d", l, q, p)
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if refreshPtr < 0 || refreshPtr >= g.Rows {
		return snapshot.Corruptf("refresh pointer %d out of range", refreshPtr)
	}
	// A bank block is the open row, the clock count, Rows clocks and
	// Rows*Cols cell words.
	body := 8 * (g.Rows + g.Rows*g.Cols)
	if want := g.Banks * (16 + body); r.Remaining() < want {
		return snapshot.Corruptf("%d bytes left for %d bank blocks of %d bytes", r.Remaining(), g.Banks, 16+body)
	}
	probe := *r
	for b := 0; b < g.Banks; b++ {
		if open := probe.Int(); open < -1 || open >= g.Rows {
			return snapshot.Corruptf("bank %d open row %d out of range", b, open)
		}
		if n := probe.U64(); n != uint64(g.Rows) {
			return snapshot.Corruptf("bank %d has %d restore clocks, want %d", b, n, g.Rows)
		}
		probe.Skip(body)
	}
	// Commit: nothing below can fail.
	d.Stats = st
	d.refreshPtr = refreshPtr
	for _, bk := range d.banks {
		bk.openPhysRow = r.Int()
		r.U64()
		for i := range bk.lastRestore {
			bk.lastRestore[i] = Time(r.U64())
		}
		r.U64sInto(bk.cells)
	}
	return nil
}
