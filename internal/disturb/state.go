package disturb

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/snapshot"
)

// encodedCellBytes is the size of one weak cell in SaveState's
// encoding: its physics (physBytes: eight 8-byte fields), its 8-byte
// pressure and a 1-byte flip flag.
const encodedCellBytes = physBytes + 9

// SaveState serializes the model's full mutable state: the weak-cell
// population with per-cell pressure and flip flags, the duplicate
// marker, and the flip counters. Params and geometry are written so
// LoadState can refuse a checkpoint taken under a different
// calibration. The cell list is written in insertion order (the
// deterministic sampling/injection order, through m.order), not in the
// store's row-sorted order, so a save/load round trip rebuilds an
// identical store. Each cell's physics comes from the population's
// encoded copy.
func (m *Model) SaveState(w *snapshot.Writer) {
	w.Tag("disturb.Model")
	p := m.params
	w.F64(p.WeakCellFraction)
	w.F64(p.ThresholdMedian)
	w.F64(p.ThresholdSigma)
	w.F64(p.MinThreshold)
	w.F64(p.Dist2Fraction)
	w.F64(p.DPDFactor)
	w.F64(p.SecondSideMin)
	w.F64(p.SecondSideMax)
	w.Int(m.geom.Banks)
	w.Int(m.geom.Rows)
	w.Int(m.geom.Cols)
	w.Bool(m.dup)
	w.I64(m.totalFlips)
	w.I64(m.epochFlips)
	w.U64(uint64(len(m.cells)))
	for i, slot := range m.order {
		w.Raw(m.phys[i*physBytes : (i+1)*physBytes])
		w.F64(m.cells[slot].pressure)
		w.Bool(m.cells[slot].flipped)
	}
}

// LoadState restores state saved by SaveState into a model built with
// the same params and geometry. A checkpoint of the installed physics —
// every rebuild-then-overlay restore — is checked whole and then writes
// only the cells' pressures and flip flags. Any other checkpoint is
// staged in the model's reused spare buffer and validated before the
// store is rebuilt from it. On error the model is unchanged.
func (m *Model) LoadState(r *snapshot.Reader) error {
	r.Tag("disturb.Model")
	var p Params
	p.WeakCellFraction = r.F64()
	p.ThresholdMedian = r.F64()
	p.ThresholdSigma = r.F64()
	p.MinThreshold = r.F64()
	p.Dist2Fraction = r.F64()
	p.DPDFactor = r.F64()
	p.SecondSideMin = r.F64()
	p.SecondSideMax = r.F64()
	geom := m.geom
	geom.Banks = r.Int()
	geom.Rows = r.Int()
	geom.Cols = r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if p.bits() != m.params.bits() {
		return snapshot.Mismatchf("disturb params %+v, have %+v", p, m.params)
	}
	if geom != m.geom {
		return snapshot.Mismatchf("disturb geometry %+v, have %+v", geom, m.geom)
	}
	dup := r.Bool()
	totalFlips := r.I64()
	epochFlips := r.I64()
	n := r.Count(encodedCellBytes)
	if err := r.Err(); err != nil {
		return err
	}
	probe := *r
	if body := probe.Raw(n * encodedCellBytes); m.installed(body) {
		*r = probe
		for i, slot := range m.order {
			rec := body[i*encodedCellBytes+physBytes:]
			m.cells[slot].pressure = math.Float64frombits(binary.BigEndian.Uint64(rec))
			m.cells[slot].flipped = rec[8] == 1
		}
	} else if err := m.rebuild(r, n); err != nil {
		return err
	}
	m.dup = dup
	m.totalFlips = totalFlips
	m.epochFlips = epochFlips
	return nil
}

// installed reports whether the encoded cells in body carry exactly the
// installed population's physics, in insertion order, and valid flip
// flags, so that restoring them changes only pressures and flags.
func (m *Model) installed(body []byte) bool {
	if len(body) != len(m.order)*encodedCellBytes {
		return false
	}
	for i := range m.order {
		rec := body[i*encodedCellBytes : (i+1)*encodedCellBytes]
		if !bytes.Equal(rec[:physBytes], m.phys[i*physBytes:(i+1)*physBytes]) || rec[physBytes+8] > 1 {
			return false
		}
	}
	return true
}

// rebuild decodes n encoded cells from r, staged in spare, which holds
// no state, and rebuilds the store from them once all are valid; on
// error the store is untouched.
func (m *Model) rebuild(r *snapshot.Reader, n int) error {
	staged := slices.Grow(m.spare[:0], n)
	bitsPerRow := m.geom.BitsPerRow()
	for i := 0; i < n; i++ {
		wc := weakCell{
			bank:       r.Int(),
			physRow:    r.Int(),
			bit:        r.Int(),
			threshold:  r.F64(),
			dist:       r.Int(),
			upWeight:   r.F64(),
			downWeight: r.F64(),
			chargedVal: r.U64(),
			pressure:   r.F64(),
			flipped:    r.Bool(),
		}
		if err := r.Err(); err != nil {
			return err
		}
		if wc.bank < 0 || wc.bank >= m.geom.Banks ||
			wc.physRow < 0 || wc.physRow >= m.geom.Rows ||
			wc.bit < 0 || wc.bit >= bitsPerRow ||
			wc.dist < 1 || wc.chargedVal > 1 {
			return snapshot.Corruptf("weak cell %d out of range: %+v", i, wc)
		}
		staged = append(staged, wc)
	}
	m.spare = staged
	m.index(staged)
	return nil
}
