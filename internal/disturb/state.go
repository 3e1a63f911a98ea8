package disturb

import (
	"encoding/binary"
	"math"

	"repro/internal/popmemo"
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
		w.F64(m.hammer[slot].pressure)
		w.Bool(m.hammer[slot].flipped)
	}
}

// LoadState restores state saved by SaveState into a model built with
// the same params and geometry. A checkpoint of the installed physics —
// every rebuild-then-overlay restore — is checked whole and then writes
// only the cells' pressures and flip flags. Any other checkpoint is
// validated in full before the population is re-indexed from it. On
// error the model is unchanged.
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
	body := r.Raw(n * encodedCellBytes)
	// Each record's flip flag follows its physics and its pressure.
	if !popmemo.Installed(body, m.phys, physBytes, encodedCellBytes, physBytes+8) {
		if err := m.rebuild(body); err != nil {
			return err
		}
	}
	for i, slot := range m.order {
		rec := body[i*encodedCellBytes+physBytes:]
		m.hammer[slot] = hammerState{math.Float64frombits(binary.BigEndian.Uint64(rec)), rec[8] == 1}
	}
	m.dup = dup
	m.totalFlips = totalFlips
	m.epochFlips = epochFlips
	return nil
}

// rebuild validates the encoded cells in body and re-indexes the
// population from their physics, with zeroed hammer states for the
// caller to fill; on error the model is untouched. A population the
// memo shares is replaced, never written.
func (m *Model) rebuild(body []byte) error {
	n := len(body) / encodedCellBytes
	bitsPerRow := m.geom.BitsPerRow()
	for i := range n {
		rec := body[i*encodedCellBytes : (i+1)*encodedCellBytes]
		wc := getPhys(rec)
		if wc.bank < 0 || wc.bank >= m.geom.Banks ||
			wc.physRow < 0 || wc.physRow >= m.geom.Rows ||
			wc.bit < 0 || wc.bit >= bitsPerRow ||
			wc.dist < 1 || wc.chargedVal > 1 || rec[encodedCellBytes-1] > 1 {
			return snapshot.Corruptf("weak cell %d out of range: %+v, flip flag %d", i, wc, rec[encodedCellBytes-1])
		}
	}
	m.own()
	phys := resize(m.phys, n*physBytes)
	for i := range n {
		copy(phys[i*physBytes:(i+1)*physBytes], body[i*encodedCellBytes:])
	}
	m.index(m.geom, phys)
	m.hammer = resize(m.hammer, n)
	return nil
}
