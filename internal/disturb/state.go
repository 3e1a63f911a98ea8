package disturb

import (
	"slices"

	"repro/internal/snapshot"
)

// encodedCellBytes is the size of one weak cell in SaveState's
// encoding: nine 8-byte fields and a 1-byte flag.
const encodedCellBytes = 73

// SaveState serializes the model's full mutable state: the weak-cell
// population with per-cell pressure and flip flags, the duplicate
// marker, and the flip counters. Params and geometry are written so
// LoadState can refuse a checkpoint taken under a different
// calibration. The cell list is written in insertion order (the
// deterministic sampling/injection order, through m.order), not in the
// store's row-sorted order, so a save/load round trip rebuilds an
// identical store.
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
	for _, slot := range m.order {
		wc := &m.cells[slot]
		w.Int(wc.bank)
		w.Int(wc.physRow)
		w.Int(wc.bit)
		w.F64(wc.threshold)
		w.Int(wc.dist)
		w.F64(wc.upWeight)
		w.F64(wc.downWeight)
		w.U64(wc.chargedVal)
		w.F64(wc.pressure)
		w.Bool(wc.flipped)
	}
}

// LoadState restores state saved by SaveState into a model built with
// the same params and geometry. The cells are staged in the model's
// reused spare buffer and validated before the store is rebuilt from
// them; on error the model is unchanged.
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
	if p != m.params {
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
	// Stage into spare, which holds no state, so a failed load leaves
	// the store untouched.
	staged := slices.Grow(m.spare[:0], n)
	bitsPerRow := geom.BitsPerRow()
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
		if wc.bank < 0 || wc.bank >= geom.Banks ||
			wc.physRow < 0 || wc.physRow >= geom.Rows ||
			wc.bit < 0 || wc.bit >= bitsPerRow ||
			wc.dist < 1 || wc.chargedVal > 1 {
			return snapshot.Corruptf("weak cell %d out of range: %+v", i, wc)
		}
		staged = append(staged, wc)
	}
	// Commit: rebuild the store, reusing its slices.
	m.spare = staged
	m.index(staged)
	m.dup = dup
	m.totalFlips = totalFlips
	m.epochFlips = epochFlips
	return nil
}
