package retention

import (
	"repro/internal/dram"
	"repro/internal/snapshot"
)

// encodedCellBytes is the size of one weak cell in SaveState's
// encoding: six 8-byte fields and three 1-byte flags.
const encodedCellBytes = 51

// SaveState serializes the model's full mutable state: the weak-cell
// population with per-cell VRT state, the decay counter, and the
// position of the VRT draw stream — the retention model is the one
// fault model that keeps consuming randomness after construction, so
// its stream position is load-bearing for bit-identical resume.
// Params and geometry are written so LoadState can refuse a checkpoint
// taken under a different calibration.
func (m *Model) SaveState(w *snapshot.Writer) {
	w.Tag("retention.Model")
	p := m.params
	w.F64(p.WeakFraction)
	w.F64(p.MedianSec)
	w.F64(p.Sigma)
	w.F64(p.MinSec)
	w.F64(p.DPDFraction)
	w.F64(p.DPDReduction)
	w.F64(p.VRTFraction)
	w.F64(p.VRTRatio)
	w.F64(p.VRTDwellSec)
	w.F64(p.VRTLongDwellSec)
	w.F64(p.TemperatureC)
	w.Int(m.geom.Banks)
	w.Int(m.geom.Rows)
	w.Int(m.geom.Cols)
	w.I64(m.decays)
	m.src.SaveState(w)
	w.U64(uint64(len(m.cells)))
	for i := range m.cells {
		wc := &m.cells[i]
		w.Int(wc.bank)
		w.Int(wc.physRow)
		w.Int(wc.bit)
		w.F64(wc.baseSec)
		w.U64(wc.chargedVal)
		w.Bool(wc.dpd)
		w.Bool(wc.vrt)
		w.Bool(wc.vrtLong)
		w.U64(uint64(wc.vrtNext))
	}
}

// LoadState restores state saved by SaveState into a model built with
// the same params and geometry. The payload is staged and validated
// before the model is mutated; on error the model is unchanged.
func (m *Model) LoadState(r *snapshot.Reader) error {
	r.Tag("retention.Model")
	var p Params
	p.WeakFraction = r.F64()
	p.MedianSec = r.F64()
	p.Sigma = r.F64()
	p.MinSec = r.F64()
	p.DPDFraction = r.F64()
	p.DPDReduction = r.F64()
	p.VRTFraction = r.F64()
	p.VRTRatio = r.F64()
	p.VRTDwellSec = r.F64()
	p.VRTLongDwellSec = r.F64()
	p.TemperatureC = r.F64()
	geom := m.geom
	geom.Banks = r.Int()
	geom.Rows = r.Int()
	geom.Cols = r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if p != m.params {
		return snapshot.Mismatchf("retention params %+v, have %+v", p, m.params)
	}
	if geom != m.geom {
		return snapshot.Mismatchf("retention geometry %+v, have %+v", geom, m.geom)
	}
	decays := r.I64()
	stagedSrc := *m.src // copy, so a failed load leaves m.src untouched
	if err := stagedSrc.LoadState(r); err != nil {
		return err
	}
	n := r.Count(encodedCellBytes)
	if err := r.Err(); err != nil {
		return err
	}
	staged := make([]weakCell, n)
	bitsPerRow := geom.BitsPerRow()
	for i := range staged {
		wc := &staged[i]
		*wc = weakCell{
			bank:       r.Int(),
			physRow:    r.Int(),
			bit:        r.Int(),
			baseSec:    r.F64(),
			chargedVal: r.U64(),
			dpd:        r.Bool(),
			vrt:        r.Bool(),
			vrtLong:    r.Bool(),
		}
		wc.vrtNext = dram.Time(r.U64())
		if err := r.Err(); err != nil {
			return err
		}
		if wc.bank < 0 || wc.bank >= geom.Banks ||
			wc.physRow < 0 || wc.physRow >= geom.Rows ||
			wc.bit < 0 || wc.bit >= bitsPerRow || wc.chargedVal > 1 {
			return snapshot.Corruptf("retention cell %d out of range: %+v", i, *wc)
		}
	}
	// Commit: install the staged population and rebuild the row index.
	*m.src = stagedSrc
	m.decays = decays
	m.index(staged)
	return nil
}
