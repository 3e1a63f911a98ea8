package retention

import (
	"encoding/binary"

	"repro/internal/dram"
	"repro/internal/popmemo"
	"repro/internal/snapshot"
)

// encodedCellBytes is the size of one weak cell in SaveState's
// encoding: its physics (physBytes) and its VRT state, a 1-byte flag
// and the 8-byte next toggle.
const encodedCellBytes = physBytes + 9

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
	for i, slot := range m.order {
		w.Raw(m.phys[i*physBytes : (i+1)*physBytes])
		w.Bool(m.vrt[slot].long)
		w.U64(uint64(m.vrt[slot].next))
	}
}

// LoadState restores state saved by SaveState into a model built with
// the same params and geometry. A checkpoint of the installed physics —
// every rebuild-then-overlay restore — is checked whole and then writes
// only the decay counter, the stream and the cells' VRT states. Any
// other checkpoint is validated in full before a new population is
// built from it. On error the model is unchanged.
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
	if p.bits() != m.params.bits() {
		return snapshot.Mismatchf("retention params %+v, have %+v", p, m.params)
	}
	if geom != m.geom {
		return snapshot.Mismatchf("retention geometry %+v, have %+v", geom, m.geom)
	}
	decays := r.I64()
	src := *m.src // copy, so a failed load leaves m.src untouched
	if err := src.LoadState(r); err != nil {
		return err
	}
	n := r.Count(encodedCellBytes)
	if err := r.Err(); err != nil {
		return err
	}
	body := r.Raw(n * encodedCellBytes)
	// Each record's VRT flag directly follows its physics.
	if !popmemo.Installed(body, m.phys, physBytes, encodedCellBytes, physBytes) {
		if err := m.rebuild(body); err != nil {
			return err
		}
	}
	for i, slot := range m.order {
		rec := body[i*encodedCellBytes+physBytes:]
		m.vrt[slot] = vrtState{next: dram.Time(binary.BigEndian.Uint64(rec[1:])), long: rec[0] == 1}
	}
	*m.src = src
	m.decays = decays
	return nil
}

// rebuild validates the encoded cells in body and installs a new
// population of their physics, with VRT states for the caller to fill;
// on error the model is untouched. The installed population may be
// shared, so it is never written.
func (m *Model) rebuild(body []byte) error {
	n := len(body) / encodedCellBytes
	dec := snapshot.NewReader(body)
	bitsPerRow := m.geom.BitsPerRow()
	for i := 0; i < n; i++ {
		bank, row, bit := dec.Int(), dec.Int(), dec.Int()
		dec.F64()
		charged := dec.U64()
		dec.Bool() // dpd
		dec.Bool() // vrt
		dec.Bool() // VRT state
		dec.U64()
		if err := dec.Err(); err != nil {
			return err
		}
		if bank < 0 || bank >= m.geom.Banks || row < 0 || row >= m.geom.Rows ||
			bit < 0 || bit >= bitsPerRow || charged > 1 {
			return snapshot.Corruptf("retention cell %d out of range: bank %d row %d bit %d charge %d", i, bank, row, bit, charged)
		}
	}
	phys := make([]byte, n*physBytes)
	for i := range n {
		copy(phys[i*physBytes:(i+1)*physBytes], body[i*encodedCellBytes:])
	}
	m.population = newPopulation(m.geom, phys)
	m.vrt = make([]vrtState, n)
	return nil
}
