package retention

import (
	"repro/internal/dram"
	"repro/internal/rng"
)

// Reference is the seed's map-indexed retention model, kept in this
// test file as the equivalence oracle for the flat-slab hot path: it
// samples the identical weak-cell population from the same stream
// (including the collision-resampling fix) and applies decay through
// the original map[[2]int] per-row lookup with per-row dispatch only.
// Model must stay bit-identical to it — same decays, same cell bits,
// same VRT draw sequence — under any interleaving of activations and
// refreshes (equiv_test.go proves it). It intentionally implements
// neither dram.CycleFaultModel nor dram.BankRefreshFaultModel, so
// devices carrying a Reference always take the exact per-operation
// dispatch paths.
type Reference struct {
	params    Params
	geom      dram.Geometry
	byRow     map[[2]int][]*weakCell
	cells     []*weakCell
	src       *rng.Stream
	decays    int64
	tempScale float64
}

var _ dram.FaultModel = (*Reference)(nil)

// NewReference samples the weak-cell population for the given
// geometry, drawing the identical population to NewModel.
func NewReference(geom dram.Geometry, p Params, src *rng.Stream) *Reference {
	m := &Reference{
		params:    p,
		geom:      geom,
		byRow:     map[[2]int][]*weakCell{},
		src:       src,
		tempScale: p.tempScale(),
	}
	samplePopulation(geom, p, src, func(wc *weakCell) {
		m.cells = append(m.cells, wc)
		k := [2]int{wc.bank, wc.physRow}
		m.byRow[k] = append(m.byRow[k], wc)
	})
	return m
}

// Name implements dram.FaultModel.
func (m *Reference) Name() string { return "retention-reference" }

// OnActivate implements dram.FaultModel.
func (m *Reference) OnActivate(d *dram.Device, bank, physRow int, now dram.Time) {
	m.applyDecay(d, bank, physRow, now)
}

// OnRefresh implements dram.FaultModel.
func (m *Reference) OnRefresh(d *dram.Device, bank, physRow int, now dram.Time) {
	m.applyDecay(d, bank, physRow, now)
}

func (m *Reference) applyDecay(d *dram.Device, bank, physRow int, now dram.Time) {
	cells := m.byRow[[2]int{bank, physRow}]
	if len(cells) == 0 {
		return
	}
	last := d.LastRestore(bank, physRow)
	if now <= last {
		return
	}
	elapsed := timeToSec(now - last)
	for _, wc := range cells {
		ret := wc.baseSec * m.tempScale
		if wc.vrt {
			m.advanceVRT(wc, now)
			if wc.vrtLong {
				ret *= m.params.VRTRatio
			}
		}
		if wc.dpd && m.neighborAdversarial(d, wc) {
			ret *= m.params.DPDReduction
		}
		if elapsed > ret && d.PhysBit(bank, physRow, wc.bit) == wc.chargedVal {
			d.SetPhysBit(bank, physRow, wc.bit, 1-wc.chargedVal)
			m.decays++
		}
	}
}

func (m *Reference) advanceVRT(wc *weakCell, now dram.Time) {
	for wc.vrtNext < now {
		wc.vrtLong = !wc.vrtLong
		wc.vrtNext += secToTime(m.src.Exponential(dwellFor(m.params, wc.vrtLong)))
	}
}

func (m *Reference) neighborAdversarial(d *dram.Device, wc *weakCell) bool {
	for _, nr := range []int{wc.physRow - 1, wc.physRow + 1} {
		if nr < 0 || nr >= m.geom.Rows {
			continue
		}
		if d.PhysBit(wc.bank, nr, wc.bit) != wc.chargedVal {
			return true
		}
	}
	return false
}

// Decays returns the number of decay events applied.
func (m *Reference) Decays() int64 { return m.decays }

// Cells enumerates the weak-cell population, in sampling order like
// Model.Cells.
func (m *Reference) Cells() []CellInfo {
	out := make([]CellInfo, 0, len(m.cells))
	for _, wc := range m.cells {
		out = append(out, CellInfo{
			Bank: wc.bank, PhysRow: wc.physRow, Bit: wc.bit,
			BaseSec: wc.baseSec, ChargedVal: wc.chargedVal,
			DPD: wc.dpd, VRT: wc.vrt,
		})
	}
	return out
}
