package disturb

import (
	"fmt"
	"math"

	"repro/internal/dram"
	"repro/internal/rng"
)

// Reference is the seed implementation of the disturbance model — the
// map-indexed, strictly per-activation code path — retained verbatim as
// the equivalence oracle for the flat-index and batched fast paths in
// Model. Experiments never use it; equivalence tests drive a Reference
// and a Model with identical command sequences and require identical
// flip sets, counters and cell contents. It intentionally implements
// only dram.FaultModel, not dram.CycleFaultModel, so a device driving
// it always falls back to per-activation dispatch.
type Reference struct {
	params       Params
	geom         dram.Geometry
	cells        []*weakCell
	byVictimRow  map[[2]int][]*weakCell
	byAggressor  map[[2]int][]refInfluence
	totalFlips   int64
	epochFlips   int64
	minThreshold float64
}

var _ dram.FaultModel = (*Reference)(nil)

// refInfluence is one weak cell an aggressor row disturbs, by pointer.
type refInfluence struct {
	cell   *weakCell
	weight float64
}

// NewReference samples the weak-cell population exactly as NewModel
// does: given equal streams, both draw the identical population.
func NewReference(geom dram.Geometry, p Params, src *rng.Stream) *Reference {
	r := &Reference{
		params:       p,
		geom:         geom,
		byVictimRow:  map[[2]int][]*weakCell{},
		byAggressor:  map[[2]int][]refInfluence{},
		minThreshold: math.Inf(1),
	}
	cells := sampleWeakCells(geom, p, src)
	for i := range cells {
		r.addCell(&cells[i])
	}
	return r
}

func (r *Reference) addCell(wc *weakCell) {
	r.cells = append(r.cells, wc)
	vKey := [2]int{wc.bank, wc.physRow}
	r.byVictimRow[vKey] = append(r.byVictimRow[vKey], wc)
	up := wc.physRow - wc.dist
	down := wc.physRow + wc.dist
	if up >= 0 {
		k := [2]int{wc.bank, up}
		r.byAggressor[k] = append(r.byAggressor[k], refInfluence{wc, wc.upWeight})
	}
	if down < r.geom.Rows {
		k := [2]int{wc.bank, down}
		r.byAggressor[k] = append(r.byAggressor[k], refInfluence{wc, wc.downWeight})
	}
	if wc.threshold < r.minThreshold {
		r.minThreshold = wc.threshold
	}
}

// Name implements dram.FaultModel.
func (r *Reference) Name() string { return "rowhammer-reference" }

// OnActivate implements dram.FaultModel with the seed's per-activation
// map-lookup logic, unchanged.
func (r *Reference) OnActivate(d *dram.Device, bank, physRow int, now dram.Time) {
	r.restoreRow(bank, physRow)
	for _, inf := range r.byAggressor[[2]int{bank, physRow}] {
		wc := inf.cell
		if wc.flipped {
			continue
		}
		w := inf.weight
		if r.params.DPDFactor > 0 && r.params.DPDFactor < 1 {
			aggBit := d.PhysBit(bank, physRow, wc.bit)
			if aggBit == wc.chargedVal {
				w *= r.params.DPDFactor
			}
		}
		wc.pressure += w
		if wc.pressure >= wc.threshold {
			if d.PhysBit(wc.bank, wc.physRow, wc.bit) == wc.chargedVal {
				d.SetPhysBit(wc.bank, wc.physRow, wc.bit, 1-wc.chargedVal)
				r.totalFlips++
				r.epochFlips++
			}
			wc.flipped = true
		}
	}
}

// OnRefresh implements dram.FaultModel.
func (r *Reference) OnRefresh(d *dram.Device, bank, physRow int, now dram.Time) {
	r.restoreRow(bank, physRow)
}

func (r *Reference) restoreRow(bank, physRow int) {
	for _, wc := range r.byVictimRow[[2]int{bank, physRow}] {
		wc.pressure = 0
		wc.flipped = false
	}
}

// InjectWeakCell mirrors Model.InjectWeakCell for equivalence tests.
func (r *Reference) InjectWeakCell(bank, physRow, bit int, threshold float64, chargedVal uint64, dist int, upWeight, downWeight float64) {
	if dist < 1 {
		panic(fmt.Sprintf("disturb: InjectWeakCell dist %d out of range (want >= 1)", dist))
	}
	r.addCell(&weakCell{
		bank: bank, physRow: physRow, bit: bit,
		threshold: threshold, chargedVal: chargedVal & 1,
		dist: dist, upWeight: upWeight, downWeight: downWeight,
	})
}

// WeakCellCount returns the number of disturbable cells sampled.
func (r *Reference) WeakCellCount() int { return len(r.cells) }

// TotalFlips returns the number of disturbance flips applied.
func (r *Reference) TotalFlips() int64 { return r.totalFlips }

// MinThreshold returns the smallest sampled cell threshold.
func (r *Reference) MinThreshold() float64 { return r.minThreshold }
