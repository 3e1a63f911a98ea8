package retention

import (
	"encoding/binary"
	"math"
	"slices"
	"unsafe"

	"repro/internal/dram"
	"repro/internal/popmemo"
	"repro/internal/rng"
)

// cell is one weak cell's physics, fixed once drawn.
type cell struct {
	baseSec            float64
	bank, physRow, bit int32
	chargedVal         uint8 // the value the cell holds while charged
	dpd, vrt           bool
}

// vrtState is a cell's variable-retention state, the only per-cell
// record a model writes.
type vrtState struct {
	next dram.Time // next state toggle
	long bool      // in the long (retentive) state
}

// population is the immutable half of a model's weak cells: their
// physics, numbered by slot, sorted by (bank, physRow) and stable in
// draw order. For a row index idx = bank*geom.Rows+physRow, slots
// rowStart[idx]:rowStart[idx+1] are the cells residing in the row, in
// draw order, the order VRT draws follow. order maps draw order to
// slots, and phys holds each cell's physics in draw order as SaveState
// encodes it, physBytes per cell.
//
// A population is shared by every model built from one memo entry and
// is never written: a LoadState of other physics installs a new one.
type population struct {
	cells    []cell
	rowStart []int32
	order    []int32
	phys     []byte
}

// physBytes is the size of a cell's physics in SaveState's encoding:
// five 8-byte fields and the DPD and VRT flags, before the VRT state.
const physBytes = 42

// putPhys encodes wc's physics into b[:physBytes] as SaveState writes
// it.
func putPhys(b []byte, wc *weakCell) {
	b = b[:physBytes]
	binary.BigEndian.PutUint64(b[0:], uint64(wc.bank))
	binary.BigEndian.PutUint64(b[8:], uint64(wc.physRow))
	binary.BigEndian.PutUint64(b[16:], uint64(wc.bit))
	binary.BigEndian.PutUint64(b[24:], math.Float64bits(wc.baseSec))
	binary.BigEndian.PutUint64(b[32:], wc.chargedVal)
	b[40] = boolByte(wc.dpd)
	b[41] = boolByte(wc.vrt)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// newPopulation indexes phys, the encoded physics of cells in draw
// order with every position inside geom and every flag 0 or 1, into a
// population that keeps phys. The by-row sort is stable, so each row's
// cells stay in draw order.
func newPopulation(geom dram.Geometry, phys []byte) population {
	n := len(phys) / physBytes
	pop := population{cells: make([]cell, n), order: make([]int32, n), phys: phys}
	for i := range n {
		b := phys[i*physBytes:]
		pop.order[i] = int32(int(binary.BigEndian.Uint64(b))*geom.Rows + int(binary.BigEndian.Uint64(b[8:])))
	}
	pop.rowStart = popmemo.SortByRow(nil, geom.Banks*geom.Rows, pop.order)
	for i, slot := range pop.order {
		b := phys[i*physBytes:]
		pop.cells[slot] = cell{
			bank:       int32(binary.BigEndian.Uint64(b[0:])),
			physRow:    int32(binary.BigEndian.Uint64(b[8:])),
			bit:        int32(binary.BigEndian.Uint64(b[16:])),
			baseSec:    math.Float64frombits(binary.BigEndian.Uint64(b[24:])),
			chargedVal: uint8(binary.BigEndian.Uint64(b[32:])),
			dpd:        b[40] == 1,
			vrt:        b[41] == 1,
		}
	}
	return pop
}

// resident returns the slot range [lo, hi) of the cells residing in
// row idx.
func (p *population) resident(idx int) (lo, hi int32) {
	return p.rowStart[idx], p.rowStart[idx+1]
}

// NewModel draws through a process-wide population memo (package
// popmemo): a later build from the same geometry, Params and stream
// state shares the drawn, indexed population read-only, copies only
// the cells' drawn VRT states, and gets the stream state a fresh draw
// would have left.

// memoBudget bounds the memo's footprint, in bytes of population and
// VRT-state slices.
const memoBudget = 8 << 20

// popMemo is the population memo of retention models.
type popMemo = popmemo.Memo[memoKey, *memoEntry]

// populations is the process-wide memo NewModel draws through.
var populations = popmemo.New[memoKey, *memoEntry](memoBudget)

// memoKey is the draw's key besides the stream state: the geometry
// and the bit pattern of every Params float.
type memoKey struct {
	geom   dram.Geometry
	params [11]uint64
}

func newMemoKey(geom dram.Geometry, p Params) memoKey {
	return memoKey{geom: geom, params: p.bits()}
}

// bits returns the bit pattern of every Params float, so that distinct
// calibrations (-0 and 0, or NaN and itself) never compare equal.
func (p Params) bits() [11]uint64 {
	return [11]uint64{
		math.Float64bits(p.WeakFraction),
		math.Float64bits(p.MedianSec),
		math.Float64bits(p.Sigma),
		math.Float64bits(p.MinSec),
		math.Float64bits(p.DPDFraction),
		math.Float64bits(p.DPDReduction),
		math.Float64bits(p.VRTFraction),
		math.Float64bits(p.VRTRatio),
		math.Float64bits(p.VRTDwellSec),
		math.Float64bits(p.VRTLongDwellSec),
		math.Float64bits(p.TemperatureC),
	}
}

// memoEntry is a drawn population and its cells' drawn VRT states, by
// slot. Entries are immutable once memoised: models share pop and copy
// vrt.
type memoEntry struct {
	pop population
	vrt []vrtState
}

// drawPopulation samples and indexes a population from src, and
// returns it with its size in bytes.
func drawPopulation(geom dram.Geometry, p Params, src *rng.Stream) (*memoEntry, int) {
	cells := samplePopulation(geom, p, src)
	phys := make([]byte, len(cells)*physBytes)
	for i := range cells {
		putPhys(phys[i*physBytes:], &cells[i])
	}
	e := &memoEntry{pop: newPopulation(geom, phys), vrt: make([]vrtState, len(cells))}
	for i := range cells {
		e.vrt[e.pop.order[i]] = vrtState{next: cells[i].vrtNext, long: cells[i].vrtLong}
	}
	bytes := len(e.pop.cells)*int(unsafe.Sizeof(cell{})) +
		4*(len(e.pop.rowStart)+len(e.pop.order)) + len(phys) +
		len(e.vrt)*int(unsafe.Sizeof(vrtState{}))
	return e, bytes
}

// newModel builds a model on a population drawn through memo pm.
func newModel(pm *popMemo, geom dram.Geometry, p Params, src *rng.Stream) *Model {
	e, _ := pm.Draw(newMemoKey(geom, p), src, func() (*memoEntry, int) {
		return drawPopulation(geom, p, src)
	})
	return &Model{
		params:     p,
		geom:       geom,
		population: e.pop,
		vrt:        slices.Clone(e.vrt),
		src:        src,
		tempScale:  p.tempScale(),
	}
}
