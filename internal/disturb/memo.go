package disturb

import (
	"math"
	"slices"
	"unsafe"

	"repro/internal/dram"
	"repro/internal/popmemo"
	"repro/internal/rng"
)

// NewModel draws through a process-wide population memo (package
// popmemo): a later build from the same geometry, Params and stream
// state shares the drawn, indexed population read-only, copies only
// the cells' initial states, and gets the stream state a fresh draw
// would have left, so a hit is indistinguishable from a miss to the
// model and to the caller.

// memoBudget bounds the memo's footprint, in bytes of store slices.
const memoBudget = 8 << 20

// populations is the process-wide memo NewModel draws through.
var populations = newPopMemo(memoBudget)

// memoKey is the draw's key besides the stream state: the geometry
// and the bit pattern of every Params float.
type memoKey struct {
	geom   dram.Geometry
	params [8]uint64
}

func newMemoKey(geom dram.Geometry, p Params) memoKey {
	return memoKey{geom: geom, params: p.bits()}
}

// bits returns the bit pattern of every Params float, so that distinct
// calibrations (-0 and 0, or NaN and itself) never compare equal.
func (p Params) bits() [8]uint64 {
	return [8]uint64{
		math.Float64bits(p.WeakCellFraction),
		math.Float64bits(p.ThresholdMedian),
		math.Float64bits(p.ThresholdSigma),
		math.Float64bits(p.MinThreshold),
		math.Float64bits(p.Dist2Fraction),
		math.Float64bits(p.DPDFactor),
		math.Float64bits(p.SecondSideMin),
		math.Float64bits(p.SecondSideMax),
	}
}

// memoEntry is a freshly indexed store. Entries are immutable once
// memoised: models share pop and copy cells.
type memoEntry struct {
	pop   population
	cells []cellState
}

// popMemo is the population memo of disturb models.
type popMemo struct {
	*popmemo.Memo[memoKey, *memoEntry]
}

func newPopMemo(budget int) *popMemo {
	return &popMemo{popmemo.New[memoKey, *memoEntry](budget)}
}

// newModel is NewModel through memo pm.
func (pm *popMemo) newModel(geom dram.Geometry, p Params, src *rng.Stream) *Model {
	e, shared := pm.Draw(newMemoKey(geom, p), src, func() (*memoEntry, int) {
		m := drawFresh(geom, p, src)
		return &memoEntry{pop: m.population, cells: m.cells}, m.storeBytes()
	})
	return &Model{params: p, geom: geom, population: e.pop, shared: shared, cells: slices.Clone(e.cells)}
}

// drawFresh draws and indexes a model's population without consulting
// any memo.
func drawFresh(geom dram.Geometry, p Params, src *rng.Stream) *Model {
	m := &Model{params: p, geom: geom}
	m.spare = sampleWeakCells(geom, p, src)
	m.index(m.spare)
	return m
}

// storeBytes is the size of the model's store slices.
func (m *Model) storeBytes() int {
	return len(m.sites)*int(unsafe.Sizeof(site{})) +
		len(m.cells)*int(unsafe.Sizeof(cellState{})) +
		4*(len(m.order)+len(m.rowStart)+len(m.aggStart)) +
		len(m.aggs)*int(unsafe.Sizeof(influence{})) + len(m.phys)
}
