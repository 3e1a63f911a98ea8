package disturb

import (
	"math"

	"repro/internal/dram"
	"repro/internal/popmemo"
	"repro/internal/rng"
)

// NewModel draws through a process-wide population memo (package
// popmemo): a later build from the same geometry, Params and stream
// state shares the drawn, indexed population read-only, allocates only
// the cells' zeroed hammer states, and gets the stream state a fresh
// draw would have left, so a hit is indistinguishable from a miss to
// the model and to the caller.

// memoBudget bounds the memo's footprint, in bytes of population
// slices.
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

// popMemo is the population memo of disturb models.
type popMemo struct {
	*popmemo.Memo[memoKey, *population]
}

func newPopMemo(budget int) *popMemo {
	return &popMemo{popmemo.New[memoKey, *population](budget)}
}

// newModel is NewModel through memo pm.
func (pm *popMemo) newModel(geom dram.Geometry, p Params, src *rng.Stream) *Model {
	pop, shared := pm.Draw(newMemoKey(geom, p), src, func() (*population, int) {
		pop := drawPopulation(geom, p, src)
		return pop, pop.size()
	})
	return newModelOn(geom, p, *pop, shared)
}

// drawPopulation samples and indexes a population from src.
func drawPopulation(geom dram.Geometry, p Params, src *rng.Stream) *population {
	cells := sampleWeakCells(geom, p, src)
	phys := make([]byte, len(cells)*physBytes)
	for i := range cells {
		putPhys(phys[i*physBytes:], &cells[i])
	}
	pop := &population{}
	pop.index(geom, phys)
	return pop
}

// newModelOn returns a model on pop whose cells are all at rest: no
// pressure, no flips.
func newModelOn(geom dram.Geometry, p Params, pop population, shared bool) *Model {
	return &Model{params: p, geom: geom, population: pop, shared: shared, hammer: make([]hammerState, len(pop.cells))}
}
