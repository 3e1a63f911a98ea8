package disturb

import (
	"math"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/dram"
	"repro/internal/rng"
)

// The weak-cell population NewModel draws is a pure function of the
// geometry, the Params and the stream's position, and so is the
// stream's position after the draw. Sweeps that rebuild a system from
// its spec and then overlay a snapshot (checkpoint restore, the
// attack tournament's cloned cells) build the same population over and
// over, only for LoadState to overwrite it. The population memo keeps
// each drawn, indexed store once per process and hands later builds a
// clone of it plus the stream state a fresh draw would have left, so a
// hit is indistinguishable from a miss to the model and to the caller.

// memoBudget bounds the memo's footprint, in bytes of store slices.
// Populations larger than the budget are never cached; inserting one
// that does not fit evicts the oldest entries first.
const memoBudget = 8 << 20

// populations is the process-wide memo NewModel draws through.
var populations = popMemo{budget: memoBudget}

// memoKey identifies a draw: the geometry, the bit pattern of every
// Params float and the stream's complete state (float fields by their
// bits, so distinct states never compare equal).
type memoKey struct {
	geom      dram.Geometry
	params    [8]uint64
	s         [4]uint64
	haveSpare bool
	spare     uint64
}

func newMemoKey(geom dram.Geometry, p Params, st rng.State) memoKey {
	return memoKey{
		geom: geom,
		params: [8]uint64{
			math.Float64bits(p.WeakCellFraction),
			math.Float64bits(p.ThresholdMedian),
			math.Float64bits(p.ThresholdSigma),
			math.Float64bits(p.MinThreshold),
			math.Float64bits(p.Dist2Fraction),
			math.Float64bits(p.DPDFactor),
			math.Float64bits(p.SecondSideMin),
			math.Float64bits(p.SecondSideMax),
		},
		s:         st.S,
		haveSpare: st.HaveSpare,
		spare:     math.Float64bits(st.Spare),
	}
}

// population is a freshly indexed store and the stream state after its
// draw. Entries are immutable once inserted: models get clones.
type population struct {
	cells        []weakCell
	order        []int32
	rowStart     []int32
	aggStart     []int32
	aggs         []influence
	minThreshold float64
	after        rng.State
	bytes        int
}

// popMemo is a bounded first-in-first-out memo of populations. The
// insertion order lives in fifo because map iteration order is not
// deterministic.
type popMemo struct {
	mu      sync.Mutex
	budget  int
	bytes   int
	entries map[memoKey]*population
	fifo    []memoKey
}

// newModel is NewModel through memo pm. The draw itself runs outside
// the lock; concurrent misses on one key both draw, and the first
// insertion wins.
func (pm *popMemo) newModel(geom dram.Geometry, p Params, src *rng.Stream) *Model {
	m := &Model{params: p, geom: geom}
	key := newMemoKey(geom, p, src.State())
	pm.mu.Lock()
	e := pm.entries[key]
	pm.mu.Unlock()
	if e != nil {
		m.cells = slices.Clone(e.cells)
		m.order = slices.Clone(e.order)
		m.rowStart = slices.Clone(e.rowStart)
		m.aggStart = slices.Clone(e.aggStart)
		m.aggs = slices.Clone(e.aggs)
		m.minThreshold = e.minThreshold
		src.SetState(e.after)
		return m
	}
	m.spare = sampleWeakCells(geom, p, src)
	m.index(m.spare)
	pm.insert(key, m, src.State())
	return m
}

// insert stores a private copy of m's freshly indexed store under key,
// unless it exceeds the budget or the key is already present.
func (pm *popMemo) insert(key memoKey, m *Model, after rng.State) {
	bytes := len(m.cells)*int(unsafe.Sizeof(weakCell{})) +
		4*(len(m.order)+len(m.rowStart)+len(m.aggStart)) +
		len(m.aggs)*int(unsafe.Sizeof(influence{}))
	if bytes > pm.budget {
		return
	}
	e := &population{
		cells:        slices.Clone(m.cells),
		order:        slices.Clone(m.order),
		rowStart:     slices.Clone(m.rowStart),
		aggStart:     slices.Clone(m.aggStart),
		aggs:         slices.Clone(m.aggs),
		minThreshold: m.minThreshold,
		after:        after,
		bytes:        bytes,
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if _, ok := pm.entries[key]; ok {
		return
	}
	for pm.bytes+e.bytes > pm.budget {
		oldest := pm.fifo[0]
		pm.fifo = pm.fifo[1:]
		pm.bytes -= pm.entries[oldest].bytes
		delete(pm.entries, oldest)
	}
	if pm.entries == nil {
		pm.entries = make(map[memoKey]*population)
	}
	pm.entries[key] = e
	pm.fifo = append(pm.fifo, key)
	pm.bytes += e.bytes
}
