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
// over. The population memo keeps each drawn, indexed store once per
// process. A later build shares its population read-only, copies only
// the cells' initial states, and gets the stream state a fresh draw
// would have left, so a hit is indistinguishable from a miss to the
// model and to the caller.

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

// memoEntry is a freshly indexed store and the stream state after its
// draw. Entries are immutable once inserted: models share pop and copy
// cells.
type memoEntry struct {
	pop   population
	cells []cellState
	after rng.State
	bytes int
}

// popMemo is a bounded first-in-first-out memo of populations. The
// insertion order lives in fifo because map iteration order is not
// deterministic.
type popMemo struct {
	mu      sync.Mutex
	budget  int
	bytes   int
	entries map[memoKey]*memoEntry
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
		m.population, m.shared = e.pop, true
		m.cells = slices.Clone(e.cells)
		src.SetState(e.after)
		return m
	}
	m.spare = sampleWeakCells(geom, p, src)
	m.index(m.spare)
	m.shared = pm.insert(key, m, src.State())
	return m
}

// insert shares m's freshly indexed population with the memo under
// key, with a copy of its cells' states, unless it exceeds the budget
// or the key is already present. It reports whether m's population is
// now shared.
func (pm *popMemo) insert(key memoKey, m *Model, after rng.State) bool {
	bytes := len(m.sites)*int(unsafe.Sizeof(site{})) +
		len(m.cells)*int(unsafe.Sizeof(cellState{})) +
		4*(len(m.order)+len(m.rowStart)+len(m.aggStart)) +
		len(m.aggs)*int(unsafe.Sizeof(influence{})) + len(m.phys)
	if bytes > pm.budget {
		return false
	}
	e := &memoEntry{pop: m.population, cells: slices.Clone(m.cells), after: after, bytes: bytes}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if _, ok := pm.entries[key]; ok {
		return false
	}
	for pm.bytes+e.bytes > pm.budget {
		oldest := pm.fifo[0]
		pm.fifo = pm.fifo[1:]
		pm.bytes -= pm.entries[oldest].bytes
		delete(pm.entries, oldest)
	}
	if pm.entries == nil {
		pm.entries = make(map[memoKey]*memoEntry)
	}
	pm.entries[key] = e
	pm.fifo = append(pm.fifo, key)
	pm.bytes += e.bytes
	return true
}
