// Package disturb implements the RowHammer disturbance fault model:
// repeatedly activating a DRAM row accelerates charge leakage in cells
// of physically adjacent rows, and cells whose cumulative "disturbance
// pressure" within a refresh epoch exceeds their individual threshold
// flip to their discharged value.
//
// The model reproduces the experimentally observed properties that the
// paper's analysis (and every mitigation it discusses) depends on:
//
//   - Sparse, module-dependent weak cells: only a small fraction of
//     cells are disturbable, with per-cell activation thresholds drawn
//     from a heavy-tailed (lognormal) distribution whose parameters
//     depend on the module's manufacturing year and vendor.
//   - Adjacency: victims lie at physical distance 1 from the aggressor
//     row for the vast majority of errors, distance 2 for a small rest.
//   - Asymmetric coupling per side, making double-sided hammering
//     roughly twice as effective as single-sided.
//   - Direction: a "true-cell" stores 1 as charge and flips 1→0, an
//     "anti-cell" stores 0 as charge and flips 0→1.
//   - Data-pattern dependence: coupling is strongest when the
//     aggressor's bit in the same column holds the opposite of the
//     victim's charged value.
//   - Repeatability: the same cells flip at the same thresholds; a
//     flipped cell does not re-flip until its row's charge has been
//     restored (activation or refresh of the victim row).
//   - Refresh resets: restoring a victim row's charge zeroes the
//     accumulated pressure on its cells.
//
// The hot path is branch-free where it matters: the weak cells live in
// slices sorted by (bank, physRow), and two offset arrays keyed by
// bank*Rows+physRow turn a row's resident cells and an aggressor row's
// influences into contiguous ranges, so an activation of a row with no
// coupled cells — the overwhelmingly common case — costs four slice
// loads. The cells' physics never change once drawn; they form an
// immutable population that models built from one population memo entry
// share, and each model owns only a 16-byte hammer state (pressure and
// flip flag) per cell, the same split the retention model makes. The
// model also implements dram.CycleFaultModel, letting the device apply
// a many-row hammer burst up to the model's horizon in one call;
// batched application is bit-identical to the per-activation path (see
// the notes above HammerHorizon). The seed's map-indexed
// per-activation implementation is kept in reference_test.go as the
// equivalence oracle.
package disturb

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/dram"
	"repro/internal/popmemo"
	"repro/internal/rng"
)

// Params calibrates the vulnerability of one device. Thresholds are in
// units of aggressor activations within one victim refresh epoch.
type Params struct {
	// WeakCellFraction is the fraction of all cells that are
	// disturbable at any practically reachable activation count.
	// Zero models an invulnerable (e.g. pre-2010) module.
	WeakCellFraction float64
	// ThresholdMedian and ThresholdSigma parameterize the lognormal
	// distribution of per-cell hammer thresholds.
	ThresholdMedian float64
	ThresholdSigma  float64
	// MinThreshold floors sampled thresholds, modelling the observed
	// minimum activation count to the first error (~139K on the most
	// vulnerable modules tested in the ISCA 2014 study).
	MinThreshold float64
	// Dist2Fraction is the fraction of weak cells whose aggressor sits
	// at physical distance 2 instead of 1.
	Dist2Fraction float64
	// DPDFactor scales coupling when the aggressor's bit equals the
	// victim's charged value (same-charge columns disturb less).
	// Values <= 0 or >= 1 disable data-pattern dependence.
	DPDFactor float64
	// SecondSideMin/Max bound the uniformly sampled coupling weight of
	// the weak cell's non-dominant side (the dominant side has weight
	// 1). Double-sided hammering therefore accumulates pressure
	// 1+secondSide times faster than single-sided.
	SecondSideMin, SecondSideMax float64
}

// DefaultParams returns the vulnerability of a highly vulnerable
// 2012-2013-class module.
func DefaultParams() Params {
	return Params{
		WeakCellFraction: 1e-4,
		ThresholdMedian:  450e3,
		ThresholdSigma:   0.45,
		MinThreshold:     139e3,
		Dist2Fraction:    0.08,
		DPDFactor:        0.25,
		SecondSideMin:    0.3,
		SecondSideMax:    1.0,
	}
}

// weakCell is one weak cell's physics as sampling and InjectWeakCell
// produce it and putPhys encodes it.
type weakCell struct {
	threshold  float64
	chargedVal uint64 // 1 for true-cell, 0 for anti-cell
	bit        int
	bank       int
	physRow    int
	// upWeight couples activations of physRow-dist, downWeight of
	// physRow+dist.
	dist                 int
	upWeight, downWeight float64
}

// cell is the physics of one weak cell that the batched hammer path
// reads by slot. dist is capped at the row count: a cell that far from
// every row couples to none, as its encoded distance says.
type cell struct {
	threshold            float64
	upWeight, downWeight float64
	dist, bit            int32
	chargedVal           uint8 // 1 for true-cell, 0 for anti-cell
}

// hammerState is a cell's disturbance state, the only per-cell record a
// model writes: 16 bytes.
type hammerState struct {
	pressure float64
	flipped  bool // flipped during the current epoch
}

// influence is one weak cell an aggressor row disturbs: the cell's
// slot, its physical row, the coupling weight of that side, and the
// threshold, bit and charge the flip decision needs, so an activation
// reads the influences in order and only each cell's hammer state by
// slot.
type influence struct {
	slot       int32
	row        int32
	weight     float64
	threshold  float64
	bit        int32
	chargedVal uint8
}

// physBytes is the size of a cell's physics in SaveState's encoding:
// the eight 8-byte fields before its pressure and flip flag.
const physBytes = 64

// putPhys encodes wc's physics into b[:physBytes] as SaveState
// writes it.
func putPhys(b []byte, wc *weakCell) {
	b = b[:physBytes]
	binary.BigEndian.PutUint64(b[0:], uint64(wc.bank))
	binary.BigEndian.PutUint64(b[8:], uint64(wc.physRow))
	binary.BigEndian.PutUint64(b[16:], uint64(wc.bit))
	binary.BigEndian.PutUint64(b[24:], math.Float64bits(wc.threshold))
	binary.BigEndian.PutUint64(b[32:], uint64(wc.dist))
	binary.BigEndian.PutUint64(b[40:], math.Float64bits(wc.upWeight))
	binary.BigEndian.PutUint64(b[48:], math.Float64bits(wc.downWeight))
	binary.BigEndian.PutUint64(b[56:], wc.chargedVal)
}

// getPhys decodes the physics putPhys encoded into b.
func getPhys(b []byte) weakCell {
	b = b[:physBytes]
	return weakCell{
		bank:       int(binary.BigEndian.Uint64(b[0:])),
		physRow:    int(binary.BigEndian.Uint64(b[8:])),
		bit:        int(binary.BigEndian.Uint64(b[16:])),
		threshold:  math.Float64frombits(binary.BigEndian.Uint64(b[24:])),
		dist:       int(binary.BigEndian.Uint64(b[32:])),
		upWeight:   math.Float64frombits(binary.BigEndian.Uint64(b[40:])),
		downWeight: math.Float64frombits(binary.BigEndian.Uint64(b[48:])),
		chargedVal: binary.BigEndian.Uint64(b[56:]),
	}
}

// sampleWeakCells draws the weak-cell population for a device of the
// given geometry, in draw order. The expected number of weak cells is
// WeakCellFraction * TotalCells; the actual count is binomially
// sampled. The draw sequence is deterministic given the stream and
// shared between Model and Reference so that both see the identical
// population.
func sampleWeakCells(geom dram.Geometry, p Params, src *rng.Stream) []weakCell {
	if p.WeakCellFraction <= 0 {
		return nil
	}
	n := src.Binomial(geom.TotalCells(), p.WeakCellFraction)
	bitsPerRow := geom.BitsPerRow()
	mu := math.Log(p.ThresholdMedian)
	cells := make([]weakCell, 0, n)
	// seen holds the flat bit position (bank*Rows+physRow)*bitsPerRow+bit
	// of every kept cell.
	seen := make(map[int64]bool, n)
	for i := int64(0); i < n; i++ {
		wc := weakCell{
			bank:      src.Intn(geom.Banks),
			physRow:   src.Intn(geom.Rows),
			bit:       src.Intn(bitsPerRow),
			threshold: math.Max(p.MinThreshold, src.LogNormal(mu, p.ThresholdSigma)),
			dist:      1,
		}
		pos := int64(wc.bank*geom.Rows+wc.physRow)*int64(bitsPerRow) + int64(wc.bit)
		if seen[pos] {
			continue // a cell has one set of physics; drop duplicates
		}
		seen[pos] = true
		if src.Bool(p.Dist2Fraction) {
			wc.dist = 2
		}
		if src.Bool(0.5) {
			wc.chargedVal = 1
		}
		second := p.SecondSideMin + src.Float64()*(p.SecondSideMax-p.SecondSideMin)
		if src.Bool(0.5) {
			wc.upWeight, wc.downWeight = 1, second
		} else {
			wc.upWeight, wc.downWeight = second, 1
		}
		cells = append(cells, wc)
	}
	return cells
}

// population is the immutable half of a model's weak cells: their
// physics, numbered by slot, sorted by (bank, physRow) and stable in
// insertion order (sampling, then InjectWeakCell). For a row index
// idx = bank*geom.Rows+physRow:
//
//   - slots rowStart[idx]:rowStart[idx+1] are the cells residing in the
//     row (restored when it is activated or refreshed);
//   - aggs[aggStart[idx]:aggStart[idx+1]] are the influences of
//     activating the row, each naming a cell by its slot.
//
// Both ranges keep insertion order, so duplicate cells flip in the
// order they were added. order maps insertion order to slots, and
// aggOrder[2i] and aggOrder[2i+1] are the positions in aggs of the i-th
// cell's influences from the rows dist above and below it (-1 past the
// bank's edge). phys holds each cell's physics in insertion order as
// SaveState encodes it, physBytes per cell; index builds everything
// else from phys.
//
// A population the memo hands out is shared by every model built from
// it and is never written: InjectWeakCell indexes a private one, which
// later injections may re-index in place.
type population struct {
	cells        []cell
	order        []int32
	rowStart     []int32
	aggStart     []int32
	aggs         []influence
	aggOrder     []int32
	phys         []byte
	minThreshold float64
}

// index lays out phys, the encoded physics of cells in insertion order
// with every position inside geom and every distance at least 1, as the
// population. It keeps phys and reuses the population's other slices,
// which must not be shared, growing them the way append does.
func (p *population) index(geom dram.Geometry, phys []byte) {
	n := len(phys) / physBytes
	rows, nrows := geom.Rows, geom.Banks*geom.Rows
	p.phys = phys
	p.order = resize(p.order, n)
	p.aggOrder = resize(p.aggOrder, 2*n)
	for i := range n {
		idx, physRow, dist := locate(phys[i*physBytes:], rows)
		up, down := int32(-1), int32(-1)
		if physRow-dist >= 0 {
			up = int32(idx - dist)
		}
		if physRow+dist < rows {
			down = int32(idx + dist)
		}
		p.order[i], p.aggOrder[2*i], p.aggOrder[2*i+1] = int32(idx), up, down
	}
	p.rowStart = popmemo.SortByRow(p.rowStart, nrows, p.order)
	p.aggStart = popmemo.SortByRow(p.aggStart, nrows, p.aggOrder)
	p.cells = resize(p.cells, n)
	p.aggs = resize(p.aggs, int(p.aggStart[nrows]))
	p.minThreshold = math.Inf(1)
	for i, slot := range p.order {
		wc := getPhys(phys[i*physBytes:])
		p.cells[slot] = cell{wc.threshold, wc.upWeight, wc.downWeight, int32(min(wc.dist, rows)), int32(wc.bit), uint8(wc.chargedVal)}
		for side, w := range [2]float64{wc.upWeight, wc.downWeight} {
			if at := p.aggOrder[2*i+side]; at >= 0 {
				p.aggs[at] = influence{slot, int32(wc.physRow), w, wc.threshold, int32(wc.bit), uint8(wc.chargedVal)}
			}
		}
		if wc.threshold < p.minThreshold {
			p.minThreshold = wc.threshold
		}
	}
}

// locate returns the row index bank*rows+physRow, the physical row and
// the distance, capped at rows, of the cell whose physics b encodes.
func locate(b []byte, rows int) (idx, physRow, dist int) {
	physRow = int(binary.BigEndian.Uint64(b[8:]))
	dist = int(min(binary.BigEndian.Uint64(b[32:]), uint64(rows)))
	return int(binary.BigEndian.Uint64(b))*rows + physRow, physRow, dist
}

// size is the population's footprint in bytes of slices.
func (p *population) size() int {
	return len(p.cells)*int(unsafe.Sizeof(cell{})) +
		4*(len(p.order)+len(p.rowStart)+len(p.aggStart)+len(p.aggOrder)) +
		len(p.aggs)*int(unsafe.Sizeof(influence{})) + len(p.phys)
}

// resident returns the slot range [lo, hi) of the cells residing in
// row idx.
func (p *population) resident(idx int) (lo, hi int32) {
	return p.rowStart[idx], p.rowStart[idx+1]
}

// influences returns the influences of activating row idx.
func (p *population) influences(idx int) []influence {
	return p.aggs[p.aggStart[idx]:p.aggStart[idx+1]]
}

// resize returns s with length n and zeroed contents, reusing its
// backing array when it is large enough and growing it the way append
// does otherwise.
func resize[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// Model is a dram.FaultModel implementing RowHammer disturbance. Its
// weak cells are a population (see above) plus hammer, each slot's
// hammer state, which only this model writes.
type Model struct {
	params Params
	geom   dram.Geometry
	// population is rebuilt from the spec; LoadState checks it.
	population `snapshot:"config"`
	// shared is set while population is also held by the memo.
	shared bool `snapshot:"derived"`
	hammer []hammerState
	// pos and words are bound by bindCycle for the duration of one
	// HammerHorizon or OnHammerCycle call: pos[physRow] is the row's
	// position in the cycle, -1 for every row not hammered, and
	// words[c] the cell words of the row at position c. Between calls
	// pos is all -1 and words has length 0 (its backing array still
	// references the last cycle's rows of the device the model is
	// attached to, until the next bind overwrites them).
	pos   []int32    `snapshot:"derived"`
	words [][]uint64 `snapshot:"derived"`
	// dup is set when InjectWeakCell stacks two cells on one
	// (bank,row,bit) position, which makes flip-observability
	// order-dependent and disables batching.
	dup        bool
	totalFlips int64
	epochFlips int64
}

var (
	_ dram.FaultModel            = (*Model)(nil)
	_ dram.HammerFaultModel      = (*Model)(nil)
	_ dram.CycleFaultModel       = (*Model)(nil)
	_ dram.BankRefreshFaultModel = (*Model)(nil)
)

// NewModel samples the weak-cell population for a device of the given
// geometry. Construction is deterministic given the stream and draws
// the identical population to NewReference. A population already drawn
// in this process from the same geometry, params and stream state is
// shared from the population memo (memo.go) instead, and src is left
// where the draw would have left it.
func NewModel(geom dram.Geometry, p Params, src *rng.Stream) *Model {
	return populations.newModel(geom, p, src)
}

// NewPlanted returns a model with no weak cells for a device of the
// given geometry: an invulnerable device on which an experiment plants
// its victims at known cells with InjectWeakCell. It takes no stream,
// draws nothing and leaves the population memo alone; its SaveState
// bytes equal those of NewModel with zero Params after the same
// injections.
func NewPlanted(geom dram.Geometry) *Model {
	m := &Model{geom: geom}
	m.index(geom, nil)
	return m
}

// Name implements dram.FaultModel.
func (m *Model) Name() string { return "rowhammer" }

// applyFlip discharges the cell of inf, residing in bank, whose
// pressure crossed its threshold. The flip is only observable if the
// cell currently holds its charged value.
func (m *Model) applyFlip(d *dram.Device, bank int, inf *influence, s *hammerState) {
	charged := uint64(inf.chargedVal)
	if d.PhysBit(bank, int(inf.row), int(inf.bit)) == charged {
		d.SetPhysBit(bank, int(inf.row), int(inf.bit), 1-charged)
		m.totalFlips++
		m.epochFlips++
	}
	s.flipped = true
}

// OnActivate implements dram.FaultModel: activating a row restores its
// own charge (resetting pressure on its weak cells) and disturbs weak
// cells coupled to it in neighbouring rows.
func (m *Model) OnActivate(d *dram.Device, bank, physRow int, now dram.Time) {
	idx := bank*m.geom.Rows + physRow
	m.restoreRow(idx)
	infs := m.influences(idx)
	if len(infs) == 0 {
		return
	}
	// Flips land in other rows, so the aggressor row's bits hold for
	// the whole loop.
	agg := d.PhysRowWords(bank, physRow)
	dpd := m.params.DPDFactor > 0 && m.params.DPDFactor < 1
	for i := range infs {
		inf := &infs[i]
		s := &m.hammer[inf.slot]
		if s.flipped {
			continue
		}
		w := inf.weight
		// Data-pattern dependence: coupling is reduced when the
		// aggressor's bit in the victim's column matches the victim's
		// charged value.
		if dpd && bitAt(agg, inf.bit) == inf.chargedVal {
			w *= m.params.DPDFactor
		}
		s.pressure += w
		if s.pressure >= inf.threshold {
			m.applyFlip(d, bank, inf, s)
		}
	}
}

// OnRefresh implements dram.FaultModel: refreshing a row restores its
// charge and re-arms its weak cells.
func (m *Model) OnRefresh(d *dram.Device, bank, physRow int, now dram.Time) {
	m.restoreRow(bank*m.geom.Rows + physRow)
}

// BatchableBankRefresh implements dram.BankRefreshFaultModel: a refresh
// sweep only zeroes per-cell pressure, touching no state any other
// model reads, so it always batches (duplicate cells restore in the
// same slot order either way).
func (m *Model) BatchableBankRefresh(bank int) bool { return true }

// OnRefreshBankBatch implements dram.BankRefreshFaultModel: identical
// to refreshing rows 0..Rows-1 in order, in one pass over the bank's
// cells (a contiguous range) instead of Rows dispatches.
func (m *Model) OnRefreshBankBatch(d *dram.Device, bank int, now dram.Time) {
	base := bank * m.geom.Rows
	restore(m.hammer[m.rowStart[base]:m.rowStart[base+m.geom.Rows]])
}

func (m *Model) restoreRow(idx int) {
	lo, hi := m.resident(idx)
	restore(m.hammer[lo:hi])
}

// bitAt returns bit i of a row's words.
func bitAt(words []uint64, i int32) uint8 { return uint8(words[i>>6] >> (uint(i) & 63) & 1) }

// restore zeroes hammer states. An element loop, not clear: a row holds
// a cell or two, too few to pay for a memclr call.
func restore(states []hammerState) {
	for i := range states {
		states[i].pressure, states[i].flipped = 0, false
	}
}

// --- Batched hammer dispatch (dram.CycleFaultModel) ---
//
// A hammer cycle activates k distinct rows in cyclic order. A weak cell
// is coupled to at most two rows (physRow±dist), so whatever k is, each
// cell sees at most two of the hammered rows and its pressure additions
// over a burst form a fixed one- or two-weight sequence that the
// per-activation path would apply in the same float order. Three facts
// make a batched burst exact within the horizon:
//
//  1. Cells residing outside the hammered rows only accumulate: one
//     coupled hammered row gives accumulate, two give alternating
//     additions in cycle order. Their flips land outside the hammered
//     rows.
//  2. Cells residing in a hammered row are restored whenever their row
//     is activated. The horizon ends before any of them could reach its
//     threshold, so no flip lands in a hammered row, the hammered rows'
//     bits — and with them the data-pattern-dependent weights — stay
//     constant, and each such cell's final state is the additions after
//     its row's last activation.
//  3. Distinct cells are independent: only duplicate (bank,row,bit)
//     cells (possible via InjectWeakCell) make flip observability
//     order-dependent, and they hold the horizon at 0.

// activationsAt returns how many of the first n activations of a cycle
// of length k land on position pos.
func activationsAt(pos, n, k int) int {
	if pos >= n {
		return 0
	}
	return (n - pos + k - 1) / k
}

// coupling is one hammered row a resident cell is coupled to: its cycle
// position and effective weight.
type coupling struct {
	pos int
	w   float64
}

// bindCycle binds pos and words to the cycle physRows of bank for one
// call; unbindCycle resets them. Looking a row up is then one load
// instead of a scan of the cycle.
func (m *Model) bindCycle(d *dram.Device, bank int, physRows []int) {
	if m.pos == nil {
		m.pos = make([]int32, m.geom.Rows)
		for i := range m.pos {
			m.pos[i] = -1
		}
	}
	for c, r := range physRows {
		m.pos[r] = int32(c)
		m.words = append(m.words, d.PhysRowWords(bank, r))
	}
}

func (m *Model) unbindCycle(physRows []int) {
	for _, r := range physRows {
		m.pos[r] = -1
	}
	m.words = m.words[:0]
}

// cyclePos returns the bound cycle position of physRow, or -1 when the
// row is out of range or not hammered.
func (m *Model) cyclePos(physRow int) int {
	if uint(physRow) >= uint(len(m.pos)) {
		return -1
	}
	return int(m.pos[physRow])
}

// residentCouplings returns the hammered rows (at most two) the cell
// wc, residing in hammered row physRow, is coupled to, in no particular
// order.
func (m *Model) residentCouplings(wc *cell, physRow int) (cs [2]coupling, n int) {
	if p := m.cyclePos(physRow - int(wc.dist)); p >= 0 {
		cs[n] = coupling{p, m.effWeight(p, wc.bit, wc.chargedVal, wc.upWeight)}
		n++
	}
	if p := m.cyclePos(physRow + int(wc.dist)); p >= 0 {
		cs[n] = coupling{p, m.effWeight(p, wc.bit, wc.chargedVal, wc.downWeight)}
		n++
	}
	return cs, n
}

// inOrder returns the couplings sorted by their first activation index
// at or after from in a cycle of length k, with those indices.
func inOrder(cs [2]coupling, n, from, k int) ([2]coupling, [2]int) {
	var at [2]int
	for i := 0; i < n; i++ {
		at[i] = from + (cs[i].pos-from%k+k)%k
	}
	if n == 2 && at[1] < at[0] {
		cs[0], cs[1] = cs[1], cs[0]
		at[0], at[1] = at[1], at[0]
	}
	return cs, at
}

// HammerHorizon implements dram.CycleFaultModel: unbounded unless
// duplicate cells exist or a cell residing in a hammered row could
// reach its threshold before its own row is next activated.
func (m *Model) HammerHorizon(d *dram.Device, bank int, physRows []int, start, period dram.Time) int {
	if m.dup {
		return 0
	}
	k := len(physRows)
	h := math.MaxInt
	base := bank * m.geom.Rows
	bound := false
	for c, r := range physRows {
		lo, hi := m.resident(base + r)
		if lo < hi && !bound {
			m.bindCycle(d, bank, physRows)
			bound = true
		}
		for slot := lo; slot < hi; slot++ {
			wc, s := &m.cells[slot], &m.hammer[slot]
			cs, n := m.residentCouplings(wc, r)
			if n == 0 {
				continue
			}
			// Before the row's first activation (index c) the cell keeps
			// accumulating from its current pressure.
			if !s.flipped {
				ord, at := inOrder(cs, n, 0, k)
				p := s.pressure
				for i := 0; i < n && at[i] < c; i++ {
					if p += ord[i].w; p >= wc.threshold {
						h = min(h, at[i])
					}
				}
			}
			// After each activation of its row it restarts from zero and
			// sees the same additions every round.
			ord, at := inOrder(cs, n, c+1, k)
			p := 0.0
			for i := 0; i < n; i++ {
				if p += ord[i].w; p >= wc.threshold {
					h = min(h, at[i])
					break
				}
			}
		}
	}
	if bound {
		m.unbindCycle(physRows)
	}
	return h
}

// OnHammerCycle implements dram.CycleFaultModel: semantically identical
// to n per-activation OnActivate calls over the cycle, in O(coupled
// cells + pressure additions).
func (m *Model) OnHammerCycle(d *dram.Device, bank int, physRows []int, n int, start, period dram.Time) {
	m.bindCycle(d, bank, physRows)
	k := len(physRows)
	base := bank * m.geom.Rows
	for c, r := range physRows {
		na := activationsAt(c, n, k)
		if na == 0 {
			break
		}
		infs := m.influences(base + r)
		for i := range infs {
			inf := &infs[i]
			s := &m.hammer[inf.slot]
			if s.flipped || m.pos[inf.row] >= 0 {
				continue // flipped until restored, or resident (below)
			}
			w := m.effWeight(c, inf.bit, inf.chargedVal, inf.weight)
			row := int(inf.row)
			other := 2*row - r
			po := m.cyclePos(other)
			if po < 0 {
				if accumulate(s, inf.threshold, w, w, na) {
					m.applyFlip(d, bank, inf, s)
				}
				continue
			}
			if po < c {
				continue // handled from the earlier position
			}
			wc := &m.cells[inf.slot]
			wo := wc.upWeight
			if other > row {
				wo = wc.downWeight
			}
			wo = m.effWeight(po, inf.bit, inf.chargedVal, wo)
			if accumulate(s, inf.threshold, w, wo, na+activationsAt(po, n, k)) {
				m.applyFlip(d, bank, inf, s)
			}
		}
	}
	for c, r := range physRows {
		lo, hi := m.resident(base + r)
		for slot := lo; slot < hi; slot++ {
			s := &m.hammer[slot]
			cs, nc := m.residentCouplings(&m.cells[slot], r)
			from := 0
			if c < n {
				// Restored at the row's last activation in the burst.
				from = c + k*((n-1-c)/k)
				*s = hammerState{}
				from++
			} else if s.flipped {
				continue
			}
			ord, at := inOrder(cs, nc, from, k)
			p := s.pressure
			for i := 0; i < nc && at[i] < n; i++ {
				p += ord[i].w
			}
			s.pressure = p
		}
	}
	m.unbindCycle(physRows)
}

// --- Legacy batched dispatch (dram.HammerFaultModel) ---
//
// The device dispatches through CycleFaultModel. These methods remain
// for wrappers that forward the older interface; the bursts they apply
// are one- and two-row cycles.

// BatchableRow implements dram.HammerFaultModel. Single-row bursts
// batch exactly unless duplicate cells were injected.
func (m *Model) BatchableRow(bank, physRow int) bool { return !m.dup }

// OnActivateBatch implements dram.HammerFaultModel: n consecutive
// activations of physRow.
func (m *Model) OnActivateBatch(d *dram.Device, bank, physRow, n int, start, period dram.Time) {
	m.OnHammerCycle(d, bank, []int{physRow}, n, start, period)
}

// BatchablePair implements dram.HammerFaultModel: an alternating
// rowA/rowB burst batches unless a cell residing in one of the hammered
// rows is coupled to either of them, or duplicates exist.
func (m *Model) BatchablePair(bank, rowA, rowB int) bool {
	if m.dup || rowA == rowB {
		return false
	}
	base := bank * m.geom.Rows
	for _, inf := range m.influences(base + rowA) {
		if r := int(inf.row); r == rowA || r == rowB {
			return false
		}
	}
	for _, inf := range m.influences(base + rowB) {
		if r := int(inf.row); r == rowA || r == rowB {
			return false
		}
	}
	return true
}

// OnHammerPairBatch implements dram.HammerFaultModel: n repetitions of
// {OnActivate(rowA); OnActivate(rowB)}.
func (m *Model) OnHammerPairBatch(d *dram.Device, bank, rowA, rowB, n int, start, period dram.Time) {
	m.OnHammerCycle(d, bank, []int{rowA, rowB}, 2*n, start, period)
}

// effWeight applies data-pattern dependence, for a cell of the given
// bit and charge, to the aggressor row at bound cycle position c. The
// result is constant for a whole batched burst of that row: no flip
// lands in a hammered row within a horizon.
func (m *Model) effWeight(c int, bit int32, chargedVal uint8, w float64) float64 {
	if m.params.DPDFactor > 0 && m.params.DPDFactor < 1 {
		if bitAt(m.words[c], bit) == chargedVal {
			w *= m.params.DPDFactor
		}
	}
	return w
}

// accumulate applies n pressure additions alternating between wA and
// wB, starting with wA (pass the same weight twice for one coupled
// row), and reports whether the cell reached its threshold th. The
// additions replicate the per-activation float sequence exactly,
// stopping at the threshold crossing, so batched results stay
// bit-identical to the naive path.
func accumulate(s *hammerState, th, wA, wB float64, n int) bool {
	p := s.pressure
	for ; n > 0; n -= 2 {
		p += wA
		if p >= th {
			s.pressure = p
			return true
		}
		if n == 1 {
			break
		}
		p += wB
		if p >= th {
			s.pressure = p
			return true
		}
	}
	s.pressure = p
	return false
}

// InjectWeakCell adds a weak cell with explicit parameters. It is the
// instrumentation path experiments use to place victims at known
// physical locations (e.g. inside internally remapped regions for the
// PARA-placement experiment). dist is the aggressor distance (1 or 2);
// upWeight/downWeight are the coupling weights of the rows above and
// below the victim. Injecting a second cell at an occupied
// (bank,row,bit) position disables batched hammer dispatch.
func (m *Model) InjectWeakCell(bank, physRow, bit int, threshold float64, chargedVal uint64, dist int, upWeight, downWeight float64) {
	if dist < 1 {
		// dist 0 would make the cell its own aggressor, which the
		// physics (and the batching contract) exclude.
		panic(fmt.Sprintf("disturb: InjectWeakCell dist %d out of range (want >= 1)", dist))
	}
	lo, hi := m.resident(bank*m.geom.Rows + physRow)
	for _, c := range m.cells[lo:hi] {
		if int(c.bit) == bit {
			m.dup = true
		}
	}
	var rec [physBytes]byte
	putPhys(rec[:], &weakCell{
		bank: bank, physRow: physRow, bit: bit,
		threshold: threshold, chargedVal: chargedVal & 1,
		dist: dist, upWeight: upWeight, downWeight: downWeight,
	})
	phys := m.phys
	if m.shared {
		// The memo's population is never written: index a private one,
		// and clip phys so append copies the memo's records.
		phys = slices.Clip(phys)
		m.population, m.shared = population{}, false
	}
	// Each call re-indexes the population, O(cells + rows). The buffers
	// grow the way append grows them, so a run of injections allocates
	// amortised O(1) per cell.
	m.index(m.geom, append(phys, rec[:]...))
	// The new cell is the last of its row: every later slot moves up one.
	m.hammer = slices.Insert(m.hammer, int(m.order[len(m.order)-1]), hammerState{})
}

// WeakCellCount returns the number of disturbable cells sampled.
func (m *Model) WeakCellCount() int { return len(m.cells) }

// TotalFlips returns the number of disturbance flips applied since
// construction (or the last ResetCounters).
func (m *Model) TotalFlips() int64 { return m.totalFlips }

// MinThreshold returns the smallest sampled cell threshold, i.e. the
// minimum single-sided activation count that can flip any bit on this
// device, or +Inf if the device has no weak cells.
func (m *Model) MinThreshold() float64 { return m.minThreshold }

// VictimRows returns the distinct (bank, physical row) pairs that
// contain weak cells, for test instrumentation, in (bank, row) order.
func (m *Model) VictimRows() [][2]int {
	var out [][2]int
	for idx := range m.geom.Banks * m.geom.Rows {
		if m.rowStart[idx+1] > m.rowStart[idx] {
			out = append(out, [2]int{idx / m.geom.Rows, idx % m.geom.Rows})
		}
	}
	return out
}

// FractionFlippableAt returns the expected fraction of ALL cells that
// flip when every row is hammered hammerCount times per refresh epoch
// (double-sided, worst-case data pattern). This is the analytic form
// used for fleet-scale experiments (e.g. the 129-module Figure 1
// population) where instantiating 10^9 cells is pointless: the error
// rate equals WeakCellFraction times the lognormal CDF at the
// effective threshold.
func (p Params) FractionFlippableAt(hammerCount float64) float64 {
	if p.WeakCellFraction <= 0 || hammerCount <= 0 {
		return 0
	}
	// Double-sided hammering accumulates pressure at rate
	// 1 + E[secondSide] per aggressor activation pair.
	eff := hammerCount * (1 + (p.SecondSideMin+p.SecondSideMax)/2)
	if eff < p.MinThreshold {
		return 0
	}
	return p.WeakCellFraction * logNormalCDF(eff, math.Log(p.ThresholdMedian), p.ThresholdSigma)
}

// logNormalCDF evaluates the lognormal CDF at x.
func logNormalCDF(x, mu, sigma float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * (1 + math.Erf((math.Log(x)-mu)/(sigma*math.Sqrt2)))
}
