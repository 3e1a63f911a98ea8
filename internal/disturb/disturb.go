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
// The hot path is branch-free where it matters: the per-(bank,row)
// weak-cell and influence indexes are dense flat slices keyed by
// bank*Rows+physRow, so an activation of a row with no coupled cells —
// the overwhelmingly common case — costs two slice loads. The model
// also implements dram.CycleFaultModel, letting the device apply a
// many-row hammer burst up to the model's horizon in one call; batched
// application is bit-identical to the per-activation path (see the
// notes above HammerHorizon). The seed's map-indexed
// per-activation implementation is retained in reference.go as the
// equivalence oracle.
package disturb

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dram"
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

// Invulnerable returns parameters with no weak cells (pre-2010 module).
func Invulnerable() Params { return Params{} }

type weakCell struct {
	bank, physRow, bit int
	threshold          float64
	// upWeight couples activations of physRow-dist, downWeight of
	// physRow+dist.
	dist                 int
	upWeight, downWeight float64
	chargedVal           uint64 // 1 for true-cell, 0 for anti-cell
	pressure             float64
	flipped              bool // flipped during the current epoch
}

type influence struct {
	cell   *weakCell
	weight float64
}

// sampleWeakCells draws the weak-cell population for a device of the
// given geometry and hands each kept cell to add. The expected number
// of weak cells is WeakCellFraction * TotalCells; the actual count is
// binomially sampled. The draw sequence is deterministic given the
// stream and shared between Model and Reference so that both see the
// identical population. It returns the set of occupied (bank,row,bit)
// positions for duplicate detection, or nil if the device has no weak
// cells.
func sampleWeakCells(geom dram.Geometry, p Params, src *rng.Stream, add func(*weakCell)) map[[3]int]bool {
	if p.WeakCellFraction <= 0 {
		return nil
	}
	n := src.Binomial(geom.TotalCells(), p.WeakCellFraction)
	bitsPerRow := geom.BitsPerRow()
	seen := make(map[[3]int]bool, n)
	for i := int64(0); i < n; i++ {
		wc := &weakCell{
			bank:      src.Intn(geom.Banks),
			physRow:   src.Intn(geom.Rows),
			bit:       src.Intn(bitsPerRow),
			threshold: math.Max(p.MinThreshold, src.LogNormal(math.Log(p.ThresholdMedian), p.ThresholdSigma)),
			dist:      1,
		}
		pos := [3]int{wc.bank, wc.physRow, wc.bit}
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
		add(wc)
	}
	return seen
}

// Model is a dram.FaultModel implementing RowHammer disturbance.
type Model struct {
	params Params
	geom   dram.Geometry
	cells  []*weakCell
	// victimIdx and aggIdx are dense flat indexes keyed by
	// bank*geom.Rows+physRow: victimIdx lists the weak cells residing
	// in a row (for restore resets), aggIdx the influences of
	// activating a row (for pressure accumulation). They replace the
	// seed's map[[2]int] indexes, turning the per-activation lookup
	// into a single slice load.
	victimIdx [][]*weakCell
	aggIdx    [][]influence
	// seen tracks occupied (bank,row,bit) positions; dup is set when
	// InjectWeakCell stacks two cells on one position, which makes
	// flip-observability order-dependent and disables batching.
	seen         map[[3]int]bool
	dup          bool
	totalFlips   int64
	epochFlips   int64
	minThreshold float64
}

var (
	_ dram.FaultModel            = (*Model)(nil)
	_ dram.HammerFaultModel      = (*Model)(nil)
	_ dram.CycleFaultModel       = (*Model)(nil)
	_ dram.BankRefreshFaultModel = (*Model)(nil)
)

// NewModel samples the weak-cell population for a device of the given
// geometry. Construction is deterministic given the stream and draws
// the identical population to NewReference.
func NewModel(geom dram.Geometry, p Params, src *rng.Stream) *Model {
	m := &Model{
		params:       p,
		geom:         geom,
		victimIdx:    make([][]*weakCell, geom.Banks*geom.Rows),
		aggIdx:       make([][]influence, geom.Banks*geom.Rows),
		minThreshold: math.Inf(1),
	}
	m.seen = sampleWeakCells(geom, p, src, m.addCell)
	return m
}

func (m *Model) addCell(wc *weakCell) {
	m.cells = append(m.cells, wc)
	base := wc.bank * m.geom.Rows
	m.victimIdx[base+wc.physRow] = append(m.victimIdx[base+wc.physRow], wc)
	up := wc.physRow - wc.dist
	down := wc.physRow + wc.dist
	if up >= 0 {
		m.aggIdx[base+up] = append(m.aggIdx[base+up], influence{wc, wc.upWeight})
	}
	if down < m.geom.Rows {
		m.aggIdx[base+down] = append(m.aggIdx[base+down], influence{wc, wc.downWeight})
	}
	if wc.threshold < m.minThreshold {
		m.minThreshold = wc.threshold
	}
}

// Name implements dram.FaultModel.
func (m *Model) Name() string { return "rowhammer" }

// applyFlip discharges a cell whose pressure crossed its threshold. The
// flip is only observable if the cell currently holds its charged
// value.
func (m *Model) applyFlip(d *dram.Device, wc *weakCell) {
	if d.PhysBit(wc.bank, wc.physRow, wc.bit) == wc.chargedVal {
		d.SetPhysBit(wc.bank, wc.physRow, wc.bit, 1-wc.chargedVal)
		m.totalFlips++
		m.epochFlips++
	}
	wc.flipped = true
}

// OnActivate implements dram.FaultModel: activating a row restores its
// own charge (resetting pressure on its weak cells) and disturbs weak
// cells coupled to it in neighbouring rows.
func (m *Model) OnActivate(d *dram.Device, bank, physRow int, now dram.Time) {
	idx := bank*m.geom.Rows + physRow
	m.restoreRow(bank, physRow)
	for _, inf := range m.aggIdx[idx] {
		wc := inf.cell
		if wc.flipped {
			continue
		}
		w := inf.weight
		if m.params.DPDFactor > 0 && m.params.DPDFactor < 1 {
			// Data-pattern dependence: coupling is reduced when the
			// aggressor's bit in the victim's column matches the
			// victim's charged value.
			aggBit := d.PhysBit(bank, physRow, wc.bit)
			if aggBit == wc.chargedVal {
				w *= m.params.DPDFactor
			}
		}
		wc.pressure += w
		if wc.pressure >= wc.threshold {
			m.applyFlip(d, wc)
		}
	}
}

// OnRefresh implements dram.FaultModel: refreshing a row restores its
// charge and re-arms its weak cells.
func (m *Model) OnRefresh(d *dram.Device, bank, physRow int, now dram.Time) {
	m.restoreRow(bank, physRow)
}

// BatchableBankRefresh implements dram.BankRefreshFaultModel: a refresh
// sweep only zeroes per-cell pressure, touching no state any other
// model reads, so it always batches (duplicate cells restore in the
// same slot order either way).
func (m *Model) BatchableBankRefresh(bank int) bool { return true }

// OnRefreshBankBatch implements dram.BankRefreshFaultModel: identical
// to refreshing rows 0..Rows-1 in order, in O(victim rows) instead of
// Rows dispatches.
func (m *Model) OnRefreshBankBatch(d *dram.Device, bank int, now dram.Time) {
	base := bank * m.geom.Rows
	for r := 0; r < m.geom.Rows; r++ {
		if len(m.victimIdx[base+r]) > 0 {
			m.restoreRow(bank, r)
		}
	}
}

func (m *Model) restoreRow(bank, physRow int) {
	for _, wc := range m.victimIdx[bank*m.geom.Rows+physRow] {
		wc.pressure = 0
		wc.flipped = false
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

// residentCouplings returns the hammered rows (at most two) a cell
// residing in a hammered row is coupled to, in no particular order.
func (m *Model) residentCouplings(d *dram.Device, wc *weakCell, physRows []int) (cs [2]coupling, n int) {
	if p := slices.Index(physRows, wc.physRow-wc.dist); p >= 0 {
		cs[n] = coupling{p, m.effWeight(d, wc.bank, physRows[p], wc, wc.upWeight)}
		n++
	}
	if p := slices.Index(physRows, wc.physRow+wc.dist); p >= 0 {
		cs[n] = coupling{p, m.effWeight(d, wc.bank, physRows[p], wc, wc.downWeight)}
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
	for c, r := range physRows {
		for _, wc := range m.victimIdx[base+r] {
			cs, n := m.residentCouplings(d, wc, physRows)
			if n == 0 {
				continue
			}
			// Before the row's first activation (index c) the cell keeps
			// accumulating from its current pressure.
			if !wc.flipped {
				ord, at := inOrder(cs, n, 0, k)
				p := wc.pressure
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
	return h
}

// OnHammerCycle implements dram.CycleFaultModel: semantically identical
// to n per-activation OnActivate calls over the cycle, in O(coupled
// cells + pressure additions).
func (m *Model) OnHammerCycle(d *dram.Device, bank int, physRows []int, n int, start, period dram.Time) {
	k := len(physRows)
	base := bank * m.geom.Rows
	for c, r := range physRows {
		na := activationsAt(c, n, k)
		if na == 0 {
			break
		}
		for _, inf := range m.aggIdx[base+r] {
			wc := inf.cell
			if wc.flipped || slices.Index(physRows, wc.physRow) >= 0 {
				continue // flipped until restored, or resident (below)
			}
			w := m.effWeight(d, bank, r, wc, inf.weight)
			other := 2*wc.physRow - r
			po := slices.Index(physRows, other)
			if po < 0 {
				m.accumulate(d, wc, w, w, na)
				continue
			}
			if po < c {
				continue // handled from the earlier position
			}
			wo := wc.upWeight
			if other > wc.physRow {
				wo = wc.downWeight
			}
			wo = m.effWeight(d, bank, other, wc, wo)
			m.accumulate(d, wc, w, wo, na+activationsAt(po, n, k))
		}
	}
	for c, r := range physRows {
		for _, wc := range m.victimIdx[base+r] {
			cs, nc := m.residentCouplings(d, wc, physRows)
			from := 0
			if c < n {
				// Restored at the row's last activation in the burst.
				from = c + k*((n-1-c)/k)
				wc.pressure, wc.flipped = 0, false
				from++
			} else if wc.flipped {
				continue
			}
			ord, at := inOrder(cs, nc, from, k)
			p := wc.pressure
			for i := 0; i < nc && at[i] < n; i++ {
				p += ord[i].w
			}
			wc.pressure = p
		}
	}
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
	for _, inf := range m.aggIdx[base+rowA] {
		if r := inf.cell.physRow; r == rowA || r == rowB {
			return false
		}
	}
	for _, inf := range m.aggIdx[base+rowB] {
		if r := inf.cell.physRow; r == rowA || r == rowB {
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

// effWeight applies data-pattern dependence for one aggressor row. The
// result is constant for a whole batched burst of that row: no flip
// lands in a hammered row within a horizon.
func (m *Model) effWeight(d *dram.Device, bank, aggRow int, wc *weakCell, w float64) float64 {
	if m.params.DPDFactor > 0 && m.params.DPDFactor < 1 {
		if d.PhysBit(bank, aggRow, wc.bit) == wc.chargedVal {
			w *= m.params.DPDFactor
		}
	}
	return w
}

// accumulate applies n pressure additions alternating between wA and
// wB, starting with wA (pass the same weight twice for one coupled
// row). The additions replicate the per-activation float sequence
// exactly, stopping at the threshold crossing, so batched results stay
// bit-identical to the naive path.
func (m *Model) accumulate(d *dram.Device, wc *weakCell, wA, wB float64, n int) {
	p, th := wc.pressure, wc.threshold
	for ; n > 0; n -= 2 {
		p += wA
		if p >= th {
			wc.pressure = p
			m.applyFlip(d, wc)
			return
		}
		if n == 1 {
			break
		}
		p += wB
		if p >= th {
			wc.pressure = p
			m.applyFlip(d, wc)
			return
		}
	}
	wc.pressure = p
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
	wc := &weakCell{
		bank: bank, physRow: physRow, bit: bit,
		threshold: threshold, chargedVal: chargedVal & 1,
		dist: dist, upWeight: upWeight, downWeight: downWeight,
	}
	pos := [3]int{bank, physRow, bit}
	if m.seen == nil {
		m.seen = map[[3]int]bool{}
	}
	if m.seen[pos] {
		m.dup = true
	}
	m.seen[pos] = true
	m.addCell(wc)
}

// WeakCellCount returns the number of disturbable cells sampled.
func (m *Model) WeakCellCount() int { return len(m.cells) }

// TotalFlips returns the number of disturbance flips applied since
// construction (or the last ResetCounters).
func (m *Model) TotalFlips() int64 { return m.totalFlips }

// ResetCounters zeroes the flip counters without touching cell state.
func (m *Model) ResetCounters() { m.totalFlips, m.epochFlips = 0, 0 }

// MinThreshold returns the smallest sampled cell threshold, i.e. the
// minimum single-sided activation count that can flip any bit on this
// device, or +Inf if the device has no weak cells.
func (m *Model) MinThreshold() float64 { return m.minThreshold }

// VictimRows returns the distinct (bank, physical row) pairs that
// contain weak cells, for test instrumentation, in (bank, row) order.
func (m *Model) VictimRows() [][2]int {
	var out [][2]int
	for idx, cells := range m.victimIdx {
		if len(cells) > 0 {
			out = append(out, [2]int{idx / m.geom.Rows, idx % m.geom.Rows})
		}
	}
	return out
}

// CellsInRow returns the number of weak cells in a victim row.
func (m *Model) CellsInRow(bank, physRow int) int {
	return len(m.victimIdx[bank*m.geom.Rows+physRow])
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
