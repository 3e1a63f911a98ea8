// Package retention implements the DRAM data-retention fault model:
// each cell's charge leaks over time and decays to the cell's
// discharged value if the cell is not refreshed within the cell's
// individual retention time. The model reproduces the three phenomena
// the paper identifies as the reason retention testing is
// fundamentally hard:
//
//   - A heavy-tailed distribution of per-cell retention times, with a
//     small weak tail near the refresh window.
//   - Data-pattern dependence (DPD): a weak cell's retention time
//     drops when neighbouring rows hold adversarial data, so a
//     profiling pass with the wrong pattern misses the cell.
//   - Variable retention time (VRT): some cells toggle between a
//     high-retention and a low-retention state under a memoryless
//     (exponential-dwell) random process, so no finite profiling
//     campaign can guarantee observing the low state.
//
// Decay is evaluated lazily: whenever a row's charge is restored
// (activation or refresh), the model first checks which of the row's
// weak cells expired during the elapsed interval and discharges them;
// the restore then locks in the wrong value, exactly as a real sense
// amplifier would.
//
// The hot path is the same shape as the disturbance model's: the weak
// cells' physics live in one slice sorted by (bank, physRow), and an
// offset array keyed by bank*Rows+physRow turns a row's cells into a
// contiguous range, so a restore of a row holding no weak cells — the
// overwhelmingly common case — costs two slice loads instead of a map
// probe. The physics never change once drawn: models built from one
// population memo entry share them, and each owns only its cells' VRT
// states. The model also implements dram.BankRefreshFaultModel, letting
// the device apply a whole-bank refresh storm (profiling passes,
// multi-rate refresh sweeps) in one call that visits only weak rows;
// batched application is bit-identical to the per-row path. The seed's
// map-indexed implementation is retained in reference_test.go as the
// equivalence oracle.
package retention

import (
	"math"

	"repro/internal/dram"
	"repro/internal/rng"
)

// Params calibrates the retention behaviour of one device.
type Params struct {
	// WeakFraction is the fraction of cells with retention time inside
	// the modelled window (the rest retain for effectively forever at
	// the timescales simulated).
	WeakFraction float64
	// MedianSec/Sigma parameterize the lognormal distribution of weak
	// cell retention times, in seconds.
	MedianSec float64
	Sigma     float64
	// MinSec floors sampled retention times. Manufacturers screen
	// cells that fail at the nominal 64 ms window, so the floor sits
	// just above it.
	MinSec float64
	// DPDFraction is the fraction of weak cells that are data-pattern
	// dependent; DPDReduction multiplies their retention time when a
	// physically adjacent row holds the cell's anti-charge value in
	// the same column.
	DPDFraction  float64
	DPDReduction float64
	// VRTFraction is the fraction of weak cells exhibiting variable
	// retention time; VRTRatio multiplies retention in the long state;
	// VRTDwellSec is the mean exponential dwell time in the short
	// (leaky) state. VRTLongDwellSec, when non-zero, sets a different
	// mean dwell for the long state — real VRT cells spend most of
	// their time retentive, which is exactly why testing misses them.
	// Zero means symmetric dwell.
	VRTFraction     float64
	VRTRatio        float64
	VRTDwellSec     float64
	VRTLongDwellSec float64
	// TemperatureC scales all retention times by the classic
	// halving-per-10-degrees rule around 45 C.
	TemperatureC float64
}

// DefaultParams returns retention behaviour typical of the modern
// chips characterized in the ISCA 2013 study: a sparse weak tail, a
// third of weak cells DPD-sensitive, and a small VRT population.
func DefaultParams() Params {
	return Params{
		WeakFraction: 2e-5,
		MedianSec:    2.0,
		Sigma:        0.8,
		MinSec:       0.07,
		DPDFraction:  0.35,
		DPDReduction: 0.45,
		VRTFraction:  0.15,
		VRTRatio:     6.0,
		VRTDwellSec:  30,
		TemperatureC: 45,
	}
}

// tempScale returns the retention-time multiplier of the configured
// temperature: halve per 10 degrees above 45 C.
func (p Params) tempScale() float64 {
	return math.Pow(2, -(p.TemperatureC-45)/10)
}

type weakCell struct {
	bank, physRow, bit int
	baseSec            float64
	chargedVal         uint64
	dpd                bool
	vrt                bool
	vrtLong            bool      // current VRT state
	vrtNext            dram.Time // next state toggle
}

// samplePopulation draws the weak-cell population for a device of the
// given geometry, in draw order. The draw sequence is deterministic
// given the stream and shared between Model and the test-only
// Reference so both see the identical population.
//
// A position collision (two draws landing on one (bank,row,bit))
// resamples the location until it is free, keeping the already sampled
// physics: a cell has one set of physics, and silently dropping the
// colliding draw — the seed behaviour — undercounted the weak-cell
// population below the Binomial draw n. No-collision draws consume the
// exact legacy stream, so populations are unchanged wherever
// collisions cannot occur.
func samplePopulation(geom dram.Geometry, p Params, src *rng.Stream) []weakCell {
	if p.WeakFraction <= 0 {
		return nil
	}
	n := src.Binomial(geom.TotalCells(), p.WeakFraction)
	bitsPerRow := geom.BitsPerRow()
	mu := math.Log(p.MedianSec)
	cells := make([]weakCell, n)
	// seen holds the flat bit position (bank*Rows+physRow)*bitsPerRow+bit
	// of every placed cell.
	seen := make(map[int64]bool, n)
	flat := func(wc *weakCell) int64 {
		return int64(wc.bank*geom.Rows+wc.physRow)*int64(bitsPerRow) + int64(wc.bit)
	}
	for i := range cells {
		wc := &cells[i]
		*wc = weakCell{
			bank:    src.Intn(geom.Banks),
			physRow: src.Intn(geom.Rows),
			bit:     src.Intn(bitsPerRow),
			baseSec: math.Max(p.MinSec, src.LogNormal(mu, p.Sigma)),
			dpd:     src.Bool(p.DPDFraction),
			vrt:     src.Bool(p.VRTFraction),
		}
		pos := flat(wc)
		for seen[pos] {
			wc.bank = src.Intn(geom.Banks)
			wc.physRow = src.Intn(geom.Rows)
			wc.bit = src.Intn(bitsPerRow)
			pos = flat(wc)
		}
		seen[pos] = true
		if src.Bool(0.5) {
			wc.chargedVal = 1
		}
		if wc.vrt {
			// Start in the stationary distribution of the two-state
			// process.
			long := p.VRTLongDwellSec
			if long <= 0 {
				long = p.VRTDwellSec
			}
			wc.vrtLong = src.Bool(long / (long + p.VRTDwellSec))
			wc.vrtNext = secToTime(src.Exponential(dwellFor(p, wc.vrtLong)))
		}
	}
	return cells
}

// Model is a dram.FaultModel implementing retention decay. Its weak
// cells are a population (see population.go) plus vrt, each slot's VRT
// state, which only this model writes.
type Model struct {
	params Params
	geom   dram.Geometry
	// population is rebuilt from the spec; LoadState checks it.
	population `snapshot:"config"`
	vrt        []vrtState
	src        *rng.Stream
	decays     int64
	tempScale  float64 `snapshot:"derived"` // recomputed from Params at construction
}

var (
	_ dram.FaultModel            = (*Model)(nil)
	_ dram.HammerFaultModel      = (*Model)(nil)
	_ dram.CycleFaultModel       = (*Model)(nil)
	_ dram.BankRefreshFaultModel = (*Model)(nil)
)

// NewModel samples the weak-cell population for the given geometry. A
// population already drawn in this process from the same geometry,
// params and stream state is shared from the population memo instead,
// and src is left where the draw would have left it.
func NewModel(geom dram.Geometry, p Params, src *rng.Stream) *Model {
	return newModel(populations, geom, p, src)
}

func secToTime(s float64) dram.Time {
	return dram.Time(s * float64(dram.Second))
}

// timeToSec converts simulated time to seconds.
func timeToSec(t dram.Time) float64 { return float64(t) / float64(dram.Second) }

// Name implements dram.FaultModel.
func (m *Model) Name() string { return "retention" }

// OnActivate implements dram.FaultModel.
func (m *Model) OnActivate(d *dram.Device, bank, physRow int, now dram.Time) {
	m.applyDecay(d, bank, physRow, now)
}

// OnRefresh implements dram.FaultModel.
func (m *Model) OnRefresh(d *dram.Device, bank, physRow int, now dram.Time) {
	m.applyDecay(d, bank, physRow, now)
}

// --- Batched hammer dispatch (dram.CycleFaultModel) ---
//
// Within a hammer cycle's horizon the retention model does nothing:
// the horizon ends before any activation of a hammered row that could
// decay one of its weak cells or advance a VRT cell's state (which
// draws from the model's shared stream, so the draw order across cells
// must stay that of the per-activation path). Applying a chunk is then
// a no-op, and the device advances the restore clocks.

// HammerHorizon implements dram.CycleFaultModel: 0 while a hammered
// row with weak cells could decay at its next activation, otherwise the
// number of activations until the first one that could decay a cell or
// passes a VRT cell's next toggle. It reasons on the schedule
// start+i*period; a cycle that spans a REF (a dram.Gap) runs its later
// activations earlier, never later, and keeps a row's activations at
// most one round apart, so elapsed times only shrink and toggles are
// passed no sooner, and the horizon stays a lower bound.
func (m *Model) HammerHorizon(d *dram.Device, bank int, physRows []int, start, period dram.Time) int {
	k := len(physRows)
	h := math.MaxInt
	round := dram.Time(k) * period
	for i, r := range physRows {
		lo, hi := m.resident(bank*m.geom.Rows + r)
		if lo == hi {
			continue
		}
		// The row's first activation sees the gap since its last
		// restore (none if the clock does not advance); every later one
		// sees one round.
		first := start + dram.Time(i)*period
		last := d.LastRestore(bank, r)
		for s := lo; s < hi; s++ {
			c, v := &m.cells[s], &m.vrt[s]
			ret := m.minRetention(c, v)
			if first > last && (timeToSec(first-last) > ret || c.vrt && v.next < first) {
				return min(h, i)
			}
			if round == 0 {
				continue
			}
			if timeToSec(round) > ret {
				h = min(h, i+k)
			}
			if c.vrt {
				// Rounds until the activation past the toggle, clamped
				// so that i+k*rounds fits an int on 32-bit targets.
				rounds := dram.Time(1)
				if v.next >= first {
					rounds = min((v.next-first)/round, dram.Time(math.MaxInt-i)/dram.Time(k)-1) + 1
				}
				h = min(h, i+k*int(rounds))
			}
		}
	}
	return h
}

// minRetention returns a lower bound on the cell's retention time while
// its VRT state holds: the data-pattern reduction is taken as engaged,
// whatever the neighbours store.
func (m *Model) minRetention(c *cell, v *vrtState) float64 {
	ret := c.baseSec * m.tempScale
	if c.vrt && v.long {
		ret *= m.params.VRTRatio
	}
	if c.dpd {
		ret = math.Min(ret, ret*m.params.DPDReduction)
	}
	return ret
}

// OnHammerCycle implements dram.CycleFaultModel. Only invoked within
// the horizon, where the activations decay nothing and draw nothing.
func (m *Model) OnHammerCycle(d *dram.Device, bank int, physRows []int, n int, start, period dram.Time) {
}

// RefreshReach implements dram.CycleFaultModel. A refresh decays cells
// of its own row by the data of the rows next to it, and an activation
// those of the activated row by its neighbours' data, so the reach is 1
// — unless the refresh advances a VRT cell's state, which draws from
// the model's stream that activations of any row may draw from too.
func (m *Model) RefreshReach(d *dram.Device, bank, physRow int, now dram.Time) int {
	lo, hi := m.resident(bank*m.geom.Rows + physRow)
	if lo == hi || now <= d.LastRestore(bank, physRow) {
		return 1
	}
	for s := lo; s < hi; s++ {
		if m.cells[s].vrt && m.vrt[s].next < now {
			return -1
		}
	}
	return 1
}

// --- Legacy batched dispatch (dram.HammerFaultModel) ---
//
// The device dispatches through CycleFaultModel. These methods remain
// for wrappers that forward the older interface: rows holding none of
// the model's weak cells batch, where every activation is a no-op.

// BatchableRow implements dram.HammerFaultModel.
func (m *Model) BatchableRow(bank, physRow int) bool {
	lo, hi := m.resident(bank*m.geom.Rows + physRow)
	return lo == hi
}

// OnActivateBatch implements dram.HammerFaultModel. Only invoked for
// rows BatchableRow accepted, where n activations decay nothing.
func (m *Model) OnActivateBatch(d *dram.Device, bank, physRow, n int, start, period dram.Time) {
}

// BatchablePair implements dram.HammerFaultModel.
func (m *Model) BatchablePair(bank, rowA, rowB int) bool {
	return m.BatchableRow(bank, rowA) && m.BatchableRow(bank, rowB)
}

// OnHammerPairBatch implements dram.HammerFaultModel. Only invoked for
// row pairs BatchablePair accepted, where the burst decays nothing.
func (m *Model) OnHammerPairBatch(d *dram.Device, bank, rowA, rowB, n int, start, period dram.Time) {
}

// --- Batched refresh dispatch (dram.BankRefreshFaultModel) ---

// BatchableBankRefresh implements dram.BankRefreshFaultModel. The
// batched sweep visits rows in the same ascending order with the same
// VRT draw sequence as the per-row loop, and no other model's
// OnRefresh mutates the cell bits decay reads, so sweeps always batch.
func (m *Model) BatchableBankRefresh(bank int) bool { return true }

// OnRefreshBankBatch implements dram.BankRefreshFaultModel: identical
// to refreshing rows 0..Rows-1 in order, in O(weak rows) instead of
// Rows dispatches — the hot path of profiling passes and refresh
// storms, where almost every row holds no weak cell. The bank's cells
// are sorted by row, so walking its slot range visits each weak row's
// cells in one step, in ascending row order.
func (m *Model) OnRefreshBankBatch(d *dram.Device, bank int, now dram.Time) {
	base := bank * m.geom.Rows
	for lo, end := m.rowStart[base], m.rowStart[base+m.geom.Rows]; lo < end; {
		r := int(m.cells[lo].physRow)
		hi := m.rowStart[base+r+1]
		m.decayRow(d, bank, r, lo, hi, now)
		lo = hi
	}
}

func (m *Model) applyDecay(d *dram.Device, bank, physRow int, now dram.Time) {
	lo, hi := m.resident(bank*m.geom.Rows + physRow)
	if lo == hi {
		return
	}
	m.decayRow(d, bank, physRow, lo, hi, now)
}

// decayRow applies pending decay to one row's weak cells. The caller
// guarantees [lo, hi) is the row's (non-empty) slot range.
func (m *Model) decayRow(d *dram.Device, bank, physRow int, lo, hi int32, now dram.Time) {
	last := d.LastRestore(bank, physRow)
	if now <= last {
		return
	}
	elapsed := timeToSec(now - last)
	for s := lo; s < hi; s++ {
		c := &m.cells[s]
		ret := c.baseSec * m.tempScale
		if c.vrt {
			v := &m.vrt[s]
			m.advanceVRT(v, now)
			if v.long {
				ret *= m.params.VRTRatio
			}
		}
		if c.dpd && m.neighborAdversarial(d, c) {
			ret *= m.params.DPDReduction
		}
		charged := uint64(c.chargedVal)
		if elapsed > ret && d.PhysBit(bank, physRow, int(c.bit)) == charged {
			d.SetPhysBit(bank, physRow, int(c.bit), 1-charged)
			m.decays++
		}
	}
}

// dwellFor returns the mean dwell of the given VRT state.
func dwellFor(p Params, long bool) float64 {
	if long && p.VRTLongDwellSec > 0 {
		return p.VRTLongDwellSec
	}
	return p.VRTDwellSec
}

// advanceVRT lazily evolves the two-state VRT process up to time now.
// Dwell times are exponential, so the process is memoryless and the
// per-toggle sampling order keeps the simulation deterministic.
func (m *Model) advanceVRT(v *vrtState, now dram.Time) {
	for v.next < now {
		v.long = !v.long
		v.next += secToTime(m.src.Exponential(dwellFor(m.params, v.long)))
	}
}

// neighborAdversarial reports whether either physically adjacent row
// holds the cell's discharged value in the same column, the condition
// under which coupling shortens retention.
func (m *Model) neighborAdversarial(d *dram.Device, c *cell) bool {
	for _, nr := range []int{int(c.physRow) - 1, int(c.physRow) + 1} {
		if nr < 0 || nr >= m.geom.Rows {
			continue
		}
		if d.PhysBit(int(c.bank), nr, int(c.bit)) != uint64(c.chargedVal) {
			return true
		}
	}
	return false
}

// WeakCellCount returns the number of weak cells sampled.
func (m *Model) WeakCellCount() int { return len(m.cells) }

// Decays returns the number of decay events applied.
func (m *Model) Decays() int64 { return m.decays }

// CellInfo describes one weak cell for profiling-coverage experiments.
type CellInfo struct {
	Bank, PhysRow, Bit int
	BaseSec            float64
	ChargedVal         uint64
	DPD                bool
	VRT                bool
}

// Cells enumerates the weak-cell population (ground truth available to
// experiments but, by construction, not to the profiling engine).
func (m *Model) Cells() []CellInfo {
	out := make([]CellInfo, 0, len(m.cells))
	for _, slot := range m.order {
		c := &m.cells[slot]
		out = append(out, CellInfo{
			Bank: int(c.bank), PhysRow: int(c.physRow), Bit: int(c.bit),
			BaseSec: c.baseSec, ChargedVal: uint64(c.chargedVal),
			DPD: c.dpd, VRT: c.vrt,
		})
	}
	return out
}

// FractionFailingAt returns the expected fraction of all cells that
// decay within a refresh interval of t seconds under worst-case data
// pattern, the analytic form used by fleet-scale experiments.
//
// It applies the same two transformations the simulation applies to
// every sampled retention time — the temperature scale (halve per 10 C
// above 45 C) and the MinSec screening floor — so the analytic fleet
// prediction agrees with Monte Carlo at every temperature and near the
// floor (TestFractionFailingAtMatchesSimulation pins the agreement at
// 30/45/60 C).
func (p Params) FractionFailingAt(tSec float64) float64 {
	if p.WeakFraction <= 0 || tSec <= 0 {
		return 0
	}
	scale := p.tempScale()
	mu := math.Log(p.MedianSec)
	// A cell of sampled base retention X fails the interval iff
	// max(MinSec, X) * tempScale * reduction < t; the floor collapses
	// the distribution's lower tail onto an atom at MinSec, which
	// fails only once the cutoff clears the floor.
	cdfAt := func(reduction float64) float64 {
		y := tSec / (scale * reduction)
		if y <= p.MinSec {
			return 0
		}
		return logNormalCDF(y, mu, p.Sigma)
	}
	// Worst-case pattern engages DPD for DPD cells, shortening their
	// effective retention by DPDReduction; mix the two CDFs.
	frac := (1-p.DPDFraction)*cdfAt(1) + p.DPDFraction*cdfAt(p.DPDReduction)
	return p.WeakFraction * frac
}

func logNormalCDF(x, mu, sigma float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * (1 + math.Erf((math.Log(x)-mu)/(sigma*math.Sqrt2)))
}
