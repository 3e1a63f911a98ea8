// Package flash models MLC NAND flash memory in the threshold-voltage
// domain, at the level of detail the paper's five flash claims need:
//
//   - Four states per cell (ER, P1, P2, P3) with Gray-coded LSB/MSB
//     pages sharing each wordline, programmed as Gaussian threshold
//     voltage distributions.
//   - Program/erase wear: distributions widen with P/E cycles.
//   - Retention loss: cell voltage drifts down over time, faster for
//     worn cells and higher states, with wide per-cell variation in
//     leakiness (the basis of Retention Failure Recovery).
//   - Read disturb: every page read weakly programs the whole block,
//     pushing low states up, with wide per-cell susceptibility
//     variation (the DSN 2015 characterization).
//   - Program interference: programming a wordline couples voltage
//     onto the previous wordline's cells (the basis of neighbor-cell
//     assisted correction).
//   - Two-step programming: the LSB is programmed first to a
//     temporary intermediate state; the MSB program internally reads
//     that intermediate state back, so disturbance of the
//     intermediate value corrupts the final cell (the HPCA 2017
//     vulnerability).
//
// Reads are deterministic given the physics state; all randomness is
// injected at construction and programming time from an explicit
// stream, so experiments replay exactly.
//
// Block is the word-parallel production implementation. Every read is
// one sense rule: a page bit is set when the cell's sensed voltage,
// rounded to float32 as the chip stores it, lies outside a reference
// interval [lo, hi). The LSB page senses [R12, +Inf), the MSB page
// [R01, R23), and the second step of two-step programming re-reads
// the intermediate LSB through the same rule against
// [float32(RInt), +Inf) without counting a page read. Senses and
// programs sweep 64 cells per packed word, and all per-wordline
// physics terms (wear factor, read-disturb scale, retention logarithm,
// programming sigma) are hoisted out of the per-cell loop. When read
// disturb and retention are both active one kernel senses the
// wordline: SSE2 assembly on amd64 (sense_amd64.s), a portable scalar
// loop elsewhere (sense_generic.go). The ReadLSBInto/ReadMSBInto
// variants plus block-owned scratch make the FTL lifetime loops
// allocation-free in steady state. Reference, in reference_test.go,
// is the seed cell-at-a-time implementation kept verbatim as the
// test-only equivalence oracle; equiv_test.go pins the two
// bit-identical — same page bits, voltages, counters and RNG
// consumption — under mixed command sequences at seeds 1 and 5. Every
// arithmetic hoist here preserves the Reference's evaluation order
// exactly (the factors are pre-associated, never re-associated), which
// is what makes bit-equality achievable in floating point.
package flash

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/rng"
)

// State is an MLC cell state, ordered by threshold voltage.
type State int

// The four MLC states.
const (
	ER State = iota // erased, lowest voltage
	P1
	P2
	P3
)

// Gray code mapping between states and (LSB, MSB) page bits, matching
// the two-step programming order of real MLC parts:
// ER=(1,1), P1=(1,0), P2=(0,0), P3=(0,1).
//
// The LSB partitions the voltage axis once (ER,P1 vs P2,P3), which is
// what lets the first programming step place LSB=0 cells at a single
// intermediate distribution between P1 and P2; the MSB step then moves
// every cell monotonically upward to its final state.
var (
	lsbOf = [4]uint64{1, 1, 0, 0}
	msbOf = [4]uint64{1, 0, 0, 1}
)

// StateOf returns the state encoding the given (lsb, msb) bit pair.
func StateOf(lsb, msb uint64) State {
	switch {
	case lsb == 1 && msb == 1:
		return ER
	case lsb == 1 && msb == 0:
		return P1
	case lsb == 0 && msb == 0:
		return P2
	default:
		return P3
	}
}

// Params calibrates the cell physics. Voltages are normalized volts.
type Params struct {
	// Means are the nominal state distribution centers.
	Means [4]float64
	// Sigma0 is the fresh programming noise; WearCoef widens it:
	// sigma = Sigma0 * (1 + WearCoef*(PE/PENorm)^0.6).
	Sigma0   float64
	WearCoef float64
	PENorm   float64
	// RetCoef scales retention drift:
	// shift = RetCoef * leak_i * (1+PE/PENorm) * ln(1+t/RetT0Hours) * level.
	RetCoef    float64
	RetT0Hours float64
	LeakSigma  float64 // lognormal sigma of per-cell leakiness
	// RDCoef scales read disturb:
	// shift = RDCoef * sus_i * reads * (1+PE/PENorm) * erLevel.
	RDCoef  float64
	RDSigma float64 // lognormal sigma of per-cell susceptibility
	// Gamma scales inter-wordline program interference; CoupSigma is
	// the per-cell coupling variation.
	Gamma     float64
	CoupSigma float64
	// IntMean/IntSigma place the two-step intermediate distribution.
	IntMean  float64
	IntSigma float64
}

// DefaultParams returns a 2x-nm-class MLC calibration.
func DefaultParams() Params {
	return Params{
		Means:      [4]float64{-2.0, 1.0, 2.0, 3.0},
		Sigma0:     0.13,
		WearCoef:   0.45,
		PENorm:     10000,
		RetCoef:    0.002,
		RetT0Hours: 1,
		LeakSigma:  0.5,
		RDCoef:     1.5e-6,
		RDSigma:    0.7,
		Gamma:      0.02,
		CoupSigma:  0.4,
		IntMean:    1.4,
		IntSigma:   0.22,
	}
}

// ReadRefs are the three read reference voltages plus the internal
// reference used by the second programming step. Offsets shift them.
type ReadRefs struct {
	R01, R12, R23 float64
	RInt          float64
}

// NominalRefs derives mid-gap references from the parameters.
func (p Params) NominalRefs() ReadRefs {
	return ReadRefs{
		R01:  (p.Means[0] + p.Means[1]) / 2,
		R12:  (p.Means[1] + p.Means[2]) / 2,
		R23:  (p.Means[2] + p.Means[3]) / 2,
		RInt: (p.Means[0] + p.IntMean) / 2,
	}
}

// Shifted returns refs offset by the given amounts (RFR/NAC use this).
func (r ReadRefs) Shifted(d01, d12, d23 float64) ReadRefs {
	return ReadRefs{R01: r.R01 + d01, R12: r.R12 + d12, R23: r.R23 + d23, RInt: r.RInt}
}

// wlState tracks a wordline's programming progress.
type wlState int

const (
	wlErased wlState = iota
	wlLSBOnly
	wlFull
)

// Block is one NAND block: WLs wordlines of Cells cells each; each
// wordline exposes an LSB page and an MSB page. This is the
// word-parallel implementation; the test-only Reference is the seed
// original it is proven bit-identical to.
type Block struct {
	p     Params
	WLs   int
	Cells int // must be a multiple of 64

	pe         int
	reads      int64
	clockHours float64

	v        [][]float32 // programmed voltage incl. interference
	state    []wlState
	progHour []float64 // per WL, hour of (last) program
	readBase []int64   // block read count at WL program time

	truthLSB [][]uint64
	truthMSB [][]uint64

	// Static per-cell physics factors, index wl*Cells+c.
	leak  []float32
	rdSus []float32
	coup  []float32

	// Pre-associated per-cell leading factor pairs of the disturb and
	// retention chains: rdStatic = RDCoef*rdSus_i and retStatic =
	// RetCoef*leak_i. The Reference evaluates its chains left to
	// right, so its first multiplication is exactly this product —
	// precomputing it (and nothing beyond it) keeps every later
	// multiply in the original order and the results bit-identical.
	rdStatic  []float64
	retStatic []float64

	// Scratch reused across calls so programming and RBER probes are
	// allocation-free in steady state (arena-style: owned by the
	// block, never retained past the call that fills it).
	rise []float32
	pg   []uint64

	// Sense cache. A cell's stored voltage only changes at erase,
	// program, or neighbour-interference time, so the float64 widening
	// and the erased-level division (Means[3]-v)/span that every read
	// performs are memoized per cell and rebuilt lazily per wordline
	// (vDirty). The retention chain's leading product
	// (retStatic*wf)*logTerm depends only on (pe, clockHours,
	// progHour[w]); retWL caches it per wordline under that key. The
	// cached values come from exactly the operations the Reference
	// performs, so reads through the cache stay bit-identical.
	vq     []float64
	erLvl  []float64
	retWL  []float64
	vDirty []bool
	retPE  []int
	retClk []float64
	retPrg []float64

	src *rng.Stream
}

// markDirty invalidates wordline w's cached sense terms after a
// voltage write.
func (b *Block) markDirty(w int) { b.vDirty[w] = true }

// senseWL returns wordline w's cached float64 voltages and erased
// levels, rebuilding them if a write invalidated the cache.
func (b *Block) senseWL(w int) (vq, erLvl []float64) {
	off := w * b.Cells
	vq = b.vq[off : off+b.Cells]
	erLvl = b.erLvl[off : off+b.Cells]
	if b.vDirty[w] {
		vw := b.v[w]
		m3 := b.p.Means[3]
		span := m3 - b.p.Means[0]
		for c, f := range vw {
			v := float64(f)
			vq[c] = v
			erLvl[c] = (m3 - v) / span
		}
		b.vDirty[w] = false
	}
	return vq, erLvl
}

// retentionWL returns wordline w's cached (retStatic*wf)*logTerm
// products, rebuilding them when wear or the retention age changed.
// wf and logTerm must be the values derived from the block's current
// pe, clockHours and progHour[w] — the cache key.
func (b *Block) retentionWL(w int, wf, logTerm float64) []float64 {
	off := w * b.Cells
	ret := b.retWL[off : off+b.Cells]
	if b.retPE[w] != b.pe || b.retClk[w] != b.clockHours || b.retPrg[w] != b.progHour[w] {
		rs := b.retStatic[off : off+b.Cells]
		for c := range ret {
			ret[c] = rs[c] * wf * logTerm
		}
		b.retPE[w], b.retClk[w], b.retPrg[w] = b.pe, b.clockHours, b.progHour[w]
	}
	return ret
}

// NewBlock builds an erased block. Cells must be a multiple of 64.
// The RNG consumption (per cell: leak, read-disturb susceptibility,
// coupling, then the manufacturing erase) matches NewReference draw
// for draw.
func NewBlock(p Params, wls, cells int, src *rng.Stream) *Block {
	if cells%64 != 0 || cells <= 0 || wls <= 0 {
		panic(fmt.Sprintf("flash: invalid block geometry %dx%d", wls, cells))
	}
	b := &Block{p: p, WLs: wls, Cells: cells, src: src}
	n := wls * cells
	b.leak = make([]float32, n)
	b.rdSus = make([]float32, n)
	b.coup = make([]float32, n)
	for i := 0; i < n; i++ {
		b.leak[i] = float32(src.LogNormal(0, p.LeakSigma))
		b.rdSus[i] = float32(src.LogNormal(0, p.RDSigma))
		b.coup[i] = float32(src.LogNormal(0, p.CoupSigma))
	}
	b.rdStatic = make([]float64, n)
	b.retStatic = make([]float64, n)
	for i := 0; i < n; i++ {
		b.rdStatic[i] = p.RDCoef * float64(b.rdSus[i])
		b.retStatic[i] = p.RetCoef * float64(b.leak[i])
	}
	b.v = make([][]float32, wls)
	b.truthLSB = make([][]uint64, wls)
	b.truthMSB = make([][]uint64, wls)
	for w := 0; w < wls; w++ {
		b.v[w] = make([]float32, cells)
		b.truthLSB[w] = make([]uint64, cells/64)
		b.truthMSB[w] = make([]uint64, cells/64)
	}
	b.state = make([]wlState, wls)
	b.progHour = make([]float64, wls)
	b.readBase = make([]int64, wls)
	b.rise = make([]float32, cells)
	b.pg = make([]uint64, cells/64)
	b.vq = make([]float64, n)
	b.erLvl = make([]float64, n)
	b.retWL = make([]float64, n)
	b.vDirty = make([]bool, wls)
	b.retPE = make([]int, wls)
	b.retClk = make([]float64, wls)
	b.retPrg = make([]float64, wls)
	for w := 0; w < wls; w++ {
		b.retClk[w] = math.NaN() // never matches: forces first build
	}
	b.pe = -1 // the initial erase is manufacturing, not wear
	b.Erase()
	return b
}

// PE returns the block's program/erase cycle count.
func (b *Block) PE() int { return b.pe }

// Reads returns the block's cumulative page read count.
func (b *Block) Reads() int64 { return b.reads }

// sigma returns the current programming noise.
func (b *Block) sigma(base float64) float64 {
	return base * (1 + b.p.WearCoef*math.Pow(float64(b.pe)/b.p.PENorm, 0.6))
}

// wearFactor scales time- and read-dependent drift with wear.
func (b *Block) wearFactor() float64 { return 1 + float64(b.pe)/b.p.PENorm }

// Erase resets every cell to the erased distribution and increments
// the P/E count. The noise sigma depends only on the (just
// incremented) P/E count, so it is computed once per erase rather
// than once per cell.
func (b *Block) Erase() {
	b.pe++
	sg := b.sigma(b.p.Sigma0)
	mean := b.p.Means[ER]
	for w := 0; w < b.WLs; w++ {
		vw := b.v[w]
		for c := range vw {
			vw[c] = float32(b.src.Normal(mean, sg))
		}
		b.state[w] = wlErased
		for i := range b.truthLSB[w] {
			b.truthLSB[w][i] = ^uint64(0)
			b.truthMSB[w][i] = ^uint64(0)
		}
		b.progHour[w] = b.clockHours
		b.readBase[w] = b.reads
		b.markDirty(w)
	}
}

// AdvanceHours moves the block's clock forward (retention ages data).
func (b *Block) AdvanceHours(h float64) {
	if h < 0 {
		panic("flash: negative time advance")
	}
	b.clockHours += h
}

// interfere applies program interference from wordline w onto w-1:
// each aggressor cell's voltage rise couples onto the victim cell at
// the same column.
func (b *Block) interfere(w int, rise []float32) {
	if w == 0 {
		return
	}
	vw := b.v[w-1]
	gamma := float32(b.p.Gamma)
	coup := b.coup[(w-1)*b.Cells : w*b.Cells]
	for c := 0; c < b.Cells; c++ {
		if rise[c] > 0 {
			vw[c] += gamma * coup[c] * rise[c]
		}
	}
	b.markDirty(w - 1)
}

// ProgramFull programs both pages of an erased wordline in one step
// (full-sequence programming; no intermediate-state vulnerability).
func (b *Block) ProgramFull(w int, lsb, msb []uint64) {
	b.checkPages(w, lsb, msb)
	if b.state[w] != wlErased {
		panic("flash: ProgramFull on non-erased wordline")
	}
	b.programStates(w, lsb, msb)
	copy(b.truthLSB[w], lsb)
	copy(b.truthMSB[w], msb)
	b.finishProgram(w, wlFull)
}

// programStates moves every cell of wordline w to the state its
// (lsb, msb) bit pair encodes, then couples the voltage rise onto
// wordline w-1. The sweep walks the packed pages word-at-a-time,
// drawing programming noise only for cells leaving ER — the same
// per-cell draw order as the Reference.
func (b *Block) programStates(w int, lsb, msb []uint64) {
	rise := b.rise
	sg := b.sigma(b.p.Sigma0)
	vw := b.v[w]
	for wi := range msb {
		lw, mw := lsb[wi], msb[wi]
		base := wi * 64
		for bit := 0; bit < 64; bit++ {
			c := base + bit
			before := vw[c]
			s := StateOf((lw>>uint(bit))&1, (mw>>uint(bit))&1)
			if s != ER {
				target := float32(b.src.Normal(b.p.Means[s], sg))
				if target > vw[c] {
					vw[c] = target
				}
			}
			rise[c] = vw[c] - before
		}
	}
	b.interfere(w, rise)
}

// finishProgram moves wordline w to state st after a program step.
// Each step verifies placement, so the wordline's retention clock and
// read-disturb count restart.
func (b *Block) finishProgram(w int, st wlState) {
	b.state[w] = st
	b.progHour[w] = b.clockHours
	b.readBase[w] = b.reads
	b.markDirty(w)
}

// ProgramLSB performs the first step of two-step programming: cells
// whose LSB is 0 move to the intermediate distribution.
func (b *Block) ProgramLSB(w int, lsb []uint64) {
	b.checkPage(w, lsb)
	if b.state[w] != wlErased {
		panic("flash: ProgramLSB on non-erased wordline")
	}
	rise := b.rise
	sg := b.sigma(b.p.IntSigma)
	vw := b.v[w]
	for wi := range lsb {
		lw := lsb[wi]
		base := wi * 64
		for bit := 0; bit < 64; bit++ {
			c := base + bit
			before := vw[c]
			if (lw>>uint(bit))&1 == 0 {
				target := float32(b.src.Normal(b.p.IntMean, sg))
				if target > vw[c] {
					vw[c] = target
				}
			}
			rise[c] = vw[c] - before
		}
	}
	copy(b.truthLSB[w], lsb)
	b.finishProgram(w, wlLSBOnly)
	b.interfere(w, rise)
}

// ProgramMSB performs the second step. The chip internally reads the
// intermediate state against refs.RInt to recover the stored LSB; if
// disturbance moved the intermediate value across RInt, the recovered
// LSB is wrong and the cell lands in the wrong final state — this is
// the two-step vulnerability. If bufferedLSB is non-nil the controller
// supplies the true LSB (the HPCA 2017 mitigation) and the internal
// read is skipped. The internal read is an ordinary sense that counts
// no page read.
func (b *Block) ProgramMSB(w int, msb []uint64, refs ReadRefs, bufferedLSB []uint64) {
	b.checkPage(w, msb)
	if b.state[w] != wlLSBOnly {
		panic("flash: ProgramMSB requires an LSB-programmed wordline")
	}
	lsb := bufferedLSB
	if lsb == nil {
		// The chip compares the sensed float32 voltage with a float32
		// reference, so RInt rounded to float32 is the exact threshold.
		lsb = b.pg
		b.sense(w, float64(float32(refs.RInt)), math.Inf(1), lsb)
	}
	b.programStates(w, lsb, msb)
	copy(b.truthMSB[w], msb)
	b.finishProgram(w, wlFull)
}

// ReadLSBInto reads the LSB page of a wordline into out, which must
// be a page-sized buffer; it returns out. Under the Gray mapping the
// LSB is 1 for states below R12. Every read disturbs the block. It
// performs no allocation — the zero-alloc building block of the FTL
// lifetime loops.
func (b *Block) ReadLSBInto(w int, refs ReadRefs, out []uint64) []uint64 {
	return b.readInto(w, refs.R12, math.Inf(1), out)
}

// ReadMSBInto reads the MSB page of a wordline into out: the MSB is 1
// for the lowest and highest states (below R01 or at/above R23). Same
// batching contract as ReadLSBInto.
func (b *Block) ReadMSBInto(w int, refs ReadRefs, out []uint64) []uint64 {
	return b.readInto(w, refs.R01, refs.R23, out)
}

// readInto counts one page read of wordline w and senses it into out.
func (b *Block) readInto(w int, lo, hi float64, out []uint64) []uint64 {
	b.checkPage(w, out)
	b.reads++
	b.sense(w, lo, hi, out)
	return out
}

// sense is the one sense rule of every read: it sets page bit c of out
// when cell c's sensed voltage ve = float64(float32(v)) lies outside
// [lo, hi), where v is the stored voltage plus read disturb minus
// retention drift at the block's current read count and clock. It
// counts no read. The sweep accumulates 64 page bits in a register and
// stores one word per iteration; the wear factor, read-disturb scale
// and retention logarithm are computed once per wordline.
func (b *Block) sense(w int, lo, hi float64, out []uint64) {
	span := b.p.Means[3] - b.p.Means[0]
	m0 := b.p.Means[0]
	reads := float64(b.reads - b.readBase[w])
	rdOn := reads > 0 && b.p.RDCoef > 0
	dt := b.clockHours - b.progHour[w]
	retOn := dt > 0 && b.p.RetCoef > 0
	wf := b.wearFactor()
	vq, erLvl := b.senseWL(w)
	var ret []float64
	if retOn {
		ret = b.retentionWL(w, wf, math.Log(1+dt/b.p.RetT0Hours))
	}
	rdS := b.rdStatic[w*b.Cells : (w+1)*b.Cells]
	if rdOn && retOn {
		// Hot path: both drift terms active (any aged, stressed
		// block). The sense kernel sweeps the cached per-cell terms in
		// one pass — SSE2 two-lanes-per-step on amd64, the equivalent
		// branchless scalar loop elsewhere — producing the same bits
		// as the Reference's guarded per-cell chains.
		senseSweep(&vq[0], &erLvl[0], &rdS[0], &ret[0], len(vq), reads, wf, m0, span, lo, hi, &out[0])
		return
	}
	for wi := range out {
		var word uint64
		base := wi * 64
		vqw, elw, rdw := vq[base:base+64], erLvl[base:base+64], rdS[base:base+64]
		var retw []float64
		if retOn {
			retw = ret[base : base+64]
		}
		for bit := 0; bit < 64; bit++ {
			v := vqw[bit]
			if rdOn {
				v += clampPos(rdw[bit] * reads * wf * elw[bit])
			}
			if retOn {
				v -= clampPos(retw[bit] * ((v - m0) / span) * span)
			}
			word |= outside(float64(float32(v)), lo, hi) << uint(bit)
		}
		out[wi] = word
	}
}

// clampPos returns d, or +0 when d's sign bit is set: the branchless
// form of the Reference's `term > 0` guards. Every drift delta's
// leading factors are positive, so its sign is its guard term's sign,
// and a cleared delta adds or subtracts exactly +0.
func clampPos(d float64) float64 {
	bd := math.Float64bits(d)
	return math.Float64frombits(bd &^ uint64(int64(bd)>>63))
}

// outside returns 1 when the sensed voltage ve lies outside [lo, hi),
// else 0, by the sign bits of ve-lo and ve-hi.
func outside(ve, lo, hi float64) uint64 {
	return math.Float64bits(ve-lo)>>63 | (math.Float64bits(ve-hi)>>63 ^ 1)
}

// ReadLSB reads the LSB page of a wordline with the given references,
// allocating the result page. Callers on hot paths should pass their
// own buffer to ReadLSBInto instead.
func (b *Block) ReadLSB(w int, refs ReadRefs) []uint64 {
	return b.ReadLSBInto(w, refs, make([]uint64, b.Cells/64))
}

// ReadMSB reads the MSB page of a wordline, allocating the result
// page. Hot paths should use ReadMSBInto.
func (b *Block) ReadMSB(w int, refs ReadRefs) []uint64 {
	return b.ReadMSBInto(w, refs, make([]uint64, b.Cells/64))
}

// CycleWear ages the block by n program/erase cycles without the data
// churn of modelled erases — accelerated-aging instrumentation for
// experiments. Call Erase afterwards to re-randomize cell charge at
// the aged noise level.
func (b *Block) CycleWear(n int) {
	if n < 0 {
		panic("flash: negative wear")
	}
	b.pe += n
}

// StressReads applies the disturbance of n page reads of this block
// without executing their data path (the attacker does not care about
// the data). The disturbance accounting is identical to n real reads.
func (b *Block) StressReads(n int64) {
	if n < 0 {
		panic("flash: negative reads")
	}
	b.reads += n
}

// TruthLSB returns the ground-truth LSB page (experiment use only).
func (b *Block) TruthLSB(w int) []uint64 { return b.truthLSB[w] }

// TruthMSB returns the ground-truth MSB page.
func (b *Block) TruthMSB(w int) []uint64 { return b.truthMSB[w] }

// FullyProgrammed reports whether both pages of a wordline are
// programmed, for FTL bookkeeping.
func (b *Block) FullyProgrammed(w int) bool { return b.state[w] == wlFull }

// LSBProgrammed reports whether the wordline holds an LSB page
// (possibly awaiting its MSB step).
func (b *Block) LSBProgrammed(w int) bool { return b.state[w] != wlErased }

func (b *Block) checkPages(w int, lsb, msb []uint64) {
	b.checkPage(w, lsb)
	b.checkPage(w, msb)
}

func (b *Block) checkPage(w int, page []uint64) {
	if w < 0 || w >= b.WLs {
		panic(fmt.Sprintf("flash: wordline %d out of range", w))
	}
	if len(page) != b.Cells/64 {
		panic(fmt.Sprintf("flash: page has %d words, want %d", len(page), b.Cells/64))
	}
}

// CountBitErrors returns the number of differing bits between two
// packed pages.
func CountBitErrors(got, want []uint64) int {
	n := 0
	for i := range got {
		n += bits.OnesCount64(got[i] ^ want[i])
	}
	return n
}

// RBER measures the raw bit error rate of one wordline (both pages)
// against ground truth with nominal references. It reads through the
// block-owned page scratch, so repeated RBER probes (the FTL lifetime
// searches) allocate nothing.
func (b *Block) RBER(w int) float64 {
	refs := b.p.NominalRefs()
	e := CountBitErrors(b.ReadLSBInto(w, refs, b.pg), b.truthLSB[w]) +
		CountBitErrors(b.ReadMSBInto(w, refs, b.pg), b.truthMSB[w])
	return float64(e) / float64(2*b.Cells)
}

// ParamsRef returns the block's physics calibration.
func (b *Block) ParamsRef() Params { return b.p }
