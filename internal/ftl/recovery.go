package ftl

import (
	"math/bits"

	"repro/internal/flash"
)

// This file implements the two data-recovery mechanisms: RFR
// (retention failure recovery) and NAC (neighbor-cell assisted
// correction). Both return before/after error counts against ground
// truth so experiments can report the BER reduction; the mechanisms
// themselves only use information a real controller has (read-retry
// results, ECC success/failure, elapsed time, neighbor page data).

// RFRConfig tunes retention failure recovery.
type RFRConfig struct {
	// SweepOffsets are the candidate global reference downshifts of
	// the read-retry phase, most negative last.
	SweepOffsets []float64
	// ReRedHours is how long RFR waits between the two classification
	// reads; fast-leaking cells move again in this window.
	ReRedHours float64
	// ExtraShift is the additional downshift applied to cells
	// classified as fast leakers.
	ExtraShift float64
}

// DefaultRFRConfig returns the configuration used in the experiments.
func DefaultRFRConfig() RFRConfig {
	return RFRConfig{
		SweepOffsets: []float64{0, -0.05, -0.1, -0.15, -0.2, -0.3, -0.4},
		ReRedHours:   72,
		ExtraShift:   -0.15,
	}
}

// scaledRefs shifts references proportionally to how far each state
// sits above the erased distribution (higher states leak more volts).
func scaledRefs(refs flash.ReadRefs, d float64) flash.ReadRefs {
	return refs.Shifted(d*0.6, d*0.8, d)
}

// RFRResult reports a recovery attempt.
type RFRResult struct {
	ErrorsBefore int // raw errors at nominal refs (LSB+MSB)
	ErrorsAfter  int // raw errors of the recovered data
	BestOffset   float64
	FastLeakers  int
	Recovered    bool // recovered data is ECC-correctable
}

// readBoth reads both pages of a wordline.
func readBoth(b *flash.Block, w int, refs flash.ReadRefs) (lsb, msb []uint64) {
	return b.ReadLSB(w, refs), b.ReadMSB(w, refs)
}

// countBoth sums both pages' errors against truth.
func countBoth(b *flash.Block, w int, lsb, msb []uint64) int {
	return flash.CountBitErrors(lsb, b.TruthLSB(w)) +
		flash.CountBitErrors(msb, b.TruthMSB(w))
}

// RunRFR executes retention failure recovery on one wordline. Phase 1
// is a read-retry sweep: re-read with progressively downshifted
// references and keep the offset with the fewest ECC-reported errors.
// Phase 2 waits ReRedHours and re-reads at the chosen offset: cells
// whose value changed across the wait are fast leakers, whose charge
// has drifted further than the global offset assumes; they are
// re-read with an additional downshift. Note that phase 2 advances the
// block's clock.
func RunRFR(b *flash.Block, w int, ecc ECC, cfg RFRConfig) RFRResult {
	nomRefs := b.ParamsRef().NominalRefs()
	lsb0, msb0 := readBoth(b, w, nomRefs)
	res := RFRResult{ErrorsBefore: countBoth(b, w, lsb0, msb0)}

	// Phase 1: read-retry sweep. The controller picks the offset
	// whose ECC decode reports the fewest errors; on an uncorrectable
	// page ECC still reports per-codeword failure counts, which is
	// the feedback real read-retry uses.
	best := 0.0
	bestErrs := res.ErrorsBefore
	var bestLSB, bestMSB []uint64 = lsb0, msb0
	for _, d := range cfg.SweepOffsets {
		l, m := readBoth(b, w, scaledRefs(nomRefs, d))
		errs := ecc.Evaluate(l, b.TruthLSB(w)).Errors + ecc.Evaluate(m, b.TruthMSB(w)).Errors
		if errs < bestErrs {
			best, bestErrs = d, errs
			bestLSB, bestMSB = l, m
		}
	}
	res.BestOffset = best

	// Phase 2: fast/slow leaker classification across a timed re-read.
	b.AdvanceHours(cfg.ReRedHours)
	refs := scaledRefs(nomRefs, best)
	lsbT, msbT := readBoth(b, w, refs)
	extra := scaledRefs(nomRefs, best+cfg.ExtraShift)
	lsbX, msbX := readBoth(b, w, extra)
	recLSB := make([]uint64, len(bestLSB))
	recMSB := make([]uint64, len(bestMSB))
	for i := range recLSB {
		// A cell that changed between the phase-1 and phase-2 reads
		// leaks fast; trust the extra-shifted read for it.
		movedL := bestLSB[i] ^ lsbT[i]
		movedM := bestMSB[i] ^ msbT[i]
		moved := movedL | movedM
		res.FastLeakers += bits.OnesCount64(moved)
		recLSB[i] = (lsbT[i] &^ moved) | (lsbX[i] & moved)
		recMSB[i] = (msbT[i] &^ moved) | (msbX[i] & moved)
	}
	res.ErrorsAfter = countBoth(b, w, recLSB, recMSB)
	res.Recovered = ecc.Evaluate(recLSB, b.TruthLSB(w)).OK() &&
		ecc.Evaluate(recMSB, b.TruthMSB(w)).OK()
	return res
}

// NACResult reports a neighbor-assisted correction pass.
type NACResult struct {
	ErrorsBefore int
	ErrorsAfter  int
}

// RunNAC performs neighbor-cell assisted correction on wordline w
// using the state of wordline w+1 (the aggressor that interfered with
// it). The page is read once per neighbor state with references
// raised by the interference that state is expected to have coupled
// in, and the per-cell results are composed. gammaEst is the
// controller's estimate of the coupling ratio (learned offline).
func RunNAC(b *flash.Block, w int, gammaEst float64) NACResult {
	p := b.ParamsRef()
	refs := p.NominalRefs()
	aggr := w + 1
	lsbN, msbN := readBoth(b, aggr, refs)
	// Nominal read of the victim.
	lsb0, msb0 := readBoth(b, w, refs)
	res := NACResult{ErrorsBefore: countBoth(b, w, lsb0, msb0)}

	// One compensated read per neighbor state.
	type pair struct{ lsb, msb []uint64 }
	comp := make([]pair, 4)
	for s := flash.ER; s <= flash.P3; s++ {
		shift := gammaEst * (p.Means[s] - p.Means[flash.ER])
		if s == flash.ER {
			shift = 0
		}
		r := refs.Shifted(shift, shift, shift)
		l, m := readBoth(b, w, r)
		comp[s] = pair{l, m}
	}
	recLSB := make([]uint64, len(lsb0))
	recMSB := make([]uint64, len(msb0))
	cells := len(lsb0) * 64
	for c := 0; c < cells; c++ {
		s := flash.StateOf(bit(lsbN, c), bit(msbN, c))
		setBit(recLSB, c, bit(comp[s].lsb, c))
		setBit(recMSB, c, bit(comp[s].msb, c))
	}
	res.ErrorsAfter = countBoth(b, w, recLSB, recMSB)
	return res
}

func bit(p []uint64, c int) uint64 { return (p[c>>6] >> uint(c&63)) & 1 }

func setBit(p []uint64, c int, v uint64) {
	if v&1 == 1 {
		p[c>>6] |= 1 << uint(c&63)
	} else {
		p[c>>6] &^= 1 << uint(c&63)
	}
}

// ReadDisturbManager tracks one block's read count and triggers
// preventive refresh, the standard read-disturb mitigation. Use one
// manager per block.
type ReadDisturbManager struct {
	// Threshold is the reads-since-refresh count after which the
	// block is refreshed.
	Threshold int64
	// Refreshes counts triggered refreshes.
	Refreshes int64

	base int64 // block read count at the last refresh
}

// Check refreshes the block if its read count passed the threshold:
// correctable data is rewritten (restoring ground truth, as ECC
// correction would), and the block's read/retention clocks reset. It
// reports whether a refresh happened.
func (m *ReadDisturbManager) Check(b *flash.Block, ecc ECC) bool {
	if b.Reads()-m.base < m.Threshold {
		return false
	}
	refs := b.ParamsRef().NominalRefs()
	type saved struct {
		w        int
		lsb, msb []uint64
	}
	var pages []saved
	for w := 0; w < b.WLs; w++ {
		if !b.FullyProgrammed(w) {
			continue
		}
		lsb, msb := readBoth(b, w, refs)
		// ECC-correctable pages are restored exactly; uncorrectable
		// pages carry their errors forward.
		if ecc.Evaluate(lsb, b.TruthLSB(w)).OK() {
			lsb = append([]uint64(nil), b.TruthLSB(w)...)
		}
		if ecc.Evaluate(msb, b.TruthMSB(w)).OK() {
			msb = append([]uint64(nil), b.TruthMSB(w)...)
		}
		pages = append(pages, saved{w, lsb, msb})
	}
	b.Erase()
	for _, pg := range pages {
		b.ProgramFull(pg.w, pg.lsb, pg.msb)
	}
	m.base = b.Reads()
	m.Refreshes++
	return true
}
