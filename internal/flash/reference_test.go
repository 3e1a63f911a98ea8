package flash

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Reference is the seed implementation of the MLC NAND block — the
// strictly cell-at-a-time code path, with per-cell physics recomputed
// from scratch (including the retention logarithm) inside every read,
// and a fresh page slice allocated per read — kept verbatim in this
// test file as the equivalence oracle for the word-parallel hot paths
// in Block. Equivalence tests drive a Reference and a Block with
// identical streams and command sequences and require identical page
// bits, voltages, counters and wordline state.
type Reference struct {
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

	src *rng.Stream
}

// NewReference builds an erased block exactly as the seed NewBlock did:
// given equal streams, Reference and Block sample identical per-cell
// physics and erase-level charge.
func NewReference(p Params, wls, cells int, src *rng.Stream) *Reference {
	if cells%64 != 0 || cells <= 0 || wls <= 0 {
		panic(fmt.Sprintf("flash: invalid block geometry %dx%d", wls, cells))
	}
	b := &Reference{p: p, WLs: wls, Cells: cells, src: src}
	n := wls * cells
	b.leak = make([]float32, n)
	b.rdSus = make([]float32, n)
	b.coup = make([]float32, n)
	for i := 0; i < n; i++ {
		b.leak[i] = float32(src.LogNormal(0, p.LeakSigma))
		b.rdSus[i] = float32(src.LogNormal(0, p.RDSigma))
		b.coup[i] = float32(src.LogNormal(0, p.CoupSigma))
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
	b.pe = -1 // the initial erase is manufacturing, not wear
	b.Erase()
	return b
}

// sigma returns the current programming noise.
func (b *Reference) sigma(base float64) float64 {
	return base * (1 + b.p.WearCoef*math.Pow(float64(b.pe)/b.p.PENorm, 0.6))
}

// wearFactor scales time- and read-dependent drift with wear.
func (b *Reference) wearFactor() float64 { return 1 + float64(b.pe)/b.p.PENorm }

// Erase resets every cell to the erased distribution and increments
// the P/E count.
func (b *Reference) Erase() {
	b.pe++
	for w := 0; w < b.WLs; w++ {
		for c := 0; c < b.Cells; c++ {
			b.v[w][c] = float32(b.src.Normal(b.p.Means[ER], b.sigma(b.p.Sigma0)))
		}
		b.state[w] = wlErased
		for i := range b.truthLSB[w] {
			b.truthLSB[w][i] = ^uint64(0)
			b.truthMSB[w][i] = ^uint64(0)
		}
		b.progHour[w] = b.clockHours
		b.readBase[w] = b.reads
	}
}

// AdvanceHours moves the block's clock forward (retention ages data).
func (b *Reference) AdvanceHours(h float64) {
	if h < 0 {
		panic("flash: negative time advance")
	}
	b.clockHours += h
}

// program moves one cell to the target distribution. ISPP only moves
// voltage upward: a cell already above the target mean stays put.
func (b *Reference) program(w, c int, mean, sigmaBase float64) {
	target := float32(b.src.Normal(mean, b.sigma(sigmaBase)))
	if target > b.v[w][c] {
		b.v[w][c] = target
	}
}

// interfere applies program interference from wordline w onto w-1:
// each aggressor cell's voltage rise couples onto the victim cell at
// the same column.
func (b *Reference) interfere(w int, rise []float32) {
	if w == 0 {
		return
	}
	vw := b.v[w-1]
	for c := 0; c < b.Cells; c++ {
		if rise[c] > 0 {
			vw[c] += float32(b.p.Gamma) * b.coup[(w-1)*b.Cells+c] * rise[c]
		}
	}
}

// ProgramFull programs both pages of an erased wordline in one step
// (full-sequence programming; no intermediate-state vulnerability).
func (b *Reference) ProgramFull(w int, lsb, msb []uint64) {
	b.checkPages(w, lsb, msb)
	if b.state[w] != wlErased {
		panic("flash: ProgramFull on non-erased wordline")
	}
	rise := make([]float32, b.Cells)
	for c := 0; c < b.Cells; c++ {
		before := b.v[w][c]
		s := StateOf(bitOf(lsb, c), bitOf(msb, c))
		if s != ER {
			b.program(w, c, b.p.Means[s], b.p.Sigma0)
		}
		rise[c] = b.v[w][c] - before
	}
	copy(b.truthLSB[w], lsb)
	copy(b.truthMSB[w], msb)
	b.state[w] = wlFull
	b.progHour[w] = b.clockHours
	b.readBase[w] = b.reads
	b.interfere(w, rise)
}

// ProgramLSB performs the first step of two-step programming: cells
// whose LSB is 0 move to the intermediate distribution.
func (b *Reference) ProgramLSB(w int, lsb []uint64) {
	b.checkPage(w, lsb)
	if b.state[w] != wlErased {
		panic("flash: ProgramLSB on non-erased wordline")
	}
	rise := make([]float32, b.Cells)
	for c := 0; c < b.Cells; c++ {
		before := b.v[w][c]
		if bitOf(lsb, c) == 0 {
			b.program(w, c, b.p.IntMean, b.p.IntSigma)
		}
		rise[c] = b.v[w][c] - before
	}
	copy(b.truthLSB[w], lsb)
	b.state[w] = wlLSBOnly
	b.progHour[w] = b.clockHours
	b.readBase[w] = b.reads
	b.interfere(w, rise)
}

// ProgramMSB performs the second step, with the seed's per-cell
// internal read of the (possibly disturbed) intermediate state.
func (b *Reference) ProgramMSB(w int, msb []uint64, refs ReadRefs, bufferedLSB []uint64) {
	b.checkPage(w, msb)
	if b.state[w] != wlLSBOnly {
		panic("flash: ProgramMSB requires an LSB-programmed wordline")
	}
	rise := make([]float32, b.Cells)
	for c := 0; c < b.Cells; c++ {
		before := b.v[w][c]
		var lsbBit uint64
		if bufferedLSB != nil {
			lsbBit = bitOf(bufferedLSB, c)
		} else {
			// Internal read of the (possibly disturbed) intermediate.
			if b.effV(w, c) < float32(refs.RInt) {
				lsbBit = 1
			}
		}
		s := StateOf(lsbBit, bitOf(msb, c))
		if s != ER {
			b.program(w, c, b.p.Means[s], b.p.Sigma0)
		}
		rise[c] = b.v[w][c] - before
	}
	copy(b.truthMSB[w], msb)
	b.state[w] = wlFull
	// The MSB step re-verifies placement; retention clock restarts.
	b.progHour[w] = b.clockHours
	b.readBase[w] = b.reads
	b.interfere(w, rise)
}

// effV returns the cell's effective voltage right now: programmed
// voltage plus read-disturb shift minus retention drift.
func (b *Reference) effV(w, c int) float32 {
	i := w*b.Cells + c
	v := float64(b.v[w][c])
	span := b.p.Means[3] - b.p.Means[0]
	// Read disturb pushes low cells up.
	reads := float64(b.reads - b.readBase[w])
	if reads > 0 && b.p.RDCoef > 0 {
		erLevel := (b.p.Means[3] - v) / span
		if erLevel > 0 {
			v += b.p.RDCoef * float64(b.rdSus[i]) * reads * b.wearFactor() * erLevel
		}
	}
	// Retention pulls high cells down.
	dt := b.clockHours - b.progHour[w]
	if dt > 0 && b.p.RetCoef > 0 {
		level := (v - b.p.Means[0]) / span
		if level > 0 {
			v -= b.p.RetCoef * float64(b.leak[i]) * b.wearFactor() *
				math.Log(1+dt/b.p.RetT0Hours) * level * span
		}
	}
	return float32(v)
}

// ReadLSB reads the LSB page of a wordline with the given references,
// allocating the result page (the seed behaviour).
func (b *Reference) ReadLSB(w int, refs ReadRefs) []uint64 {
	b.reads++
	out := make([]uint64, b.Cells/64)
	for c := 0; c < b.Cells; c++ {
		if float64(b.effV(w, c)) < refs.R12 {
			setBit(out, c, 1)
		}
	}
	return out
}

// ReadMSB reads the MSB page of a wordline: the MSB is 1 for the
// lowest and highest states (below R01 or at/above R23).
func (b *Reference) ReadMSB(w int, refs ReadRefs) []uint64 {
	b.reads++
	out := make([]uint64, b.Cells/64)
	for c := 0; c < b.Cells; c++ {
		v := float64(b.effV(w, c))
		if v < refs.R01 || v >= refs.R23 {
			setBit(out, c, 1)
		}
	}
	return out
}

// CycleWear ages the block by n program/erase cycles without the data
// churn of modelled erases.
func (b *Reference) CycleWear(n int) {
	if n < 0 {
		panic("flash: negative wear")
	}
	b.pe += n
}

// StressReads applies the disturbance of n page reads of this block
// without executing their data path.
func (b *Reference) StressReads(n int64) {
	if n < 0 {
		panic("flash: negative reads")
	}
	b.reads += n
}

// TruthLSB returns the ground-truth LSB page.
func (b *Reference) TruthLSB(w int) []uint64 { return b.truthLSB[w] }

// TruthMSB returns the ground-truth MSB page.
func (b *Reference) TruthMSB(w int) []uint64 { return b.truthMSB[w] }

func (b *Reference) checkPages(w int, lsb, msb []uint64) {
	b.checkPage(w, lsb)
	b.checkPage(w, msb)
}

func (b *Reference) checkPage(w int, page []uint64) {
	if w < 0 || w >= b.WLs {
		panic(fmt.Sprintf("flash: wordline %d out of range", w))
	}
	if len(page) != b.Cells/64 {
		panic(fmt.Sprintf("flash: page has %d words, want %d", len(page), b.Cells/64))
	}
}

// RBER measures the raw bit error rate of one wordline (both pages)
// against ground truth with nominal references.
func (b *Reference) RBER(w int) float64 {
	refs := b.p.NominalRefs()
	e := CountBitErrors(b.ReadLSB(w, refs), b.truthLSB[w]) +
		CountBitErrors(b.ReadMSB(w, refs), b.truthMSB[w])
	return float64(e) / float64(2*b.Cells)
}

// bitOf extracts bit c from a packed page.
func bitOf(page []uint64, c int) uint64 { return (page[c>>6] >> uint(c&63)) & 1 }

func setBit(page []uint64, c int, v uint64) {
	if v&1 == 1 {
		page[c>>6] |= 1 << uint(c&63)
	} else {
		page[c>>6] &^= 1 << uint(c&63)
	}
}
