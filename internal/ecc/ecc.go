// Package ecc implements the error-correcting codes the paper's
// mitigation analysis refers to. The centerpiece is a bit-exact
// SECDED(72,64) extended Hamming code — the code used on ECC DIMMs —
// with which the experiments show the paper's claim that SECDED is
// insufficient against RowHammer because some words collect two or
// more flips. The code is linear, so the decoder's verdict on a word
// depends only on the error pattern it collected: SECDED is one
// syndrome-and-parity rule over that pattern, and the package never
// encodes or decodes a data word (its tests hold the rule to a
// bit-serial encoder and decoder). Stronger codes (t-error-correcting
// block codes and chipkill-style symbol codes) are modelled at the
// capability level: what matters to the experiments is which error
// patterns they correct, not their generator polynomials. Every code's
// verdict on an error pattern comes from this package: Classify and
// ClassifyData for SECDED, BlockCode.Outcome and Chipkill.Outcome for
// the others.
package ecc

import "math/bits"

// Codeword72 holds one bit per position of a 72-bit SECDED codeword:
// 64 data bits and 8 check bits. Position 0 is the overall parity bit;
// the check bits at Hamming positions 1,2,4,8,16,32,64 cover the
// positions with that bit set, and the rest carry data. Classify and
// Chipkill.Outcome take it as an error mask, the positions a strike
// flipped.
type Codeword72 struct {
	// Lo holds positions 0..63, Hi positions 64..71.
	Lo uint64
	Hi uint8
}

// dataPositions lists the codeword positions (1..71) that carry data
// bits: every position that is not a power of two.
var dataPositions = func() [64]int {
	var pos [64]int
	i := 0
	for p := 1; p <= 71; p++ {
		if p&(p-1) != 0 { // not a power of two
			pos[i] = p
			i++
		}
	}
	return pos
}()

// flip inverts codeword position pos (0..71).
func (c *Codeword72) flip(pos int) {
	if pos < 64 {
		c.Lo ^= 1 << uint(pos)
	} else {
		c.Hi ^= 1 << uint(pos-64)
	}
}

// Outcome classifies what the SECDED decoder did with a codeword.
type Outcome int

const (
	// OK: no error detected.
	OK Outcome = iota
	// Corrected: a single-bit error was corrected.
	Corrected
	// Detected: a double-bit error was detected but not corrected.
	Detected
	// Miscorrect is never the decoder's own verdict (the decoder
	// cannot know). Classify and ClassifyData return it against
	// ground truth, and the capability models for patterns past
	// their detection bound.
	Miscorrect
)

// String names the outcome for logs and tables.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case Detected:
		return "detected-uncorrectable"
	case Miscorrect:
		return "miscorrected"
	default:
		return "unknown"
	}
}

// triage is the SECDED decoder's verdict on a stored word that differs
// from a clean codeword by the error mask errs. The code is linear, so
// the verdict depends on errs alone: its syndrome (the XOR of the set
// Hamming positions) and its overall parity. An odd mask whose syndrome
// names a position is Corrected by flipping position fix (syndrome 0
// names the overall parity bit); an even mask with syndrome 0 reads OK;
// anything else is Detected.
func triage(errs Codeword72) (oc Outcome, fix int) {
	syndrome, parity := 0, 0
	for i, w := range [2]uint64{errs.Lo, uint64(errs.Hi)} {
		parity ^= bits.OnesCount64(w)
		for ; w != 0; w &= w - 1 {
			syndrome ^= 64*i + bits.TrailingZeros64(w)
		}
	}
	switch {
	case parity&1 == 0 && syndrome == 0:
		return OK, 0
	case parity&1 == 1 && syndrome <= 71:
		return Corrected, syndrome
	default:
		return Detected, 0
	}
}

// Classify reports the true outcome of SECDED on a word whose stored
// codeword positions were flipped by the error mask errs (bit p of Lo
// is position p, bit p of Hi is position 64+p, as in Chipkill.Outcome),
// whatever the data: Miscorrect when the decoder's word differs from
// the original, which hardware cannot tell from a genuine correction.
func Classify(errs Codeword72) Outcome {
	oc, fix := triage(errs)
	if oc == Corrected {
		errs.flip(fix)
	}
	// Past an OK or a fix the residual has syndrome 0 and even parity:
	// it is a codeword, and every nonzero codeword carries data bits.
	if oc != Detected && errs != (Codeword72{}) {
		return Miscorrect // silent data corruption
	}
	return oc
}

// ClassifyData models SECDED on a word whose data bits read back as got
// while its check bits still encode want: the array's flips land in
// the data bits, and the check bits live in devices that were not
// struck. It returns the word the requester sees with the true
// outcome: got when the decoder only detects, the decoder's wrong word
// on a silent miscorrection, and want otherwise.
func ClassifyData(want, got uint64) (uint64, Outcome) {
	var errs Codeword72
	for d := want ^ got; d != 0; d &= d - 1 {
		errs.flip(dataPositions[bits.TrailingZeros64(d)])
	}
	oc, fix := triage(errs)
	if oc == Detected {
		return got, Detected // a detected word is left as read
	}
	word := got
	if fix&(fix-1) != 0 {
		// The fix lands on a data position: data bit fix-1-bits.Len(fix),
		// since bits.Len(fix) check positions 1, 2, 4, ... precede it.
		word ^= 1 << uint(fix-1-bits.Len(uint(fix)))
	}
	if word != want {
		return word, Miscorrect // silent data corruption
	}
	return want, oc
}

// CheckBits returns the number of check bits SECDED(72,64) adds.
func CheckBits() int { return 8 }

// --- Capability-level models for stronger codes ---

// BlockCode models a t-error-correcting, (t+1)-error-detecting block
// code over a data block of DataBits bits (e.g. a shortened BCH code).
// CheckBitsFor gives a standard estimate of its storage overhead.
type BlockCode struct {
	// DataBits is the protected block size in bits.
	DataBits int
	// T is the number of correctable bit errors per block.
	T int
}

// OnDie is the default on-die (in-DRAM) code: single-error-correcting
// over the 64-bit word.
var OnDie = BlockCode{DataBits: 64, T: 1}

// Outcome reports what the code makes of an error pattern with the
// given number of flipped bits: Corrected up to T, Detected at T+1,
// and Miscorrect beyond, following the bounded-distance convention
// (patterns past T+1 flips may alias to a codeword).
func (b BlockCode) Outcome(flips int) Outcome {
	switch {
	case flips <= b.T:
		return Corrected
	case flips == b.T+1:
		return Detected
	default:
		return Miscorrect
	}
}

// CheckBitsFor estimates the check bits required: t * ceil(log2(n+1))
// for a binary BCH code of length n = DataBits + checkbits (fixpoint
// approximated by one iteration, matching standard BCH tables).
func (b BlockCode) CheckBitsFor() int {
	if b.T == 0 {
		return 0
	}
	m := bits.Len(uint(b.DataBits))
	return b.T * m
}

// Chipkill models a symbol-oriented code (e.g. AMD chipkill) that
// corrects any error pattern confined to one SymbolBits-wide symbol
// and detects any pattern confined to two symbols.
type Chipkill struct {
	// SymbolBits is the symbol width, matching the DRAM device data
	// width (4 for x4 devices).
	SymbolBits int
}

// Chipkill4 is classic x4 chipkill: 4-bit symbols, one per device.
var Chipkill4 = Chipkill{SymbolBits: 4}

// Outcome reports what the code makes of an error pattern, given as a
// mask of the flipped word positions (bit p of Lo is position p, bit p
// of Hi is position 64+p): Corrected when the flips fall inside one
// symbol, Detected when they span two, and Miscorrect beyond.
func (c Chipkill) Outcome(errs Codeword72) Outcome {
	syms, last := 0, -1
	for i, w := range [2]uint64{errs.Lo, uint64(errs.Hi)} {
		for ; w != 0; w &= w - 1 {
			// Positions ascend, so a new symbol index is a new symbol.
			if s := (64*i + bits.TrailingZeros64(w)) / c.SymbolBits; s != last {
				syms, last = syms+1, s
			}
		}
	}
	switch {
	case syms <= 1:
		return Corrected
	case syms == 2:
		return Detected
	default:
		return Miscorrect
	}
}
