// Package ecc implements the error-correcting codes the paper's
// mitigation analysis refers to. The centerpiece is a real, bit-exact
// SECDED(72,64) extended Hamming code — the code used on ECC DIMMs —
// with which the experiments show the paper's claim that SECDED is
// insufficient against RowHammer because some words collect two or
// more flips. Stronger codes (t-error-correcting block codes and
// chipkill-style symbol codes) are modelled at the capability level:
// what matters to the experiments is which error patterns they
// correct, not their generator polynomials. Every code's verdict on an
// error pattern comes from this package: Classify and ClassifyData for
// SECDED, BlockCode.Outcome and Chipkill.Outcome for the others.
package ecc

import "math/bits"

// Codeword72 is a 72-bit SECDED codeword: 64 data bits and 8 check
// bits. Bit 0 of Parity is the overall parity bit; the remaining seven
// cover Hamming positions 1,2,4,8,16,32,64.
type Codeword72 struct {
	// Bits holds codeword positions 0..71; position 0 is the overall
	// parity bit, positions 1..71 are Hamming positions. Packed as
	// two words: Lo holds positions 0..63, Hi positions 64..71.
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

func (c Codeword72) bit(pos int) uint64 {
	if pos < 64 {
		return (c.Lo >> uint(pos)) & 1
	}
	return uint64((c.Hi >> uint(pos-64)) & 1)
}

func (c *Codeword72) setBit(pos int, v uint64) {
	if pos < 64 {
		if v&1 == 1 {
			c.Lo |= 1 << uint(pos)
		} else {
			c.Lo &^= 1 << uint(pos)
		}
		return
	}
	if v&1 == 1 {
		c.Hi |= 1 << uint(pos-64)
	} else {
		c.Hi &^= 1 << uint(pos-64)
	}
}

// FlipBit inverts one codeword position (0..71), injecting an error.
func (c *Codeword72) FlipBit(pos int) {
	c.setBit(pos, c.bit(pos)^1)
}

// Encode produces the SECDED codeword for a 64-bit data word.
func Encode(data uint64) Codeword72 {
	var c Codeword72
	for i, pos := range dataPositions {
		c.setBit(pos, (data>>uint(i))&1)
	}
	// Hamming parity bits: parity p covers positions with bit p set.
	for p := 1; p <= 64; p <<= 1 {
		var par uint64
		for pos := 1; pos <= 71; pos++ {
			if pos&p != 0 && pos != p {
				par ^= c.bit(pos)
			}
		}
		c.setBit(p, par)
	}
	// Overall parity: make the XOR of all 72 positions even.
	var all uint64
	for pos := 1; pos <= 71; pos++ {
		all ^= c.bit(pos)
	}
	c.setBit(0, all)
	return c
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
	// Miscorrect is never returned by Decode itself (the decoder
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

// Decode runs the SECDED decoder: it returns the decoded data word and
// the decoder's verdict. Error patterns of three or more bits may be
// silently miscorrected, exactly as on real hardware; use Classify to
// compare against ground truth in experiments.
func Decode(c Codeword72) (data uint64, outcome Outcome) {
	// Recompute syndrome over Hamming positions.
	syndrome := 0
	for p := 1; p <= 64; p <<= 1 {
		var par uint64
		for pos := 1; pos <= 71; pos++ {
			if pos&p != 0 {
				par ^= c.bit(pos)
			}
		}
		if par != 0 {
			syndrome |= p
		}
	}
	var overall uint64
	for pos := 0; pos <= 71; pos++ {
		overall ^= c.bit(pos)
	}
	switch {
	case syndrome == 0 && overall == 0:
		outcome = OK
	case syndrome == 0 && overall == 1:
		// The overall parity bit itself flipped.
		c.setBit(0, c.bit(0)^1)
		outcome = Corrected
	case syndrome != 0 && overall == 1:
		// Single-bit error at the syndrome position.
		if syndrome <= 71 {
			c.setBit(syndrome, c.bit(syndrome)^1)
			outcome = Corrected
		} else {
			outcome = Detected
		}
	default: // syndrome != 0 && overall == 0
		outcome = Detected
	}
	return extractData(c), outcome
}

func extractData(c Codeword72) uint64 {
	var data uint64
	for i, pos := range dataPositions {
		data |= c.bit(pos) << uint(i)
	}
	return data
}

// Classify decodes a (possibly corrupted) codeword and, comparing with
// the original data, reports the true outcome, distinguishing silent
// miscorrections from genuine corrections. This is the experiment-side
// view that hardware does not have.
func Classify(original uint64, corrupted Codeword72) Outcome {
	data, outcome := Decode(corrupted)
	return verdict(original, data, outcome)
}

// ClassifyData models SECDED on a word whose data bits read back as got
// while its check bits still encode want: the array's flips land in
// the data bits, and the check bits live in devices that were not
// struck. It returns the word the requester sees with the true
// outcome: got when the decoder only detects, the decoder's wrong word
// on a silent miscorrection, and want otherwise.
func ClassifyData(want, got uint64) (uint64, Outcome) {
	cw := Encode(want)
	for d := want ^ got; d != 0; d &= d - 1 {
		cw.FlipBit(dataPositions[bits.TrailingZeros64(d)])
	}
	data, outcome := Decode(cw)
	// A detected word is left as read: Decode returns got's data bits.
	return data, verdict(want, data, outcome)
}

// verdict turns the decoder's view into the true outcome against the
// original data.
func verdict(original, data uint64, outcome Outcome) Outcome {
	switch {
	case outcome == Detected:
		return Detected
	case data != original:
		return Miscorrect // silent data corruption
	default:
		return outcome
	}
}

// CheckBits returns the number of check bits SECDED(72,64) adds.
func CheckBits() int { return 8 }

// DataPosition returns the codeword position (1..71) that carries data
// bit i (0..63). Callers injecting data-bit errors into a codeword flip
// these positions (ClassifyData does so for every differing bit);
// check-bit positions (0 and the powers of two) are reached directly
// through FlipBit.
func DataPosition(i int) int { return dataPositions[i] }

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
