package ecc

// Test-only oracles for the verdicts: the bit-serial SECDED encoder and
// decoder, the capability-model predicates and the two data-bit splices
// that callers outside the package used before every verdict moved
// here. The production rule (triage, behind Classify and ClassifyData)
// never builds a codeword; the TestECC* pins and
// TestTriageMatchesOracleExhaustive below hold it, BlockCode.Outcome and
// Chipkill.Outcome to these references.

import (
	"math/bits"
	"testing"

	"repro/internal/rng"
)

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

// Decode runs the SECDED decoder: it returns the decoded data word and
// the decoder's verdict. Error patterns of three or more bits may be
// silently miscorrected, exactly as on real hardware; use
// classifyCodeword to compare against ground truth.
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

// classifyCodeword decodes a (possibly corrupted) codeword and,
// comparing with the original data, reports the true outcome,
// distinguishing silent miscorrections from genuine corrections.
func classifyCodeword(original uint64, corrupted Codeword72) Outcome {
	data, outcome := Decode(corrupted)
	return verdict(original, data, outcome)
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

// DataPosition returns the codeword position (1..71) that carries data
// bit i (0..63). Callers injecting data-bit errors into a codeword flip
// these positions (spliceData does so for every differing bit);
// check-bit positions (0 and the powers of two) are reached directly
// through FlipBit.
func DataPosition(i int) int { return dataPositions[i] }

// xor flips every position of c that m sets.
func (c Codeword72) xor(m Codeword72) Codeword72 {
	return Codeword72{Lo: c.Lo ^ m.Lo, Hi: c.Hi ^ m.Hi}
}

// errMask is the error mask Classify takes for a stored codeword c of
// data: the positions where c differs from data's clean encoding.
func errMask(data uint64, c Codeword72) Codeword72 { return c.xor(Encode(data)) }

// oracleClassifyData is ClassifyData through the codec: decode the
// spliced codeword and return got when detected, the decoder's output
// when miscorrected, and want otherwise.
func oracleClassifyData(want, got uint64) (uint64, Outcome) {
	cw := spliceData(want, got)
	oc := classifyCodeword(want, cw)
	decoded, _ := Decode(cw)
	switch oc {
	case Detected:
		return got, oc
	case Miscorrect:
		return decoded, oc
	default:
		return want, oc
	}
}

// blockCorrectable reports whether a pattern of flips bits is corrected.
func blockCorrectable(b BlockCode, flips int) bool { return flips <= b.T }

// blockDetectable reports whether the pattern is at least detected,
// under the bounded-distance convention of detecting up to T+1.
func blockDetectable(b BlockCode, flips int) bool { return flips <= b.T+1 }

// chipkillCorrectable reports whether all flipped positions fall
// inside one symbol.
func chipkillCorrectable(c Chipkill, positions []int) bool {
	if len(positions) == 0 {
		return true
	}
	sym := positions[0] / c.SymbolBits
	for _, p := range positions[1:] {
		if p/c.SymbolBits != sym {
			return false
		}
	}
	return true
}

// chipkillDetectable reports whether the flips span at most two symbols.
func chipkillDetectable(c Chipkill, positions []int) bool {
	syms := map[int]bool{}
	for _, p := range positions {
		syms[p/c.SymbolBits] = true
	}
	return len(syms) <= 2
}

// predicateOutcome maps the two predicates onto a verdict.
func predicateOutcome(correctable, detectable bool) Outcome {
	switch {
	case correctable:
		return Corrected
	case detectable:
		return Detected
	default:
		return Miscorrect
	}
}

// spliceData is the stored codeword of want after the array flipped
// its data bits to got: the clean encoding with every differing data
// position flipped.
func spliceData(want, got uint64) Codeword72 {
	cw := Encode(want)
	for d := want ^ got; d != 0; d &= d - 1 {
		cw.FlipBit(DataPosition(bits.TrailingZeros64(d)))
	}
	return cw
}

// mixParity is the same codeword built position by position: on the
// clean codeword orig, flip every data position whose bit differs
// between orig and the encoding of the corrupted data.
func mixParity(orig Codeword72, corruptedData uint64) Codeword72 {
	re := Encode(corruptedData)
	out := orig
	for pos := 1; pos < 72; pos++ {
		if pos&(pos-1) == 0 {
			continue // parity position
		}
		if orig.bit(pos) != re.bit(pos) {
			out.FlipBit(pos)
		}
	}
	return out
}

// maskOf packs word positions into the Codeword72 mask Chipkill.Outcome
// takes.
func maskOf(positions []int) Codeword72 {
	var m Codeword72
	for _, p := range positions {
		m.setBit(p, 1)
	}
	return m
}

// TestECCBlockCodeOutcomeMatchesPredicates pins BlockCode.Outcome
// against the predicates for every flip count up to the codeword size.
func TestECCBlockCodeOutcomeMatchesPredicates(t *testing.T) {
	for _, dataBits := range []int{64, 128, 512} {
		for tcap := 0; tcap <= 3; tcap++ {
			code := BlockCode{DataBits: dataBits, T: tcap}
			size := dataBits + code.CheckBitsFor()
			for n := 0; n <= size; n++ {
				want := predicateOutcome(blockCorrectable(code, n), blockDetectable(code, n))
				if got := code.Outcome(n); got != want {
					t.Fatalf("BlockCode{%d,t=%d}.Outcome(%d) = %v, predicates say %v",
						dataBits, tcap, n, got, want)
				}
			}
		}
	}
}

// TestECCChipkillOutcomeMatchesPredicates pins Chipkill.Outcome against
// the predicates on every 1-3-position set over the 72-bit word and on
// random larger sets.
func TestECCChipkillOutcomeMatchesPredicates(t *testing.T) {
	check := func(ps []int) {
		t.Helper()
		want := predicateOutcome(chipkillCorrectable(Chipkill4, ps), chipkillDetectable(Chipkill4, ps))
		if got := Chipkill4.Outcome(maskOf(ps)); got != want {
			t.Fatalf("Chipkill4.Outcome(%v) = %v, predicates say %v", ps, got, want)
		}
	}
	check(nil)
	for a := 0; a < 72; a++ {
		check([]int{a})
		for b := a + 1; b < 72; b++ {
			check([]int{a, b})
			for c := b + 1; c < 72; c++ {
				check([]int{a, b, c})
			}
		}
	}
	src := rng.New(0xC4117)
	for trial := 0; trial < 500; trial++ {
		check(randomPositions(src, 4+src.Intn(8), 72))
	}
}

// TestECCClassifyDataMatchesSplice pins ClassifyData against Classify on
// both spliced codewords, for random words with 1-4 data flips and for
// arbitrary read-back words: the verdict must agree, and the returned
// word must be got when detected, the decoder's output when
// miscorrected, and want otherwise.
func TestECCClassifyDataMatchesSplice(t *testing.T) {
	src := rng.New(0xDA7A)
	check := func(want, got uint64) {
		t.Helper()
		cw := spliceData(want, got)
		if mixed := mixParity(Encode(want), got); mixed != cw {
			t.Fatalf("want %#x got %#x: splices disagree (%+v vs %+v)", want, got, cw, mixed)
		}
		val, oc := oracleClassifyData(want, got)
		if v, o := ClassifyData(want, got); v != val || o != oc {
			t.Fatalf("ClassifyData(%#x, %#x) = (%#x, %v), oracle (%#x, %v)", want, got, v, o, val, oc)
		}
	}
	seen := map[Outcome]int{}
	for trial := 0; trial < 4000; trial++ {
		want := src.Uint64()
		got := want
		for _, p := range randomPositions(src, 1+trial%4, 64) {
			got ^= 1 << uint(p)
		}
		check(want, got)
		_, oc := ClassifyData(want, got)
		seen[oc]++
		check(want, src.Uint64())
	}
	check(0x0123456789abcdef, 0x0123456789abcdef)
	for _, oc := range []Outcome{Corrected, Detected, Miscorrect} {
		if seen[oc] == 0 {
			t.Errorf("1-4 data flips never produced %v", oc)
		}
	}
}

// randomPositions draws n distinct positions below width (at most 72).
func randomPositions(src *rng.Stream, n, width int) []int {
	var ps []int
	var seen [72]bool
	for len(ps) < n {
		if p := src.Intn(width); !seen[p] {
			seen[p] = true
			ps = append(ps, p)
		}
	}
	return ps
}

// TestTriageMatchesOracleExhaustive holds the syndrome rule to the
// bit-serial codec: Classify on every 0-3-position error mask over the
// 72 positions, each under several data words, and ClassifyData (verdict
// and returned word) on every 0-3-bit data difference from random words.
func TestTriageMatchesOracleExhaustive(t *testing.T) {
	src := rng.New(0x7A1A6E)
	words := []uint64{0, ^uint64(0), src.Uint64(), src.Uint64()}
	seen := map[Outcome]int{}
	checkMask := func(ps ...int) {
		t.Helper()
		mask := maskOf(ps)
		got := Classify(mask)
		for _, data := range words {
			if want := classifyCodeword(data, Encode(data).xor(mask)); got != want {
				t.Fatalf("Classify(%v) = %v, codec on %#x says %v", ps, got, data, want)
			}
		}
		seen[got]++
	}
	checkMask()
	for a := 0; a < 72; a++ {
		checkMask(a)
		for b := a + 1; b < 72; b++ {
			checkMask(a, b)
			for c := b + 1; c < 72; c++ {
				checkMask(a, b, c)
			}
		}
	}
	for _, oc := range []Outcome{OK, Corrected, Detected, Miscorrect} {
		if seen[oc] == 0 {
			t.Errorf("no 0-3-position mask gave %v", oc)
		}
	}
	checkData := func(want, got uint64) {
		t.Helper()
		v, o := ClassifyData(want, got)
		if wv, wo := oracleClassifyData(want, got); v != wv || o != wo {
			t.Fatalf("ClassifyData(%#x, %#x) = (%#x, %v), oracle (%#x, %v)", want, got, v, o, wv, wo)
		}
	}
	for _, want := range words[1:] {
		checkData(want, want)
		for a := 0; a < 64; a++ {
			checkData(want, want^1<<uint(a))
			for b := a + 1; b < 64; b++ {
				checkData(want, want^1<<uint(a)^1<<uint(b))
				for c := b + 1; c < 64; c++ {
					checkData(want, want^1<<uint(a)^1<<uint(b)^1<<uint(c))
				}
			}
		}
	}
}
