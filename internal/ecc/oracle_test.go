package ecc

// Test-only oracles for the verdicts: the capability-model predicates
// and the two data-bit splices that callers outside the package used
// before every verdict moved here. The TestECC* pins below hold
// BlockCode.Outcome, Chipkill.Outcome and ClassifyData to them.

import (
	"math/bits"
	"testing"

	"repro/internal/rng"
)

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
		oc := Classify(want, cw)
		decoded, _ := Decode(cw)
		var val uint64
		switch oc {
		case Detected:
			val = got
		case Miscorrect:
			val = decoded
		default:
			val = want
		}
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
