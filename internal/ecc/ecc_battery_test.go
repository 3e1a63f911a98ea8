package ecc

// The exhaustive ECC battery behind the controller's eccLayer: the
// read path trusts Classify/ClassifyData verdicts unconditionally, so
// this file pins the SECDED guarantee exhaustively on the oracle codec
// and the production rule (every C(72,2) double on random data words,
// fuzzed flip pairs) and the capability-model
// verdicts (one more flip never improves a verdict, so whatever is
// corrected is also detected).

import (
	"math/bits"
	"testing"

	"repro/internal/rng"
)

// isCheckPosition reports whether a codeword position holds a check
// bit (the overall parity at 0, Hamming checks at powers of two).
func isCheckPosition(p int) bool { return p == 0 || p&(p-1) == 0 }

// TestDataPositionMapping pins the exported data-bit layout: flipping
// data bit i of the input moves exactly codeword position DataPosition(i)
// among the data positions, and positions are distinct non-check slots.
func TestDataPositionMapping(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		p := DataPosition(i)
		if p < 1 || p > 71 || isCheckPosition(p) {
			t.Fatalf("DataPosition(%d) = %d: not a data slot", i, p)
		}
		if seen[p] {
			t.Fatalf("DataPosition(%d) = %d: position reused", i, p)
		}
		seen[p] = true
	}
	data := uint64(0x0123456789abcdef)
	for i := 0; i < 64; i++ {
		a, b := Encode(data), Encode(data^(1<<uint(i)))
		diffLo := a.Lo ^ b.Lo
		diffHi := a.Hi ^ b.Hi
		p := DataPosition(i)
		if p < 64 {
			if diffLo&(1<<uint(p)) == 0 {
				t.Fatalf("data bit %d does not occupy codeword position %d", i, p)
			}
			diffLo &^= 1 << uint(p)
		} else {
			if diffHi&(1<<uint(p-64)) == 0 {
				t.Fatalf("data bit %d does not occupy codeword position %d", i, p)
			}
			diffHi &^= 1 << uint(p-64)
		}
		// Everything else that moved must be a check bit.
		for d := diffLo; d != 0; d &= d - 1 {
			if !isCheckPosition(bits.TrailingZeros64(d)) {
				t.Fatalf("data bit %d also moved data position %d", i, bits.TrailingZeros64(d))
			}
		}
		for d := diffHi; d != 0; d &= d - 1 {
			if !isCheckPosition(64 + bits.TrailingZeros8(d)) {
				t.Fatalf("data bit %d also moved data position %d", i, 64+bits.TrailingZeros8(d))
			}
		}
	}
}

// TestExhaustiveDoubleFlips enumerates every C(72,2) two-bit flip (and
// every single flip) on a set of random data words and asserts the
// SECDED contract word for word: no pattern of <=2 flips is ever
// reported OK with wrong data, singles correct to the exact original,
// doubles are always Detected.
func TestExhaustiveDoubleFlips(t *testing.T) {
	src := rng.New(0xECC)
	for w := 0; w < 8; w++ {
		data := src.Uint64()
		for a := 0; a < 72; a++ {
			c := Encode(data)
			c.FlipBit(a)
			got, out := Decode(c)
			if out != Corrected || got != data {
				t.Fatalf("word %#x single flip at %d: (%v, %#x)", data, a, out, got)
			}
			for b := a + 1; b < 72; b++ {
				c := Encode(data)
				c.FlipBit(a)
				c.FlipBit(b)
				got, out := Decode(c)
				if out == OK && got != data {
					t.Fatalf("word %#x flips {%d,%d}: OK with wrong data %#x", data, a, b, got)
				}
				if out != Detected {
					t.Fatalf("word %#x flips {%d,%d}: outcome %v, want Detected", data, a, b, out)
				}
				if cl := Classify(errMask(data, c)); cl != Detected {
					t.Fatalf("word %#x flips {%d,%d}: Classify %v disagrees with Decode", data, a, b, cl)
				}
			}
		}
	}
}

// TestClassifyAgreesWithDecode pins the Classify/Decode agreement on
// 0-, 1- and 2-flip patterns over random words and positions: Classify
// has ground truth Decode lacks, but within the guarantee region the
// two must tell the same story.
func TestClassifyAgreesWithDecode(t *testing.T) {
	src := rng.New(0xC1A55)
	for trial := 0; trial < 2000; trial++ {
		data := src.Uint64()
		c := Encode(data)
		var positions []int
		for len(positions) < src.Intn(3) {
			p := src.Intn(72)
			dup := false
			for _, q := range positions {
				dup = dup || q == p
			}
			if !dup {
				positions = append(positions, p)
				c.FlipBit(p)
			}
		}
		decoded, out := Decode(c)
		cl := Classify(errMask(data, c))
		switch len(positions) {
		case 0:
			if out != OK || cl != OK || decoded != data {
				t.Fatalf("clean word: Decode (%v,%#x), Classify %v", out, decoded, cl)
			}
		case 1:
			if out != Corrected || cl != Corrected || decoded != data {
				t.Fatalf("single flip %v: Decode (%v,%#x), Classify %v", positions, out, decoded, cl)
			}
		case 2:
			if out != Detected || cl != Detected {
				t.Fatalf("double flip %v: Decode %v, Classify %v", positions, out, cl)
			}
		}
	}
}

// TestBlockCodeCorrectableSubsetOfDetectable sweeps every flip count up
// to the codeword size for a range of code strengths: the verdict is
// never OK, and one more flip never improves it, so every correctable
// count is also detected.
func TestBlockCodeCorrectableSubsetOfDetectable(t *testing.T) {
	for _, dataBits := range []int{64, 128, 512} {
		for tcap := 0; tcap <= 3; tcap++ {
			code := BlockCode{DataBits: dataBits, T: tcap}
			size := dataBits + code.CheckBitsFor()
			prev := Corrected
			for n := 0; n <= size; n++ {
				oc := code.Outcome(n)
				if oc == OK || oc < prev {
					t.Fatalf("BlockCode{%d,t=%d}: %d flips give %v after %v",
						dataBits, tcap, n, oc, prev)
				}
				prev = oc
			}
		}
	}
}

// TestChipkillCorrectableSubsetOfDetectable enumerates every position
// set of size <=3 over the 72-bit codeword, and random larger sets:
// adding a strike to a pattern never improves its verdict, so every
// correctable pattern is also detected.
func TestChipkillCorrectableSubsetOfDetectable(t *testing.T) {
	outcome := func(ps ...int) Outcome { return Chipkill4.Outcome(maskOf(ps)) }
	check := func(sub, super Outcome, ps []int) {
		t.Helper()
		if super == OK || super < sub {
			t.Fatalf("chipkill: %v gives %v, a subset gives %v", ps, super, sub)
		}
	}
	for a := 0; a < 72; a++ {
		one := outcome(a)
		check(Corrected, one, []int{a})
		for b := a + 1; b < 72; b++ {
			two := outcome(a, b)
			check(one, two, []int{a, b})
			check(outcome(b), two, []int{a, b})
			for c := b + 1; c < 72; c++ {
				check(two, outcome(a, b, c), []int{a, b, c})
			}
		}
	}
	src := rng.New(0xC4117)
	for trial := 0; trial < 500; trial++ {
		ps := randomPositions(src, 4+src.Intn(8), 72)
		check(outcome(ps[:3]...), outcome(ps...), ps)
	}
}

// FuzzSECDEDDecode fuzzes flip pairs over random data words. For <=2
// flips the decoder must never report OK with wrong data — that is the
// whole SECDED contract the controller's silent-corruption accounting
// rests on. The corpus seeds the parity-bit-involved pairs: position 0
// participates in the overall parity only, which is where a sloppy
// decoder would confuse a double with a corrected single. Every input
// also holds the production rule to the codec on arbitrary patterns:
// Classify on the 72-bit mask {Lo: readBack, Hi: rawA} over data, and
// ClassifyData on the arbitrary read-back word readBack for data.
func FuzzSECDEDDecode(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint8(0), uint64(0))                                    // a==b: single flip on the parity bit
	f.Add(uint64(0xffffffffffffffff), uint8(0), uint8(1), uint64(0x7))                 // parity + first check bit
	f.Add(uint64(0x0123456789abcdef), uint8(0), uint8(3), uint64(0x0123456789abcdee))  // parity + first data slot
	f.Add(uint64(0xaaaaaaaaaaaaaaaa), uint8(0), uint8(71), uint64(0x5555555555555555)) // parity + last slot
	f.Add(uint64(0x5555555555555555), uint8(64), uint8(0), uint64(0x5555555555555556)) // high check + parity
	f.Add(uint64(1)<<63, uint8(70), uint8(71), uint64(1)<<63|1<<62|1<<61)              // top-of-word pair
	f.Fuzz(func(t *testing.T, data uint64, rawA, rawB uint8, readBack uint64) {
		a, b := int(rawA)%72, int(rawB)%72
		c := Encode(data)
		c.FlipBit(a)
		flips := 1
		if b != a {
			c.FlipBit(b)
			flips = 2
		}
		got, out := Decode(c)
		if out == OK && got != data {
			t.Fatalf("flips {%d,%d}: silent wrong data %#x for %#x", a, b, got, data)
		}
		switch flips {
		case 1:
			if out != Corrected || got != data {
				t.Fatalf("single flip %d: (%v, %#x), want exact correction", a, out, got)
			}
			if cl := Classify(errMask(data, c)); cl != Corrected {
				t.Fatalf("single flip %d: Classify %v", a, cl)
			}
		case 2:
			if out != Detected {
				t.Fatalf("double flip {%d,%d}: %v, want Detected", a, b, out)
			}
			if cl := Classify(errMask(data, c)); cl != Detected {
				t.Fatalf("double flip {%d,%d}: Classify %v", a, b, cl)
			}
		}

		mask := Codeword72{Lo: readBack, Hi: rawA}
		if cl, want := Classify(mask), classifyCodeword(data, Encode(data).xor(mask)); cl != want {
			t.Fatalf("Classify(%+v) = %v, codec on %#x says %v", mask, cl, data, want)
		}
		v, o := ClassifyData(data, readBack)
		if wv, wo := oracleClassifyData(data, readBack); v != wv || o != wo {
			t.Fatalf("ClassifyData(%#x, %#x) = (%#x, %v), oracle (%#x, %v)", data, readBack, v, o, wv, wo)
		}
	})
}
