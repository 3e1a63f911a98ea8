package ecc

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	if err := quick.Check(func(data uint64) bool {
		d, outcome := Decode(Encode(data))
		return d == data && outcome == OK
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSingleBitErrorsCorrected(t *testing.T) {
	data := uint64(0x0123456789abcdef)
	for pos := 0; pos < 72; pos++ {
		c := Encode(data)
		c.FlipBit(pos)
		d, outcome := Decode(c)
		if outcome != Corrected {
			t.Fatalf("flip at %d: outcome = %v, want Corrected", pos, outcome)
		}
		if d != data {
			t.Fatalf("flip at %d: data corrupted to %x", pos, d)
		}
	}
}

func TestAllDoubleBitErrorsDetected(t *testing.T) {
	data := uint64(0xfedcba9876543210)
	for a := 0; a < 72; a++ {
		for b := a + 1; b < 72; b++ {
			c := Encode(data)
			c.FlipBit(a)
			c.FlipBit(b)
			_, outcome := Decode(c)
			if outcome != Detected {
				t.Fatalf("flips at %d,%d: outcome = %v, want Detected", a, b, outcome)
			}
		}
	}
}

func TestTripleBitErrorsMayMiscorrect(t *testing.T) {
	// SECDED guarantees nothing beyond 2 flips; verify that at least
	// one triple-flip pattern produces a silent miscorrection, which
	// is the failure mode the paper's ECC discussion hinges on.
	data := uint64(0xaaaaaaaaaaaaaaaa)
	mis := 0
	for a := 0; a < 24; a++ {
		for b := a + 1; b < 48; b += 3 {
			for c2 := b + 1; c2 < 72; c2 += 5 {
				c := Encode(data)
				c.FlipBit(a)
				c.FlipBit(b)
				c.FlipBit(c2)
				if Classify(errMask(data, c)) == Miscorrect {
					mis++
				}
			}
		}
	}
	if mis == 0 {
		t.Fatal("no triple-bit pattern miscorrected; decoder is implausibly strong")
	}
}

func TestClassifyMatchesDecodeForCleanPatterns(t *testing.T) {
	data := uint64(0x5555aaaa0f0ff00f)
	if got := Classify(errMask(data, Encode(data))); got != OK {
		t.Errorf("clean codeword classified %v", got)
	}
	c := Encode(data)
	c.FlipBit(10)
	if got := Classify(errMask(data, c)); got != Corrected {
		t.Errorf("single flip classified %v", got)
	}
	c = Encode(data)
	c.FlipBit(10)
	c.FlipBit(20)
	if got := Classify(errMask(data, c)); got != Detected {
		t.Errorf("double flip classified %v", got)
	}
}

func TestFlipBitInvolution(t *testing.T) {
	if err := quick.Check(func(data uint64, posRaw uint8) bool {
		pos := int(posRaw) % 72
		c := Encode(data)
		orig := c
		c.FlipBit(pos)
		c.FlipBit(pos)
		return c == orig
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParityBitErrorCorrected(t *testing.T) {
	// Flipping the overall parity bit (position 0) must be handled.
	data := uint64(42)
	c := Encode(data)
	c.FlipBit(0)
	d, outcome := Decode(c)
	if outcome != Corrected || d != data {
		t.Fatalf("parity-bit flip: outcome=%v data=%x", outcome, d)
	}
}

func TestCheckBits(t *testing.T) {
	if CheckBits() != 8 {
		t.Fatalf("SECDED(72,64) has 8 check bits, got %d", CheckBits())
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		OK: "ok", Corrected: "corrected", Detected: "detected-uncorrectable",
		Miscorrect: "miscorrected", Outcome(99): "unknown",
	} {
		if o.String() != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, o.String(), want)
		}
	}
}

func TestBlockCode(t *testing.T) {
	bch := BlockCode{DataBits: 512, T: 2}
	for flips, want := range map[int]Outcome{0: Corrected, 2: Corrected, 3: Detected, 4: Miscorrect} {
		if got := bch.Outcome(flips); got != want {
			t.Errorf("BCH(512, t=2) with %d flips: %v, want %v", flips, got, want)
		}
	}
	if (BlockCode{DataBits: 512, T: 0}).CheckBitsFor() != 0 {
		t.Error("zero-strength code has overhead")
	}
	if got := bch.CheckBitsFor(); got != 20 {
		t.Errorf("BCH(512, t=2) check bits = %d, want 20", got)
	}
	if OnDie != (BlockCode{DataBits: 64, T: 1}) {
		t.Errorf("OnDie = %+v, want single-error-correcting over 64 bits", OnDie)
	}
}

func TestChipkill(t *testing.T) {
	for _, tc := range []struct {
		errs Codeword72
		want Outcome
	}{
		{Codeword72{}, Corrected},         // empty pattern
		{Codeword72{Lo: 0xf}, Corrected},  // one full symbol
		{Codeword72{Hi: 0xf0}, Corrected}, // the last symbol
		{Codeword72{Lo: 0x18}, Detected},  // bits 3,4: two symbols
		{Codeword72{Lo: 1 << 63, Hi: 1}, Detected},
		{Codeword72{Lo: 0x111}, Miscorrect}, // bits 0,4,8: three symbols
	} {
		if got := Chipkill4.Outcome(tc.errs); got != tc.want {
			t.Errorf("Chipkill4.Outcome(%+v) = %v, want %v", tc.errs, got, tc.want)
		}
	}
	if Chipkill4.SymbolBits != 4 {
		t.Errorf("Chipkill4 symbol width %d, want 4", Chipkill4.SymbolBits)
	}
	errs := Codeword72{Lo: 0x0123456789abcdef, Hi: 0x5a}
	if n := testing.AllocsPerRun(100, func() { Chipkill4.Outcome(errs) }); n != 0 {
		t.Errorf("Chipkill.Outcome allocates %.0f times per call", n)
	}
}

func TestRandomErrorStatistics(t *testing.T) {
	// Sanity: at 1, 2 and 3 random flips, measure decoder behaviour on
	// random data; single flips always corrected, double always
	// detected.
	src := rng.New(99)
	for trial := 0; trial < 500; trial++ {
		data := src.Uint64()
		c := Encode(data)
		p1 := src.Intn(72)
		c.FlipBit(p1)
		if Classify(errMask(data, c)) != Corrected {
			t.Fatal("random single flip not corrected")
		}
		c = Encode(data)
		p2 := (p1 + 1 + src.Intn(71)) % 72
		c.FlipBit(p1)
		c.FlipBit(p2)
		if Classify(errMask(data, c)) != Detected {
			t.Fatal("random double flip not detected")
		}
	}
}

// BenchmarkClassify times the mask entry point on a three-strike
// pattern, one of the E73 fleet's multi-flip events.
func BenchmarkClassify(b *testing.B) {
	errs := Codeword72{Lo: 1<<5 | 1<<17 | 1<<40}
	for b.Loop() {
		Classify(errs)
	}
}

// BenchmarkClassifyData times the read-path entry point on a word with
// one flipped data bit, the read triage's common non-clean case.
func BenchmarkClassifyData(b *testing.B) {
	want := uint64(0xdeadbeefcafebabe)
	for b.Loop() {
		ClassifyData(want, want^1<<17)
	}
}
