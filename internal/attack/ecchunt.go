package attack

// MiscorrectionHunt is the ECCploit-style templating pass (Cojocar et
// al., S&P 2019): RowHammer defeats SECDED not by overwhelming it but
// by finding words where the disturb physics yields two or more
// co-located flips, some of which the decoder silently miscorrects.
// The hunt runs the ScanSystem row-striping campaign with ECC off —
// the attacker profiles raw flips first, exactly as ECCploit does
// through timing side channels — then classifies every multi-flip word
// under each ECC configuration offline.

import (
	"math/bits"

	"repro/internal/ecc"
	"repro/internal/memctrl"
)

// ECCWordFinding is one word the disturb model corrupted with >=2
// co-located flips, classified under the standard ECC trio.
type ECCWordFinding struct {
	// Victim locates the word (Channel/Rank/Bank/Row/Col).
	Victim memctrl.Loc
	// Bits are the flipped within-word data-bit positions (0..63),
	// ascending.
	Bits []int
	// Pattern is the data word the victim row was striped with.
	Pattern uint64
	// SECDED is the ground-truth verdict of the bit-exact SECDED(72,64)
	// decoder on this flip pattern; Miscorrect means silent corruption.
	SECDED ecc.Outcome
	// InDRAM is the capability-model verdict of the default on-die
	// code (single-error-correcting over the 64-bit word).
	InDRAM ecc.Outcome
	// Chipkill is the capability-model verdict of x4 chipkill.
	Chipkill ecc.Outcome
}

// SilentUnderSECDED reports whether SECDED converts this word's flips
// into silent corruption.
func (f ECCWordFinding) SilentUnderSECDED() bool { return f.SECDED == ecc.Miscorrect }

// flipBitsOf expands a victim-word diff into its flipped within-word
// bit positions, ascending — the shared extraction step of every pass
// that classifies multi-flip words.
func flipBitsOf(diff uint64) []int {
	var out []int
	for d := diff; d != 0; d &= d - 1 {
		out = append(out, bits.TrailingZeros64(d))
	}
	return out
}

// MiscorrectionHunt runs the ScanSystem templating pass (row-stripe
// and double-side hammer every interior victim row of every channel,
// rank and bank, aggressors derived through the mapping policy),
// gathers its templates into flipped words, and classifies each word
// with >=2 co-located flips under SECDED(72,64), the default on-die
// code and x4 chipkill. Single-flip words — corrected by every
// configuration — are only counted. Channels shard across up to
// workers goroutines; findings come back in deterministic
// channel-major order regardless of worker count.
//
// The pass requires ECC-off controllers: an ECC layer would correct or
// rewrite exactly the patterns the hunt is profiling.
func MiscorrectionHunt(ms *memctrl.MemorySystem, pattern uint64, pairsPerRow, workers int) (findings []ECCWordFinding, singleFlipWords int) {
	for ch := 0; ch < ms.Channels(); ch++ {
		if ms.Controller(ch).ECCEnabled() {
			panic("attack: MiscorrectionHunt requires ECC-off controllers (the hunt profiles raw flips)")
		}
	}
	// ScanSystem emits one template per flipped bit, a word's bits
	// consecutive and ascending, so each run of equal Victim is a word.
	tmpl := ScanSystem(ms, pattern, pairsPerRow, workers)
	for i := 0; i < len(tmpl); {
		victim := tmpl[i].Victim
		var diff uint64
		for ; i < len(tmpl) && tmpl[i].Victim == victim; i++ {
			diff |= 1 << uint(tmpl[i].Bit&63)
		}
		flipped := flipBitsOf(diff)
		if len(flipped) < 2 {
			singleFlipWords++
			continue
		}
		f := ECCWordFinding{Victim: victim, Bits: flipped, Pattern: pattern}
		_, f.SECDED = ecc.ClassifyData(pattern, pattern^diff)
		f.InDRAM = ecc.OnDie.Outcome(len(flipped))
		f.Chipkill = ecc.Chipkill4.Outcome(ecc.Codeword72{Lo: diff})
		findings = append(findings, f)
	}
	return findings, singleFlipWords
}
