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

// MiscorrectionHunt row-stripes and double-side hammers every interior
// victim row of every channel, rank and bank (aggressors derived
// through the mapping policy, like ScanSystem), collects the words
// where the disturb model produced >=2 co-located flips, and
// classifies each under SECDED(72,64), the default on-die code and x4
// chipkill. Single-flip words — corrected by every configuration — are
// only counted. Channels shard across up to workers goroutines;
// findings come back in deterministic channel-major order regardless
// of worker count.
//
// The pass requires ECC-off controllers: an ECC layer would correct or
// rewrite exactly the patterns the hunt is profiling.
func MiscorrectionHunt(ms *memctrl.MemorySystem, pattern uint64, pairsPerRow, workers int) (findings []ECCWordFinding, singleFlipWords int) {
	p := ms.Policy()
	t := ms.Topology()
	for ch := 0; ch < ms.Channels(); ch++ {
		if ms.Controller(ch).ECCEnabled() {
			panic("attack: MiscorrectionHunt requires ECC-off controllers (the hunt profiles raw flips)")
		}
	}
	perChan := make([][]ECCWordFinding, ms.Channels())
	singles := make([]int, ms.Channels())
	ms.ShardChannels(workers, func(ch int, c *memctrl.Controller) {
		var out []ECCWordFinding
		for rank := 0; rank < t.Ranks; rank++ {
			for bank := 0; bank < t.Geom.Banks; bank++ {
				for v := 1; v < t.Geom.Rows-1; v++ {
					victim := memctrl.Loc{Channel: ch, Rank: rank, Bank: bank, Row: v}
					below, above, ok := AdjacentAddrs(p, p.Encode(victim))
					if !ok {
						continue
					}
					lo, hi := p.Decode(below), p.Decode(above)
					writeRowRanked(c, lo.Rank, lo.Bank, lo.Row, ^pattern)
					writeRowRanked(c, rank, bank, v, pattern)
					writeRowRanked(c, hi.Rank, hi.Bank, hi.Row, ^pattern)
					c.HammerPairsRanked(rank, bank, lo.Row, hi.Row, pairsPerRow)
					got := readRowRanked(c, rank, bank, v)
					for col, word := range got {
						diff := word ^ pattern
						if diff == 0 {
							continue
						}
						flipped := flipBitsOf(diff)
						if len(flipped) < 2 {
							singles[ch]++
							continue
						}
						f := ECCWordFinding{
							Victim:  memctrl.Loc{Channel: ch, Rank: rank, Bank: bank, Row: v, Col: col},
							Bits:    flipped,
							Pattern: pattern,
						}
						_, f.SECDED = ecc.ClassifyData(pattern, word)
						f.InDRAM = ecc.OnDie.Outcome(len(flipped))
						f.Chipkill = ecc.Chipkill4.Outcome(ecc.Codeword72{Lo: diff})
						out = append(out, f)
					}
					// Repair the victim for the next iteration.
					writeRowRanked(c, rank, bank, v, pattern)
				}
			}
		}
		perChan[ch] = out
	})
	for ch, out := range perChan {
		findings = append(findings, out...)
		singleFlipWords += singles[ch]
	}
	return findings, singleFlipWords
}
