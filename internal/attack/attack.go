// Package attack implements the offensive side of the paper: the
// user-level hammer kernels (single-, double- and N-sided), the
// flip-templating scan an attacker runs to find exploitable bits, and
// an end-to-end simulation of the Project-Zero-style page-table-entry
// privilege escalation, plus the cross-VM covictim scenario. All of it
// runs against the simulated memory system through the ordinary
// controller access path — the attacker has no powers a user-level
// program would not have, except where a scenario explicitly grants
// them (e.g. Drammer-style contiguous placement).
package attack

import (
	"repro/internal/memctrl"
)

// DoubleSided hammers the two rows sandwiching victimRow, in one bank
// of rank 0, with the given number of activation pairs. Alternating
// two rows in the same bank defeats the row buffer, so every access is
// an activation — exactly the trick the user-level test program relies
// on instead of cache flushes.
func DoubleSided(c *memctrl.Controller, bank, victimRow, pairs int) {
	c.HammerPairsRanked(0, bank, victimRow-1, victimRow+1, pairs)
}

// SingleSided hammers aggrRow against a distant dummy row on rank 0
// (the original test program's pattern: the dummy forces row-buffer
// conflicts without disturbing the victim's other side).
func SingleSided(c *memctrl.Controller, bank, aggrRow, dummyRow, pairs int) {
	c.HammerPairsRanked(0, bank, aggrRow, dummyRow, pairs)
}

// FlipTemplate records one reproducible bit flip found by scanning:
// hammering the two aggressor rows flips bit Bit of VictimRow from
// From to 1-From.
type FlipTemplate struct {
	Bank      int
	VictimRow int
	Bit       int
	From      uint64
	AggrUp    int
	AggrDown  int
}

// Scan is the templating pass over one bank of rank 0: for every
// interior victim row, fill the victim with the given pattern and the
// aggressors with its complement (the row-stripe configuration that
// maximizes coupling), double-side hammer for pairsPerRow pairs, and
// record every flipped bit as a template.
func Scan(c *memctrl.Controller, bank int, pattern uint64, pairsPerRow int) []FlipTemplate {
	rows := c.Rank(0).Geom.Rows
	var out []FlipTemplate
	for v := 1; v < rows-1; v++ {
		writeRowRanked(c, 0, bank, v-1, ^pattern)
		writeRowRanked(c, 0, bank, v, pattern)
		writeRowRanked(c, 0, bank, v+1, ^pattern)
		DoubleSided(c, bank, v, pairsPerRow)
		got := readRowRanked(c, 0, bank, v)
		for col, word := range got {
			diff := word ^ pattern
			for diff != 0 {
				b := trailingZeros(diff)
				bit := col*64 + b
				out = append(out, FlipTemplate{
					Bank: bank, VictimRow: v, Bit: bit,
					From:   (pattern >> uint(b)) & 1,
					AggrUp: v - 1, AggrDown: v + 1,
				})
				diff &= diff - 1
			}
		}
		// Repair the victim for the next iteration.
		writeRowRanked(c, 0, bank, v, pattern)
	}
	return out
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}
