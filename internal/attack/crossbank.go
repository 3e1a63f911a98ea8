package attack

// Topology-aware attack kernels. A real attacker sees only flat
// physical addresses; which rows are physically adjacent — the pairs
// worth hammering — depends on the controller's address-mapping
// policy. AdjacentAddrs is the DRAMA-style probe that answers that
// question through the policy, and ScanSystem/CrossBankHammer use it
// to template and hammer a whole multi-channel topology, sharding the
// independent channels across workers.

import (
	"math/bits"

	"repro/internal/dram"
	"repro/internal/memctrl"
)

// AdjacentAddrs is the mapping-aware adjacency probe: it returns the
// flat physical addresses of the two rows sandwiching addr's row in
// the same channel, rank and bank — the aggressor pair for a
// double-sided hammer of addr's row. Under row-interleaved mapping the
// three addresses are near-contiguous; under cache-line interleaving
// they are megabytes apart, which is exactly why Drammer-style attacks
// must reverse the mapping before they can hammer. ok is false for
// edge rows, which have no two-sided sandwich.
func AdjacentAddrs(p memctrl.MappingPolicy, addr uint64) (below, above uint64, ok bool) {
	l := p.Decode(addr)
	if l.Row <= 0 || l.Row >= p.Topology().Geom.Rows-1 {
		return 0, 0, false
	}
	lo, hi := l, l
	lo.Row--
	hi.Row++
	lo.Col, hi.Col = 0, 0
	return p.Encode(lo), p.Encode(hi), true
}

// AdjacentLocs is AdjacentAddrs decoded back through the policy: the
// locations of the two rows sandwiching addr's row, ready to hammer
// (the system-level exploit chains derive their aggressor rows this
// way rather than assuming flat-address adjacency).
func AdjacentLocs(p memctrl.MappingPolicy, addr uint64) (below, above memctrl.Loc, ok bool) {
	lo, hi, ok := AdjacentAddrs(p, addr)
	if !ok {
		return memctrl.Loc{}, memctrl.Loc{}, false
	}
	return p.Decode(lo), p.Decode(hi), true
}

// EnumerateVictims lists the interior victim rows of every channel,
// rank and bank of a topology, starting at row start and stepping by
// stride — the shared victim-selection sweep of the cross-bank
// campaigns (CLI, benchmarks and experiments use the same list so
// they measure the same attack).
func EnumerateVictims(t dram.Topology, start, stride int) []memctrl.Loc {
	var victims []memctrl.Loc
	for ch := 0; ch < t.Channels; ch++ {
		for rk := 0; rk < t.Ranks; rk++ {
			for b := 0; b < t.Geom.Banks; b++ {
				for v := start; v < t.Geom.Rows-1; v += stride {
					victims = append(victims, memctrl.Loc{Channel: ch, Rank: rk, Bank: b, Row: v})
				}
			}
		}
	}
	return victims
}

// CrossBankHammer double-side hammers every victim location in
// parallel across the topology: victims are grouped by channel and the
// independent channels are sharded across up to workers goroutines
// (channel-level parallelism; results are bit-identical to a serial
// run, see memctrl.MemorySystem.ShardChannels). Within a channel,
// victims are hammered in the given order, so banks and ranks of one
// channel interleave on that channel's clock just as a real
// bank-parallel attack does on a shared bus.
func CrossBankHammer(ms *memctrl.MemorySystem, victims []memctrl.Loc, pairs, workers int) {
	byChan := make([][]memctrl.Loc, ms.Channels())
	for _, v := range victims {
		byChan[v.Channel] = append(byChan[v.Channel], v)
	}
	ms.ShardChannels(workers, func(ch int, c *memctrl.Controller) {
		for _, v := range byChan[ch] {
			c.HammerPairsRanked(v.Rank, v.Bank, v.Row-1, v.Row+1, pairs)
		}
	})
}

// SysFlipTemplate is one reproducible bit flip found by a
// topology-wide templating scan: hammering the two flat addresses
// AggrBelow/AggrAbove flips bit Bit of the row at Victim from From.
type SysFlipTemplate struct {
	Victim memctrl.Loc
	Bit    int
	From   uint64
	// AggrBelow and AggrAbove are the aggressor flat addresses the
	// adjacency probe derived through the mapping policy.
	AggrBelow, AggrAbove uint64
}

// writeRowRanked fills a logical row on one rank through the
// controller.
func writeRowRanked(c *memctrl.Controller, rank, bank, row int, pattern uint64) {
	for col := 0; col < c.Rank(0).Geom.Cols; col++ {
		c.AccessRanked(rank, memctrl.Coord{Bank: bank, Row: row, Col: col}, true, pattern)
	}
}

// readRowRanked reads a logical row on one rank through the controller.
func readRowRanked(c *memctrl.Controller, rank, bank, row int) []uint64 {
	out := make([]uint64, c.Rank(0).Geom.Cols)
	for col := range out {
		out[col], _ = c.AccessRanked(rank, memctrl.Coord{Bank: bank, Row: row, Col: col}, false, 0)
	}
	return out
}

// ScanSystem is the topology-wide templating pass: for every interior
// victim row of every channel, rank and bank, it derives the aggressor
// pair through the mapping policy (AdjacentAddrs — never by assuming
// consecutive flat addresses are adjacent rows), row-stripes victim
// and aggressors, double-side hammers, and records every flipped bit.
// Channels are sharded across up to workers goroutines; the returned
// templates are in deterministic channel-major order regardless of
// worker count.
func ScanSystem(ms *memctrl.MemorySystem, pattern uint64, pairsPerRow, workers int) []SysFlipTemplate {
	p := ms.Policy()
	t := ms.Topology()
	perChan := make([][]SysFlipTemplate, ms.Channels())
	ms.ShardChannels(workers, func(ch int, c *memctrl.Controller) {
		var out []SysFlipTemplate
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
						for diff != 0 {
							b := bits.TrailingZeros64(diff)
							out = append(out, SysFlipTemplate{
								Victim:    memctrl.Loc{Channel: ch, Rank: rank, Bank: bank, Row: v, Col: col},
								Bit:       col*64 + b,
								From:      (pattern >> uint(b)) & 1,
								AggrBelow: below, AggrAbove: above,
							})
							diff &= diff - 1
						}
					}
					// Repair the victim for the next iteration.
					writeRowRanked(c, rank, bank, v, pattern)
				}
			}
		}
		perChan[ch] = out
	})
	var all []SysFlipTemplate
	for _, out := range perChan {
		all = append(all, out...)
	}
	return all
}
