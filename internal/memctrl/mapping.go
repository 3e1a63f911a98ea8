package memctrl

import (
	"fmt"

	"repro/internal/dram"
)

// Loc is a fully decoded system-level DRAM location: which channel and
// rank a flat physical address lands on, and the bank/row/column within
// that rank. It is the topology-aware generalization of Coord.
type Loc struct {
	Channel, Rank, Bank, Row, Col int
}

// Coord projects the within-rank part of the location.
func (l Loc) Coord() Coord { return Coord{Bank: l.Bank, Row: l.Row, Col: l.Col} }

// String formats the location for logs and templates.
func (l Loc) String() string {
	return fmt.Sprintf("ch%d/rk%d/b%d/r%d/c%d", l.Channel, l.Rank, l.Bank, l.Row, l.Col)
}

// MappingPolicy translates flat physical byte addresses to system-level
// DRAM locations and back. It is the knob DRAMA-style reverse
// engineering recovers and Drammer-style exploitation depends on: the
// same flat address stream lands on different channels, ranks, banks
// and rows under different policies.
//
// Address-wrap contract: the low 3 bits (byte-in-word) are dropped, and
// addresses beyond the topology's capacity wrap, i.e. for any
// word-aligned addr, Decode(addr) == Decode(addr % Bytes()) and
// Encode(Decode(addr)) == addr % Bytes(). Encode is the exact inverse
// of Decode over in-range locations: Decode(Encode(l)) == l for every
// l with 0 <= field < its topology bound.
type MappingPolicy interface {
	// Name identifies the policy in result tables and CLI flags.
	Name() string
	// Topology returns the topology the policy maps.
	Topology() dram.Topology
	// Decode maps a flat physical byte address to its location.
	Decode(addr uint64) Loc
	// Encode maps a location back to its canonical byte address.
	Encode(l Loc) uint64
	// Bytes returns the addressable capacity in bytes.
	Bytes() uint64
}

// split divides w by a field of size n, returning the field value
// (w mod n) and the rest (w / n).
func split(w uint64, n int) (int, uint64) {
	return int(w % uint64(n)), w / uint64(n)
}

// --- Row-interleaved open-page policy (the default) ---

// RowInterleaved keeps consecutive cache lines in the same row:
// the address is channel : rank : row : bank : col : offset from most
// to least significant. It is the open-page-friendly layout of the
// original single-device stack: on a 1-channel 1-rank topology the
// address is row : bank : col : offset.
type RowInterleaved struct {
	Topo dram.Topology
}

// Name implements MappingPolicy.
func (p RowInterleaved) Name() string { return "row-interleaved" }

// Topology implements MappingPolicy.
func (p RowInterleaved) Topology() dram.Topology { return p.Topo }

// Bytes implements MappingPolicy.
func (p RowInterleaved) Bytes() uint64 { return p.Topo.Bytes() }

// Decode implements MappingPolicy.
func (p RowInterleaved) Decode(addr uint64) Loc {
	t := &p.Topo
	w := addr >> 3
	col, w := split(w, t.Geom.Cols)
	bank, w := split(w, t.Geom.Banks)
	row, w := split(w, t.Geom.Rows)
	rank, w := split(w, t.Ranks)
	ch, _ := split(w, t.Channels)
	return Loc{Channel: ch, Rank: rank, Bank: bank, Row: row, Col: col}
}

// Encode implements MappingPolicy.
func (p RowInterleaved) Encode(l Loc) uint64 {
	g := p.Topo.Geom
	w := uint64(l.Channel)
	w = w*uint64(p.Topo.Ranks) + uint64(l.Rank)
	w = w*uint64(g.Rows) + uint64(l.Row)
	w = w*uint64(g.Banks) + uint64(l.Bank)
	w = w*uint64(g.Cols) + uint64(l.Col)
	return w << 3
}

// --- Cache-line channel/bank-interleaved policy ---

// lineWords returns the cache-line interleave granularity in 64-bit
// words: 8 (one 64-byte line) when the row width allows, else the
// largest power-of-two divisor of Cols.
func lineWords(cols int) int {
	lw := 8
	for cols%lw != 0 {
		lw >>= 1
	}
	return lw
}

// ChannelInterleaved spreads consecutive cache lines across channels,
// then banks, then ranks — the throughput-first layout real multi-core
// controllers use. The address is row : colHi : rank : bank : channel :
// colLo : offset from most to least significant, where colLo is the
// word-within-cache-line. Sequential streams hit every channel in turn,
// which is best for bandwidth and worst for an attacker trying to keep
// one row open.
type ChannelInterleaved struct {
	Topo dram.Topology
}

// Name implements MappingPolicy.
func (p ChannelInterleaved) Name() string { return "channel-interleaved" }

// Topology implements MappingPolicy.
func (p ChannelInterleaved) Topology() dram.Topology { return p.Topo }

// Bytes implements MappingPolicy.
func (p ChannelInterleaved) Bytes() uint64 { return p.Topo.Bytes() }

// Decode implements MappingPolicy.
func (p ChannelInterleaved) Decode(addr uint64) Loc {
	g := p.Topo.Geom
	lw := lineWords(g.Cols)
	w := addr >> 3
	colLo, w := split(w, lw)
	ch, w := split(w, p.Topo.Channels)
	bank, w := split(w, g.Banks)
	rank, w := split(w, p.Topo.Ranks)
	colHi, w := split(w, g.Cols/lw)
	row, _ := split(w, g.Rows)
	return Loc{Channel: ch, Rank: rank, Bank: bank, Row: row, Col: colHi*lw + colLo}
}

// Encode implements MappingPolicy.
func (p ChannelInterleaved) Encode(l Loc) uint64 {
	g := p.Topo.Geom
	lw := lineWords(g.Cols)
	w := uint64(l.Row)
	w = w*uint64(g.Cols/lw) + uint64(l.Col/lw)
	w = w*uint64(p.Topo.Ranks) + uint64(l.Rank)
	w = w*uint64(g.Banks) + uint64(l.Bank)
	w = w*uint64(p.Topo.Channels) + uint64(l.Channel)
	w = w*uint64(lw) + uint64(l.Col%lw)
	return w << 3
}

// --- XOR bank-hash policy (DRAMA-style) ---

// XORBankHash is RowInterleaved with the bank bits hashed against the
// low row bits, the permutation-based interleaving DRAMA reverse
// engineers on real controllers: two addresses that differ only in row
// generally land in different banks, spreading row-buffer conflicts.
// For power-of-two bank counts the hash is bank XOR (row mod Banks);
// otherwise the additive hash (bank + row) mod Banks keeps the policy
// bijective.
type XORBankHash struct {
	Topo dram.Topology
}

// Name implements MappingPolicy.
func (p XORBankHash) Name() string { return "xor-bank-hash" }

// Topology implements MappingPolicy.
func (p XORBankHash) Topology() dram.Topology { return p.Topo }

// Bytes implements MappingPolicy.
func (p XORBankHash) Bytes() uint64 { return p.Topo.Bytes() }

// hashBank folds row bits into a stored bank field; unhashBank inverts
// it given the same row.
func (p XORBankHash) hashBank(bank, row int) int {
	banks := p.Topo.Geom.Banks
	if banks&(banks-1) == 0 {
		return bank ^ (row & (banks - 1))
	}
	return (bank + row) % banks
}

func (p XORBankHash) unhashBank(stored, row int) int {
	banks := p.Topo.Geom.Banks
	if banks&(banks-1) == 0 {
		return stored ^ (row & (banks - 1))
	}
	return ((stored-row)%banks + banks) % banks
}

// Decode implements MappingPolicy. It splits RowInterleaved's layout
// and unhashes the stored bank in one pass.
func (p XORBankHash) Decode(addr uint64) Loc {
	t := &p.Topo
	w := addr >> 3
	col, w := split(w, t.Geom.Cols)
	stored, w := split(w, t.Geom.Banks)
	row, w := split(w, t.Geom.Rows)
	rank, w := split(w, t.Ranks)
	ch, _ := split(w, t.Channels)
	return Loc{Channel: ch, Rank: rank, Bank: p.unhashBank(stored, row), Row: row, Col: col}
}

// Encode implements MappingPolicy.
func (p XORBankHash) Encode(l Loc) uint64 {
	l.Bank = p.hashBank(l.Bank, l.Row)
	return RowInterleaved{Topo: p.Topo}.Encode(l)
}

// Policies returns one instance of every mapping policy over the given
// topology, default first.
func Policies(t dram.Topology) []MappingPolicy {
	return []MappingPolicy{
		RowInterleaved{Topo: t},
		ChannelInterleaved{Topo: t},
		XORBankHash{Topo: t},
	}
}

// PolicyByName resolves a policy by its Name (or the short aliases
// "row", "channel", "xor") over the given topology.
func PolicyByName(name string, t dram.Topology) (MappingPolicy, error) {
	switch name {
	case "", "row", "row-interleaved":
		return RowInterleaved{Topo: t}, nil
	case "channel", "channel-interleaved":
		return ChannelInterleaved{Topo: t}, nil
	case "xor", "xor-bank-hash":
		return XORBankHash{Topo: t}, nil
	}
	return nil, fmt.Errorf("memctrl: unknown mapping policy %q (want row, channel or xor)", name)
}
