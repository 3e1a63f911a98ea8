package memctrl

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
)

// mappingTopologies is the sweep the property tests cover: degenerate,
// asymmetric, power-of-two and non-power-of-two shapes (non-pow2 banks
// exercise the XOR policy's additive fallback, odd Cols the line-width
// fallback).
func mappingTopologies() []dram.Topology {
	return []dram.Topology{
		{Channels: 1, Ranks: 1, Geom: dram.Geometry{Banks: 1, Rows: 16, Cols: 4}},
		{Channels: 1, Ranks: 1, Geom: dram.Geometry{Banks: 8, Rows: 128, Cols: 16}},
		{Channels: 2, Ranks: 1, Geom: dram.Geometry{Banks: 4, Rows: 64, Cols: 8}},
		{Channels: 2, Ranks: 2, Geom: dram.Geometry{Banks: 8, Rows: 32, Cols: 16}},
		{Channels: 4, Ranks: 2, Geom: dram.Geometry{Banks: 4, Rows: 128, Cols: 32}},
		{Channels: 3, Ranks: 2, Geom: dram.Geometry{Banks: 3, Rows: 40, Cols: 6}},
		{Channels: 2, Ranks: 3, Geom: dram.Geometry{Banks: 5, Rows: 24, Cols: 7}},
	}
}

func locInRange(t *testing.T, p MappingPolicy, l Loc, ctx string) {
	t.Helper()
	topo := p.Topology()
	g := topo.Geom
	if l.Channel < 0 || l.Channel >= topo.Channels ||
		l.Rank < 0 || l.Rank >= topo.Ranks ||
		l.Bank < 0 || l.Bank >= g.Banks ||
		l.Row < 0 || l.Row >= g.Rows ||
		l.Col < 0 || l.Col >= g.Cols {
		t.Fatalf("%s: %s decoded out-of-range %+v for topology %+v", ctx, p.Name(), l, topo)
	}
}

// TestMappingRoundTrip is the Encode/Decode property test across every
// policy and topology: Decode(Encode(l)) == l for all in-range
// locations (exhaustive over rows/banks on small shapes, sampled
// cols), and Encode(Decode(a)) == a for word-aligned in-range
// addresses.
func TestMappingRoundTrip(t *testing.T) {
	src := rng.New(7)
	for _, topo := range mappingTopologies() {
		for _, p := range Policies(topo) {
			// Loc -> addr -> Loc, exhaustive on channel/rank/bank/row.
			for ch := 0; ch < topo.Channels; ch++ {
				for rk := 0; rk < topo.Ranks; rk++ {
					for b := 0; b < topo.Geom.Banks; b++ {
						for r := 0; r < topo.Geom.Rows; r++ {
							l := Loc{Channel: ch, Rank: rk, Bank: b, Row: r,
								Col: src.Intn(topo.Geom.Cols)}
							addr := p.Encode(l)
							if addr >= p.Bytes() {
								t.Fatalf("%s/%s: Encode(%+v) = %#x beyond capacity %#x",
									topo, p.Name(), l, addr, p.Bytes())
							}
							if got := p.Decode(addr); got != l {
								t.Fatalf("%s/%s: Decode(Encode(%+v)) = %+v", topo, p.Name(), l, got)
							}
						}
					}
				}
			}
			// addr -> Loc -> addr, sampled.
			for i := 0; i < 2000; i++ {
				addr := src.Uint64n(p.Bytes()) &^ 7
				l := p.Decode(addr)
				locInRange(t, p, l, topo.String())
				if got := p.Encode(l); got != addr {
					t.Fatalf("%s/%s: Encode(Decode(%#x)) = %#x", topo, p.Name(), addr, got)
				}
			}
		}
	}
}

// TestMappingAddressWrap checks the documented wrap contract: for any
// word-aligned address, Decode(addr) == Decode(addr % Bytes()) and
// Encode(Decode(addr)) == addr % Bytes(). The low 3 bits are dropped.
func TestMappingAddressWrap(t *testing.T) {
	src := rng.New(11)
	for _, topo := range mappingTopologies() {
		for _, p := range Policies(topo) {
			for i := 0; i < 1000; i++ {
				addr := src.Uint64() &^ 7
				wrapped := addr % p.Bytes()
				if got, want := p.Decode(addr), p.Decode(wrapped); got != want {
					t.Fatalf("%s/%s: Decode(%#x) = %+v, Decode(wrapped %#x) = %+v",
						topo, p.Name(), addr, got, wrapped, want)
				}
				if got := p.Encode(p.Decode(addr)); got != wrapped {
					t.Fatalf("%s/%s: Encode(Decode(%#x)) = %#x, want %#x",
						topo, p.Name(), addr, got, wrapped)
				}
				// Byte-offset bits are dropped.
				if got := p.Decode(addr | 5); got != p.Decode(addr) {
					t.Fatalf("%s/%s: low 3 bits changed decode of %#x", topo, p.Name(), addr)
				}
			}
		}
	}
}

// TestRowInterleavedMatchesAddressMap pins the single-device layout:
// over a 1-channel 1-rank topology, RowInterleaved decodes and encodes
// as row : bank : col : offset, the closed form below, for every
// address — addresses beyond the device wrap modulo its capacity.
func TestRowInterleavedMatchesAddressMap(t *testing.T) {
	g := dram.Geometry{Banks: 8, Rows: 128, Cols: 16}
	p := RowInterleaved{Topo: dram.SingleChannel(g)}
	want := func(addr uint64) Loc {
		w := addr >> 3
		col := int(w % uint64(g.Cols))
		w /= uint64(g.Cols)
		bank := int(w % uint64(g.Banks))
		w /= uint64(g.Banks)
		return Loc{Bank: bank, Row: int(w % uint64(g.Rows)), Col: col}
	}
	bytes := uint64(g.Banks * g.Rows * g.Cols * 8)
	if p.Bytes() != bytes {
		t.Fatalf("Bytes() = %d, want %d", p.Bytes(), bytes)
	}
	// Exhaustive over the device plus sampled far-out-of-range.
	for addr := uint64(0); addr < bytes; addr += 8 {
		l := p.Decode(addr)
		if l != want(addr) {
			t.Fatalf("Decode(%#x) = %+v, want %+v", addr, l, want(addr))
		}
		if p.Encode(l) != addr {
			t.Fatalf("Encode(Decode(%#x)) = %#x", addr, p.Encode(l))
		}
	}
	// Literal wrap points: one past the last word is address 0 again,
	// and a far address lands where its remainder does.
	for _, tc := range []struct {
		addr uint64
		want Loc
	}{
		{bytes, Loc{}},
		{bytes + 0x88, Loc{Bank: 1, Col: 1}},
		{3*bytes + 0x400, Loc{Row: 1}},
		{bytes - 8, Loc{Bank: 7, Row: 127, Col: 15}},
	} {
		if got := p.Decode(tc.addr); got != tc.want {
			t.Errorf("Decode(%#x) = %+v, want %+v", tc.addr, got, tc.want)
		}
	}
	src := rng.New(13)
	for i := 0; i < 5000; i++ {
		addr := src.Uint64()
		if l := p.Decode(addr); l != want(addr) || l != p.Decode(addr%bytes) {
			t.Fatalf("wrapped Decode(%#x) = %+v, want %+v", addr, l, want(addr))
		}
	}
}

// TestChannelInterleavedSpreadsLines checks the policy's purpose:
// consecutive cache lines land on rotating channels.
func TestChannelInterleavedSpreadsLines(t *testing.T) {
	topo := dram.Topology{Channels: 2, Ranks: 2, Geom: dram.Geometry{Banks: 4, Rows: 64, Cols: 16}}
	p := ChannelInterleaved{Topo: topo}
	for line := uint64(0); line < 16; line++ {
		l := p.Decode(line * 64)
		if want := int(line) % topo.Channels; l.Channel != want {
			t.Fatalf("line %d on channel %d, want %d", line, l.Channel, want)
		}
	}
	// Within one cache line everything stays put.
	base := p.Decode(0)
	for off := uint64(8); off < 64; off += 8 {
		l := p.Decode(off)
		l.Col = base.Col
		if l != base {
			t.Fatalf("offset %d left the cache line: %+v vs %+v", off, p.Decode(off), base)
		}
	}
}

// TestXORBankHashSpreadsRows checks that same-bank-bits addresses of
// different rows land in different banks (the DRAMA signature), while
// RowInterleaved keeps them in one bank.
func TestXORBankHashSpreadsRows(t *testing.T) {
	topo := dram.Topology{Channels: 1, Ranks: 1, Geom: dram.Geometry{Banks: 4, Rows: 64, Cols: 8}}
	xor := XORBankHash{Topo: topo}
	row := RowInterleaved{Topo: topo}
	banksSeen := map[int]bool{}
	rowBankSeen := map[int]bool{}
	// Walk addresses that differ only in the row field of the
	// row-interleaved layout (stride = Banks*Cols words).
	stride := uint64(topo.Geom.Banks*topo.Geom.Cols) * 8
	for r := uint64(0); r < 8; r++ {
		banksSeen[xor.Decode(r*stride).Bank] = true
		rowBankSeen[row.Decode(r*stride).Bank] = true
	}
	if len(rowBankSeen) != 1 {
		t.Fatalf("row-interleaved spread rows over %d banks, want 1", len(rowBankSeen))
	}
	if len(banksSeen) != topo.Geom.Banks {
		t.Fatalf("xor-bank-hash spread rows over %d banks, want %d", len(banksSeen), topo.Geom.Banks)
	}
}

func TestPolicyByName(t *testing.T) {
	topo := dram.SingleChannel(dram.Geometry{Banks: 2, Rows: 16, Cols: 4})
	for name, want := range map[string]string{
		"":                    "row-interleaved",
		"row":                 "row-interleaved",
		"channel":             "channel-interleaved",
		"channel-interleaved": "channel-interleaved",
		"xor":                 "xor-bank-hash",
	} {
		p, err := PolicyByName(name, topo)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Fatalf("PolicyByName(%q) = %s, want %s", name, p.Name(), want)
		}
	}
	if _, err := PolicyByName("nope", topo); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// divisionDecode is the inline decode every policy had before the
// field splits moved into split and XORBankHash stopped building a
// RowInterleaved value: the oracle the shared decode must reproduce for
// every address and topology.
func divisionDecode(p MappingPolicy, addr uint64) Loc {
	topo := p.Topology()
	g := topo.Geom
	w := addr >> 3
	if _, ok := p.(ChannelInterleaved); ok {
		lw := lineWords(g.Cols)
		colLo := int(w % uint64(lw))
		w /= uint64(lw)
		ch := int(w % uint64(topo.Channels))
		w /= uint64(topo.Channels)
		bank := int(w % uint64(g.Banks))
		w /= uint64(g.Banks)
		rank := int(w % uint64(topo.Ranks))
		w /= uint64(topo.Ranks)
		colHi := int(w % uint64(g.Cols/lw))
		w /= uint64(g.Cols / lw)
		row := int(w % uint64(g.Rows))
		return Loc{Channel: ch, Rank: rank, Bank: bank, Row: row, Col: colHi*lw + colLo}
	}
	col := int(w % uint64(g.Cols))
	w /= uint64(g.Cols)
	bank := int(w % uint64(g.Banks))
	w /= uint64(g.Banks)
	row := int(w % uint64(g.Rows))
	w /= uint64(g.Rows)
	rank := int(w % uint64(topo.Ranks))
	w /= uint64(topo.Ranks)
	ch := int(w % uint64(topo.Channels))
	if _, ok := p.(XORBankHash); ok {
		if g.Banks&(g.Banks-1) == 0 {
			bank ^= row % g.Banks
		} else {
			bank = ((bank-row)%g.Banks + g.Banks) % g.Banks
		}
	}
	return Loc{Channel: ch, Rank: rank, Bank: bank, Row: row, Col: col}
}

// TestPolicyDecodeMatchesDivisionOracle requires every policy's Decode
// to equal the division oracle over every topology of the sweep, at
// sampled in-range addresses, field boundaries and far-out addresses.
func TestPolicyDecodeMatchesDivisionOracle(t *testing.T) {
	src := rng.New(17)
	for _, topo := range mappingTopologies() {
		for _, p := range Policies(topo) {
			addrs := []uint64{0, 8, p.Bytes() - 8, p.Bytes(), ^uint64(0), ^uint64(0) &^ 7}
			for i := 0; i < 3000; i++ {
				addrs = append(addrs, src.Uint64n(p.Bytes()), src.Uint64())
			}
			for _, addr := range addrs {
				if got, want := p.Decode(addr), divisionDecode(p, addr); got != want {
					t.Fatalf("%s/%s: Decode(%#x) = %+v, oracle %+v", topo, p.Name(), addr, got, want)
				}
			}
		}
	}
}

// FuzzMappingRoundTrip fuzzes the wrap and round-trip contracts, and
// Decode against the division oracle, over arbitrary addresses and a
// topology picked from the seed byte.
func FuzzMappingRoundTrip(f *testing.F) {
	f.Add(uint64(0), byte(0))
	f.Add(uint64(0xdeadbeef), byte(1))
	f.Add(^uint64(0), byte(2))
	f.Add(uint64(4096), byte(255))
	topos := mappingTopologies()
	f.Fuzz(func(t *testing.T, addr uint64, pick byte) {
		topo := topos[int(pick)%len(topos)]
		for _, p := range Policies(topo) {
			l := p.Decode(addr)
			if want := divisionDecode(p, addr); l != want {
				t.Fatalf("%s: Decode(%#x) = %+v, oracle %+v", p.Name(), addr, l, want)
			}
			topoG := p.Topology().Geom
			if l.Channel < 0 || l.Channel >= p.Topology().Channels ||
				l.Rank < 0 || l.Rank >= p.Topology().Ranks ||
				l.Bank < 0 || l.Bank >= topoG.Banks ||
				l.Row < 0 || l.Row >= topoG.Rows ||
				l.Col < 0 || l.Col >= topoG.Cols {
				t.Fatalf("%s: Decode(%#x) out of range: %+v", p.Name(), addr, l)
			}
			if got, want := p.Encode(l), (addr&^7)%p.Bytes(); got != want {
				t.Fatalf("%s: Encode(Decode(%#x)) = %#x, want %#x", p.Name(), addr, got, want)
			}
			if p.Decode(p.Encode(l)) != l {
				t.Fatalf("%s: round trip moved %+v", p.Name(), l)
			}
		}
	})
}

// BenchmarkPolicyDecode decodes random addresses through each policy,
// called through the MappingPolicy interface as the memory system does,
// on the 4ch x 2rk benign traffic topology. One op is one Decode.
func BenchmarkPolicyDecode(b *testing.B) {
	topo := dram.Topology{Channels: 4, Ranks: 2, Geom: dram.Geometry{Banks: 4, Rows: 256, Cols: 16}}
	for _, p := range Policies(topo) {
		src := rng.New(1)
		addrs := make([]uint64, 4096)
		for i := range addrs {
			addrs[i] = src.Uint64n(p.Bytes())
		}
		b.Run(p.Name(), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += p.Decode(addrs[i&(len(addrs)-1)]).Row
			}
			benchSink = sink
		})
	}
}

var benchSink int
