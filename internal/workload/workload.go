// Package workload generates memory access streams for the overhead
// and detection experiments: sequential streaming, uniform random,
// strided, Zipf-hot row reuse, the RowHammer attacker stream, and
// weighted mixes that embed an attacker inside benign traffic (the
// scenario the ANVIL detection experiment needs).
//
// Every generator emits flat physical addresses over a whole topology,
// decoded by the memory system's active MappingPolicy at access time —
// so the identical address stream exercises different
// channel/rank/bank interleavings under different policies, which is
// what the mapping-sensitivity experiments (E30+) measure. On a
// single-channel single-rank system under the row-interleaved policy
// the address is row : bank : col : offset, the original one-device
// layout.
//
// FlatZipfRows' immutable half (the Zipf CDF, its guide table and the
// row permutation) is a pure function of the total row count, theta
// and the stream's position, so NewFlatZipfRows draws it through a
// process-wide popmemo.Memo keyed by those, bounded at 8 MiB with
// oldest-first eviction: a rebuilt generator shares the tables
// read-only and leaves its stream where a fresh build would.
package workload

import (
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/rng"
)

// FlatAccess is one generated request as a flat physical address; the
// memory system's mapping policy decides where it lands.
type FlatAccess struct {
	Addr  uint64
	Write bool
	Data  uint64
}

// FlatGenerator produces a flat physical address stream.
type FlatGenerator interface {
	// Name identifies the workload in result tables.
	Name() string
	// NextFlat returns the next access.
	NextFlat() FlatAccess
}

// FlatSequential streams through the flat address space in address
// order. What that means physically depends entirely on the mapping
// policy: same-row bursts under row-interleaving, channel-rotating
// cache lines under channel-interleaving.
type FlatSequential struct {
	bytes uint64
	pos   uint64
}

// NewFlatSequential creates a streaming workload over the policy's
// address space.
func NewFlatSequential(p memctrl.MappingPolicy) *FlatSequential {
	return &FlatSequential{bytes: p.Bytes()}
}

// Name implements FlatGenerator.
func (s *FlatSequential) Name() string { return "sequential" }

// NextFlat implements FlatGenerator.
func (s *FlatSequential) NextFlat() FlatAccess {
	a := FlatAccess{Addr: s.pos}
	s.pos += 8
	if s.pos >= s.bytes {
		s.pos = 0
	}
	return a
}

// FlatRandom issues uniformly distributed flat addresses. Given the
// same topology and stream seed it emits the identical address
// sequence no matter which policy decodes it — the controlled
// comparison the interleaving experiments need.
type FlatRandom struct {
	bytes uint64
	src   *rng.Stream
	// WriteFraction of requests are writes.
	WriteFraction float64
}

// NewFlatRandom creates a uniform random workload over the policy's
// address space.
func NewFlatRandom(p memctrl.MappingPolicy, writeFraction float64, src *rng.Stream) *FlatRandom {
	return &FlatRandom{bytes: p.Bytes(), src: src, WriteFraction: writeFraction}
}

// Name implements FlatGenerator.
func (r *FlatRandom) Name() string { return "random" }

// NextFlat implements FlatGenerator.
func (r *FlatRandom) NextFlat() FlatAccess {
	return FlatAccess{
		Addr:  r.src.Uint64n(r.bytes) &^ 7,
		Write: r.src.Bool(r.WriteFraction),
		Data:  r.src.Uint64(),
	}
}

// FlatStrided walks the flat address space with a fixed stride.
type FlatStrided struct {
	bytes  uint64
	Stride uint64
	pos    uint64
}

// NewFlatStrided creates a strided workload over the policy's address
// space.
func NewFlatStrided(p memctrl.MappingPolicy, stride uint64) *FlatStrided {
	return &FlatStrided{bytes: p.Bytes(), Stride: stride}
}

// Name implements FlatGenerator.
func (s *FlatStrided) Name() string { return "strided" }

// NextFlat implements FlatGenerator.
func (s *FlatStrided) NextFlat() FlatAccess {
	a := FlatAccess{Addr: s.pos}
	s.pos = (s.pos + s.Stride) % s.bytes
	return a
}

// FlatZipfRows concentrates accesses on a Zipf-hot set of rows drawn
// from the whole topology (every channel, rank and bank), encoded back
// to flat addresses through the policy.
type FlatZipfRows struct {
	policy memctrl.MappingPolicy
	topo   dram.Topology
	zipf   *rng.Zipf
	src    *rng.Stream
	perm   []int32 // shared read-only through the memo
}

// NewFlatZipfRows creates a Zipf-hot workload with the given skew.
func NewFlatZipfRows(p memctrl.MappingPolicy, theta float64, src *rng.Stream) *FlatZipfRows {
	return newFlatZipfRows(sharedZipfTables, p, theta, src)
}

// newFlatZipfRows is NewFlatZipfRows through memo m.
func newFlatZipfRows(m *zipfMemo, p memctrl.MappingPolicy, theta float64, src *rng.Stream) *FlatZipfRows {
	topo := p.Topology()
	t := zipfTablesOf(m, topo.TotalRows(), theta, src)
	return &FlatZipfRows{
		policy: p,
		topo:   topo,
		zipf:   t.zipf.WithSource(src),
		src:    src,
		perm:   t.perm,
	}
}

// Name implements FlatGenerator.
func (z *FlatZipfRows) Name() string { return "zipf-rows" }

// NextFlat implements FlatGenerator.
func (z *FlatZipfRows) NextFlat() FlatAccess {
	t := &z.topo
	flat := int(z.perm[z.zipf.Next()])
	l := memctrl.Loc{Col: z.src.Intn(t.Geom.Cols)}
	l.Channel = flat % t.Channels
	flat /= t.Channels
	l.Rank = flat % t.Ranks
	flat /= t.Ranks
	l.Bank = flat % t.Geom.Banks
	l.Row = flat / t.Geom.Banks
	return FlatAccess{Addr: z.policy.Encode(l)}
}

// FlatHammer is the attacker stream in flat-address form: it alternates
// between aggressor locations at the maximum rate. The aggressors are
// given as locations and encoded through the policy, so the stream is
// the flat-address trace a real attacker hammering those physical rows
// would produce under that mapping.
type FlatHammer struct {
	addrs []uint64
	i     int
}

// NewFlatHammer creates a hammering stream over the given aggressor
// locations.
func NewFlatHammer(p memctrl.MappingPolicy, locs ...memctrl.Loc) *FlatHammer {
	h := &FlatHammer{}
	for _, l := range locs {
		h.addrs = append(h.addrs, p.Encode(l))
	}
	return h
}

// Name implements FlatGenerator.
func (h *FlatHammer) Name() string { return "hammer" }

// NextFlat implements FlatGenerator.
func (h *FlatHammer) NextFlat() FlatAccess {
	a := FlatAccess{Addr: h.addrs[h.i]}
	h.i = (h.i + 1) % len(h.addrs)
	return a
}

// FlatMix interleaves flat generators with the given weights.
type FlatMix struct {
	gens    []FlatGenerator
	weights []float64
	src     *rng.Stream
	label   string
}

// NewFlatMix builds a weighted mix. Weights need not sum to one.
func NewFlatMix(label string, src *rng.Stream, gens []FlatGenerator, weights []float64) *FlatMix {
	if len(gens) != len(weights) || len(gens) == 0 {
		panic("workload: mismatched mix components")
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	norm := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		norm[i] = acc
	}
	return &FlatMix{gens: gens, weights: norm, src: src, label: label}
}

// Name implements FlatGenerator.
func (m *FlatMix) Name() string { return m.label }

// NextFlat implements FlatGenerator.
func (m *FlatMix) NextFlat() FlatAccess {
	u := m.src.Float64()
	for i, w := range m.weights {
		if u < w {
			return m.gens[i].NextFlat()
		}
	}
	return m.gens[len(m.gens)-1].NextFlat()
}

// RunSystem drives n accesses from a flat generator through a memory
// system — each address decoded by the active policy and routed to its
// channel — and returns the mean access latency in nanoseconds.
func RunSystem(ms *memctrl.MemorySystem, g FlatGenerator, n int) float64 {
	var total uint64
	p := ms.Policy()
	for i := 0; i < n; i++ {
		a := g.NextFlat()
		_, lat := ms.AccessLoc(p.Decode(a.Addr), a.Write, a.Data)
		total += uint64(lat)
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}
