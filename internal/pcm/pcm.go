// Package pcm models the endurance-limited emerging memory the paper
// warns about: phase-change memory cells wear out after a bounded
// number of writes, so a malicious workload that concentrates writes
// on one line can destroy it quickly unless the memory controller
// remaps addresses over time. The package implements the Start-Gap
// wear-leveling scheme (Qureshi et al., MICRO 2009) that the paper's
// reference list points to, plus an optional address-space
// randomization layer, and a write-attack lifetime experiment driver.
package pcm

import (
	"fmt"

	"repro/internal/rng"
)

// Array is a PCM array of lines with per-line endurance limits.
type Array struct {
	lines     []uint64 // writes absorbed per physical line
	endurance []uint64 // per-line write endurance
	failed    int      // first failed physical line, -1 if none
}

// NewArray builds an array of n lines whose endurance is normally
// distributed around mean with the given coefficient of variation.
func NewArray(n int, mean float64, cov float64, src *rng.Stream) *Array {
	a := &Array{
		lines:     make([]uint64, n),
		endurance: make([]uint64, n),
		failed:    -1,
	}
	for i := range a.endurance {
		e := src.Normal(mean, mean*cov)
		if e < mean*0.1 {
			e = mean * 0.1
		}
		a.endurance[i] = uint64(e)
	}
	return a
}

// Lines returns the number of physical lines.
func (a *Array) Lines() int { return len(a.lines) }

// WritePhys absorbs one write into a physical line. It reports false
// once the line has exceeded its endurance (the array has failed).
func (a *Array) WritePhys(line int) bool {
	if a.failed >= 0 {
		return false
	}
	a.lines[line]++
	if a.lines[line] > a.endurance[line] {
		a.failed = line
		return false
	}
	return true
}

// Failed reports whether any line has worn out.
func (a *Array) Failed() bool { return a.failed >= 0 }

// Mapper translates logical line addresses to physical lines.
type Mapper interface {
	// Name identifies the scheme in result tables.
	Name() string
	// Map translates a logical line to its physical line, performing
	// any internal remap bookkeeping the write implies.
	Map(logical int) int
	// OnWrite informs the mapper that a write completed, letting
	// rotation-based schemes advance.
	OnWrite(a *Array)
}

// Direct is the no-wear-leveling identity mapping.
type Direct struct{}

// Name implements Mapper.
func (Direct) Name() string { return "none" }

// Map implements Mapper.
func (Direct) Map(logical int) int { return logical }

// OnWrite implements Mapper.
func (Direct) OnWrite(a *Array) {}

// StartGap implements Start-Gap wear leveling: one spare line plus two
// registers (start, gap). Every psi writes, the line before the gap
// moves into the gap, rotating the logical-to-physical mapping one
// step; after n+1 gap movements every line has shifted by one, spread
// uniformly over time. Storage cost: two registers and one spare line.
type StartGap struct {
	// Psi is the gap-movement period in writes (the paper uses 100).
	Psi int

	n         int // logical lines (physical lines - 1)
	start     int
	gap       int
	sinceMove int
}

// NewStartGap creates the scheme for an array of physLines lines; one
// line is the roaming spare, so logical capacity is physLines-1.
func NewStartGap(physLines, psi int) *StartGap {
	if physLines < 2 || psi < 1 {
		panic(fmt.Sprintf("pcm: invalid start-gap config %d/%d", physLines, psi))
	}
	return &StartGap{Psi: psi, n: physLines - 1, gap: physLines - 1}
}

// Name implements Mapper.
func (s *StartGap) Name() string { return "start-gap" }

// Map implements Mapper, the MICRO 2009 mapping function:
// PA = (LA + Start) mod N, incremented by one to hop over the gap.
func (s *StartGap) Map(logical int) int {
	if logical < 0 || logical >= s.n {
		panic(fmt.Sprintf("pcm: logical line %d out of range", logical))
	}
	p := (logical + s.start) % s.n
	if p >= s.gap {
		p++
	}
	return p
}

// OnWrite implements Mapper: move the gap every Psi writes.
func (s *StartGap) OnWrite(a *Array) {
	s.sinceMove++
	if s.sinceMove < s.Psi {
		return
	}
	s.sinceMove = 0
	// Moving the gap copies the line above it into the gap position,
	// which costs one extra physical write.
	prev := s.gap - 1
	if prev < 0 {
		prev = s.n
	}
	a.WritePhys(s.gap)
	s.gap = prev
	if s.gap == s.n {
		// A full rotation completed; advance start.
		s.start = (s.start + 1) % s.n
	}
}

// Randomized wraps another mapper with a fixed pseudo-random address
// permutation (a static randomization layer, in the spirit of
// Security Refresh): an attacker aiming at one logical line cannot
// know which physical region it rotates through.
type Randomized struct {
	inner Mapper
	perm  []int
}

// NewRandomized builds the layer for n logical lines.
func NewRandomized(inner Mapper, n int, src *rng.Stream) *Randomized {
	return &Randomized{inner: inner, perm: src.Perm(n)}
}

// Name implements Mapper.
func (r *Randomized) Name() string { return r.inner.Name() + "+random" }

// Map implements Mapper.
func (r *Randomized) Map(logical int) int { return r.inner.Map(r.perm[logical]) }

// OnWrite implements Mapper.
func (r *Randomized) OnWrite(a *Array) { r.inner.OnWrite(a) }

// AttackResult reports a malicious-wear experiment.
type AttackResult struct {
	Scheme string
	// WritesToFailure is the number of attacker writes absorbed
	// before the first line died.
	WritesToFailure uint64
	// IdealWrites is lines * mean endurance, the perfect-leveling
	// bound.
	IdealWrites uint64
}

// RunWriteAttack hammers a single logical line until the array fails
// and reports how many writes that took. maxWrites bounds the
// simulation for schemes that survive too long to exhaust.
func RunWriteAttack(a *Array, m Mapper, target int, maxWrites uint64) AttackResult {
	var writes uint64
	for writes < maxWrites && !a.Failed() {
		a.WritePhys(m.Map(target))
		m.OnWrite(a)
		writes++
	}
	var ideal uint64
	for _, e := range a.endurance {
		ideal += e
	}
	return AttackResult{Scheme: m.Name(), WritesToFailure: writes, IdealWrites: ideal}
}
