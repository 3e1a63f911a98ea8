// Package popmemo is the bounded memo the fault models draw their
// weak-cell populations through, and the two layout steps both models
// share: the stable by-row sort that indexes a population (SortByRow)
// and the check that a checkpoint overlays it (Installed). The memo's
// third user is package workload, whose Zipf-rows generator draws its
// CDF, guide table and row permutation through one, keyed by the row
// count and theta.
//
// A population is a pure function of the device geometry, the model's
// Params and the drawing stream's position, and so is the stream's
// position after the draw. Sweeps that rebuild a system from its spec
// and then overlay a snapshot (checkpoint restore, the attack
// tournament's cloned cells) draw the same population over and over.
// A Memo keeps each drawn population once per process: a later draw
// from the same key and stream state returns the memoised population
// and moves the stream to where the draw left it, so a hit is
// indistinguishable from a miss to the caller. Memoised populations
// are shared, so callers must never write them.
package popmemo

import (
	"math"
	"sync"

	"repro/internal/rng"
)

// Memo is a bounded first-in-first-out memo of populations of type P,
// keyed by K (the caller's geometry and parameter bits) together with
// the drawing stream's complete state. The insertion order lives in
// fifo because map iteration order is not deterministic.
type Memo[K comparable, P any] struct {
	mu      sync.Mutex
	budget  int
	bytes   int
	entries map[key[K]]*entry[P]
	fifo    []key[K]
}

// key is the caller's key plus the stream state, float fields by their
// bits so distinct states never compare equal.
type key[K comparable] struct {
	k         K
	s         [4]uint64
	haveSpare bool
	spare     uint64
}

func newKey[K comparable](k K, st rng.State) key[K] {
	return key[K]{k: k, s: st.S, haveSpare: st.HaveSpare, spare: math.Float64bits(st.Spare)}
}

// entry is a memoised population, its size and the stream state after
// its draw.
type entry[P any] struct {
	pop   P
	after rng.State
	bytes int
}

// New returns an empty memo holding at most budget bytes of
// populations. A population larger than the budget is never cached;
// inserting one that does not fit evicts the oldest entries first.
func New[K comparable, P any](budget int) *Memo[K, P] {
	return &Memo[K, P]{budget: budget, entries: make(map[key[K]]*entry[P])}
}

// Draw returns the population drawn under k from src's current state.
// On a hit it returns the memoised population and sets src to the
// state the draw left. On a miss it calls draw, which consumes src and
// returns the population and its size in bytes, and memoises the
// result. shared reports whether the returned population is held by
// the memo. The draw runs outside the lock: concurrent misses on one
// key both draw, the first insertion wins and the others return their
// own, unshared draws.
func (m *Memo[K, P]) Draw(k K, src *rng.Stream, draw func() (P, int)) (pop P, shared bool) {
	key := newKey(k, src.State())
	m.mu.Lock()
	e := m.entries[key]
	m.mu.Unlock()
	if e != nil {
		src.SetState(e.after)
		return e.pop, true
	}
	pop, bytes := draw()
	return pop, m.insert(key, &entry[P]{pop: pop, after: src.State(), bytes: bytes})
}

// insert adds e under key unless it exceeds the budget or the key is
// already present, evicting the oldest entries until it fits. It
// reports whether e was added.
func (m *Memo[K, P]) insert(key key[K], e *entry[P]) bool {
	if e.bytes > m.budget {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; ok {
		return false
	}
	for m.bytes+e.bytes > m.budget {
		oldest := m.fifo[0]
		m.fifo = m.fifo[1:]
		m.bytes -= m.entries[oldest].bytes
		delete(m.entries, oldest)
	}
	m.entries[key] = e
	m.fifo = append(m.fifo, key)
	m.bytes += e.bytes
	return true
}

// Lookup returns the population memoised under k for a draw from a
// stream at st, if the memo holds one.
func (m *Memo[K, P]) Lookup(k K, st rng.State) (pop P, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[newKey(k, st)]; e != nil {
		return e.pop, true
	}
	return pop, false
}

// Len returns the number of memoised populations.
func (m *Memo[K, P]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
