package popmemo

import (
	"testing"

	"repro/internal/rng"
)

// drawN draws one Uint64 from src as the population, so the population
// identifies the stream state it was drawn from.
func drawN(src *rng.Stream, bytes int) func() (uint64, int) {
	return func() (uint64, int) { return src.Uint64(), bytes }
}

// checkAccounts requires the byte count to be the sum of the entries'
// sizes, within budget, with fifo listing every entry once.
func checkAccounts(t *testing.T, m *Memo[string, uint64]) {
	t.Helper()
	sum := 0
	seen := map[key[string]]bool{}
	for _, k := range m.fifo {
		e := m.entries[k]
		if e == nil || seen[k] {
			t.Fatal("fifo names a population the memo does not hold, or one twice")
		}
		seen[k] = true
		sum += e.bytes
	}
	if len(m.fifo) != len(m.entries) || sum != m.bytes || m.bytes > m.budget {
		t.Fatalf("memo accounts: %d entries, fifo %d, %d bytes counted, %d summed, budget %d",
			len(m.entries), len(m.fifo), m.bytes, sum, m.budget)
	}
}

// TestDrawHitMatchesMiss pins that a hit returns the missed draw and
// leaves the stream where the draw left it, and that the key tells
// apart the caller's key and every part of the stream state, the
// cached spare Gaussian included.
func TestDrawHitMatchesMiss(t *testing.T) {
	withSpare := rng.New(7)
	withSpare.Normal(0, 1)
	noSpare := withSpare.State()
	noSpare.HaveSpare, noSpare.Spare = false, 0
	m := New[string, uint64](1 << 10)
	for _, k := range []string{"a", "b"} {
		for _, st := range []rng.State{rng.New(7).State(), withSpare.State(), noSpare} {
			fresh := rng.FromState(st)
			want := fresh.Uint64()
			for _, ctx := range []string{"miss", "hit"} {
				src := rng.FromState(st)
				got, shared := m.Draw(k, src, drawN(src, 8))
				if got != want || !shared || src.State() != fresh.State() {
					t.Fatalf("%s %s: population %d shared %v, want %d shared; stream moved to another state", k, ctx, got, shared, want)
				}
			}
		}
	}
	if m.Len() != 6 || m.bytes != 48 {
		t.Fatalf("memo holds %d populations of %d bytes, want 6 of 48", m.Len(), m.bytes)
	}
	checkAccounts(t, m)
}

// TestEvictionBound pins the budget: inserting past it evicts the
// oldest populations first, and a population larger than the whole
// budget is returned unshared and never cached.
func TestEvictionBound(t *testing.T) {
	m := New[string, uint64](25)
	seeds := []uint64{1, 2, 3, 4, 5}
	for i, s := range seeds {
		src := rng.New(s)
		if _, shared := m.Draw("k", src, drawN(src, 10)); !shared {
			t.Fatalf("seed %d: population within budget not memoised", s)
		}
		checkAccounts(t, m)
		if m.fifo[len(m.fifo)-1] != newKey("k", rng.New(s).State()) {
			t.Fatalf("seed %d: newest population is not last in the fifo", s)
		}
		if want := min(i+1, 2); m.Len() != want {
			t.Fatalf("seed %d: memo holds %d populations, want %d", s, m.Len(), want)
		}
	}
	for _, s := range seeds[:3] {
		if _, ok := m.Lookup("k", rng.New(s).State()); ok {
			t.Fatalf("seed %d: an old population survived eviction", s)
		}
	}
	src := rng.New(9)
	if _, shared := m.Draw("k", src, drawN(src, 26)); shared || m.Len() != 2 {
		t.Fatalf("a population over budget was memoised (shared %v, %d entries)", shared, m.Len())
	}
	checkAccounts(t, m)
}

// TestDrawRaceKeepsFirst pins that of two draws of one key, the first
// insertion is shared and the second stays private to its caller.
func TestDrawRaceKeepsFirst(t *testing.T) {
	m := New[string, uint64](1 << 10)
	st := rng.New(3).State()
	src := rng.FromState(st)
	inner := rng.FromState(st)
	_, shared := m.Draw("k", src, func() (uint64, int) {
		// A concurrent build of the same key inserts first.
		if _, ok := m.Draw("k", inner, drawN(inner, 8)); !ok {
			t.Fatal("inner draw was not memoised")
		}
		return src.Uint64(), 8
	})
	if shared || m.Len() != 1 {
		t.Fatalf("second insertion of one key shared %v, memo holds %d", shared, m.Len())
	}
	checkAccounts(t, m)
}
