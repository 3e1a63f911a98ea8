package attack

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

// coverage maps every frame of the allocator to its owner: each frame
// must be covered exactly once, by either a free block or a live
// allocation. Returns false (with the offending frame) on overlap or
// a gap.
func buddyCoverage(t *testing.T, a *BuddyAllocator) {
	t.Helper()
	owner := make([]int, a.frames) // 0 = uncovered, 1 = free, 2 = allocated
	claim := func(base, order, kind int) {
		for f := base; f < base+(1<<order); f++ {
			if f < 0 || f >= a.frames {
				t.Fatalf("block base %d order %d reaches outside [0,%d)", base, order, a.frames)
			}
			if owner[f] != 0 {
				t.Fatalf("frame %d covered twice (kinds %d and %d)", f, owner[f], kind)
			}
			owner[f] = kind
		}
	}
	for o, blocks := range a.free {
		for _, b := range blocks {
			claim(b, o, 1)
		}
	}
	for b, o := range a.allocated {
		claim(b, o, 2)
	}
	for f, k := range owner {
		if k == 0 {
			t.Fatalf("frame %d covered by neither free list nor allocation", f)
		}
	}
}

// buddyStream drives an allocator with a seeded mixed alloc/free
// request stream and returns the allocation transcript (base of every
// successful Alloc, -1 for failures) — the determinism probe.
func buddyStream(a *BuddyAllocator, seed uint64, steps int) []int {
	src := rng.New(seed)
	var live []int
	var transcript []int
	for i := 0; i < steps; i++ {
		if len(live) > 0 && src.Float64() < 0.4 {
			idx := src.Intn(len(live))
			a.Free(live[idx])
			live = append(live[:idx], live[idx+1:]...)
			continue
		}
		order := src.Intn(4)
		base, ok := a.Alloc(order)
		if !ok {
			transcript = append(transcript, -1)
			continue
		}
		transcript = append(transcript, base)
		live = append(live, base)
	}
	return transcript
}

// TestBuddySplitCoalesceRoundTrip allocates down to single frames and
// frees everything back: the allocator must coalesce all the way up to
// one max-order block, exactly the state NewBuddy starts in.
func TestBuddySplitCoalesceRoundTrip(t *testing.T) {
	a := NewBuddy(64)
	var bases []int
	for {
		base, ok := a.Alloc(0)
		if !ok {
			break
		}
		bases = append(bases, base)
	}
	if len(bases) != 64 {
		t.Fatalf("allocated %d single frames from 64", len(bases))
	}
	if a.FreeFrames() != 0 || a.Live() != 64 {
		t.Fatalf("after exhaustion: free %d live %d", a.FreeFrames(), a.Live())
	}
	// Free in an interleaved order so coalescing has to work through
	// several generations of buddies.
	for stride := 0; stride < 2; stride++ {
		for i := stride; i < len(bases); i += 2 {
			a.Free(bases[i])
		}
	}
	if a.FreeFrames() != 64 || a.Live() != 0 {
		t.Fatalf("after freeing all: free %d live %d", a.FreeFrames(), a.Live())
	}
	if len(a.free[a.maxOrder]) != 1 || a.free[a.maxOrder][0] != 0 {
		t.Fatalf("not fully coalesced: top-order free list %v", a.free[a.maxOrder])
	}
	for o := 0; o < a.maxOrder; o++ {
		if len(a.free[o]) != 0 {
			t.Fatalf("order %d still holds fragments %v", o, a.free[o])
		}
	}
}

// TestBuddyNoOverlapFullCoverage runs seeded request streams and
// checks the structural invariant at every step boundary: the free
// lists and the live map partition the frame space with no overlap
// and no gap.
func TestBuddyNoOverlapFullCoverage(t *testing.T) {
	for _, seed := range []uint64{1, 5, 9} {
		a := NewBuddy(128)
		buddyStream(a, seed, 300)
		buddyCoverage(t, a)
		if a.FreeFrames()+liveFrames(a) != a.frames {
			t.Fatalf("seed %d: free %d + live %d != %d", seed, a.FreeFrames(), liveFrames(a), a.frames)
		}
	}
}

func liveFrames(a *BuddyAllocator) int {
	n := 0
	for _, o := range a.allocated {
		n += 1 << o
	}
	return n
}

// TestBuddyDeterministicOrder pins the Drammer precondition: two
// allocators fed the identical request stream hand out identical
// bases in identical order — the attacker can predict placement.
func TestBuddyDeterministicOrder(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		a := buddyStream(NewBuddy(128), seed, 400)
		b := buddyStream(NewBuddy(128), seed, 400)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: allocation transcripts diverged", seed)
		}
	}
}
