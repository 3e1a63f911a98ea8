package par

import (
	"sync/atomic"
	"testing"
)

// TestShardRunsEveryIndexOnce pins the coverage contract across
// degenerate, serial, clamped and oversubscribed worker counts.
func TestShardRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{-3, 0, 1, 2, 7, 1 << 30} {
			counts := make([]atomic.Int32, n)
			Shard(workers, n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestShardSerialInOrderOnCaller pins the one-worker path: calls run
// in ascending order on the calling goroutine. The unlocked append is
// only race-free if no other goroutine runs fn, so -race enforces the
// "on the caller" half.
func TestShardSerialInOrderOnCaller(t *testing.T) {
	for _, workers := range []int{-3, 0, 1} {
		var got []int
		Shard(workers, 50, func(i int) { got = append(got, i) })
		if len(got) != 50 {
			t.Fatalf("workers=%d: %d calls, want 50", workers, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: call %d got index %d", workers, i, v)
			}
		}
	}
	// One index clamps any worker count to the serial path.
	var got []int
	Shard(8, 1, func(i int) { got = append(got, i) })
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("n=1: calls %v, want [0]", got)
	}
}

// TestShardClampsWorkers pins the clamp: an absurd worker count with
// three indices starts at most three goroutines and returns.
func TestShardClampsWorkers(t *testing.T) {
	var calls atomic.Int32
	Shard(1<<30, 3, func(int) { calls.Add(1) })
	if c := calls.Load(); c != 3 {
		t.Fatalf("%d calls, want 3", c)
	}
}
