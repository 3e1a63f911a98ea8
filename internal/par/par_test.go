package par

import (
	"context"
	"errors"
	"strings"
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

// seq is todo for the indices [0, n).
func seq(n int) []int {
	todo := make([]int, n)
	for i := range todo {
		todo[i] = i
	}
	return todo
}

// TestShardUntilRunsTodoInOrder pins hand-out order and success: one
// worker calls fn in todo order (an arbitrary permutation), several
// call every index once, and both return nil.
func TestShardUntilRunsTodoInOrder(t *testing.T) {
	todo := []int{5, 2, 9, 0, 7}
	var got []int
	if err := ShardUntil(context.Background(), 1, todo, func(i int) error {
		got = append(got, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(todo) {
		t.Fatalf("calls %v, want %v", got, todo)
	}
	for k := range todo {
		if got[k] != todo[k] {
			t.Fatalf("calls %v, want %v", got, todo)
		}
	}
	counts := make([]atomic.Int32, 1000)
	if err := ShardUntil(context.Background(), 7, seq(1000), func(i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

// TestShardUntilStopsAfterFailure pins that a failure hands out no
// further index. With one worker the calls after the failing one never
// run. With several, every call fails, so a worker that saw its call
// fail, like one that starts after the failure, gets no second index:
// at most one call per worker runs, however the workers interleave.
func TestShardUntilStopsAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	var calls []int
	err := ShardUntil(context.Background(), 1, seq(100), func(i int) error {
		calls = append(calls, i)
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("one worker: got %v, want boom", err)
	}
	if len(calls) != 6 {
		t.Fatalf("one worker: calls %v, want 0..5", calls)
	}
	for _, workers := range []int{2, 4, 16} {
		var n atomic.Int32
		err := ShardUntil(context.Background(), workers, seq(1000), func(int) error {
			n.Add(1)
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want boom", workers, err)
		}
		if c := n.Load(); c < 1 || int(c) > workers {
			t.Fatalf("workers=%d: %d calls, want 1..%d", workers, c, workers)
		}
	}
}

// TestShardUntilPanicIsError pins that a panic on a worker goroutine
// comes back as the run's error instead of crashing the process.
func TestShardUntilPanicIsError(t *testing.T) {
	for _, workers := range []int{1, 3} {
		err := ShardUntil(context.Background(), workers, seq(10), func(i int) error {
			if i == 7 {
				panic("worker exploded")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "worker exploded") || !strings.Contains(err.Error(), "index 7") {
			t.Fatalf("workers=%d: got %v, want the panic as an error", workers, err)
		}
	}
}

// TestShardUntilCancelledRunsNothing pins that an already-cancelled
// context runs no call and returns its error.
func TestShardUntilCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var n atomic.Int32
		err := ShardUntil(ctx, workers, seq(50), func(int) error {
			n.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if c := n.Load(); c != 0 {
			t.Fatalf("workers=%d: %d calls ran on a cancelled context", workers, c)
		}
	}
}
