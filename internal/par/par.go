// Package par is the repository's one worker pool. Every sharded sweep
// (memory channels, flash dies, fleet blocks, wear-leveling arrays,
// exploit-tournament groups, experiments) fans out through Shard, so
// the work-distribution policy lives here and nowhere else. Runs that
// must stop early (the checkpointed experiment runner and fleet study)
// fan out through ShardUntil, which keeps that rule in one place too.
package par

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Shard calls fn(i) exactly once for every i in [0, n), on up to
// workers goroutines. Indices are handed out in ascending order.
// workers is clamped to [1, n]; when one worker remains, the calls run
// in order on the calling goroutine. Shard returns after every call
// has returned.
//
// fn must write its result to the i-th slot of a caller-owned slice
// (or otherwise synchronize): under that contract the outcome does not
// depend on the worker count, which is what makes every sharded sweep
// bit-identical to its serial run.
func Shard(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ShardUntil is Shard over todo for runs that stop early: it calls
// fn(i) for each i in todo, handed out in todo order, until ctx is done
// or a call fails, and then hands out no further index. A call that
// panics fails with the panic as its error, so a panic fails the run,
// not the process. ShardUntil returns after every started call has
// returned, with the first failure, or with ctx.Err() if the context
// stopped a hand-out; nil when every call ran and succeeded.
func ShardUntil(ctx context.Context, workers int, todo []int, fn func(i int) error) error {
	var (
		mu  sync.Mutex
		err error
	)
	// stop records e if it is the run's first failure and reports
	// whether the run has failed.
	stop := func(e error) bool {
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			err = e
		}
		return err != nil
	}
	Shard(workers, len(todo), func(k int) {
		if stop(ctx.Err()) {
			return
		}
		defer func() {
			if p := recover(); p != nil {
				stop(fmt.Errorf("par: call on index %d panicked: %v", todo[k], p))
			}
		}()
		stop(fn(todo[k]))
	})
	return err
}
