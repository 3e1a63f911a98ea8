// Package par is the repository's one worker pool. Every sharded sweep
// (memory channels, flash dies, fleet blocks, wear-leveling arrays,
// exploit-tournament groups, experiments) fans out through Shard, so
// the work-distribution policy lives here and nowhere else.
package par

import (
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
