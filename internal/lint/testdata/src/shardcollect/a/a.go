// Package a is shardcollect golden testdata: order-dependent result
// collection from concurrent worker bodies.
package a

import "sync"

// Mutex-protected append from a goroutine: data-race-free but still
// scheduling-ordered, so the slice varies run to run.
func fanOutBad(items []int) []int {
	var out []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func(it int) {
			defer wg.Done()
			mu.Lock()
			out = append(out, it*it) // want "append to shared slice .out. from a goroutine"
			mu.Unlock()
		}(it)
	}
	wg.Wait()
	return out
}

// ShardThings mimics the repository's sharded executors (ShardChannels,
// ShardDies, ...): any FuncLit handed to a Shard*/.*Sharded.* callee is
// treated as a worker body.
func ShardThings(workers int, fn func(i int)) {
	for i := 0; i < workers; i++ {
		fn(i)
	}
}

func shardBad() []int {
	var res []int
	ShardThings(4, func(i int) {
		res = append(res, i) // want "append to shared slice .res. from a ShardThings worker"
	})
	return res
}

// pool mimics internal/par: a selector-form executor, called as
// p.Shard(...) the way the tree calls par.Shard(...).
type pool struct{}

func (pool) Shard(workers, n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func selectorShardBad(p pool, n int) []int {
	var res []int
	p.Shard(4, n, func(i int) {
		res = append(res, i*i) // want "append to shared slice .res. from a Shard worker"
	})
	return res
}

// Index-addressed writes through the selector form pass.
func selectorShardGood(p pool, n int) []int {
	res := make([]int, n)
	p.Shard(4, n, func(i int) {
		res[i] = i * i
	})
	return res
}

// A justified annotation suppresses the diagnostic (e.g. the caller
// sorts the collected slice before anything order-sensitive).
func shardAnnotated() []int {
	var res []int
	ShardThings(4, func(i int) {
		//repro:unordered caller sorts res before use; only membership matters
		res = append(res, i)
	})
	return res
}

// Worker-local appends are fine: the slice is declared inside the body.
func workerLocal(items []int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var local []int
		for _, it := range items {
			local = append(local, it)
		}
		_ = local
	}()
	wg.Wait()
}
