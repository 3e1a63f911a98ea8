package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/par"
	"repro/internal/stats"
)

// RunResult is the outcome of one experiment executed by a Runner.
type RunResult struct {
	// ID, Num, Title and Anchor identify the experiment.
	ID     string
	Num    int
	Title  string
	Anchor string
	// Table is the experiment's result, nil if the run panicked.
	Table *stats.Table
	// Wall is the experiment's wall-clock execution time.
	Wall time.Duration
	// Allocs and AllocBytes are the heap allocations (objects and
	// bytes) attributed to the run via runtime.MemStats deltas. Exact
	// with one worker; with concurrent workers the global counters
	// interleave, so treat them as approximate.
	Allocs     uint64
	AllocBytes uint64
	// Err records a recovered panic, nil on success.
	Err error
}

// Runner executes registered experiments on a worker pool. Experiments
// are pure functions of their Env, so any subset can run concurrently;
// results are collected deterministically in experiment-ID order
// regardless of worker count or completion order, and each experiment
// receives the same independent seed it would in a sequential run —
// tables are bit-identical across worker counts.
type Runner struct {
	// Workers is the worker-pool size; <= 0 means runtime.GOMAXPROCS.
	Workers int
	// Seed is handed to every experiment (results are deterministic
	// per seed; experiments derive their internal streams from it
	// independently of each other).
	Seed uint64
	// ShardWorkers is the shard fan-out available to each experiment on
	// top of the experiment-level pool, handed to it as Env.Shards:
	// sharded experiments split independent channels, dies or fleet
	// blocks across that many goroutines. <= 0 means
	// runtime.GOMAXPROCS. Results are bit-identical for every value
	// (shards share no state; see memctrl.MemorySystem.ShardChannels).
	ShardWorkers int
	// CheckpointPath, when set, makes RunCheckpointedCtx persist every
	// completed experiment there and resume past completed ones on a
	// later run. Run ignores it.
	CheckpointPath string
}

// EffectiveWorkers resolves the configured pool size: Workers when
// positive, otherwise runtime.GOMAXPROCS. Commands use it so their
// reported worker counts agree with what Run actually does.
func (r *Runner) EffectiveWorkers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the given experiments and returns one result per
// experiment, sorted by numeric experiment ID. A panicking experiment
// is recovered into its result's Err; it does not take down the run.
func (r *Runner) Run(exps []Experiment) []RunResult {
	// Without a checkpoint path or a cancellable context the loop
	// cannot fail.
	results, _ := r.run(context.Background(), exps, "", nil)
	return results
}

// run is the one experiment loop behind Run and RunCheckpointedCtx.
// With a non-empty path it restores the experiments completed in that
// checkpoint and persists each newly completed one there; with an
// empty path it touches no file. par.ShardUntil starts no experiment
// once ctx is done or a checkpoint write has failed. progress, if
// non-nil, is called (serialized) with each result as it is restored
// or completes.
func (r *Runner) run(ctx context.Context, exps []Experiment, path string, progress func(RunResult)) ([]RunResult, error) {
	done := make(map[string]RunResult)
	if path != "" {
		var err error
		if done, err = loadRunCheckpoint(path, r.Seed); err != nil {
			return nil, err
		}
	}

	ordered := append([]Experiment(nil), exps...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Num < ordered[j].Num })
	results := make([]RunResult, len(ordered))
	var pending []int
	for i, e := range ordered {
		if res, ok := done[e.ID]; ok {
			results[i] = res
			if progress != nil {
				progress(res)
			}
		} else {
			pending = append(pending, i)
		}
	}

	var mu sync.Mutex
	err := par.ShardUntil(ctx, r.EffectiveWorkers(), pending, func(i int) error {
		res := r.runOne(ordered[i])
		mu.Lock()
		defer mu.Unlock()
		results[i] = res
		var err error
		if path != "" {
			done[res.ID] = res
			err = saveRunCheckpoint(path, r.Seed, done)
		}
		if progress != nil {
			progress(res)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RunAll executes every registered experiment.
func (r *Runner) RunAll() []RunResult { return r.Run(All()) }

// runOne executes a single experiment, timing it and attributing
// allocations via MemStats deltas.
func (r *Runner) runOne(e Experiment) (res RunResult) {
	res = RunResult{ID: e.ID, Num: e.Num, Title: e.Title, Anchor: e.Anchor}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	//repro:nondeterministic wall-clock duration is measurement metadata (RunResult.Wall), excluded from table hashes
	start := time.Now()
	defer func() {
		//repro:nondeterministic wall-clock duration is measurement metadata (RunResult.Wall), excluded from table hashes
		res.Wall = time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		res.Allocs = after.Mallocs - before.Mallocs
		res.AllocBytes = after.TotalAlloc - before.TotalAlloc
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("experiment %s panicked: %v", e.ID, p)
		}
	}()
	// Fault-injection hook for crash-safety tests: an armed Panic plan
	// exercises the recover path above, an Error plan the failed-result
	// path. Free when unarmed.
	if err := faultinject.Fire(RunFirePoint); err != nil {
		res.Err = err
		return res
	}
	res.Table = e.Run(NewEnv(r.Seed, r.ShardWorkers))
	return res
}

// RunFirePoint is the fault-injection point fired once per experiment
// execution by runOne, before the experiment body runs.
const RunFirePoint = "exp.runOne"

// --- Machine-readable benchmark summary ---

// Summary is the JSON-serializable record of one Runner execution,
// written to BENCH_*.json snapshots to track the benchmark trajectory
// across PRs. Table hashes let equivalence be checked across code
// versions without storing the full tables.
type Summary struct {
	Schema      string              `json:"schema"`
	Seed        uint64              `json:"seed"`
	Workers     int                 `json:"workers"`
	GoMaxProcs  int                 `json:"gomaxprocs"`
	TotalWallMS float64             `json:"total_wall_ms"`
	Experiments []ExperimentSummary `json:"experiments"`
}

// ExperimentSummary is one experiment's entry in a Summary.
type ExperimentSummary struct {
	ID          string  `json:"id"`
	Title       string  `json:"title"`
	WallMS      float64 `json:"wall_ms"`
	Allocs      uint64  `json:"allocs"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	Rows        int     `json:"rows"`
	TableSHA256 string  `json:"table_sha256"`
	Err         string  `json:"err,omitempty"`
}

// NewSummary assembles a Summary from Runner results. totalWall is the
// whole run's wall time (less than the per-experiment sum when workers
// overlap).
func NewSummary(results []RunResult, seed uint64, workers int, totalWall time.Duration) Summary {
	s := Summary{
		Schema:      "repro-bench/v1",
		Seed:        seed,
		Workers:     workers,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		TotalWallMS: float64(totalWall) / float64(time.Millisecond),
	}
	for _, r := range results {
		e := ExperimentSummary{
			ID:         r.ID,
			Title:      r.Title,
			WallMS:     float64(r.Wall) / float64(time.Millisecond),
			Allocs:     r.Allocs,
			AllocBytes: r.AllocBytes,
		}
		if r.Table != nil {
			e.Rows = len(r.Table.Rows)
			sum := sha256.Sum256([]byte(r.Table.String()))
			e.TableSHA256 = hex.EncodeToString(sum[:])
		}
		if r.Err != nil {
			e.Err = r.Err.Error()
		}
		s.Experiments = append(s.Experiments, e)
	}
	return s
}

// Failed returns the IDs of experiments that produced no table — a
// recovered panic or an injected failure — in summary order. Commands
// use it to exit non-zero when a run partially failed instead of
// silently reporting the experiments that happened to survive.
func (s Summary) Failed() []string {
	var out []string
	for _, e := range s.Experiments {
		if e.Err != "" {
			out = append(out, e.ID)
		}
	}
	return out
}

// WriteJSON writes the summary as indented JSON.
func (s Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
