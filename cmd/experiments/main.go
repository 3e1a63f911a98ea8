// Command experiments regenerates the paper's tables and figures as
// text series, executing experiments on a parallel worker pool. With no
// arguments it runs every experiment; -run selects a comma-separated
// subset by ID; -list shows the index.
//
// Usage:
//
//	experiments [-seed N] [-run E4[,E5,...]] [-list] [-workers N]
//	            [-shards N] [-json FILE] [-compare] [-quiet]
//	            [-checkpoint FILE]
//
// Tables are deterministic per seed and bit-identical for every worker
// and shard count; results print in experiment-ID order with
// per-experiment wall time and the run's total. -workers sizes the
// experiment-level pool; -shards sizes the channel-level fan-out the
// topology experiments (E30+) use inside one experiment. -json writes
// a machine-readable summary (per-experiment wall time, allocations
// and table hashes) for benchmark trajectory tracking; -compare
// additionally times a serial run for a before/after wall-time
// comparison.
//
// -checkpoint makes the run crash-safe: every completed experiment is
// persisted to the given file (atomically, with an integrity footer),
// and re-running with the same seed and file resumes past completed
// experiments with their tables restored byte-identically. A corrupt
// or seed-mismatched checkpoint is refused with a one-line error.
//
// The command exits non-zero when any experiment fails (including
// failures that only surface during the -compare serial pass), with
// the failed IDs on stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	// Panics escaping an experiment are already contained per-result
	// by the runner; this net catches everything else (flag handling,
	// summary writing) so a bug costs one line, not a stack trace.
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("internal panic: %v", p)
		}
	}()
	seed := flag.Uint64("seed", 1, "experiment seed (results are deterministic per seed)")
	runSel := flag.String("run", "", "run a comma-separated subset of experiments by ID (e.g. E4,E21)")
	list := flag.Bool("list", false, "list experiments and exit")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "channel-shard fan-out inside each experiment (0 = GOMAXPROCS)")
	jsonPath := flag.String("json", "", "write a machine-readable run summary to this file")
	compare := flag.Bool("compare", false, "also run serially and print the parallel-vs-serial wall times")
	quiet := flag.Bool("quiet", false, "suppress tables, print only timings")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: persist completed experiments and resume past them")
	flag.Parse()

	if *workers < 0 {
		return fmt.Errorf("-workers %d must be non-negative", *workers)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards %d must be non-negative", *shards)
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n     anchor: %s\n", e.ID, e.Title, e.Anchor)
		}
		return nil
	}

	selected := exp.All()
	if *runSel != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*runSel, ",") {
			e, ok := exp.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q; use -list", id)
			}
			selected = append(selected, e)
		}
	}

	runner := &exp.Runner{Workers: *workers, Seed: *seed, ShardWorkers: *shards, CheckpointPath: *checkpoint}
	start := time.Now()
	results, err := runner.RunCheckpointedCtx(context.Background(), selected, nil)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	var failed []string
	for _, r := range results {
		if r.Err != nil {
			failed = append(failed, r.ID)
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, r.Err)
			continue
		}
		if !*quiet {
			fmt.Println(r.Table)
		}
	}
	effWorkers := runner.EffectiveWorkers()
	for _, r := range results {
		fmt.Fprintf(os.Stderr, "%-4s %8.1f ms\n", r.ID, float64(r.Wall)/float64(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "total %8.1f ms (%d experiments, %d workers)\n",
		float64(wall)/float64(time.Millisecond), len(results), effWorkers)

	if *compare {
		serial := &exp.Runner{Workers: 1, Seed: *seed, ShardWorkers: 1}
		sStart := time.Now()
		sResults := serial.Run(selected)
		sWall := time.Since(sStart)
		for _, r := range sResults {
			if r.Err != nil {
				failed = append(failed, r.ID+" (serial)")
				fmt.Fprintf(os.Stderr, "%s (serial): %v\n", r.ID, r.Err)
			}
		}
		fmt.Fprintf(os.Stderr, "serial %7.1f ms -> parallel %7.1f ms (%.2fx)\n",
			float64(sWall)/float64(time.Millisecond),
			float64(wall)/float64(time.Millisecond),
			float64(sWall)/float64(wall))
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		summary := exp.NewSummary(results, *seed, runner.EffectiveWorkers(), wall)
		if err := summary.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d experiment run(s) failed: %s", len(failed), strings.Join(failed, ", "))
	}
	return nil
}
