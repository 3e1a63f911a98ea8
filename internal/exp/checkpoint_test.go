package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// syntheticExps builds a small deterministic experiment set whose
// executions are counted, so tests can prove restored experiments are
// skipped rather than recomputed.
func syntheticExps(runs *atomic.Int64) []Experiment {
	var exps []Experiment
	for i := 1; i <= 5; i++ {
		i := i
		exps = append(exps, Experiment{
			ID: fmt.Sprintf("E%d", i), Num: i,
			Title:  fmt.Sprintf("synthetic %d", i),
			Anchor: "test",
			Run: func(env Env) *stats.Table {
				runs.Add(1)
				t := stats.NewTable(fmt.Sprintf("synthetic %d", i), "seed", "value")
				t.AddRow(fmt.Sprint(env.Seed), fmt.Sprint(env.Seed*uint64(i)+uint64(i*i)))
				t.AddNote("deterministic row for seed %d", env.Seed)
				return t
			},
		})
	}
	return exps
}

func tableStrings(results []RunResult) []string {
	var out []string
	for _, r := range results {
		if r.Table != nil {
			out = append(out, r.Table.String())
		} else {
			out = append(out, "err: "+r.Err.Error())
		}
	}
	return out
}

// TestRunCheckpointedResumeSkipsCompleted pins the resume contract: a
// checkpoint from a partial run restores completed experiments
// byte-identically without re-executing them, and the combined output
// equals an uninterrupted run.
func TestRunCheckpointedResumeSkipsCompleted(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		var refRuns atomic.Int64
		refExps := syntheticExps(&refRuns)
		ref := (&Runner{Workers: 2, Seed: seed}).Run(refExps)

		var runs atomic.Int64
		exps := syntheticExps(&runs)
		path := filepath.Join(t.TempDir(), "run.ckpt")
		partial := &Runner{Workers: 2, Seed: seed, CheckpointPath: path}
		if _, err := partial.RunCheckpointedCtx(context.Background(), exps[:3], nil); err != nil {
			t.Fatalf("seed %d: partial run: %v", seed, err)
		}
		if got := runs.Load(); got != 3 {
			t.Fatalf("seed %d: partial run executed %d experiments, want 3", seed, got)
		}

		full := &Runner{Workers: 2, Seed: seed, CheckpointPath: path}
		results, err := full.RunCheckpointedCtx(context.Background(), exps, nil)
		if err != nil {
			t.Fatalf("seed %d: resumed run: %v", seed, err)
		}
		if got := runs.Load(); got != 5 {
			t.Fatalf("seed %d: resume executed %d total, want 5 (3 restored, 2 fresh)", seed, got)
		}
		gotTables, wantTables := tableStrings(results), tableStrings(ref)
		for i := range wantTables {
			if gotTables[i] != wantTables[i] {
				t.Fatalf("seed %d: experiment %s table diverged after resume:\n got %q\nwant %q",
					seed, results[i].ID, gotTables[i], wantTables[i])
			}
		}
	}
}

// TestRunCheckpointedSeedMismatchRefused pins the typed error on
// resuming with a different seed.
func TestRunCheckpointedSeedMismatchRefused(t *testing.T) {
	var runs atomic.Int64
	exps := syntheticExps(&runs)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := (&Runner{Workers: 1, Seed: 1, CheckpointPath: path}).RunCheckpointedCtx(context.Background(), exps, nil); err != nil {
		t.Fatal(err)
	}
	_, err := (&Runner{Workers: 1, Seed: 2, CheckpointPath: path}).RunCheckpointedCtx(context.Background(), exps, nil)
	if !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("want ErrMismatch, got %v", err)
	}
}

// TestRunCheckpointedCorruptionRefused pins that a damaged checkpoint
// is refused with ErrCorrupt and nothing is executed.
func TestRunCheckpointedCorruptionRefused(t *testing.T) {
	var runs atomic.Int64
	exps := syntheticExps(&runs)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := (&Runner{Workers: 1, Seed: 1, CheckpointPath: path}).RunCheckpointedCtx(context.Background(), exps, nil); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipBit(path, info.Size()/2, 0); err != nil {
		t.Fatal(err)
	}
	before := runs.Load()
	_, err = (&Runner{Workers: 1, Seed: 1, CheckpointPath: path}).RunCheckpointedCtx(context.Background(), exps, nil)
	if !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if runs.Load() != before {
		t.Fatal("experiments executed despite corrupt checkpoint")
	}
}

// TestPanickingExperimentSurfacesInSummary pins satellite behavior: a
// panicking experiment becomes a failed Summary entry carrying the
// panic message, and Summary.Failed reports it.
func TestPanickingExperimentSurfacesInSummary(t *testing.T) {
	exps := []Experiment{
		{ID: "E1", Num: 1, Title: "ok", Anchor: "t", Run: func(Env) *stats.Table {
			tb := stats.NewTable("ok", "c")
			tb.AddRow("1")
			return tb
		}},
		{ID: "E2", Num: 2, Title: "boom", Anchor: "t", Run: func(Env) *stats.Table {
			panic("synthetic failure")
		}},
	}
	results := (&Runner{Workers: 2, Seed: 1}).Run(exps)
	s := NewSummary(results, 1, 2, time.Second)
	failed := s.Failed()
	if len(failed) != 1 || failed[0] != "E2" {
		t.Fatalf("Failed() = %v, want [E2]", failed)
	}
	for _, e := range s.Experiments {
		if e.ID == "E2" {
			if e.Err == "" || e.TableSHA256 != "" {
				t.Fatalf("failed entry not surfaced: %+v", e)
			}
			if want := "synthetic failure"; !contains(e.Err, want) {
				t.Fatalf("Err %q does not carry panic message %q", e.Err, want)
			}
		}
	}
}

// TestInjectedPanicFailsOnlyThatExperiment drives the faultinject
// hook: an armed Panic plan fails exactly one experiment and the rest
// complete.
func TestInjectedPanicFailsOnlyThatExperiment(t *testing.T) {
	defer faultinject.Reset()
	var runs atomic.Int64
	exps := syntheticExps(&runs)
	faultinject.Arm(RunFirePoint, faultinject.Plan{After: 1, Times: 1, Kind: faultinject.Panic})
	results := (&Runner{Workers: 1, Seed: 1}).Run(exps)
	var failed, ok int
	for _, r := range results {
		if r.Err != nil {
			failed++
			var f *faultinject.Fault
			if !errors.As(r.Err, &f) && !contains(r.Err.Error(), "injected panic") {
				t.Fatalf("failure does not identify the injected fault: %v", r.Err)
			}
		} else if r.Table != nil {
			ok++
		}
	}
	if failed != 1 || ok != 4 {
		t.Fatalf("failed=%d ok=%d, want 1/4", failed, ok)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestRunCheckpointedCtxWithoutPathMatchesRun pins the shared loop's
// no-checkpoint case: with an empty CheckpointPath, RunCheckpointedCtx
// returns what Run returns and reports each experiment to progress
// exactly once, with that same result.
func TestRunCheckpointedCtxWithoutPathMatchesRun(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var runs atomic.Int64
		exps := syntheticExps(&runs)
		want := (&Runner{Workers: workers, Seed: 5}).Run(exps)
		reported := make(map[string]string)
		calls := 0
		got, err := (&Runner{Workers: workers, Seed: 5}).RunCheckpointedCtx(context.Background(), exps,
			func(res RunResult) {
				calls++
				reported[res.ID] = res.Table.String()
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if fmt.Sprint(tableStrings(got)) != fmt.Sprint(tableStrings(want)) {
			t.Fatalf("workers=%d: RunCheckpointedCtx tables differ from Run", workers)
		}
		if calls != len(exps) || len(reported) != len(exps) {
			t.Fatalf("workers=%d: progress called %d times for %d distinct IDs, want %d each",
				workers, calls, len(reported), len(exps))
		}
		for _, res := range want {
			if reported[res.ID] != res.Table.String() {
				t.Fatalf("workers=%d: progress reported a different result for %s", workers, res.ID)
			}
		}
	}
}

// TestRunCheckpointWideRowRefused pins that a footer-valid checkpoint
// holding a table with a row wider than its columns, which
// Table.AddRow refuses to build and Table.String cannot render, is
// refused with ErrCorrupt and nothing runs.
func TestRunCheckpointWideRowRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	wide := &stats.Table{Title: "wide", Columns: []string{"a"}, Rows: [][]string{{"x", "y"}}}
	if err := saveRunCheckpoint(path, 1, map[string]RunResult{"E1": {ID: "E1", Num: 1, Table: wide}}); err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	_, err := (&Runner{Workers: 1, Seed: 1, CheckpointPath: path}).RunCheckpointedCtx(context.Background(), syntheticExps(&runs), nil)
	if !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if runs.Load() != 0 {
		t.Fatal("experiments executed despite a corrupt checkpoint")
	}
}

// FuzzLoadRunCheckpoint feeds loadRunCheckpoint a checkpoint of a
// finished synthetic run that the fuzzer overwrites with patch from
// byte at on and cuts to keep bytes. Each mutated payload is sealed in
// a container with a fresh footer, so the decoder, not the integrity
// check, sees the hostile bytes. A load either fails with ErrCorrupt
// or ErrMismatch, or returns results whose tables render and
// summarize; it never panics.
func FuzzLoadRunCheckpoint(f *testing.F) {
	var runs atomic.Int64
	src := filepath.Join(f.TempDir(), "run.ckpt")
	if _, err := (&Runner{Workers: 1, Seed: 1, CheckpointPath: src}).RunCheckpointedCtx(context.Background(), syntheticExps(&runs), nil); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		f.Fatal(err)
	}
	r, _, err := snapshot.Decode(data, runSnapshotKind, runSnapshotVersion)
	if err != nil {
		f.Fatal(err)
	}
	good := r.Raw(r.Remaining())
	cols := bytes.Index(good, []byte(`,"value"`))
	seed := bytes.Index(good, []byte(`"seed":1`))
	if cols < 0 || seed < 0 {
		f.Fatal("the seed checkpoint lacks the fields the corpus patches")
	}
	f.Add(uint16(0), []byte(nil), uint16(len(good)))
	f.Add(uint16(0), []byte(nil), uint16(len(good)-3))
	f.Add(uint16(cols), []byte("        "), uint16(len(good))) // one column, two-cell rows
	f.Add(uint16(seed+7), []byte("2"), uint16(len(good)))      // another seed
	f.Add(uint16(0), []byte{0xff}, uint16(len(good)))          // the tag length
	f.Fuzz(func(t *testing.T, at uint16, patch []byte, keep uint16) {
		payload := bytes.Clone(good)
		copy(payload[int(at)%len(payload):], patch)
		payload = payload[:min(int(keep), len(payload))]
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := snapshot.WriteFile(path, runSnapshotKind, runSnapshotVersion, func(w *snapshot.Writer) error {
			w.Raw(payload)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		done, err := loadRunCheckpoint(path, 1)
		if err != nil {
			if !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrMismatch) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		results := make([]RunResult, 0, len(done))
		for _, res := range done {
			if res.Table != nil {
				_ = res.Table.String()
			}
			results = append(results, res)
		}
		NewSummary(results, 1, 1, 0)
	})
}
