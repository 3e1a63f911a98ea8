package exp

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"sort"
	"time"

	"repro/internal/snapshot"
	"repro/internal/stats"
)

const (
	runSnapshotKind    = "repro/expruns"
	runSnapshotVersion = 1
)

// savedResult is one completed experiment in a run checkpoint. Tables
// hold pre-formatted string cells, so the JSON round trip restores
// them byte-identically (pinned by tests on the rendered form that
// table hashes are computed over).
type savedResult struct {
	ID         string       `json:"id"`
	Num        int          `json:"num"`
	Title      string       `json:"title"`
	Anchor     string       `json:"anchor"`
	WallNS     int64        `json:"wall_ns"`
	Allocs     uint64       `json:"allocs"`
	AllocBytes uint64       `json:"alloc_bytes"`
	Err        string       `json:"err,omitempty"`
	Table      *stats.Table `json:"table,omitempty"`
}

type runCheckpoint struct {
	Seed    uint64        `json:"seed"`
	Results []savedResult `json:"results"`
}

func saveRunCheckpoint(path string, seed uint64, done map[string]RunResult) error {
	ck := runCheckpoint{Seed: seed}
	// Write results in sorted ID order: ranging the map directly would
	// serialize the checkpoint in Go's randomized iteration order, so
	// two checkpoints of identical state would differ byte-for-byte —
	// breaking the "identical state => identical artifact" contract
	// every other serializer in this repository honors (found by
	// reprolint/maporder).
	ids := make([]string, 0, len(done))
	for id := range done {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		res := done[id]
		sr := savedResult{
			ID: res.ID, Num: res.Num, Title: res.Title, Anchor: res.Anchor,
			WallNS: int64(res.Wall), Allocs: res.Allocs, AllocBytes: res.AllocBytes,
			Table: res.Table,
		}
		if res.Err != nil {
			sr.Err = res.Err.Error()
		}
		ck.Results = append(ck.Results, sr)
	}
	sort.Slice(ck.Results, func(i, j int) bool { return ck.Results[i].Num < ck.Results[j].Num })
	return snapshot.WriteFile(path, runSnapshotKind, runSnapshotVersion, func(w *snapshot.Writer) error {
		w.Tag("exp.Runner")
		data, err := json.Marshal(ck)
		if err != nil {
			return err
		}
		w.Bytes8(data)
		return nil
	})
}

// loadRunCheckpoint restores the results a run checkpoint holds. A
// missing file is a fresh run: no results and no error.
func loadRunCheckpoint(path string, seed uint64) (map[string]RunResult, error) {
	done := make(map[string]RunResult)
	err := snapshot.ReadFile(path, runSnapshotKind, runSnapshotVersion,
		func(r *snapshot.Reader, version uint32) error {
			r.Tag("exp.Runner")
			data := r.Bytes8()
			if err := r.Err(); err != nil {
				return err
			}
			var ck runCheckpoint
			if err := json.Unmarshal(data, &ck); err != nil {
				return snapshot.Corruptf("checkpoint JSON: %v", err)
			}
			if ck.Seed != seed {
				return snapshot.Mismatchf("checkpoint is for seed %d, runner uses seed %d", ck.Seed, seed)
			}
			for _, sr := range ck.Results {
				// A row wider than its columns is one Table.AddRow
				// refuses to build and Table.String cannot render.
				if sr.Table != nil {
					for i, row := range sr.Table.Rows {
						if len(row) > len(sr.Table.Columns) {
							return snapshot.Corruptf("checkpointed %s: table row %d has %d cells for %d columns",
								sr.ID, i, len(row), len(sr.Table.Columns))
						}
					}
				}
				res := RunResult{
					ID: sr.ID, Num: sr.Num, Title: sr.Title, Anchor: sr.Anchor,
					Wall: time.Duration(sr.WallNS), Allocs: sr.Allocs, AllocBytes: sr.AllocBytes,
					Table: sr.Table,
				}
				if sr.Err != "" {
					res.Err = errors.New(sr.Err)
				}
				done[sr.ID] = res
			}
			return nil
		})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	return done, nil
}

// RunCheckpointedCtx is Run with crash safety: when the Runner has a
// CheckpointPath, every completed experiment (including failed ones)
// is persisted there atomically, and a subsequent call with the same
// seed and path skips completed experiments, restoring their results
// — tables byte-identical — instead of recomputing them. Experiments
// are pure functions of the seed, so the combined output is identical
// to an uninterrupted Run.
//
// A corrupt or truncated checkpoint is refused with an error wrapping
// snapshot.ErrCorrupt; a checkpoint recorded under a different seed is
// refused with snapshot.ErrMismatch. Nothing runs in either case.
// With an empty CheckpointPath this is exactly Run.
//
// Workers observe ctx between experiments: on cancellation the
// completed experiments stay checkpointed and the call returns
// ctx.Err(), so a drained campaign resumes later without recomputing
// them. progress, if non-nil, is called (serialized) with each result
// as it completes or is restored.
func (r *Runner) RunCheckpointedCtx(ctx context.Context, exps []Experiment, progress func(RunResult)) ([]RunResult, error) {
	return r.run(ctx, exps, r.CheckpointPath, progress)
}
