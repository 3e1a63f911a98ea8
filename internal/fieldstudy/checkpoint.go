package fieldstudy

import (
	"context"
	"fmt"
	"os"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/par"
	"repro/internal/snapshot"
)

const (
	campaignSnapshotKind    = "repro/fieldstudy"
	campaignSnapshotVersion = 1
)

// FirePoint is the fault-injection point fired once per simulated
// block by RunShardedCheckpointedCtx, after the block's result is
// recorded. Tests arm it to kill, panic or transiently fail a worker
// mid-campaign.
const FirePoint = "fieldstudy.block"

// saveCampaign serializes the campaign's identity (config fingerprint
// and seed) plus every completed block's result. Called with the
// result slice quiescent or under the caller's lock.
func saveCampaign(w *snapshot.Writer, cfg Config, seed uint64, blocks []block, results []blockResult) {
	w.Tag("fieldstudy.Campaign")
	w.U64(seed)
	w.Int(len(cfg.Classes))
	for _, cls := range cfg.Classes {
		w.String(cls.Label)
		w.F64(cls.RateScale)
		w.Int(cls.DIMMs)
	}
	w.F64(cfg.BaseRate)
	w.F64(cfg.TailSigma)
	w.F64(cfg.UEPerCE)
	w.Int(cfg.Months)
	w.Int(len(blocks))
	done := 0
	for _, r := range results {
		if r.done {
			done++
		}
	}
	w.Int(done)
	for bi, r := range results {
		if !r.done {
			continue
		}
		w.Int(bi)
		w.I64s(r.ce)
		w.I64(r.ceSum)
		w.I64(r.ueSum)
		w.Int(r.withCE)
	}
}

// loadCampaign restores completed block results into results,
// verifying the checkpoint belongs to this (config, seed) campaign
// and that every restored block is structurally consistent with the
// block plan.
func loadCampaign(r *snapshot.Reader, cfg Config, seed uint64, blocks []block, results []blockResult) error {
	r.Tag("fieldstudy.Campaign")
	gotSeed := r.U64()
	nClasses := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if gotSeed != seed {
		return snapshot.Mismatchf("checkpoint is for seed %d, campaign runs seed %d", gotSeed, seed)
	}
	if nClasses != len(cfg.Classes) {
		return snapshot.Mismatchf("checkpoint has %d density classes, config has %d", nClasses, len(cfg.Classes))
	}
	for ci, cls := range cfg.Classes {
		label := r.String()
		scale := r.F64()
		dimms := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if label != cls.Label || scale != cls.RateScale || dimms != cls.DIMMs {
			return snapshot.Mismatchf("checkpoint class %d is %s/%g/%d, config has %s/%g/%d",
				ci, label, scale, dimms, cls.Label, cls.RateScale, cls.DIMMs)
		}
	}
	if r.F64() != cfg.BaseRate || r.F64() != cfg.TailSigma || r.F64() != cfg.UEPerCE || r.Int() != cfg.Months {
		if err := r.Err(); err != nil {
			return err
		}
		return snapshot.Mismatchf("checkpoint fleet parameters disagree with config")
	}
	if n := r.Int(); r.Err() == nil && n != len(blocks) {
		return snapshot.Mismatchf("checkpoint plans %d blocks, config plans %d", n, len(blocks))
	}
	done := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if done < 0 || done > len(blocks) {
		return snapshot.Corruptf("implausible completed-block count %d", done)
	}
	for i := 0; i < done; i++ {
		bi := r.Int()
		br := blockResult{
			done:   true,
			ce:     r.I64s(),
			ceSum:  r.I64(),
			ueSum:  r.I64(),
			withCE: r.Int(),
		}
		if err := r.Err(); err != nil {
			return err
		}
		if bi < 0 || bi >= len(blocks) {
			return snapshot.Corruptf("completed block index %d out of range", bi)
		}
		if len(br.ce) != blocks[bi].count {
			return snapshot.Corruptf("block %d has %d DIMM counts, plan says %d", bi, len(br.ce), blocks[bi].count)
		}
		if br.withCE < 0 || br.withCE > blocks[bi].count {
			return snapshot.Corruptf("block %d withCE %d out of range", bi, br.withCE)
		}
		results[bi] = br
	}
	return nil
}

// RunShardedCheckpointedCtx is RunSharded with crash safety:
// completed blocks are checkpointed to ckptPath (atomically, with an
// integrity footer) every `every` block completions, and a subsequent
// call with the same config, seed and path resumes from the last
// checkpoint, re-simulating only the missing blocks. Because blocks
// share no state, draw from substreams keyed on their position, and
// merge in block order, the resumed result is bit-identical to an
// uninterrupted RunSharded at any worker count.
//
// A corrupt or truncated checkpoint is refused with an error wrapping
// snapshot.ErrCorrupt and nothing is simulated; a checkpoint from a
// different config or seed is refused with snapshot.ErrMismatch.
// Delete the file (or pass a fresh path) to restart such a campaign
// from scratch.
//
// Workers observe ctx between blocks: on cancellation the run
// checkpoints what completed and returns ctx.Err(), so a drained or
// deadline-expired campaign resumes later with nothing lost beyond
// in-flight blocks. progress, if non-nil, is called after each block
// completes with the completed and total block counts (serialized; it
// must not call back into this package).
func RunShardedCheckpointedCtx(ctx context.Context, cfg Config, seed uint64, workers int, ckptPath string, every int, progress func(done, total int)) ([]ClassStats, error) {
	blocks := planBlocks(cfg)
	results := make([]blockResult, len(blocks))
	if ckptPath == "" {
		return nil, snapshot.Corruptf("empty checkpoint path")
	}
	if every < 1 {
		every = 1
	}
	if _, err := os.Stat(ckptPath); err == nil {
		err := snapshot.ReadFile(ckptPath, campaignSnapshotKind, campaignSnapshotVersion,
			func(r *snapshot.Reader, version uint32) error {
				return loadCampaign(r, cfg, seed, blocks, results)
			})
		if err != nil {
			return nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	var pending []int
	for bi := range blocks {
		if !results[bi].done {
			pending = append(pending, bi)
		}
	}

	writeCkpt := func() error {
		return snapshot.WriteFile(ckptPath, campaignSnapshotKind, campaignSnapshotVersion,
			func(w *snapshot.Writer) error {
				saveCampaign(w, cfg, seed, blocks, results)
				return nil
			})
	}

	var (
		mu        sync.Mutex
		firstErr  error
		sinceCkpt int
		doneCount = len(blocks) - len(pending)
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// runBlock recovers worker panics into the run's error so a
	// panicking block (or injected panic) fails this campaign, never
	// the process hosting it.
	runBlock := func(bi int) {
		defer func() {
			if p := recover(); p != nil {
				fail(fmt.Errorf("fieldstudy: worker panic on block %d: %v", bi, p))
			}
		}()
		r := simulateBlock(cfg, seed, blocks[bi])
		if err := faultinject.Fire(FirePoint); err != nil {
			fail(err)
			return
		}
		mu.Lock()
		results[bi] = r
		doneCount++
		sinceCkpt++
		var werr error
		if sinceCkpt >= every {
			sinceCkpt = 0
			werr = writeCkpt()
		}
		if progress != nil {
			progress(doneCount, len(blocks))
		}
		mu.Unlock()
		if werr != nil {
			fail(werr)
		}
	}
	par.Shard(workers, len(pending), func(k int) {
		mu.Lock()
		if firstErr == nil {
			firstErr = ctx.Err()
		}
		stop := firstErr != nil
		mu.Unlock()
		if stop {
			return // drain remaining blocks without work
		}
		runBlock(pending[k])
	})
	if firstErr != nil {
		// Persist whatever completed before the failure so a retry
		// resumes rather than recomputes. Best effort: the original
		// error wins.
		_ = writeCkpt()
		return nil, firstErr
	}
	if err := writeCkpt(); err != nil {
		return nil, err
	}
	return mergeBlocks(cfg, blocks, results), nil
}
