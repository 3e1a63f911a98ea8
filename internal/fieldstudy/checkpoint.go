package fieldstudy

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
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

// identity encodes what a checkpoint shares with the campaign that
// restores it: the tag, seed, density classes, fleet parameters and
// block count. It is configuration, so a restore compares it as bytes
// and never decodes it.
func identity(cfg Config, seed uint64, blocks []block) []byte {
	var w snapshot.Writer
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
	return w.Bytes()
}

// saveCampaign serializes the campaign's identity plus every completed
// block's result, in block order. Called with the result slice
// quiescent or under the caller's lock.
func saveCampaign(w *snapshot.Writer, cfg Config, seed uint64, blocks []block, results []blockResult) {
	w.Raw(identity(cfg, seed, blocks))
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

// loadCampaign restores completed block results into results. It
// refuses a checkpoint of another (config, seed) campaign as a
// mismatch, and as corrupt one whose blocks do not fit the block plan
// or are out of order, or whose CE sums disagree with its per-DIMM
// counts, so a restore saves back exactly the bytes it read.
func loadCampaign(r *snapshot.Reader, cfg Config, seed uint64, blocks []block, results []blockResult) error {
	want := identity(cfg, seed, blocks)
	if got := r.Raw(len(want)); r.Err() == nil && !bytes.Equal(got, want) {
		return snapshot.Mismatchf("checkpoint is for another campaign (seed, density classes, fleet parameters or block count differ)")
	}
	done := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if done < 0 || done > len(blocks) {
		return snapshot.Corruptf("implausible completed-block count %d", done)
	}
	prev := -1
	for i := 0; i < done; i++ {
		bi := r.Int()
		ce := r.I64s()
		ceSum, ueSum, withCE := r.I64(), r.I64(), r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if bi <= prev || bi >= len(blocks) {
			return snapshot.Corruptf("completed block index %d after %d (plan has %d blocks)", bi, prev, len(blocks))
		}
		prev = bi
		if len(ce) != blocks[bi].count {
			return snapshot.Corruptf("block %d has %d DIMM counts, plan says %d", bi, len(ce), blocks[bi].count)
		}
		br := blockResult{done: true, ce: ce, ueSum: ueSum}
		for j, c := range ce {
			br.add(j, c, 0)
		}
		if br.ceSum != ceSum || br.withCE != withCE {
			return snapshot.Corruptf("block %d records CE sum %d over %d DIMMs, its counts give %d over %d",
				bi, ceSum, withCE, br.ceSum, br.withCE)
		}
		results[bi] = br
	}
	return nil
}

// RunShardedCheckpointedCtx is RunSharded with crash safety:
// completed blocks are checkpointed to ckptPath (atomically, with an
// integrity footer), and a subsequent call with the same config, seed
// and path resumes from the last checkpoint, re-simulating only the
// missing blocks. Because blocks share no state, draw from substreams
// keyed on their position, and merge in block order, the resumed
// result is bit-identical to an uninterrupted RunSharded at any worker
// count.
//
// The checkpoint is rewritten every ceil(blocks/64) completed blocks
// and once more when the run stops, so a campaign writes it at most
// about 65 times however large its fleet: each write carries every
// completed DIMM's count.
//
// A corrupt or truncated checkpoint is refused with an error wrapping
// snapshot.ErrCorrupt and nothing is simulated; a checkpoint from a
// different config or seed is refused with snapshot.ErrMismatch.
// Delete the file (or pass a fresh path) to restart such a campaign
// from scratch.
//
// Blocks run on par.ShardUntil: once ctx is done or a block fails
// (including a panic) no further block starts, the run checkpoints what
// completed and returns the error, so a drained, deadline-expired or
// failed campaign resumes later with nothing lost beyond in-flight
// blocks. progress, if non-nil, is called after each block completes
// with the completed and total block counts (serialized; it must not
// call back into this package).
func RunShardedCheckpointedCtx(ctx context.Context, cfg Config, seed uint64, workers int, ckptPath string, progress func(done, total int)) ([]ClassStats, error) {
	if ckptPath == "" {
		return nil, snapshot.Corruptf("empty checkpoint path")
	}
	blocks := planBlocks(cfg)
	results := make([]blockResult, len(blocks))
	err := snapshot.ReadFile(ckptPath, campaignSnapshotKind, campaignSnapshotVersion,
		func(r *snapshot.Reader, version uint32) error {
			return loadCampaign(r, cfg, seed, blocks, results)
		})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
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
		every     = max(1, (len(blocks)+63)/64)
		doneCount = len(blocks) - len(pending)
	)
	err = par.ShardUntil(ctx, workers, pending, func(bi int) error {
		r := simulateBlock(cfg, seed, blocks[bi])
		if err := faultinject.Fire(FirePoint); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		results[bi] = r
		doneCount++
		var err error
		if doneCount%every == 0 {
			err = writeCkpt()
		}
		if progress != nil {
			progress(doneCount, len(blocks))
		}
		return err
	})
	if err != nil {
		// Persist whatever completed before the failure so a retry
		// resumes rather than recomputes. Best effort: the original
		// error wins.
		_ = writeCkpt()
		return nil, err
	}
	if err := writeCkpt(); err != nil {
		return nil, err
	}
	return mergeBlocks(cfg, blocks, results), nil
}
