package fieldstudy

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/snapshot"
)

// ckptConfig is a fleet small enough for tests but big enough for
// several shard blocks (20000+12000 DIMMs -> 5 blocks of <=8192).
func ckptConfig() Config {
	cfg := DefaultConfig()
	cfg.Classes = []DensityClass{
		{"2Gb", 2.2, 20000},
		{"4Gb", 4.5, 12000},
	}
	cfg.Months = 2
	return cfg
}

// TestCheckpointedResumeBitIdentical pins the headline guarantee: a
// campaign that fails mid-run (transient injected error), is resumed
// from its checkpoint, and completes produces results bit-identical to
// an uninterrupted RunSharded — at seeds 1 and 5 and multiple worker
// counts.
func TestCheckpointedResumeBitIdentical(t *testing.T) {
	defer faultinject.Reset()
	cfg := ckptConfig()
	for _, seed := range []uint64{1, 5} {
		want := RunSharded(cfg, seed, 4)
		for _, workers := range []int{1, 3} {
			path := filepath.Join(t.TempDir(), "fleet.ckpt")

			// First attempt dies after two blocks complete.
			faultinject.Reset()
			faultinject.Arm(FirePoint, faultinject.Plan{After: 2, Times: 1, Kind: faultinject.Error})
			_, err := RunShardedCheckpointedCtx(context.Background(), cfg, seed, workers, path, nil)
			var f *faultinject.Fault
			if !errors.As(err, &f) {
				t.Fatalf("seed %d workers %d: want injected fault, got %v", seed, workers, err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("seed %d workers %d: no checkpoint after failed run: %v", seed, workers, err)
			}

			// Resume with injection cleared.
			faultinject.Reset()
			got, err := RunShardedCheckpointedCtx(context.Background(), cfg, seed, workers, path, nil)
			if err != nil {
				t.Fatalf("seed %d workers %d: resume: %v", seed, workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d workers %d: %d classes, want %d", seed, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d workers %d: class %s diverged after resume:\n got %+v\nwant %+v",
						seed, workers, want[i].Label, got[i], want[i])
				}
			}
		}
	}
}

// TestCheckpointedFreshRunMatchesRunSharded pins that the checkpointed
// engine without any crash is still bit-identical to RunSharded.
func TestCheckpointedFreshRunMatchesRunSharded(t *testing.T) {
	cfg := ckptConfig()
	want := RunSharded(cfg, 1, 2)
	got, err := RunShardedCheckpointedCtx(context.Background(), cfg, 1, 2, filepath.Join(t.TempDir(), "f.ckpt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("class %s: %+v != %+v", want[i].Label, got[i], want[i])
		}
	}
}

// TestCheckpointBytesPinned pins the repro/fieldstudy payload: the
// final checkpoint of an uninterrupted one-worker run of ckptConfig has
// the same length and sha256 at seeds 1 and 5 as the format has always
// written, so an encoder change cannot pass as a refactor.
func TestCheckpointBytesPinned(t *testing.T) {
	pins := map[uint64]string{
		1: "7383dabf55d9ee9639fe18e02fa71219f9e97ec30004b765f79fd20829d1161f",
		5: "6f31d1acc6bc0a6012a32fb11b9bdcabf8db49fb0a88c77daee71389ab563a63",
	}
	for seed, want := range pins {
		path := filepath.Join(t.TempDir(), "fleet.ckpt")
		if _, err := RunShardedCheckpointedCtx(context.Background(), ckptConfig(), seed, 1, path, nil); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if len(data) != 256415 || hex.EncodeToString(sum[:]) != want {
			t.Errorf("seed %d: checkpoint is %d bytes with sha256 %x, want 256415 bytes with %s", seed, len(data), sum, want)
		}
	}
}

// TestCheckpointCadence pins the write cadence: a fleet of 130
// one-DIMM classes plans 130 blocks, so the checkpoint is rewritten
// every ceil(130/64) = 3 completed blocks. With one worker, progress
// sees each checkpoint as it was last written, and the finished run
// leaves every block in it.
func TestCheckpointCadence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Classes = nil
	for i := 0; i < 130; i++ {
		cfg.Classes = append(cfg.Classes, DensityClass{fmt.Sprint(i), 1, 1})
	}
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	saved := func() int {
		results := make([]blockResult, 130)
		err := snapshot.ReadFile(path, campaignSnapshotKind, campaignSnapshotVersion,
			func(r *snapshot.Reader, version uint32) error {
				return loadCampaign(r, cfg, 1, planBlocks(cfg), results)
			})
		if errors.Is(err, os.ErrNotExist) {
			return 0
		}
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range results {
			if r.done {
				n++
			}
		}
		return n
	}
	progress := func(done, total int) {
		if got, want := saved(), done-done%3; got != want {
			t.Errorf("after %d of %d blocks the checkpoint holds %d, want %d", done, total, got, want)
		}
	}
	if _, err := RunShardedCheckpointedCtx(context.Background(), cfg, 1, 1, path, progress); err != nil {
		t.Fatal(err)
	}
	if got := saved(); got != 130 {
		t.Fatalf("finished run checkpointed %d blocks, want 130", got)
	}
}

// TestCheckpointCorruptionRefused pins that a bit-flipped checkpoint
// is refused with a typed error and nothing is simulated on top of it.
func TestCheckpointCorruptionRefused(t *testing.T) {
	cfg := ckptConfig()
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	if _, err := RunShardedCheckpointedCtx(context.Background(), cfg, 1, 2, path, nil); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipBit(path, info.Size()/2, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := RunShardedCheckpointedCtx(context.Background(), cfg, 1, 2, path, nil); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestCheckpointMismatchRefused pins the seed/config guard.
func TestCheckpointMismatchRefused(t *testing.T) {
	cfg := ckptConfig()
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	if _, err := RunShardedCheckpointedCtx(context.Background(), cfg, 1, 2, path, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := RunShardedCheckpointedCtx(context.Background(), cfg, 2, 2, path, nil); !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("different seed: want ErrMismatch, got %v", err)
	}
	other := cfg
	other.Classes = append([]DensityClass(nil), cfg.Classes...)
	other.Classes[0].DIMMs = 28192
	if _, err := RunShardedCheckpointedCtx(context.Background(), other, 1, 2, path, nil); !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("different fleet: want ErrMismatch, got %v", err)
	}
}

// TestCrashResumeBitIdentical proves resume after a hard kill: a
// helper subprocess runs the campaign with a Kill injection armed
// mid-run (process exits 137, as if SIGKILLed), then this process
// resumes from the surviving checkpoint and must match the
// uninterrupted result exactly.
func TestCrashResumeBitIdentical(t *testing.T) {
	if os.Getenv("FIELDSTUDY_CRASH_HELPER") == "1" {
		helperCrashCampaign(t)
		return
	}
	cfg := ckptConfig()
	for _, seed := range []uint64{1, 5} {
		path := filepath.Join(t.TempDir(), "fleet.ckpt")
		cmd := exec.Command(os.Args[0], "-test.run", "TestCrashResumeBitIdentical")
		cmd.Env = append(os.Environ(),
			"FIELDSTUDY_CRASH_HELPER=1",
			"FIELDSTUDY_CRASH_CKPT="+path,
			"FIELDSTUDY_CRASH_SEED="+strconv.FormatUint(seed, 10),
		)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 137 {
			t.Fatalf("seed %d: helper exited %v (want 137)\n%s", seed, err, out)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("seed %d: killed campaign left no checkpoint: %v", seed, err)
		}

		got, err := RunShardedCheckpointedCtx(context.Background(), cfg, seed, 2, path, nil)
		if err != nil {
			t.Fatalf("seed %d: resume after kill: %v", seed, err)
		}
		want := RunSharded(cfg, seed, 4)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: class %s diverged after kill+resume:\n got %+v\nwant %+v",
					seed, want[i].Label, got[i], want[i])
			}
		}
	}
}

// helperCrashCampaign runs in the subprocess: arm a Kill after three
// blocks, run the campaign, die.
func helperCrashCampaign(t *testing.T) {
	seed, err := strconv.ParseUint(os.Getenv("FIELDSTUDY_CRASH_SEED"), 10, 64)
	if err != nil {
		fmt.Println("bad seed:", err)
		os.Exit(2)
	}
	faultinject.Arm(FirePoint, faultinject.Plan{After: 3, Kind: faultinject.Kill})
	// Single worker so exactly three blocks are checkpointed before the
	// kill fires.
	_, _ = RunShardedCheckpointedCtx(context.Background(), ckptConfig(), seed, 1, os.Getenv("FIELDSTUDY_CRASH_CKPT"), nil)
	fmt.Println("campaign survived armed kill")
	os.Exit(3)
}

// FuzzLoadCampaign feeds loadCampaign a finished campaign's checkpoint
// that the fuzzer overwrites with patch from byte at on and cuts to
// keep bytes. Each mutated payload is sealed in a container with a
// fresh footer, so the decoder, not the integrity check, sees the
// hostile bytes. A load either fails with ErrCorrupt or ErrMismatch,
// or restores blocks whose CE sums agree with their per-DIMM counts
// and that save back exactly the payload it read; it never panics.
func FuzzLoadCampaign(f *testing.F) {
	// Three one-block classes of equal size, so the payload stays small
	// and one block's counts fit another's index.
	cfg := DefaultConfig()
	cfg.Classes = []DensityClass{{"2Gb", 2.2, 3}, {"4Gb", 4.5, 3}, {"8Gb", 9.0, 3}}
	cfg.Months = 2
	const seed = 1
	blocks := planBlocks(cfg)
	src := filepath.Join(f.TempDir(), "fleet.ckpt")
	if _, err := RunShardedCheckpointedCtx(context.Background(), cfg, seed, 1, src, nil); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		f.Fatal(err)
	}
	r, _, err := snapshot.Decode(data, campaignSnapshotKind, campaignSnapshotVersion)
	if err != nil {
		f.Fatal(err)
	}
	good := r.Raw(r.Remaining())
	// Offsets into the payload: the identity ends with the block count,
	// then come the completed-block count and, per block, its index,
	// counts, CE sum, UE sum and number of DIMMs with a CE.
	id := len(identity(cfg, seed, blocks))
	first := id + 8
	second := first + 8 + 8 + 8*blocks[0].count + 24
	be := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	swapped := append(append(be(1), good[first+8:second]...), be(0)...)
	f.Add(uint16(0), []byte(nil), uint16(len(good)))
	f.Add(uint16(0), []byte(nil), uint16(len(good)-3))
	f.Add(uint16(second), be(0), uint16(len(good)))        // duplicate block index
	f.Add(uint16(first), swapped, uint16(len(good)))       // blocks out of order
	f.Add(uint16(second-24), be(1<<40), uint16(len(good))) // CE sum off its counts
	f.Add(uint16(second-8), be(2), uint16(len(good)))      // DIMMs with a CE off its counts
	f.Add(uint16(id), be(1), uint16(second))               // one completed block
	f.Add(uint16(id-8), be(7), uint16(len(good)))          // another block count
	f.Add(uint16(0), []byte{0xff}, uint16(len(good)))      // the tag length
	f.Fuzz(func(t *testing.T, at uint16, patch []byte, keep uint16) {
		payload := bytes.Clone(good)
		copy(payload[int(at)%len(payload):], patch)
		payload = payload[:min(int(keep), len(payload))]
		path := filepath.Join(t.TempDir(), "fleet.ckpt")
		if err := snapshot.WriteFile(path, campaignSnapshotKind, campaignSnapshotVersion, func(w *snapshot.Writer) error {
			w.Raw(payload)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		results := make([]blockResult, len(blocks))
		err := snapshot.ReadFile(path, campaignSnapshotKind, campaignSnapshotVersion,
			func(r *snapshot.Reader, version uint32) error {
				return loadCampaign(r, cfg, seed, blocks, results)
			})
		if err != nil {
			if !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrMismatch) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		for bi, br := range results {
			var sum int64
			with := 0
			for _, c := range br.ce {
				sum += c
				if c > 0 {
					with++
				}
			}
			if br.ceSum != sum || br.withCE != with {
				t.Fatalf("block %d restored CE sum %d over %d DIMMs, its counts give %d over %d", bi, br.ceSum, br.withCE, sum, with)
			}
		}
		var w snapshot.Writer
		saveCampaign(&w, cfg, seed, blocks, results)
		if !bytes.Equal(w.Bytes(), payload) {
			t.Fatalf("restore of %d bytes saves back %d different bytes", len(payload), len(w.Bytes()))
		}
	})
}
