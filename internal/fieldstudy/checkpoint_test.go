package fieldstudy

import (
	"context"
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
			_, err := RunShardedCheckpointedCtx(context.Background(), cfg, seed, workers, path, 1, nil)
			var f *faultinject.Fault
			if !errors.As(err, &f) {
				t.Fatalf("seed %d workers %d: want injected fault, got %v", seed, workers, err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("seed %d workers %d: no checkpoint after failed run: %v", seed, workers, err)
			}

			// Resume with injection cleared.
			faultinject.Reset()
			got, err := RunShardedCheckpointedCtx(context.Background(), cfg, seed, workers, path, 1, nil)
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
	got, err := RunShardedCheckpointedCtx(context.Background(), cfg, 1, 2, filepath.Join(t.TempDir(), "f.ckpt"), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("class %s: %+v != %+v", want[i].Label, got[i], want[i])
		}
	}
}

// TestCheckpointCorruptionRefused pins that a bit-flipped checkpoint
// is refused with a typed error and nothing is simulated on top of it.
func TestCheckpointCorruptionRefused(t *testing.T) {
	cfg := ckptConfig()
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	if _, err := RunShardedCheckpointedCtx(context.Background(), cfg, 1, 2, path, 1, nil); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipBit(path, info.Size()/2, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := RunShardedCheckpointedCtx(context.Background(), cfg, 1, 2, path, 1, nil); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestCheckpointMismatchRefused pins the seed/config guard.
func TestCheckpointMismatchRefused(t *testing.T) {
	cfg := ckptConfig()
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	if _, err := RunShardedCheckpointedCtx(context.Background(), cfg, 1, 2, path, 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := RunShardedCheckpointedCtx(context.Background(), cfg, 2, 2, path, 1, nil); !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("different seed: want ErrMismatch, got %v", err)
	}
	other := cfg
	other.Classes = append([]DensityClass(nil), cfg.Classes...)
	other.Classes[0].DIMMs = 28192
	if _, err := RunShardedCheckpointedCtx(context.Background(), other, 1, 2, path, 1, nil); !errors.Is(err, snapshot.ErrMismatch) {
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

		got, err := RunShardedCheckpointedCtx(context.Background(), cfg, seed, 2, path, 1, nil)
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
	_, _ = RunShardedCheckpointedCtx(context.Background(), ckptConfig(), seed, 1, os.Getenv("FIELDSTUDY_CRASH_CKPT"), 1, nil)
	fmt.Println("campaign survived armed kill")
	os.Exit(3)
}
