package campaign

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fieldstudy"
)

// testFleet is a small fleet spanning several shard blocks.
func testFleet() *fieldstudy.Config {
	cfg := fieldstudy.DefaultConfig()
	cfg.Classes = []fieldstudy.DensityClass{
		{Label: "2Gb", RateScale: 2.2, DIMMs: 20000},
		{Label: "4Gb", RateScale: 4.5, DIMMs: 12000},
	}
	cfg.Months = 2
	return &cfg
}

// waitTerminal polls until the campaign leaves StatusRunning.
func waitTerminal(t *testing.T, s *Service, id string) View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, err := s.Get(id, true)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish", id)
	return View{}
}

// TestConcurrentCampaignsComplete pins the basic service contract:
// several campaigns of both kinds run concurrently to completion, and
// the fieldstudy result matches the engine run bit-for-bit.
func TestConcurrentCampaignsComplete(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	s := NewService(t.TempDir())
	fleet, err := s.Submit(Spec{Kind: "fieldstudy", Seed: 1, Workers: 2, Fleet: testFleet()})
	if err != nil {
		t.Fatal(err)
	}
	exps, err := s.Submit(Spec{Kind: "experiments", Seed: 1, Workers: 2, Experiments: []string{"E1", "E2"}})
	if err != nil {
		t.Fatal(err)
	}

	fv := waitTerminal(t, s, fleet.ID)
	ev := waitTerminal(t, s, exps.ID)
	if fv.Status != StatusDone || ev.Status != StatusDone {
		t.Fatalf("statuses %s/%s, want done/done (%s / %s)", fv.Status, ev.Status, fv.Error, ev.Error)
	}

	var got []fieldstudy.ClassStats
	if err := json.Unmarshal(fv.Result, &got); err != nil {
		t.Fatal(err)
	}
	want := fieldstudy.RunSharded(*testFleet(), 1, 4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("class %s: service result %+v, engine %+v", want[i].Label, got[i], want[i])
		}
	}

	// The event stream carried incremental progress, not just
	// lifecycle bookends.
	evs, terminal, err := s.EventsSince(context.Background(), fleet.ID, 0, false)
	if err != nil || !terminal {
		t.Fatalf("EventsSince: %v terminal=%v", err, terminal)
	}
	var sawProgress bool
	for _, e := range evs {
		if e.Type == "progress" {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Fatal("no progress events streamed")
	}
}

// TestInjectedPanicFailsOnlyItsCampaign pins panic isolation: an
// armed panic fails the campaign it fires in, with the fault recorded,
// while the service keeps running campaigns that complete normally.
func TestInjectedPanicFailsOnlyItsCampaign(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	s := NewService(t.TempDir())

	faultinject.Arm(RunFirePoint, faultinject.Plan{Times: 1, Kind: faultinject.Panic})
	doomed, err := s.Submit(Spec{Kind: "fieldstudy", Seed: 1, Workers: 2, Fleet: testFleet()})
	if err != nil {
		t.Fatal(err)
	}
	dv := waitTerminal(t, s, doomed.ID)
	if dv.Status != StatusFailed || !strings.Contains(dv.Error, "injected panic") {
		t.Fatalf("doomed campaign: status=%s err=%q, want failed with injected panic", dv.Status, dv.Error)
	}

	faultinject.Reset()
	healthy, err := s.Submit(Spec{Kind: "experiments", Seed: 1, Workers: 1, Experiments: []string{"E1"}})
	if err != nil {
		t.Fatal(err)
	}
	hv := waitTerminal(t, s, healthy.ID)
	if hv.Status != StatusDone {
		t.Fatalf("healthy campaign after panic: status=%s err=%q", hv.Status, hv.Error)
	}
}

// TestWorkerPanicInsideEngineIsContained pins the deeper variant: a
// panic on an engine worker goroutine (not the campaign goroutine) is
// recovered into a campaign failure, and a retry completes the
// campaign from its checkpoint.
func TestWorkerPanicInsideEngineIsContained(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	s := NewService(t.TempDir())
	faultinject.Arm(fieldstudy.FirePoint, faultinject.Plan{After: 1, Times: 1, Kind: faultinject.Panic})
	v, err := s.Submit(Spec{
		Kind: "fieldstudy", Seed: 1, Workers: 2, Fleet: testFleet(),
		MaxRetries: 2, RetryBackoffMS: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fv := waitTerminal(t, s, v.ID)
	if fv.Status != StatusDone {
		t.Fatalf("status=%s err=%q, want done after retry", fv.Status, fv.Error)
	}
	if fv.Attempts < 2 {
		t.Fatalf("attempts=%d, want >=2 (panic then retry)", fv.Attempts)
	}
	var got []fieldstudy.ClassStats
	if err := json.Unmarshal(fv.Result, &got); err != nil {
		t.Fatal(err)
	}
	want := fieldstudy.RunSharded(*testFleet(), 1, 4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("class %s diverged after panic+retry: %+v != %+v", want[i].Label, got[i], want[i])
		}
	}
}

// TestTransientShardFailureRetriesWithBackoff pins retry-with-backoff:
// a transiently failing shard succeeds on the retry, resuming from the
// checkpoint, and the retry is visible in the event stream.
func TestTransientShardFailureRetriesWithBackoff(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	s := NewService(t.TempDir())
	faultinject.Arm(fieldstudy.FirePoint, faultinject.Plan{After: 2, Times: 1, Kind: faultinject.Error})
	v, err := s.Submit(Spec{
		Kind: "fieldstudy", Seed: 5, Workers: 1, Fleet: testFleet(),
		MaxRetries: 3, RetryBackoffMS: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fv := waitTerminal(t, s, v.ID)
	if fv.Status != StatusDone {
		t.Fatalf("status=%s err=%q, want done", fv.Status, fv.Error)
	}
	if fv.Attempts != 2 {
		t.Fatalf("attempts=%d, want 2", fv.Attempts)
	}
	evs, _, err := s.EventsSince(context.Background(), v.ID, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var sawRetry bool
	for _, e := range evs {
		if e.Type == "retry" && strings.Contains(e.Msg, "retrying in") {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatal("no retry event recorded")
	}
	var got []fieldstudy.ClassStats
	if err := json.Unmarshal(fv.Result, &got); err != nil {
		t.Fatal(err)
	}
	want := fieldstudy.RunSharded(*testFleet(), 5, 4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("class %s diverged after retry: %+v != %+v", want[i].Label, got[i], want[i])
		}
	}
}

// TestCorruptCheckpointFailsPermanently pins the corruption path at
// the service layer: a campaign pointed at a bit-flipped checkpoint
// fails on the first attempt — no retries, no partial load.
func TestCorruptCheckpointFailsPermanently(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	dir := t.TempDir()
	s := NewService(dir)
	v, err := s.Submit(Spec{
		Kind: "fieldstudy", Seed: 1, Workers: 2, Fleet: testFleet(),
		Checkpoint: "shared.ckpt",
	})
	if err != nil {
		t.Fatal(err)
	}
	if fv := waitTerminal(t, s, v.ID); fv.Status != StatusDone {
		t.Fatalf("setup campaign failed: %s %q", fv.Status, fv.Error)
	}
	path := filepath.Join(dir, "shared.ckpt")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipBit(path, info.Size()/3, 2); err != nil {
		t.Fatal(err)
	}

	v2, err := s.Submit(Spec{
		Kind: "fieldstudy", Seed: 1, Workers: 2, Fleet: testFleet(),
		Checkpoint: "shared.ckpt", MaxRetries: 3, RetryBackoffMS: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fv := waitTerminal(t, s, v2.ID)
	if fv.Status != StatusFailed || !strings.Contains(fv.Error, "corrupt checkpoint") {
		t.Fatalf("status=%s err=%q, want failed with corrupt checkpoint", fv.Status, fv.Error)
	}
	if fv.Attempts != 1 {
		t.Fatalf("attempts=%d, want 1 (corruption is permanent, never retried)", fv.Attempts)
	}
}

// TestDrainCheckpointsInFlightAndResumesBitIdentical pins graceful
// drain: SIGTERM-style drain interrupts a slow campaign, marks it
// checkpointed with its file on disk, and a resubmission against the
// same checkpoint (fresh service, as after a restart) completes with
// results bit-identical to an uninterrupted run.
func TestDrainCheckpointsInFlightAndResumesBitIdentical(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	dir := t.TempDir()
	s := NewService(dir)
	// Slow every block down so the drain lands mid-campaign.
	faultinject.Arm(fieldstudy.FirePoint, faultinject.Plan{Kind: faultinject.Delay, Delay: 40 * time.Millisecond})
	v, err := s.Submit(Spec{
		Kind: "fieldstudy", Seed: 1, Workers: 1, Fleet: testFleet(),
		Checkpoint: "drained.ckpt",
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // let at least one block finish

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	fv, err := s.Get(v.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if fv.Status != StatusCheckpointed && fv.Status != StatusDone {
		t.Fatalf("drained campaign status=%s err=%q, want checkpointed (or done)", fv.Status, fv.Error)
	}
	if _, err := os.Stat(filepath.Join(dir, "drained.ckpt")); err != nil {
		t.Fatalf("drained campaign left no checkpoint: %v", err)
	}
	if _, err := s.Submit(Spec{Kind: "fieldstudy", Seed: 1}); err == nil {
		t.Fatal("draining service accepted a submission")
	}

	// "Restart": fresh service over the same state dir, resume.
	faultinject.Reset()
	s2 := NewService(dir)
	v2, err := s2.Submit(Spec{
		Kind: "fieldstudy", Seed: 1, Workers: 2, Fleet: testFleet(),
		Checkpoint: "drained.ckpt",
	})
	if err != nil {
		t.Fatal(err)
	}
	fv2 := waitTerminal(t, s2, v2.ID)
	if fv2.Status != StatusDone {
		t.Fatalf("resumed campaign: status=%s err=%q", fv2.Status, fv2.Error)
	}
	var got []fieldstudy.ClassStats
	if err := json.Unmarshal(fv2.Result, &got); err != nil {
		t.Fatal(err)
	}
	want := fieldstudy.RunSharded(*testFleet(), 1, 4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("class %s diverged after drain+resume: %+v != %+v", want[i].Label, got[i], want[i])
		}
	}
}

// TestDeadlineCancelsCampaign pins per-campaign deadlines: a campaign
// slower than its deadline is cancelled (not failed), checkpoint kept.
func TestDeadlineCancelsCampaign(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	dir := t.TempDir()
	s := NewService(dir)
	faultinject.Arm(fieldstudy.FirePoint, faultinject.Plan{Kind: faultinject.Delay, Delay: 60 * time.Millisecond})
	v, err := s.Submit(Spec{
		Kind: "fieldstudy", Seed: 1, Workers: 1, Fleet: testFleet(),
		Checkpoint: "deadline.ckpt", DeadlineMS: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	fv := waitTerminal(t, s, v.ID)
	if fv.Status != StatusCanceled {
		t.Fatalf("status=%s err=%q, want canceled", fv.Status, fv.Error)
	}
	if _, err := os.Stat(filepath.Join(dir, "deadline.ckpt")); err != nil {
		t.Fatalf("deadline-cancelled campaign left no checkpoint: %v", err)
	}
}

// TestCancelStopsCampaign pins explicit cancellation.
func TestCancelStopsCampaign(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	s := NewService(t.TempDir())
	faultinject.Arm(fieldstudy.FirePoint, faultinject.Plan{Kind: faultinject.Delay, Delay: 50 * time.Millisecond})
	v, err := s.Submit(Spec{Kind: "fieldstudy", Seed: 1, Workers: 1, Fleet: testFleet()})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := s.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	fv := waitTerminal(t, s, v.ID)
	if fv.Status != StatusCanceled {
		t.Fatalf("status=%s, want canceled", fv.Status)
	}
}

// TestSpecValidation pins submission-time rejection of bad specs.
func TestSpecValidation(t *testing.T) {
	s := NewService(t.TempDir())
	cases := []Spec{
		{Kind: "warp-drive", Seed: 1},
		{Kind: "experiments", Seed: 1, Experiments: []string{"E99999"}},
		{Kind: "fieldstudy", Seed: 1, Checkpoint: "../escape.ckpt"},
		{Kind: "fieldstudy", Seed: 1, Checkpoint: ".hidden"},
		{Kind: "fieldstudy", Seed: 1, RetryBackoffMS: maxRetryBackoff.Milliseconds() + 1},
		{Kind: "fieldstudy", Seed: 1, MaxRetries: maxRetries + 1},
		{Kind: "fieldstudy", Seed: 1, Fleet: fleet(func(c *fieldstudy.Config) { c.Classes = nil })},
		{Kind: "fieldstudy", Seed: 1, Fleet: fleet(func(c *fieldstudy.Config) { c.Classes[1].DIMMs = 0 })},
		{Kind: "fieldstudy", Seed: 1, Fleet: fleet(func(c *fieldstudy.Config) { c.Classes[0].DIMMs = -5 })},
		{Kind: "fieldstudy", Seed: 1, Fleet: fleet(func(c *fieldstudy.Config) { c.Months = 0 })},
		{Kind: "fieldstudy", Seed: 1, Fleet: fleet(func(c *fieldstudy.Config) { c.BaseRate = -1 })},
		{Kind: "fieldstudy", Seed: 1, Fleet: fleet(func(c *fieldstudy.Config) { c.TailSigma = -0.5 })},
		{Kind: "fieldstudy", Seed: 1, Fleet: fleet(func(c *fieldstudy.Config) { c.UEPerCE = -1e-6 })},
		{Kind: "fieldstudy", Seed: 1, Fleet: fleet(func(c *fieldstudy.Config) { c.Classes[1].RateScale = -2 })},
		{Kind: "fieldstudy", Seed: 1, Fleet: fleet(func(c *fieldstudy.Config) {
			c.Classes[0].DIMMs = maxFleetDIMMs
		})},
		{Kind: "fieldstudy", Seed: 1, Fleet: fleet(func(c *fieldstudy.Config) {
			for i := range c.Classes {
				c.Classes[i].DIMMs = math.MaxInt
			}
		})},
	}
	for _, spec := range cases {
		if _, err := s.Submit(spec); err == nil {
			t.Fatalf("spec %+v accepted", spec)
		}
	}
	// The caps themselves are inclusive.
	atCap := Spec{Kind: "fieldstudy", Seed: 1, MaxRetries: maxRetries, Fleet: fleet(func(c *fieldstudy.Config) {
		c.Classes[0].DIMMs = maxFleetDIMMs - c.Classes[1].DIMMs
	})}
	if err := validateSpec(&atCap); err != nil {
		t.Fatalf("spec at the caps rejected: %v", err)
	}
	// Zero rates are a quiet fleet, not an error.
	zero := Spec{Kind: "fieldstudy", Seed: 1, Fleet: fleet(func(c *fieldstudy.Config) {
		c.BaseRate, c.TailSigma, c.UEPerCE = 0, 0, 0
		for i := range c.Classes {
			c.Classes[i].RateScale = 0
		}
	})}
	if err := validateSpec(&zero); err != nil {
		t.Fatalf("zero-rate fleet rejected: %v", err)
	}
}

// fleet returns testFleet with mutate applied.
func fleet(mutate func(*fieldstudy.Config)) *fieldstudy.Config {
	cfg := testFleet()
	mutate(cfg)
	return cfg
}

// TestRetryBackoffBounded pins the retry wait: positive, non-decreasing
// in the attempt count and never above the cap, long after a plain
// base<<attempt would have overflowed.
func TestRetryBackoffBounded(t *testing.T) {
	for _, base := range []int64{1, 100, maxRetryBackoff.Milliseconds()} {
		prev := time.Duration(0)
		for attempt := 0; attempt <= 200; attempt++ {
			d := retryBackoff(base, attempt)
			if d <= 0 || d < prev || d > maxRetryBackoff {
				t.Fatalf("base %dms attempt %d: backoff %v after %v", base, attempt, d, prev)
			}
			prev = d
		}
		if prev != maxRetryBackoff {
			t.Fatalf("base %dms: backoff %v never reached the cap", base, prev)
		}
	}
	if d := retryBackoff(100, 0); d != 100*time.Millisecond {
		t.Fatalf("first backoff %v, want 100ms", d)
	}
}
