// Package campaign is the crash-resilient fleet-campaign service
// behind cmd/fleetd: it runs concurrent simulation campaigns
// (fieldstudy fleets, experiment suites) with per-campaign
// checkpointing, context cancellation and deadlines, panic isolation,
// retry with exponential backoff for transient shard failures, and
// graceful drain — every in-flight campaign either finishes or leaves
// a verified checkpoint a resubmission resumes from, bit-identically.
package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/fieldstudy"
	"repro/internal/snapshot"
)

// RunFirePoint is fired once per campaign attempt, inside the
// campaign's panic-recovery net. Tests arm it to prove a panicking
// campaign fails alone.
const RunFirePoint = "campaign.run"

// Spec is the JSON body submitted to start a campaign. Unknown fields
// are refused. The checkpoint cadence is not a field: the experiments
// engine checkpoints after every experiment, and the fieldstudy engine
// derives its cadence from the fleet's block plan.
type Spec struct {
	// Kind selects the engine: "fieldstudy" (sharded fleet
	// simulation) or "experiments" (registered experiment suite).
	Kind string `json:"kind"`
	// Seed drives the campaign; results are pure functions of it.
	Seed uint64 `json:"seed"`
	// Workers is the engine fan-out. <= 0 means 1; the engine never
	// starts more workers than it has shard units.
	Workers int `json:"workers,omitempty"`
	// Checkpoint names the checkpoint file inside the service's state
	// directory. Empty means one derived from the campaign ID (no
	// resume across submissions); submitting with the name of an
	// earlier campaign's checkpoint resumes it. Must be a bare file
	// name.
	Checkpoint string `json:"checkpoint,omitempty"`
	// DeadlineMS bounds the campaign's total wall time; past it the
	// campaign is cancelled (checkpoint kept). <= 0 means none.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxRetries is how many times a transiently failed attempt is
	// retried (with exponential backoff) before the campaign fails.
	// Negative means 0; more than maxRetries is rejected.
	MaxRetries int `json:"max_retries,omitempty"`
	// RetryBackoffMS is the base backoff; attempt n waits
	// RetryBackoffMS << n, capped at one minute. <= 0 means 100ms;
	// more than 60000 is rejected.
	RetryBackoffMS int64 `json:"retry_backoff_ms,omitempty"`
	// Fleet configures the fieldstudy kind; nil means
	// fieldstudy.DefaultConfig. A fleet needs at least one class,
	// every class at least one DIMM, one to maxFleetMonths months, and
	// at most maxFleetDIMMs DIMMs in total.
	Fleet *fieldstudy.Config `json:"fleet,omitempty"`
	// Experiments restricts the experiments kind to these IDs; empty
	// means every registered experiment.
	Experiments []string `json:"experiments,omitempty"`
}

// Status is a campaign's lifecycle state.
type Status string

const (
	// StatusRunning: the campaign has a live goroutine.
	StatusRunning Status = "running"
	// StatusDone: finished; the result is available.
	StatusDone Status = "done"
	// StatusFailed: exhausted retries, hit a permanent error, or
	// panicked; Error carries the reason.
	StatusFailed Status = "failed"
	// StatusCanceled: cancelled by request or deadline. The
	// checkpoint survives for resumption.
	StatusCanceled Status = "canceled"
	// StatusCheckpointed: interrupted by service drain with its
	// checkpoint intact; resubmit with the same checkpoint name to
	// resume.
	StatusCheckpointed Status = "checkpointed"
)

// Terminal reports whether no further transitions can happen.
func (s Status) Terminal() bool { return s != StatusRunning }

// Event is one entry of a campaign's incremental event stream.
type Event struct {
	Seq  int       `json:"seq"`
	Time time.Time `json:"time"`
	Type string    `json:"type"`
	Msg  string    `json:"msg,omitempty"`
}

// Campaign is the service's record of one submitted campaign.
type Campaign struct {
	ID         string
	Spec       Spec
	Status     Status
	Error      string
	Attempts   int
	Result     json.RawMessage
	Events     []Event
	ckptPath   string
	cancel     context.CancelFunc
	drainStamp bool // cancelled by drain, not by user/deadline
}

// View is the JSON-facing snapshot of a campaign.
type View struct {
	ID         string          `json:"id"`
	Kind       string          `json:"kind"`
	Seed       uint64          `json:"seed"`
	Status     Status          `json:"status"`
	Error      string          `json:"error,omitempty"`
	Attempts   int             `json:"attempts"`
	Events     int             `json:"events"`
	Checkpoint string          `json:"checkpoint"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// Service hosts campaigns. Create with NewService; shut down with
// Drain.
type Service struct {
	dir string

	mu        sync.Mutex
	cond      *sync.Cond
	campaigns map[string]*Campaign
	order     []string
	nextID    int
	draining  bool
	wg        sync.WaitGroup
}

// NewService creates a service storing checkpoints under dir.
func NewService(dir string) *Service {
	s := &Service{dir: dir, campaigns: make(map[string]*Campaign)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// validateSpec normalizes a submission, rejecting unknown kinds and
// checkpoint names that escape the state directory.
func validateSpec(spec *Spec) error {
	switch spec.Kind {
	case "fieldstudy":
		if err := validateFleet(spec.Fleet); err != nil {
			return err
		}
	case "experiments":
		for _, id := range spec.Experiments {
			if _, ok := exp.ByID(id); !ok {
				return fmt.Errorf("campaign: unknown experiment %q", id)
			}
		}
	default:
		return fmt.Errorf("campaign: unknown kind %q (want fieldstudy or experiments)", spec.Kind)
	}
	if spec.Checkpoint != "" && (spec.Checkpoint != filepath.Base(spec.Checkpoint) ||
		strings.HasPrefix(spec.Checkpoint, ".")) {
		return fmt.Errorf("campaign: checkpoint %q must be a bare file name", spec.Checkpoint)
	}
	if spec.Workers < 1 {
		spec.Workers = 1
	}
	if spec.MaxRetries < 0 {
		spec.MaxRetries = 0
	}
	if spec.MaxRetries > maxRetries {
		return fmt.Errorf("campaign: max_retries %d exceeds the cap of %d", spec.MaxRetries, maxRetries)
	}
	if spec.RetryBackoffMS > maxRetryBackoff.Milliseconds() {
		return fmt.Errorf("campaign: retry_backoff_ms %d exceeds the %v cap", spec.RetryBackoffMS, maxRetryBackoff)
	}
	if spec.RetryBackoffMS <= 0 {
		spec.RetryBackoffMS = 100
	}
	return nil
}

const (
	// maxRetries caps Spec.MaxRetries.
	maxRetries = 100
	// maxFleetDIMMs caps a fieldstudy fleet at 16x E52's million
	// DIMMs. It bounds the fleet's block count, and with it the
	// engine's goroutines, since the pool never runs more workers
	// than blocks.
	maxFleetDIMMs = 16_000_000
	// maxFleetMonths caps a fieldstudy fleet at ten years, past a
	// DIMM's service life and 10x the default fleet's one-year study.
	// The engine's work is DIMMs x months, so with maxFleetDIMMs it
	// bounds a campaign at 160x E52's million-DIMM year.
	maxFleetMonths = 120
)

// validateFleet rejects fleets the engine cannot average over: no
// classes, an empty class or no months would divide by zero in the
// per-DIMM-month rates. nil (the default fleet) passes.
func validateFleet(f *fieldstudy.Config) error {
	if f == nil {
		return nil
	}
	if len(f.Classes) == 0 || f.Months < 1 {
		return fmt.Errorf("campaign: fleet has %d classes over %d months, want at least one of each",
			len(f.Classes), f.Months)
	}
	if f.Months > maxFleetMonths {
		return fmt.Errorf("campaign: fleet spans %d months, more than the cap of %d", f.Months, maxFleetMonths)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"base_rate", f.BaseRate}, {"tail_sigma", f.TailSigma}, {"ue_per_ce", f.UEPerCE}} {
		if p.v < 0 {
			return fmt.Errorf("campaign: fleet %s is %g, want at least 0", p.name, p.v)
		}
	}
	total := 0
	for _, cls := range f.Classes {
		if cls.RateScale < 0 {
			return fmt.Errorf("campaign: fleet class %q has rate_scale %g, want at least 0", cls.Label, cls.RateScale)
		}
		if cls.DIMMs < 1 {
			return fmt.Errorf("campaign: fleet class %q has %d DIMMs, want at least 1", cls.Label, cls.DIMMs)
		}
		if cls.DIMMs > maxFleetDIMMs-total {
			return fmt.Errorf("campaign: fleet exceeds the cap of %d DIMMs", maxFleetDIMMs)
		}
		total += cls.DIMMs
	}
	return nil
}

// Submit validates a spec and starts its campaign goroutine.
func (s *Service) Submit(spec Spec) (View, error) {
	if err := validateSpec(&spec); err != nil {
		return View{}, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return View{}, errors.New("campaign: service is draining")
	}
	s.nextID++
	id := fmt.Sprintf("c%04d", s.nextID)
	name := spec.Checkpoint
	if name == "" {
		name = id + ".ckpt"
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if spec.DeadlineMS > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), time.Duration(spec.DeadlineMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	c := &Campaign{
		ID:       id,
		Spec:     spec,
		Status:   StatusRunning,
		ckptPath: filepath.Join(s.dir, name),
		cancel:   cancel,
	}
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.appendEventLocked(c, "submitted", fmt.Sprintf("kind=%s seed=%d workers=%d", spec.Kind, spec.Seed, spec.Workers))
	s.wg.Add(1)
	view := s.viewLocked(c, false)
	s.mu.Unlock()
	go s.run(ctx, cancel, c)
	return view, nil
}

// run is one campaign's lifecycle goroutine: attempts with backoff,
// panic containment, terminal status. A panic anywhere in the attempt
// (campaign code or an engine that lets one escape) fails this
// campaign only.
func (s *Service) run(ctx context.Context, cancel context.CancelFunc, c *Campaign) {
	defer s.wg.Done()
	defer cancel()
	defer func() {
		if p := recover(); p != nil {
			s.finish(c, StatusFailed, fmt.Sprintf("panic: %v", p), nil)
		}
	}()
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		c.Attempts = attempt + 1
		s.appendEventLocked(c, "attempt", fmt.Sprintf("attempt %d", attempt+1))
		s.mu.Unlock()

		result, err := s.attempt(ctx, c)
		if err == nil {
			s.finish(c, StatusDone, "", result)
			return
		}
		if ctx.Err() != nil {
			s.finishInterrupted(c, ctx.Err())
			return
		}
		if permanent(err) || attempt >= c.Spec.MaxRetries {
			s.finish(c, StatusFailed, err.Error(), nil)
			return
		}
		backoff := retryBackoff(c.Spec.RetryBackoffMS, attempt)
		s.mu.Lock()
		s.appendEventLocked(c, "retry", fmt.Sprintf("attempt %d failed (%v); retrying in %v", attempt+1, err, backoff))
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			s.finishInterrupted(c, ctx.Err())
			return
		case <-time.After(backoff):
		}
	}
}

// maxRetryBackoff caps one retry wait, and with it Spec.RetryBackoffMS.
const maxRetryBackoff = time.Minute

// retryBackoff returns the wait after failed attempt n (0-based):
// baseMS milliseconds, at most the cap as validateSpec enforces,
// doubled n times and capped at maxRetryBackoff. The doubling stops at
// the cap, so no attempt count overflows it.
func retryBackoff(baseMS int64, attempt int) time.Duration {
	d := time.Duration(baseMS) * time.Millisecond
	for i := 0; i < attempt && d < maxRetryBackoff; i++ {
		d <<= 1
	}
	return min(d, maxRetryBackoff)
}

// attempt executes one try of the campaign's engine. The injected
// RunFirePoint sits inside run's recovery net, so an armed panic is
// contained to this campaign.
func (s *Service) attempt(ctx context.Context, c *Campaign) (json.RawMessage, error) {
	if err := faultinject.Fire(RunFirePoint); err != nil {
		return nil, err
	}
	progress := func(done, total int) {
		s.mu.Lock()
		s.appendEventLocked(c, "progress", fmt.Sprintf("%d/%d shards", done, total))
		s.mu.Unlock()
	}
	switch c.Spec.Kind {
	case "fieldstudy":
		cfg := fieldstudy.DefaultConfig()
		if c.Spec.Fleet != nil {
			cfg = *c.Spec.Fleet
		}
		stats, err := fieldstudy.RunShardedCheckpointedCtx(ctx, cfg, c.Spec.Seed,
			c.Spec.Workers, c.ckptPath, progress)
		if err != nil {
			return nil, err
		}
		return json.Marshal(stats)
	case "experiments":
		exps := exp.All()
		if len(c.Spec.Experiments) > 0 {
			exps = exps[:0:0]
			for _, id := range c.Spec.Experiments {
				e, _ := exp.ByID(id)
				exps = append(exps, e)
			}
		}
		runner := &exp.Runner{Workers: c.Spec.Workers, Seed: c.Spec.Seed, CheckpointPath: c.ckptPath}
		total := len(exps)
		done := 0
		results, err := runner.RunCheckpointedCtx(ctx, exps, func(res exp.RunResult) {
			done++
			s.mu.Lock()
			s.appendEventLocked(c, "progress", fmt.Sprintf("%d/%d experiments (%s)", done, total, res.ID))
			s.mu.Unlock()
		})
		if err != nil {
			return nil, err
		}
		summary := exp.NewSummary(results, c.Spec.Seed, c.Spec.Workers, 0)
		if failed := summary.Failed(); len(failed) > 0 {
			// Experiments are deterministic, so a failed one fails
			// identically on retry: report permanently.
			return nil, fmt.Errorf("%w: experiments failed: %s",
				errPermanent, strings.Join(failed, ", "))
		}
		return json.Marshal(summary)
	default:
		return nil, fmt.Errorf("%w: unknown kind %q", errPermanent, c.Spec.Kind)
	}
}

// errPermanent classifies failures retrying cannot fix.
var errPermanent = errors.New("permanent campaign failure")

// permanent reports whether an attempt error is not worth retrying: a
// corrupt or mismatched checkpoint needs operator action, not another
// attempt against the same file.
func permanent(err error) bool {
	return errors.Is(err, errPermanent) ||
		errors.Is(err, snapshot.ErrCorrupt) ||
		errors.Is(err, snapshot.ErrMismatch) ||
		errors.Is(err, snapshot.ErrKind) ||
		errors.Is(err, snapshot.ErrVersion)
}

// finish moves a campaign to a terminal status.
func (s *Service) finish(c *Campaign, st Status, errMsg string, result json.RawMessage) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Status = st
	c.Error = errMsg
	c.Result = result
	typ := string(st)
	msg := errMsg
	if st == StatusDone {
		msg = "campaign complete"
	}
	s.appendEventLocked(c, typ, msg)
}

// finishInterrupted classifies a context-terminated campaign: drained
// campaigns are "checkpointed" (resume by resubmitting), user- or
// deadline-cancelled ones are "canceled".
func (s *Service) finishInterrupted(c *Campaign, cause error) {
	s.mu.Lock()
	isDrain := c.drainStamp
	s.mu.Unlock()
	if isDrain {
		s.finish(c, StatusCheckpointed, fmt.Sprintf("drained: %v (checkpoint retained)", cause), nil)
	} else {
		s.finish(c, StatusCanceled, cause.Error(), nil)
	}
}

// appendEventLocked records an event and wakes streamers. Callers
// hold s.mu.
func (s *Service) appendEventLocked(c *Campaign, typ, msg string) {
	c.Events = append(c.Events, Event{
		Seq:  len(c.Events),
		Time: time.Now().UTC(),
		Type: typ,
		Msg:  msg,
	})
	s.cond.Broadcast()
}

// Cancel stops a running campaign. Its checkpoint survives.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	c, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("campaign: no campaign %q", id)
	}
	c.cancel()
	return nil
}

// Drain stops accepting submissions, cancels every running campaign
// (each finishes or checkpoints), and waits for all campaign
// goroutines — bounded by ctx. Returns ctx.Err() if campaigns were
// still winding down at expiry.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	var cancels []context.CancelFunc
	//repro:unordered every non-terminal campaign is cancelled; cancellation order is not observable in any result
	for _, c := range s.campaigns {
		if !c.Status.Terminal() {
			c.drainStamp = true
			cancels = append(cancels, c.cancel)
		}
	}
	s.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Get returns a campaign snapshot (with result when includeResult).
func (s *Service) Get(id string, includeResult bool) (View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	if !ok {
		return View{}, fmt.Errorf("campaign: no campaign %q", id)
	}
	return s.viewLocked(c, includeResult), nil
}

// List returns every campaign in submission order.
func (s *Service) List() []View {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]View, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.viewLocked(s.campaigns[id], false))
	}
	return out
}

func (s *Service) viewLocked(c *Campaign, includeResult bool) View {
	v := View{
		ID:         c.ID,
		Kind:       c.Spec.Kind,
		Seed:       c.Spec.Seed,
		Status:     c.Status,
		Error:      c.Error,
		Attempts:   c.Attempts,
		Events:     len(c.Events),
		Checkpoint: filepath.Base(c.ckptPath),
	}
	if includeResult {
		v.Result = c.Result
	}
	return v
}

// EventsSince returns events with Seq >= from and whether the
// campaign is terminal. With wait, it blocks until there is something
// new past from, the campaign turns terminal, or ctx is done; then it
// returns ctx's error.
func (s *Service) EventsSince(ctx context.Context, id string, from int, wait bool) ([]Event, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	if !ok {
		return nil, false, fmt.Errorf("campaign: no campaign %q", id)
	}
	if wait {
		// Wake this waiter (and, harmlessly, the others) when ctx ends:
		// a streamer whose client left must not stay parked until some
		// campaign emits an event.
		stop := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		defer stop()
	}
	for wait && len(c.Events) <= from && !c.Status.Terminal() {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		s.cond.Wait()
	}
	evs := append([]Event(nil), c.Events[min(from, len(c.Events)):]...)
	return evs, c.Status.Terminal(), nil
}
