package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"
)

// bench is one workload: one input set of the benchmark.
type bench interface {
	// channels is the memory channel count of the workload's rigs (0
	// when the layers are reached only from inside experiments).
	channels() int
	// setup builds, arms and snapshots the state every pass starts
	// from. With a tracer the rigs carry tracing wrappers and the
	// set-up records spans.
	setup(tr *tracer) error
	// pass runs the workload's fixed unit of work from the set-up
	// state, timing each op through ops.
	pass(tr *tracer, ops *opTimer) (passResult, error)
}

// passResult is what one pass produced. Passes of one run repeat the
// same work, so their digests must agree.
type passResult struct {
	digest string
	tables map[string]string // experiment table SHA-256s (paper-hot)
	layer  map[string]float64
}

func newBench(name string, seed uint64, tiny bool) (bench, error) {
	switch name {
	case "paper-hot":
		return newPaperHot(seed, tiny), nil
	case "hammer-campaign":
		return newHammerCampaign(seed, tiny), nil
	case "traffic-mixed":
		return newTrafficMixed(seed, tiny), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have paper-hot, hammer-campaign, traffic-mixed)", name)
}

// shardWorkers is the fan-out of every sharded call: the host's CPUs,
// at most two.
func shardWorkers() int { return min(2, runtime.NumCPU()) }

// opTimer times ops and counts the ones that failed.
type opTimer struct {
	lat       []float64 // seconds
	attempted int
	failed    int
	start     time.Time
}

func (o *opTimer) begin() { o.start = time.Now() }

func (o *opTimer) end(err error) {
	o.lat = append(o.lat, time.Since(o.start).Seconds())
	o.attempted++
	if err != nil {
		o.failed++
	}
}

// phase is one timed sequence of passes.
type phase struct {
	walls   []float64 // seconds per pass
	allocs  []float64 // bytes per pass
	ops     *opTimer
	digest  string // digest of the first pass
	tables  map[string]string
	layer   map[string]float64 // per-layer values, mean over passes
	errs    []string
	elapsed time.Duration
}

// runPhase runs passes for about seconds (at least one), stopping
// before a pass that would likely end past the budget. want is the
// digest every pass must produce ("" to take the first pass's).
func runPhase(w bench, tr *tracer, seconds float64, want string, wantTables map[string]string) *phase {
	ph := &phase{ops: &opTimer{}, layer: map[string]float64{}}
	alloc := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	// Start the passes on a collected heap, not on the set-up's garbage.
	runtime.GC()
	start := time.Now()
	for {
		metrics.Read(alloc)
		a0 := alloc[0].Value.Uint64()
		t0 := time.Now()
		before := ph.ops.attempted
		res, err := w.pass(tr, ph.ops)
		wall := time.Since(t0).Seconds()
		metrics.Read(alloc)
		ph.walls = append(ph.walls, wall)
		ph.allocs = append(ph.allocs, float64(alloc[0].Value.Uint64()-a0))
		if err != nil {
			ph.errs = append(ph.errs, err.Error())
			break
		}
		if ph.digest == "" {
			ph.digest, ph.tables = res.digest, res.tables
			if want == "" {
				want = res.digest
			}
		}
		if bad := checkPass(res, want, wantTables); bad != "" {
			// A pass whose outputs differ from the reference fails all
			// of its ops: the digest does not say which one diverged.
			ph.ops.failed += ph.ops.attempted - before
			ph.errs = append(ph.errs, bad)
		}
		for k, x := range res.layer {
			ph.layer[k] += x
		}
		ph.elapsed = time.Since(start)
		if ph.elapsed.Seconds()+wall > seconds {
			break
		}
	}
	for k := range ph.layer {
		ph.layer[k] /= float64(len(ph.walls))
	}
	return ph
}

func checkPass(res passResult, want string, wantTables map[string]string) string {
	for id, sha := range wantTables {
		if got := res.tables[id]; got != sha {
			return fmt.Sprintf("%s table sha256 %s, pinned %s", id, got, sha)
		}
	}
	if res.digest != want {
		return fmt.Sprintf("digest %s, want %s", res.digest, want)
	}
	return ""
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool   // smoke-test sizes; pins do not apply
	outDir   string // where a traced run writes spans and the CPU profile
	log      io.Writer
}

// An untraced run sets up at least setupRepeats times and for at least
// setupSeconds; setup_s is the median.
const (
	setupRepeats = 5
	setupSeconds = 0.25
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(cfg config) (*result, error) {
	w, err := newBench(cfg.workload, cfg.seed, cfg.tiny)
	if err != nil {
		return nil, err
	}
	var want string
	var wantTables map[string]string
	if !cfg.tiny {
		want, wantTables = pinned(cfg.workload, cfg.seed)
	}
	res := &result{Metrics: map[string]metric{}}
	var errs []string
	if !cfg.trace {
		var setups []float64
		for total := 0.0; len(setups) < setupRepeats || total < setupSeconds; {
			t0 := time.Now()
			if err := w.setup(nil); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			total += setups[len(setups)-1]
		}
		ph := runPhase(w, nil, cfg.seconds, want, wantTables)
		errs = ph.errs
		res.Attempted, res.Failed = ph.ops.attempted, ph.ops.failed
		lat := ph.ops.lat
		p95 := quantile(lat, 0.95)
		above := 0
		for _, x := range lat {
			if x > p95 {
				above++
			}
		}
		vals := map[string]float64{
			"wall_s":    median(ph.walls),
			"setup_s":   median(setups),
			"op_p50_ms": 1e3 * quantile(lat, 0.5),
			"op_p95_ms": 1e3 * p95,
			"alloc_mb":  median(ph.allocs) / 1e6,
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metric{vals[m.Name], m.Unit}
		}
		fmt.Fprintf(cfg.log, "%s seed %d: %d passes, %d ops (%d above p95), digest %s\n",
			cfg.workload, cfg.seed, len(ph.walls), len(lat), above, ph.digest)
		for id, sha := range ph.tables {
			fmt.Fprintf(cfg.log, "  %s table sha256 %s\n", id, sha)
		}
	} else {
		vals, traceErrs, err := runTraced(w, cfg, want, wantTables, res)
		if err != nil {
			return nil, err
		}
		errs = traceErrs
		for _, m := range layerDefs(cfg.workload) {
			res.Metrics[m.Name] = metric{vals[m.Name], m.Unit}
		}
	}
	for _, e := range errs {
		fmt.Fprintf(cfg.log, "FAIL: %s\n", e)
	}
	res.Correct = len(errs) == 0 && res.Failed == 0
	return res, nil
}

// runTraced runs an untraced phase and a traced phase of half the time
// each and returns the per-layer metrics. The traced phase must
// reproduce the untraced digest: the wrappers only observe.
func runTraced(w bench, cfg config, want string, wantTables map[string]string, res *result) (map[string]float64, []string, error) {
	if err := w.setup(nil); err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	un := runPhase(w, nil, cfg.seconds/2, want, wantTables)
	errs := un.errs
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, nil, err
	}
	tr := newTracer(w.channels())
	t0 := time.Now()
	err = w.setup(tr)
	setupWall := time.Since(t0)
	setupSpans := tr.totals()
	var tp *phase
	if err == nil {
		tp = runPhase(w, tr, cfg.seconds/2, un.digest, wantTables)
	}
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, fmt.Errorf("traced setup: %w", err)
	}
	if err := prof.Close(); err != nil {
		return nil, nil, err
	}
	passSpans := tr.totals()
	errs = append(errs, tp.errs...)
	if tp.digest != un.digest {
		errs = append(errs, fmt.Sprintf("traced digest %s differs from untraced %s", tp.digest, un.digest))
	}
	res.Attempted = un.ops.attempted + tp.ops.attempted
	res.Failed = un.ops.failed + tp.ops.failed

	vals := layerValues(tr, setupSpans, passSpans, len(tp.walls), tp.layer)
	unWall, trWall := median(un.walls), median(tp.walls)
	vals["trace.overhead_s"] = trWall - unWall
	if unWall > 0 {
		vals["memctrl.accesses_per_s"] = un.layer["memctrl.accesses"] / unWall
	}

	all := map[string]agg{}
	for _, m := range []map[string]agg{setupSpans, passSpans} {
		for k, a := range m {
			o := all[k]
			o.calls += a.calls
			o.total += a.total
			o.self += a.self
			all[k] = o
		}
	}
	tracedWall := setupWall + tp.elapsed
	fmt.Fprintf(cfg.log, "%s seed %d traced: %d untraced + %d traced passes, digest %s\n",
		cfg.workload, cfg.seed, len(un.walls), len(tp.walls), tp.digest)
	fmt.Fprintf(cfg.log, "pass wall: untraced %.4f s, traced %.4f s, overhead %.4f s (%.1f%%)\n",
		unWall, trWall, trWall-unWall, 100*(trWall-unWall)/unWall)
	fmt.Fprintf(cfg.log, "self time over the traced set-up and passes (%.3f s):\n", tracedWall.Seconds())
	printSelfTable(cfg.log, all, tracedWall)
	n, dropped, err := tr.writeSpans(base + ".spans.jsonl")
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(cfg.log, "wrote %d spans (%d over the in-memory cap not kept) to %s.spans.jsonl, CPU profile to %s.cpu.pprof\n",
		n, dropped, base, base)
	return vals, errs, nil
}
