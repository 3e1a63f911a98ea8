package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var workloadNames = []string{"paper-hot", "hammer-campaign", "traffic-mixed"}

// benchmarkWorkloads are the workloads BENCHMARK.json lists; paper-hot
// is run by hand (see layers.json).
var benchmarkWorkloads = []string{"hammer-campaign", "traffic-mixed"}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestWorkloadsTiny runs every workload at its smoke-test size, untraced
// and traced, at both pinned seeds. A traced run fails unless its
// digest equals the untraced one, so this also checks that the tracing
// wrappers change no simulated output.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames {
		for _, seed := range []uint64{1, 5} {
			for _, trace := range []bool{false, true} {
				var log strings.Builder
				res, err := run(config{workload: name, seed: seed, trace: trace, tiny: true,
					outDir: t.TempDir(), log: &log})
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d trace %v: correct %v, %d of %d ops failed\n%s",
						name, seed, trace, res.Correct, res.Failed, res.Attempted, log.String())
				}
				want := endToEnd
				if trace {
					want = layerDefs(name)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace %v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit || !metricName.MatchString(m.Name) {
						t.Errorf("%s trace %v: metric %q = %+v, want unit %q", name, trace, m.Name, got, m.Unit)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics the program prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(benchmarkWorkloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, benchmarkWorkloads)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, program prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i := range min(len(b.EndToEnd), len(endToEnd)) {
		if e := b.EndToEnd[i]; e.metricDef != endToEnd[i] || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("BENCHMARK.json end_to_end[%d] = %+v, program prints %+v", i, e, endToEnd[i])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, program prints %d", len(b.PerLayer), len(perLayer))
	}
	for i := range min(len(b.PerLayer), len(perLayer)) {
		if b.PerLayer[i] != perLayer[i] {
			t.Errorf("BENCHMARK.json per_layer[%d] = %+v, program prints %+v", i, b.PerLayer[i], perLayer[i])
		}
	}
}

// TestLayerMap checks that layers.json maps every per-layer metric to
// exactly one layer and describes every workload.
func TestLayerMap(t *testing.T) {
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads map[string]json.RawMessage
		Layers    []struct {
			Layer   string
			Metrics []string
			Moves   string
		}
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		if m.Workloads[w] == nil {
			t.Errorf("layers.json does not describe workload %s", w)
		}
	}
	seen := map[string]int{}
	for _, l := range m.Layers {
		if l.Moves == "" {
			t.Errorf("layer %s says nothing about what it moves", l.Layer)
		}
		for _, name := range l.Metrics {
			seen[name]++
		}
	}
	printed := map[string]bool{}
	for _, d := range append(perLayer, expLayer...) {
		printed[d.Name] = true
		if seen[d.Name] == 0 {
			t.Errorf("layers.json does not map per-layer metric %s", d.Name)
		}
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("layers.json maps %s %d times", name, n)
		}
		if !printed[name] {
			t.Errorf("layers.json names %s, which the program does not print", name)
		}
	}
}

// TestSelfTime checks the tracer's accounting on spans whose timing is
// forced by sleeps: nested children on one track, and a parallel span
// whose children run on two channel tracks at once.
func TestSelfTime(t *testing.T) {
	tr := newTracer(2)
	outer, inner, fan, work := tr.id("outer"), tr.id("inner"), tr.id("fan"), tr.id("work")
	m := tr.main()
	m.begin(outer)
	time.Sleep(20 * time.Millisecond)
	m.begin(inner)
	time.Sleep(40 * time.Millisecond)
	m.end()
	m.end()
	m.beginParallel(fan)
	done := make(chan bool)
	for ch := 0; ch < 2; ch++ {
		go func(c *track) {
			c.begin(work)
			time.Sleep(40 * time.Millisecond)
			c.end()
			done <- true
		}(tr.channel(ch))
	}
	<-done
	<-done
	m.end()
	got := tr.totals()
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	near := func(name string, x, want float64) {
		if x < want || x > want+25 {
			t.Errorf("%s = %.1f ms, want about %.0f ms", name, x, want)
		}
	}
	near("outer self", ms(got["outer"].self), 20)
	near("inner self", ms(got["inner"].self), 40)
	near("fan total", ms(got["fan"].total), 40)
	near("fan busy", ms(got["fan"].busy), 80)
	if s := ms(got["fan"].self); s > 20 {
		t.Errorf("fan self = %.1f ms: parallel children should cover it", s)
	}
	if got["work"].calls != 2 {
		t.Errorf("work calls = %d, want 2", got["work"].calls)
	}
}
