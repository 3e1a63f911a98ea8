// The benchmark harness: one sub-benchmark of BenchmarkExperiments per
// registered experiment, plus whole-suite benchmarks over the parallel
// Runner. Each per-experiment benchmark regenerates its table/figure
// through the Runner and prints the series once, so
//
//	go test -bench=. -benchmem
//
// reproduces every table and figure of the paper in one run (the same
// tables cmd/experiments prints).
package repro

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/modules"
)

var printOnce sync.Map

// BenchmarkExperiments runs every registered experiment serially at
// seed 1 as its own sub-benchmark, named by ID: select one with
// -bench 'Experiments/E3$'.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range exp.All() {
		b.Run(e.ID, func(b *testing.B) {
			runner := &exp.Runner{Workers: 1, Seed: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := runner.Run([]exp.Experiment{e})
				if res[0].Err != nil {
					b.Fatal(res[0].Err)
				}
				if _, printed := printOnce.LoadOrStore(e.ID, true); !printed {
					fmt.Printf("\n%s\n", res[0].Table)
				}
			}
		})
	}
}

// benchSuite runs every registered experiment through the Runner with
// the given worker count.
func benchSuite(b *testing.B, workers int) {
	runner := &exp.Runner{Workers: workers, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range runner.RunAll() {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

func BenchmarkAllExperimentsSerial(b *testing.B)   { benchSuite(b, 1) }
func BenchmarkAllExperimentsParallel(b *testing.B) { benchSuite(b, 0) }

// BenchmarkMultiChannelSweep is the multi-channel hammer hot path in
// isolation: a cross-bank campaign over a 4-channel 2-rank topology,
// channels sharded across GOMAXPROCS workers (serial variant below for
// the sharding speedup trajectory in BENCH_*.json).
func BenchmarkMultiChannelSweep(b *testing.B)       { benchMultiChannel(b, 0) }
func BenchmarkMultiChannelSweepSerial(b *testing.B) { benchMultiChannel(b, 1) }

func benchMultiChannel(b *testing.B, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pop := modules.Population(1)
	var m modules.Module
	for i := range pop {
		if pop[i].Year == 2013 && pop[i].Vulnerable() {
			m = pop[i].ScaleForSmallArray(100, 30, 2e-3)
			break
		}
	}
	g := dram.Geometry{Banks: 2, Rows: 128, Cols: 8}
	topo := dram.Topology{Channels: 4, Ranks: 2, Geom: g}
	victims := attack.EnumerateVictims(topo, 9, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mm := m
		s := core.Build(&mm, core.Options{Topology: topo})
		attack.CrossBankHammer(s.Mem, victims, 9000, workers)
		if s.TotalFlips() == 0 {
			b.Fatal("no flips; benchmark is vacuous")
		}
	}
}
