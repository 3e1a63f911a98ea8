// Package exp implements every experiment in the reproduction: one
// function per table/figure-shaped claim of the paper (see DESIGN.md's
// per-experiment index). Each experiment is deterministic given its
// seed and returns a printable stats.Table; cmd/experiments, the root
// benchmark harness, and EXPERIMENTS.md all consume the same
// functions.
package exp

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/stats"
)

// Experiment is one registered experiment.
type Experiment struct {
	// ID is the experiment identifier (E1..E84; retired numbers are
	// never reused).
	ID string
	// Num is the numeric part of ID, parsed once at registration so
	// sorting does not re-parse IDs (E2 < E10 requires numeric order).
	Num int
	// Title summarizes what is reproduced.
	Title string
	// Anchor cites the paper claim or figure being reproduced.
	Anchor string
	// Run executes the experiment in the given environment.
	Run func(env Env) *stats.Table
}

// Env is everything one experiment run receives. Tables depend on Seed
// alone; Shards is the fan-out of the run's sharded sweeps (channels,
// dies, fleet blocks, tournament groups), always positive.
type Env struct {
	Seed   uint64
	Shards int
}

// NewEnv returns the environment of a run at seed with the given shard
// fan-out; shards <= 0 means runtime.GOMAXPROCS.
func NewEnv(seed uint64, shards int) Env {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return Env{Seed: seed, Shards: shards}
}

var registry []Experiment

func register(id, title, anchor string, run func(Env) *stats.Table) {
	var num int
	if _, err := fmt.Sscanf(id, "E%d", &num); err != nil {
		panic(fmt.Sprintf("exp: experiment ID %q is not of the form E<num>: %v", id, err))
	}
	registry = append(registry, Experiment{ID: id, Num: num, Title: title, Anchor: anchor, Run: run})
}

// All returns every registered experiment in ID order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Num < out[j].Num })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
